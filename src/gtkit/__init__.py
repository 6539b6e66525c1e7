"""gtkit: exact classical game analysis, replicator dynamics, quantum and
p-adic quantumization of 2x2 games, p-adic arithmetic, and a batch CLI.

Modules:
    games          exact-rational normal-form games, equilibria, dominance,
                   welfare, bargaining, congestion/potential machinery
    evolution      replicator dynamics on the simplex: RK4 trajectories,
                   rest points, ESS, Fisher rate identity, recurrence
    quantum        two-qubit states and the entangled identity/bit-flip
                   quantumization as an exact classical 2x2 game
    padic          fixed-precision p-adic numbers, quadratic extensions
                   Q_p(sqrt(mu)), p-adic probability distributions
    padic_quantum  p-adic Hilbert spaces, statistical operators, SOVM
                   measurement, p-adic quantumization of 2x2 games
    gamefile       the gt-game/1 JSON schema and the packaged scenarios
    cli            the `gt` command-line front end
"""

from . import errors, evolution, gamefile, games, padic, padic_quantum, quantum

__version__ = "0.1.0"

__all__ = [
    "errors",
    "evolution",
    "gamefile",
    "games",
    "padic",
    "padic_quantum",
    "quantum",
    "__version__",
]
