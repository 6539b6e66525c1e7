"""gtkit: exact classical game analysis, replicator dynamics, quantum and
p-adic quantumization of 2x2 games, p-adic arithmetic, and a batch CLI.

The library and the CLI use the Python standard library alone.

Modules:
    games          exact-rational normal-form games, equilibria, dominance,
                   welfare, bargaining, congestion/potential machinery
    evolution      replicator dynamics on the simplex: RK4 trajectories,
                   rest points, ESS, Fisher rate identity, recurrence
    quantum        the entangled identity/bit-flip quantumization of 2x2
                   games, solved as an exact classical 2x2 game
    padic          fixed-precision p-adic numbers, quadratic extensions
                   Q_p(sqrt(mu)), p-adic probability distributions
    padic_quantum  p-adic Hilbert spaces, statistical operators, SOVM
                   measurement, p-adic quantumization of 2x2 games
    gamefile       the gt-game/1 JSON schema and the packaged scenarios
    cli            the `gt` command-line front end

The modules are package attributes loaded on first use (PEP 562):
`import gtkit` loads none of them, and `gtkit.quantum`, `from gtkit import
quantum` and `from gtkit import *` each load what they name. So a `gt`
subcommand loads only the modules it runs.
"""

import importlib

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


def __getattr__(name):
    # called only for a name not yet bound: importing a submodule binds it here
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
