"""Seeded inputs for the four benchmark workloads.

Each workload function takes the seed and a directory, writes the generated
`gt-game/1` and expression files there, and returns a `Workload`: the fixed
job list of one round, and the input properties that gtkit branches on.
The program sees only the written files and the argv of each job; the job's
`check` entry carries what the outside-in output check needs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Pythagorean amplitudes a with 1 - a^2 a rational square, as the p-adic mode needs.
# Both give |alpha|^2 and |beta|^2 of the same height, so the job's cost does not
# depend on the seed.
PYTHAGOREAN_ALPHAS = ("3/5", "4/5")

QUANTUM_GRID = 28
COMPLEX_GRID = 400
PADIC_PRIME = 7
PADIC_PREC = 32


@dataclass
class Job:
    name: str
    argv: list  # gt argv without --out
    check: dict  # kind plus the data the output check needs


@dataclass
class Workload:
    jobs: list
    properties: dict = field(default_factory=dict)


def _frac(x):
    return str(Fraction(x))


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    return path


def _random_simplex(rng, n):
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _evolution_file(path, name, matrix):
    return _write_json(
        path,
        {
            "format": "gt-game/1",
            "kind": "evolution",
            "name": name,
            "matrix": [[_frac(v) for v in row] for row in matrix],
        },
    )


def _strategic_file(path, name, names, payoff):
    """Write a strategic game; `payoff(profile)` gives the payoff tuple."""

    def nested(prefix):
        depth = len(prefix)
        if depth == len(names):
            return [_frac(v) for v in payoff(tuple(prefix))]
        return [nested(prefix + [s]) for s in range(len(names[depth]))]

    return _write_json(
        path,
        {
            "format": "gt-game/1",
            "kind": "strategic",
            "name": name,
            "players": len(names),
            "strategies": names,
            "payoffs": nested([]),
        },
    )


# ---------------------------------------------------------------------------
# trajectory


TRAJECTORY_T_END = 20  # 2e4 RK4 steps at the default --h 1e-3


def trajectory(seed, directory):
    """rps plus seeded cyclic zero-sum games of 5 and 7 strategies, 2e4 RK4 steps each."""
    rng = random.Random(f"trajectory:{seed}")
    jobs = []
    steps = TRAJECTORY_T_END * 1000
    for n in (3, 5, 7):
        p0 = _random_simplex(rng, n)
        if n == 3:
            source, name = "rps", "rps"
        else:
            # Circulant and skew-symmetric: the uniform state is an interior Nash
            # state, so orbits stay interior and every seed does the same work.
            half = [rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(n // 2)]
            offsets = [0] + half + [-v for v in reversed(half)]
            matrix = [[offsets[(j - i) % n] for j in range(n)] for i in range(n)]
            name = f"zero-sum-{n}"
            source = _evolution_file(os.path.join(directory, f"{name}.json"), name, matrix)
        argv = ["evolve", "--in", source, "--p0", ",".join(_frac(q) for q in p0),
                "--t-end", str(TRAJECTORY_T_END)]
        jobs.append(Job(f"evolve:{name}", argv, {"kind": "trajectory", "steps": steps, "n": n}))
    return Workload(
        jobs,
        {
            "strategy_counts": [j.check["n"] for j in jobs],
            "rk4_steps_x_strategies": [steps * j.check["n"] for j in jobs],
        },
    )


# ---------------------------------------------------------------------------
# stability


def _designed_game(rng, family, n):
    """A seeded n-strategy evolution game whose Nash states and ESS verdicts are known.

    Every game is B + 1 c^T with random column shifts c, which change neither
    rest points, Nash states nor the ESS margin, then randomly relabelled.
    - coordination: B = diag(a), a > 0. The rest point of every face is a Nash
      state whose best-reply face is its support; only the vertices are ESS.
    - hawk-dove-dominated: a hawk-dove block B = -diag(d) on 3 strategies and
      n - 3 strategies paying -10 against everything. The block's interior
      point is the only Nash state, an ESS on a 3-strategy face.
    Returns (matrix, expected) with expected a list of (point, is_ess, face size).
    """
    if family == "coordination":
        a = [rng.randint(1, 9) for _ in range(n)]
        base = [[a[i] if i == j else 0 for j in range(n)] for i in range(n)]
        expected = []
        for mask in range(1, 2**n):
            support = [i for i in range(n) if mask >> i & 1]
            inv = sum(Fraction(1, a[i]) for i in support)
            point = [Fraction(1, a[i]) / inv if i in support else Fraction(0) for i in range(n)]
            expected.append((point, len(support) == 1, len(support)))
    elif family == "hawk-dove-dominated":
        block = 3
        d = [rng.randint(1, 9) for _ in range(block)]
        base = [
            [(-d[i] if i == j else 0) if i < block else -10 for j in range(n)] for i in range(n)
        ]
        inv = [Fraction(1, v) for v in d]
        expected = [([q / sum(inv) for q in inv] + [Fraction(0)] * (n - block), True, block)]
    else:
        raise ValueError(family)
    shift = [rng.randint(-3, 3) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)  # new index k holds old strategy perm[k]
    matrix = [[base[perm[i]][perm[j]] + shift[j] for j in range(n)] for i in range(n)]
    expected = [([pt[perm[k]] for k in range(n)], ess, face) for pt, ess, face in expected]
    return matrix, expected


STABILITY_FAMILIES = ("coordination", "hawk-dove-dominated")


def stability(seed, directory, scenario_dir, recorded_path):
    """A designed seeded game of 4-6 strategies at t_end 2, then american-values-10
    at t_end 20, h 0.01, twice.

    The percentiles are taken over each job's median time, so job_s.p50 is the
    mean of the short job and american-values-10, which dominates it; a short
    job alone would be too noisy a median. Running american-values-10 twice
    averages its time over two windows of the machine's drifting speed."""
    rng = random.Random(f"stability:{seed}")
    with open(recorded_path, "r", encoding="utf-8") as fh:
        recorded = json.load(fh)
    verdict_faces = [entry["face"] for entry in recorded["nash"]]

    family, n = rng.choice(STABILITY_FAMILIES), rng.randint(4, 6)
    matrix, expected = _designed_game(rng, family, n)
    name = f"{family}-{n}"
    path = _evolution_file(os.path.join(directory, f"{name}.json"), name, matrix)
    p0 = _random_simplex(rng, n)
    verdict_faces.extend(face for _, _, face in expected)
    american = Job(
        "evolve:american-values-10",
        ["evolve", "--in", "american-values-10", "--t-end", "20", "--h", "0.01"],
        {"kind": "stability", "steps": 2000, "nash": recorded["nash"], "n": 10,
         "game_file": os.path.join(scenario_dir, "american-values-10.json")})
    jobs = [
        Job(f"evolve:{name}",
            ["evolve", "--in", path, "--p0", ",".join(_frac(q) for q in p0),
             "--t-end", "2", "--h", "0.01"],
            {"kind": "stability", "steps": 200, "n": n, "game_file": path,
             "nash": [{"point": [_frac(q) for q in pt], "is_ess": ess, "face": face}
                      for pt, ess, face in expected]}),
        american,
        american,
    ]
    exact = sum(1 for f in verdict_faces if f <= 3)
    return Workload(
        jobs,
        {
            "strategy_counts": [j.check["n"] for j in jobs],
            "rk4_steps_x_strategies": [j.check["steps"] * j.check["n"] for j in jobs],
            "ess_verdicts": len(verdict_faces),
            "ess_exact_path_frac": exact / len(verdict_faces),
            "ess_grid_path_frac": 1 - exact / len(verdict_faces),
        },
    )


# ---------------------------------------------------------------------------
# batch


def _padic_expressions(rng, p, n, count):
    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 999))

    lines = []
    for k in range(count):
        op = ("expand", "add", "sub", "mul", "div", "sqrt")[k % 6]
        if op == "expand":
            lines.append(f"expand {rational()} @ {p}^{n}")
        elif op == "sqrt":
            lines.append(f"sqrt {rational() ** 2} @ {p}^{n}")
        else:
            lines.append(f"{op} {rational()} {rational()} @ {p}^{n}")
    return lines


BATCH_BIMATRIX = 96
BATCH_DEGENERATE = 12  # of the bimatrix games, about the share random small payoffs give
BATCH_THREE_PLAYER = 4
BATCH_PADIC_SITES = ((7, 32), (5, 32), (3, 256), (7, 256))
BATCH_PADIC_EXPRESSIONS = 30


def batch(seed, directory, scenario_dir):
    """Seeded 5x5 bimatrix and 12^3 three-player games, packaged scenarios, p-adic files.

    Payoffs are drawn from [-999, 999], where ties are rare, so a random game is
    almost never degenerate. BATCH_DEGENERATE games are made degenerate on
    purpose: their first two rows are equal, so support enumeration meets a
    solution continuum at its first pair of 2-supports and stops there. The
    share of early exits is then the same for every seed.
    """
    rng = random.Random(f"batch:{seed}")
    jobs = []
    names = [[f"r{i}" for i in range(5)], [f"c{j}" for j in range(5)]]
    for k in range(BATCH_BIMATRIX):
        table = {(i, j): (rng.randint(-999, 999), rng.randint(-999, 999))
                 for i in range(5) for j in range(5)}
        if k < BATCH_DEGENERATE:
            table.update({(1, j): table[(0, j)] for j in range(5)})
        path = _strategic_file(os.path.join(directory, f"bimatrix-{k:03d}.json"),
                               f"bimatrix-{k:03d}", names, table.__getitem__)
        jobs.append(Job(f"analyze:bimatrix-{k:03d}", ["analyze", "--in", path],
                        {"kind": "analyze", "game_file": path}))
    for k in range(BATCH_THREE_PLAYER):
        # 12^3, not larger: the cost of pareto_optimal_profiles grows with the square
        # of the profile count and varies with the seed, and would swamp the round.
        size = 12
        table = {profile: tuple(rng.randint(-999, 999) for _ in range(3))
                 for profile in itertools.product(range(size), repeat=3)}
        path = _strategic_file(os.path.join(directory, f"three-player-{k}.json"),
                               f"three-player-{k}", [[f"s{i}" for i in range(size)]] * 3,
                               table.__getitem__)
        jobs.append(Job(f"analyze:three-player-{k}", ["analyze", "--in", path],
                        {"kind": "analyze", "game_file": path}))
    for name in ("bos", "pd", "matching-pennies", "congestion-2link"):
        jobs.append(Job(f"analyze:{name}", ["analyze", "--in", name],
                        {"kind": "analyze",
                         "game_file": os.path.join(scenario_dir, f"{name}.json")}))
    for p, n in BATCH_PADIC_SITES:
        lines = _padic_expressions(rng, p, n, BATCH_PADIC_EXPRESSIONS)
        path = os.path.join(directory, f"padic-{p}-{n}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        jobs.append(Job(f"padic:{p}^{n}", ["padic", "--in", path],
                        {"kind": "padic", "expressions": lines}))
    return Workload(
        jobs,
        {
            "jobs": len(jobs),
            "game_shapes": {"5x5": BATCH_BIMATRIX, "12x12x12": BATCH_THREE_PLAYER,
                            "packaged": 4},
            "degenerate_by_construction": BATCH_DEGENERATE,
            "padic_sites": [f"{p}^{n}" for p, n in BATCH_PADIC_SITES],
            "padic_expressions": BATCH_PADIC_EXPRESSIONS * len(BATCH_PADIC_SITES),
        },
    )


# ---------------------------------------------------------------------------
# quantum


def quantum(seed, directory, scenario_dir):
    """p-adic grids on bos, pd, matching-pennies and bos at a seeded rational alpha,
    plus bos on a fine complex grid."""
    rng = random.Random(f"quantum:{seed}")
    alpha = rng.choice(PYTHAGOREAN_ALPHAS)
    jobs = []
    for name, a in (("bos", "max"), ("pd", "max"), ("matching-pennies", "max"), ("bos", alpha)):
        argv = ["quantumize", "--in", name, "--padic", "--grid", str(QUANTUM_GRID),
                "--p", str(PADIC_PRIME), "--prec", str(PADIC_PREC), "--alpha", a]
        jobs.append(Job(f"quantumize-padic:{name}@{a}", argv,
                        {"kind": "quantum-padic", "alpha": a, "grid": QUANTUM_GRID,
                         "game_file": os.path.join(scenario_dir, f"{name}.json")}))
    jobs.append(Job("quantumize-complex:bos@max",
                    ["quantumize", "--in", "bos", "--grid", str(COMPLEX_GRID)],
                    {"kind": "quantum-complex", "grid": COMPLEX_GRID}))
    return Workload(
        jobs,
        {
            "grid_points": [(j.check["grid"] + 1) ** 2 for j in jobs],
            "padic_prime": PADIC_PRIME,
            "padic_precision": PADIC_PREC,
            "alphas": [j.check.get("alpha", "max") for j in jobs],
        },
    )


def build(name, seed, directory, scenario_dir, recorded_dir):
    """Write the inputs of workload `name` for `seed` into `directory`."""
    os.makedirs(directory, exist_ok=True)
    if name == "trajectory":
        return trajectory(seed, directory)
    if name == "stability":
        return stability(seed, directory, scenario_dir,
                         os.path.join(recorded_dir, "american-values-10.json"))
    if name == "batch":
        return batch(seed, directory, scenario_dir)
    if name == "quantum":
        return quantum(seed, directory, scenario_dir)
    raise ValueError(f"unknown workload {name!r}")
