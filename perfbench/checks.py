"""Outside-in output checks: each reads a job's report files and its inputs.

`check(job, outdir)` returns (errors, info). An empty error list means the
job's outputs are correct. Every decision is made over exact rationals from
the game files the benchmark wrote, never by calling gtkit.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# games read from gt-game/1 files


def load_strategic(path):
    """(strategy names, {profile: payoff tuple}) of a strategic or congestion file."""
    doc = _read_json(path)
    if doc["kind"] == "congestion":
        costs = [[Fraction(c) for c in r["costs"]] for r in doc["resources"]]
        strategies = [[tuple(s) for s in per] for per in doc["strategies"]]
        names = [["+".join(doc["resources"][j]["name"] for j in s) for s in per]
                 for per in strategies]
        table = {}
        for profile in itertools.product(*(range(len(per)) for per in strategies)):
            load = [0] * len(costs)
            for player, s in enumerate(profile):
                for j in strategies[player][s]:
                    load[j] += 1
            table[profile] = tuple(
                -sum((costs[j][load[j] - 1] for j in strategies[player][s]), Fraction(0))
                for player, s in enumerate(profile)
            )
        return names, table
    names = doc["strategies"]
    table = {}

    def walk(node, prefix):
        if len(prefix) == len(names):
            table[tuple(prefix)] = tuple(Fraction(v) for v in node)
            return
        for s, child in enumerate(node):
            walk(child, prefix + [s])

    walk(doc["payoffs"], [])
    return names, table


def load_matrix(path):
    return [[Fraction(v) for v in row] for row in _read_json(path)["matrix"]]


def brute_force_pure_nash(names, table):
    shape = [len(s) for s in names]
    out = set()
    for profile, pay in table.items():
        if all(
            table[profile[:i] + (d,) + profile[i + 1:]][i] <= pay[i]
            for i in range(len(shape))
            for d in range(shape[i])
        ):
            out.add(profile)
    return out


def _expected(table, mixed, player):
    total = Fraction(0)
    for profile, pay in table.items():
        w = Fraction(1)
        for i, s in enumerate(profile):
            w *= mixed[i][s]
            if not w:
                break
        total += w * pay[player]
    return total


def equilibrium_errors(table, mixed):
    """Why `mixed` is not an exact Nash equilibrium of the bimatrix `table` (empty if it is)."""
    errs = []
    for vec in mixed:
        if any(q < 0 for q in vec) or sum(vec) != 1:
            errs.append(f"{[str(q) for q in vec]} is not a distribution")
            return errs
    for player in range(len(mixed)):
        value = _expected(table, mixed, player)
        for s in range(len(mixed[player])):
            pure = [Fraction(int(k == s)) for k in range(len(mixed[player]))]
            dev = list(mixed)
            dev[player] = pure
            if _expected(table, dev, player) > value:
                errs.append(f"player {player + 1} gains by deviating to strategy {s}")
    return errs


# ---------------------------------------------------------------------------
# per-command checks


def _check_analyze(job, outdir):
    report = _read_json(os.path.join(outdir, "analyze.json"))
    names, table = load_strategic(job.check["game_file"])
    errs = []
    index = [{label: k for k, label in enumerate(per)} for per in names]
    reported = {tuple(index[i][label] for i, label in enumerate(row))
                for row in report["pure_nash"]}
    if reported != brute_force_pure_nash(names, table):
        errs.append("pure_nash differs from brute-force enumeration")
    equilibria = [row["profile"] for row in report["mixed_ne_2x2"] or ()]
    support = report["support_enumeration"]
    equilibria += support.get("equilibria", [])
    for sigma in equilibria:
        mixed = [[Fraction(q) for q in vec] for vec in sigma]
        errs += [f"equilibrium {sigma}: {e}" for e in equilibrium_errors(table, mixed)]
    if not report["epsilon_check"]["all_pass"]:
        errs.append("epsilon_check reports a failure")
    return errs, ({} if "skipped" in support else {"degenerate": "degenerate" in support})


def _check_trajectory_csv(job, outdir):
    errs = []
    rows = 0
    with open(os.path.join(outdir, "trajectory.csv"), "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            probs = [float(v) for v in line.split(",")[1:]]
            if (len(probs) != job.check["n"] or min(probs) < 0
                    or abs(math.fsum(probs) - 1) > 1e-12) and not errs:
                errs.append(f"trajectory row {rows} is off the simplex: {line.rstrip()}")
            rows += 1
    if rows != job.check["steps"] + 1:
        errs.append(f"{rows} trajectory rows, expected {job.check['steps'] + 1}")
    return errs


def _check_evolve(job, outdir):
    errs = _check_trajectory_csv(job, outdir)
    report = _read_json(os.path.join(outdir, "evolve.json"))
    if report["samples"] != job.check["steps"] + 1:
        errs.append(f"evolve.json reports {report['samples']} samples")
    if job.check["kind"] != "stability":
        return errs, {}

    matrix = load_matrix(job.check["game_file"])
    n = len(matrix)
    expected = {tuple(Fraction(q) for q in e["point"]): e["is_ess"] for e in job.check["nash"]}
    found = {}
    for rest in report["rest_points"]:
        point = tuple(Fraction(q) for q in rest["point"])
        u = [sum(matrix[i][j] * point[j] for j in range(n)) for i in range(n)]
        mean = sum(point[i] * u[i] for i in range(n))
        if (max(u) <= mean) != rest["is_nash"]:
            errs.append(f"rest point {rest['point']}: is_nash={rest['is_nash']} is wrong")
        if rest["is_nash"]:
            found[point] = rest.get("ess", {}).get("is_ess")
    if set(found) != set(expected):
        errs.append(f"{len(found)} Nash rest points, expected {len(expected)}")
    for point, is_ess in expected.items():
        if point in found and found[point] != is_ess:
            errs.append(f"Nash state {[str(q) for q in point]}: is_ess={found[point]}, "
                        f"expected {is_ess}")
    return errs, {}


def _check_quantum_padic(job, outdir):
    names, table = load_strategic(job.check["game_file"])
    alpha = job.check["alpha"]
    a2 = Fraction(1, 2) if alpha == "max" else Fraction(alpha) ** 2
    b2 = 1 - a2
    order = [(0, 0), (0, 1), (1, 0), (1, 1)]
    grid = job.check["grid"]
    errs = []
    rows = 0
    with open(os.path.join(outdir, "surface.csv"), "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            k, rows = rows, rows + 1
            if errs:
                continue
            p, q, pay1, pay2 = (Fraction(v) for v in line.split(","))
            if (p, q) != (Fraction(k // (grid + 1), grid), Fraction(k % (grid + 1), grid)):
                errs.append(f"surface row {k} is at ({p}, {q}), off the grid order")
                continue
            d = (p * q * a2 + (1 - p) * (1 - q) * b2,
                 p * (1 - q) * a2 + (1 - p) * q * b2,
                 (1 - p) * q * a2 + p * (1 - q) * b2,
                 (1 - p) * (1 - q) * a2 + p * q * b2)
            want = [sum(d[i] * table[order[i]][player] for i in range(4)) for player in (0, 1)]
            if [pay1, pay2] != want:
                errs.append(f"payoffs at ({p}, {q}) are {pay1}, {pay2}; closed form {want}")
    if rows != (grid + 1) ** 2:
        errs.append(f"{rows} surface rows, expected {(grid + 1) ** 2}")
    _read_json(os.path.join(outdir, "equilibria.json"))
    return errs, {}


def _check_quantum_complex(job, outdir):
    doc = _read_json(os.path.join(outdir, "equilibria.json"))
    errs = []
    best = doc["best_equilibrium_payoffs"]
    if any(abs(v - 2.5) > 1e-9 for v in best):
        errs.append(f"bos at maximal entanglement: best payoffs {best}, expected (5/2, 5/2)")
    with open(os.path.join(outdir, "surface.csv"), "r", encoding="utf-8") as fh:
        count = sum(1 for _ in fh) - 1
    if count != (job.check["grid"] + 1) ** 2:
        errs.append(f"{count} surface rows, expected {(job.check['grid'] + 1) ** 2}")
    return errs, {}


def _split_valuation(x, p):
    """(v, unit) with x = p^v * unit, p not dividing unit's numerator or denominator."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _parse_literal(literal):
    """(prime, valuation or None, digits) of a literal "v:d0.d1...@p^N"."""
    head, _, site = literal.partition("@")
    v_text, _, body = head.partition(":")
    prime = int(site.partition("^")[0])
    if v_text == "inf":
        return prime, None, []
    return prime, int(v_text), [int(d) for d in body.split(".")]


def _unit_residue(x, p, n):
    """The unit part of the nonzero rational x modulo p^n, and its valuation."""
    v, unit = _split_valuation(x, p)
    return v, unit.numerator * pow(unit.denominator, -1, p**n) % p**n


def _literal_errors(literal, x, p):
    """Why the p-adic literal does not expand the rational x (empty if it does)."""
    prime, v, digits = _parse_literal(literal)
    if prime != p:
        return [f"literal {literal} is over the wrong prime"]
    if x == 0 or v is None:
        return [] if x == 0 and v is None else [f"literal {literal} does not expand {x}"]
    want_v, residue = _unit_residue(x, p, len(digits))
    if v != want_v or sum(d * p**k for k, d in enumerate(digits)) != residue:
        return [f"literal {literal} does not expand {x}"]
    return []


def _sqrt_errors(res, r, p):
    """Why the reported square root of the rational r is wrong (empty if it is right)."""
    if not res["is_square"]:
        return ["not reported as a square"]
    _, v, digits = _parse_literal(res["literal"])
    want_v, residue = _unit_residue(r, p, len(digits))
    root = sum(d * p**k for k, d in enumerate(digits))
    if 2 * v != want_v or root * root % p ** len(digits) != residue:
        return [f"{res['literal']} is not a square root"]
    return []


def _check_padic(job, outdir):
    results = _read_json(os.path.join(outdir, "padic.json"))["results"]
    lines = job.check["expressions"]
    if [r["expr"] for r in results] != lines:
        return ["padic.json results do not match the expressions"], {}
    errs = []
    for res, line in zip(results, lines):
        tokens = line.split()
        op, operands = tokens[0], [Fraction(t) for t in tokens[1:tokens.index("@")]]
        p = int(tokens[-1].split("^")[0])
        if op == "expand":
            found = _literal_errors(res["literal"], operands[0], p)
            if _parse_literal(res["literal"])[2] != res["digits"]:
                found.append("digits differ from the literal")
        elif op == "sqrt":
            found = _sqrt_errors(res, operands[0], p)
        else:
            a, b = operands
            exact = {"add": a + b, "sub": a - b, "mul": a * b, "div": a / b}[op]
            found = _literal_errors(res["literal"], exact, p)
            if Fraction(res["rational"]) != exact:
                found.append(f"rational {res['rational']}, exact {exact}")
        errs += [f"{line}: {e}" for e in found]
    return errs, {}


CHECKS = {
    "analyze": _check_analyze,
    "trajectory": _check_evolve,
    "stability": _check_evolve,
    "quantum-padic": _check_quantum_padic,
    "quantum-complex": _check_quantum_complex,
    "padic": _check_padic,
}


def check(job, outdir):
    return CHECKS[job.check["kind"]](job, outdir)
