"""Acceptance criteria: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gtkit import errors, evolution, gamefile, games, padic, padic_quantum, quantum
from gtkit.cli import main

F = Fraction


def report(num, ok, detail):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def bos():
    return gamefile.load_scenario("bos").game


def pd():
    return gamefile.load_scenario("pd").game


def matching_pennies():
    return gamefile.load_scenario("matching-pennies").game


# ---------------------------------------------------------------------------


def test_criterion_01_battle_of_the_sexes(tmp_path):
    t0 = time.perf_counter()
    g = bos()
    ne = games.pure_nash(g)
    mixed = games.mixed_ne_2x2(g)
    interior = [m for m, _ in mixed if all(0 < q < 1 for q in m[0])]
    code = main(["analyze", "--in", "bos", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0

    ok = ne == {(0, 0), (1, 1)} and code == 0 and len(interior) == 1
    sigma = interior[0]
    # Football probabilities: wife 2/5, husband 3/5 (strategy order O, F)
    ok = ok and sigma[0][1] == F(2, 5) and sigma[1][1] == F(3, 5)
    probs = {
        "both_football": sigma[0][1] * sigma[1][1],
        "both_opera": sigma[0][0] * sigma[1][0],
        "husband_football_wife_opera": sigma[0][0] * sigma[1][1],
        "husband_opera_wife_football": sigma[0][1] * sigma[1][0],
    }
    ok = ok and probs["both_football"] == F(6, 25)
    ok = ok and probs["both_opera"] == F(6, 25)
    ok = ok and probs["husband_football_wife_opera"] == F(9, 25)
    ok = ok and probs["husband_opera_wife_football"] == F(4, 25)
    ok = ok and elapsed < 1.0
    report(1, ok, f"BoS pure NE + exact mixed (2/5, 3/5), outcome probs 6/25, 6/25, 9/25, 4/25 "
                  f"({elapsed:.3f}s < 1s)")


def test_criterion_02_quantum_bos():
    t0 = time.perf_counter()
    g = bos()
    found = quantum.mw_nash_search(quantum.ClassicalForm(g, F(1, 2)), grid_n=100)
    payoffs = {pq: pay for pq, pay in found}
    ok = (0.0, 0.0) in payoffs and (1.0, 1.0) in payoffs
    for corner in ((0.0, 0.0), (1.0, 1.0)):
        ok = ok and abs(payoffs[corner][0] - 2.5) <= 1e-9
        ok = ok and abs(payoffs[corner][1] - 2.5) <= 1e-9
    best = max(pay[0] for pay in payoffs.values())
    ok = ok and abs(best - 2.5) <= 1e-9 and best > 6 / 5

    classical = quantum.ClassicalForm(g, 1)
    rows = "\n".join(quantum.payoff_surface_rows(classical, 100)).split("\n")[1:]
    ok = ok and len(rows) == 101 * 101
    worst = 0.0
    for k, row in enumerate(rows):
        _, _, pay1, pay2 = map(float, row.split(","))
        want = quantum.classical_product_payoffs(g, F(k // 101, 100), F(k % 101, 100))
        worst = max(worst, abs(pay1 - float(want[0])), abs(pay2 - float(want[1])))
    ok = ok and worst <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(2, ok, f"quantum BoS equilibrium payoffs (5/2, 5/2) > 6/5; classical limit matches "
                  f"game-core within {worst:.2e} on the full grid ({elapsed:.2f}s < 5s)")


def test_criterion_03_prisoners_dilemma():
    g = pd()
    ne = games.pure_nash(g)
    pareto = games.pareto_optimal_profiles(g)
    poa = games.price_of_anarchy(g)
    ok = ne == {(1, 1)} and (1, 1) not in pareto and poa == 3
    report(3, ok, "PD(5,3,1,0): unique NE (D,D), Pareto inferior, PoA = 3 exactly")


def test_criterion_04_replicator_rps():
    t0 = time.perf_counter()
    g = evolution.EvolutionGame([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
    rest = evolution.interior_rest_points(g)
    ok = len(rest.points) == 1 and rest.points[0].exact == (F(1, 3),) * 3

    traj = evolution.integrate(g, [F(1, 2), F(1, 4), F(1, 4)], t_end=200.0, h=1e-3)
    steps = len(traj) - 1
    avg = evolution.time_average(traj)
    states = np.frombuffer(traj.values).reshape(len(traj), traj.n)
    drift = float(np.max(np.abs(states.sum(axis=1) - 1.0)))
    avg_err = float(np.max(np.abs(np.asarray(avg) - 1.0 / 3.0)))
    elapsed = time.perf_counter() - t0
    ok = ok and steps == 200_000 and avg_err < 1e-2 and drift <= 1e-10 and elapsed < 10.0
    report(4, ok, f"RPS rest point exact, time average within {avg_err:.2e} of centroid, "
                  f"sum drift {drift:.2e} over {steps} RK4 steps ({elapsed:.2f}s < 10s)")


FOLK_BATTERY = [
    [[0, -1, 1], [1, 0, -1], [-1, 1, 0]],
    [[2, 2], [1, 1]],
    [[-1, 2], [0, 1]],
    [[1, 0], [0, 1]],
    [[3, 0], [5, 1]],
    [[0, 2], [2, 0]],
    [[1, 1], [1, 1]],
    [[0, -2, 1], [1, 0, -2], [-2, 1, 0]],
    [[2, 0, 0], [0, 3, 0], [0, 0, 4]],
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    [[1, 2, 3], [3, 1, 2], [2, 3, 1]],
    [[0, 3, -1], [-2, 0, 2], [1, -1, 0]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, 1, -1, 2], [1, 0, 1, -1], [-1, 1, 0, 1], [2, -1, 1, 0]],
    [[2, 1, 0, 1], [1, 2, 1, 0], [0, 1, 2, 1], [1, 0, 1, 2]],
    [[0, -1, 1, -1], [1, 0, -1, 1], [-1, 1, 0, -1], [1, -1, 1, 0]],
    [[4, 1], [3, 3]],
    [[-2, 3], [1, -1]],
    [[1, 5, 0], [0, 1, 5], [5, 0, 1]],
    [[3, -1, 2, 0], [0, 3, -1, 2], [2, 0, 3, -1], [-1, 2, 0, 3]],
]


def test_criterion_05_folk_theorem_audit():
    assert len(FOLK_BATTERY) == 20
    violations = []
    for idx, matrix in enumerate(FOLK_BATTERY):
        g = evolution.EvolutionGame(matrix)
        reports, _ = evolution.rest_point_reports(g)
        candidates = [rep.point for rep in reports]
        candidates.append(evolution.SimplexState([F(1, g.n)] * g.n))
        for state in candidates:
            if evolution.is_nash_state(g, state):
                residual = float(np.max(np.abs(evolution.replicator_rhs(g, state))))
                if residual > 1e-9:
                    violations.append((idx, "nash-not-rest", residual))
        interior = evolution.interior_rest_points(g)
        for state in interior.points:
            if not evolution.is_nash_state(g, state):
                violations.append((idx, "interior-rest-not-nash", state.exact))
    ok = not violations
    report(5, ok, f"Folk audit over 20 matrices (2<=n<=4): {len(violations)} violations")


def test_criterion_06_fisher_rate_identity():
    worst = 0.0
    count = 0
    for k in range(50):
        n = 2 + (k % 3)
        den = 1 + (k % 4)
        rows = [
            [F(((i + 1) * (j + 1) * (k + 3)) % 11 - 5, den) for j in range(n)]
            for i in range(n)
        ]
        g = evolution.EvolutionGame(rows)
        weights = [F(1 + ((k + j) % 5), 1) for j in range(n)]
        total = sum(weights)
        state = evolution.SimplexState([w / total for w in weights])
        worst = max(worst, evolution.fisher_rate_check(g, state))
        count += 1
    ok = count == 50 and worst <= 1e-10
    report(6, ok, f"Fisher rate identity on 50 symmetric rational matrices/states: "
                  f"max residual {worst:.2e} <= 1e-10")


def test_criterion_07_congestion_and_cycles():
    two_link = games.CongestionGame(
        ("link1", "link2"), ((1, 2), (1, 2)), (((0,), (1,)), ((0,), (1,)))
    )
    three_res = games.CongestionGame(
        ("a", "b", "c"),
        ((1, 3, 6), (2, 4, 7), (1, 5, 9)),
        (((0,), (1, 2)), ((0, 2), (1,)), ((2,), (0, 1))),
    )
    ok = True
    for cg in (two_link, three_res):
        g = games.congestion_to_strategic(cg)
        phi = {s: -games.rosenthal_potential(cg, s) for s in g.profiles()}
        ok = ok and games.check_potential(g, phi)
        n_profiles = math.prod(g.shape)
        for start in g.profiles():
            res = games.best_response_dynamics(g, start, max_steps=n_profiles)
            ok = ok and not isinstance(res, games.CycleReport)
            ok = ok and res.steps <= n_profiles
    mp = matching_pennies()
    cyc = games.best_response_dynamics(mp, (0, 0))
    ok = ok and isinstance(cyc, games.CycleReport) and len(cyc.cycle) == 4
    report(7, ok, "Rosenthal potential exact on 2-link and 3-resource games, BRD converges "
                  "within |profiles| steps from every start, Matching Pennies cycles")


def test_criterion_08_padic_arithmetic():
    ok = True
    for n in (5, 8, 32):
        x = padic.padic_from_rational(-1, 1, 3, n)
        ok = ok and x.digits == (2,) * n and x.valuation == 0
    ok = ok and padic.norm(padic.padic_from_rational(49, 1, 7, 8)) == F(1, 49)
    d = padic.distance(
        padic.padic_from_rational(1, 1, 7, 8), padic.padic_from_rational(2, 1, 7, 8)
    )
    ok = ok and d == 1

    violations = 0
    pair_count = triple_count = 0
    for p in (2, 3, 5, 7, 11):
        pairs = 0
        for i in range(100):
            x = F(i - 50, 1 + (i % 7))
            for j in range(100):
                y = F(j - 50, 1 + (j % 5))
                lhs = padic.rational_norm(x + y, p)
                a, b = padic.rational_norm(x, p), padic.rational_norm(y, p)
                if lhs > max(a, b):
                    violations += 1
                if a != b and lhs != max(a, b):
                    violations += 1
                pairs += 1
        pair_count += pairs
        triples = 0
        for i, j, k in itertools.product(range(22), repeat=3):
            if triples >= 10_000:
                break
            x = F(i - 10, 1 + (i % 3))
            y = F(j - 10, 1 + (j % 4))
            z = F(k - 10, 1 + (k % 5))
            sides = sorted(
                [
                    padic.rational_norm(x - y, p),
                    padic.rational_norm(y - z, p),
                    padic.rational_norm(x - z, p),
                ]
            )
            if sides[1] != sides[2]:
                violations += 1
            triples += 1
        triple_count += triples
    ok = ok and violations == 0 and pair_count == 50_000 and triple_count == 50_000
    ok = ok and padic.distribution_check([1, -5, -1, 6])
    report(8, ok, f"p-adic expansions/norms exact; ultrametric + isosceles on "
                  f"{pair_count} pairs and {triple_count} triples: {violations} violations; "
                  f"{{1,-5,-1,6}} is a p-adic distribution")


def test_criterion_09_precision_law():
    p = 7
    acc = padic.padic_from_rational(1, 1, p, 5)
    ok = acc.absolute_precision == 5
    for step in range(1000):
        bump = 2 if acc.unit % p == p - 1 else 1
        acc = padic.add(acc, padic.padic_from_rational(bump, 1, p, 3))
        if acc.absolute_precision != 3:
            ok = False
            break
    report(9, ok, "1000 chained additions at absolute precisions (5, 3): result precision "
                  "exactly 3 at every step, independent of chain length")


def test_criterion_10_padic_quantum():
    P, MU, N = 7, -1, 20
    one = padic.padic_from_rational(1, 1, P, N)
    ok = True
    count = 0
    for k in range(100):
        a = F(k - 50, 9)
        c, d_ = F((k % 6) - 2, 3), F(k % 4, 5)
        rho = padic_quantum.StatisticalOperator.from_rationals(
            [[a, (c, d_)], [(c, -d_), 1 - a]], P, MU, N
        )
        m = F((k % 8) - 3, 4)
        e, f_ = F((k % 5) - 2, 2), F((k % 7) - 3, 6)
        m1 = padic_quantum.PAdicOperator.from_rationals(
            [[m, (e, f_)], [(e, -f_), F(k % 3, 2)]], P, MU, N
        )
        m2 = padic_quantum.PAdicOperator.identity(2, P, MU, N) - m1
        sovm = padic_quantum.SOVM([m1, m2])
        dist = padic_quantum.measurement_distribution(rho, sovm)
        if not (dist[0] + dist[1] - one).is_zero:
            ok = False
        count += 1
    # the non-classical diag(2, -1) case under the projective SOVM
    rho = padic_quantum.StatisticalOperator.from_rationals([[2, 0], [0, -1]], P, MU, N)
    proj = padic_quantum.SOVM(
        [
            padic_quantum.PAdicOperator.from_rationals([[1, 0], [0, 0]], P, MU, N),
            padic_quantum.PAdicOperator.from_rationals([[0, 0], [0, 1]], P, MU, N),
        ]
    )
    dist = padic_quantum.measurement_distribution(rho, proj)
    two, minus_one = (padic.padic_from_rational(v, 1, P, N) for v in (2, -1))
    ok = ok and dist == (two, minus_one) and (dist[0] + dist[1] - one).is_zero and count == 100

    g = bos()
    # alpha = beta = sqrt(1/2) in Q_7: the weight 1/2; alpha = 1: the weight 1
    res = padic_quantum.padic_quantumize_2x2(quantum.ClassicalForm(g, F(1, 2)), P, F(1), F(1))
    ok = ok and (res.payoffs[0].value, res.payoffs[1].value) == (F(5, 2), F(5, 2))
    classical = padic_quantum.padic_quantumize_2x2(quantum.ClassicalForm(g, 1), P, F(1), F(1))
    ok = ok and (classical.payoffs[0].value, classical.payoffs[1].value) == (F(3), F(2))

    space = padic_quantum.PAdicHilbertSpace(2, 3, -1, padic_quantum.BILINEAR)
    v = padic_quantum.PAdicVector.from_rationals([1, (0, 1)], 3, -1, N)
    ok = ok and padic_quantum.is_isotropic(v, space)
    report(10, ok, "100 deterministic (rho, SOVM) pairs sum to 1 in Q_7 at precision "
                   "(incl. diag(2,-1), measured as the 7-adic 2 and -1); "
                   "BoS payoffs exact (5/2, 5/2) entangled and (3, 2) classical in Q_7; "
                   "isotropic vector exhibited for p=3, mu=-1 (bilinear)")


def test_criterion_11_cross_solver_consistency():
    ok = True
    for name in ("bos", "pd", "matching-pennies"):
        g = gamefile.load_scenario(name).game
        se = games.support_enumeration(g)
        mx = [m for m, _ in games.mixed_ne_2x2(g)]
        ok = ok and se == mx
        for sigma in se:
            ok = ok and games.is_epsilon_nash(g, sigma, 0)
    report(11, ok, "support enumeration equals mixed_ne_2x2 on every 2x2 scenario; "
                   "all equilibria pass is_epsilon_nash at epsilon = 0")
