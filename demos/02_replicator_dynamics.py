#!/usr/bin/env python3
"""Replicator dynamics walkthrough: vector field, RK4 trajectories, rest
points, evolutionary stability, ergodic time averages and recurrence.
"""

from fractions import Fraction

from gtkit import evolution as ev

F = Fraction


def header(title):
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


header("Rock-Paper-Scissors: closed orbits around the centroid")
rps = ev.EvolutionGame([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
centroid = ev.SimplexState([F(1, 3)] * 3)
print("fitness at the centroid:", ev.fitness(rps, centroid))
print("replicator field at the centroid:", ev.replicator_rhs(rps, centroid), "(rest point)")

rest = ev.interior_rest_points(rps)
print("interior rest point (exact solve):", [str(q) for q in rest.points[0].exact])
print("is it a Nash state?", ev.is_nash_state(rps, rest.points[0]))
print("is it an ESS?", ev.is_ess(rps, rest.points[0]),
      "(every alternative reply earns exactly the average: neutral, not stable)")

traj = ev.integrate(rps, [F(1, 2), F(1, 4), F(1, 4)], t_end=100.0, h=1e-3)
avg = ev.time_average(traj)
print(f"time average over T=100 from (1/2,1/4,1/4): {[round(v, 4) for v in avg]}")
print("   (the ergodic average approaches the interior equilibrium)")
rec = ev.detect_recurrence(traj)
print(f"recurrence classification: {rec.kind}, period estimate {rec.period:.2f}")
print("max |sum(p)-1| along the trajectory:",
      max(abs(sum(p) - 1.0) for p in traj.rows()))

header("Dominance: the inferior strategy goes extinct")
dom = ev.EvolutionGame([[2, 2], [1, 1]])
traj = ev.integrate(dom, [F(1, 2), F(1, 2)], t_end=30.0, h=1e-2)
print("p(0)  =", traj.row(0))
print("p(30) =", [round(v, 6) for v in traj.final])
print("classification:", ev.detect_recurrence(traj).kind)
for rep in ev.rest_point_reports(dom)[0]:
    print(f"rest point {[str(q) for q in rep.point.exact]}: {rep.classification}, "
          f"nash={rep.is_nash}, transversal={rep.transversal_eigenvalues}")
print("   (the positive transversal eigenvalue marks the non-Nash vertex)")

header("Hawk-Dove: a mixed evolutionarily stable state")
hd = ev.EvolutionGame([[-1, 2], [0, 1]])  # V=2, C=4
mixed = ev.SimplexState([F(1, 2), F(1, 2)])
print("Nash state at (1/2, 1/2)?", ev.is_nash_state(hd, mixed))
rep = ev.ess_check(hd, mixed)
print(f"ESS verdict: {rep.is_ess} (method: {rep.method})")

header("Fisher's rate identity (symmetric games)")
sym = ev.EvolutionGame([[1, 0], [0, 2]])
state = ev.SimplexState([F(2, 5), F(3, 5)])
print("identity residual |d(mean)/dt - 2 sum p h^2| =",
      ev.fisher_rate_check(sym, state))
traj = ev.integrate(sym, state, t_end=10.0, h=1e-2)
means = [ev.mean_fitness(sym, s) for s in traj.rows()]
print("mean fitness is non-decreasing along trajectories:",
      all(b - a >= -1e-12 for a, b in zip(means, means[1:])))

header("Trajectory export")
print("\n".join(ev.integrate(rps, centroid, t_end=0.002, h=1e-3).csv_rows(["R", "P", "S"])))
