"""Outside-in tracing of gtkit's layers from the benchmark's own files.

`install` rebinds the module attributes that callers look up at call time
(including the `solve_exact` names bound inside `games` and `evolution`)
with wrappers. Coarse calls record one span each: name, start, end, parent
and the id of the job they ran in. Hot calls (p-adic `add`/`mul`/
`padic_from_rational`, `solve_exact`) keep only a call count and busy time.
Everything stays in memory until the run ends.

A span's self time is its duration minus the time covered by its child
spans and by the outermost hot calls made directly from it.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

JOB_SPAN = "cli.main"

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]


class Tracer:
    def __init__(self):
        # span: [job, name, start, end, parent index, time covered by children]
        self.spans = []
        self.hot = {}  # name -> [calls, busy seconds]
        self.counts = {}
        self.job = None
        self._stack = []
        self._hot_depth = 0
        self._originals = []

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.job, name, perf_counter(), None, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        end = perf_counter()
        span = self.spans[idx]
        span[3] = end
        self._stack.pop()
        if span[4] is not None:
            self.spans[span[4]][5] += end - span[2]

    def _span_wrapper(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx)
                if after is not None:
                    after(self, args, None, exc)
                raise
            self.close(idx)
            if after is not None:
                after(self, args, result, None)
            return result

        return wrapper

    def _hot_wrapper(self, name, fn, after):
        stat = self.hot.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._hot_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._hot_depth -= 1
                stat[0] += 1
                stat[1] += elapsed
                if self._hot_depth == 0 and self._stack:
                    self.spans[self._stack[-1]][5] += elapsed
            if after is not None:
                after(self, args, result, None)
            return result

        return wrapper

    def _rebind(self, owners, attr, wrapper):
        for owner in owners:
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self, gt):
        """Wrap gtkit's layer boundaries; `gt` maps module names to modules."""
        games, evolution, padic = gt["games"], gt["evolution"], gt["padic"]

        def degenerate(tracer, args, result, exc):
            if exc is not None and type(exc).__name__ == "DegenerateGame":
                tracer.count("games.support_enumeration.degenerate")

        def steps(tracer, args, result, exc):
            if result is not None:
                tracer.count("evolution.integrate.steps", len(result) - 1)

        def faces(tracer, args, result, exc):
            tracer.count("evolution.rest_point_reports.faces", 2 ** args[0].n - 1)

        def sampled(tracer, args, result, exc):
            if result is not None and result.method.startswith("sampled"):
                tracer.count("evolution.ess_check.sampled")

        def grid_points(tracer, args, result, exc):
            grid = args[1] if len(args) > 1 else 100
            tracer.count("quantum.grid_points", (grid + 1) ** 2)

        def unique(tracer, args, result, exc):
            if result[0] == "unique":
                tracer.count("linsolve.solve_exact.unique")

        coarse = [
            (gt["gamefile"], "resolve_input", None),
            (games, "support_enumeration", degenerate),
            (games, "pure_nash", None),
            (games, "iterated_elimination", None),
            (games, "pareto_optimal_profiles", None),
            (games, "best_response_dynamics", None),
            (games, "mixed_ne_2x2", None),
            (evolution, "integrate", steps),
            (evolution.Trajectory, "csv_rows", None),
            (evolution, "time_average", None),
            (evolution, "detect_recurrence", None),
            (evolution, "rest_point_reports", faces),
            (evolution, "ess_check", sampled),
            (gt["quantum"], "mw_nash_search", grid_points),
            (gt["quantum"], "payoff_surface_rows", None),
            (gt["padic_quantum"], "padic_quantumize_2x2", None),
            (padic, "hensel_sqrt", None),
            (padic, "format_padic", None),
        ]
        for owner, attr, after in coarse:
            prefix = "evolution.Trajectory" if owner is evolution.Trajectory else owner.__name__
            name = f"{prefix.removeprefix('gtkit.')}.{attr}"
            self._rebind([owner], attr, self._span_wrapper(name, getattr(owner, attr), after))

        hot = [
            ("padic.add", [padic], "add", None),
            ("padic.mul", [padic], "mul", None),
            ("padic.padic_from_rational", [padic, gt["padic_quantum"]], "padic_from_rational",
             None),
            ("linsolve.solve_exact", [gt["_linsolve"], games, evolution], "solve_exact", unique),
        ]
        for name, owners, attr, after in hot:
            self._rebind(owners, attr, self._hot_wrapper(name, getattr(owners[0], attr), after))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- results -----------------------------------------------------------

    def table(self):
        """{name: [calls, busy_s, self_s]} over spans; hot calls have no self time."""
        out = {}
        for _, name, start, end, _, covered in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        for name, (calls, busy) in self.hot.items():
            out[name] = [calls, busy, None]
        return out

    def per_layer(self, rounds, bytes_out, jobs_per_s_untraced, jobs_per_s_traced):
        """Every PER_LAYER metric; sums are per round of the workload's job list."""
        table = self.table()

        def row(stem):
            return table.get(stem, [0, 0.0, 0.0])

        def share(counter, stem):
            calls = row(stem)[0]
            return self.counts.get(counter, 0) / calls if calls else 0.0

        values = {
            "cli.self_s": row(JOB_SPAN)[2] / rounds,
            "cli.bytes_out": bytes_out / rounds,
            "linsolve.solve_exact.unique_frac": share(
                "linsolve.solve_exact.unique", "linsolve.solve_exact"),
            "evolution.ess_check.sampled_frac": share(
                "evolution.ess_check.sampled", "evolution.ess_check"),
            "trace.jobs_per_s_untraced": jobs_per_s_untraced,
            "trace.jobs_per_s_traced": jobs_per_s_traced,
            "trace.overhead_frac": jobs_per_s_untraced / jobs_per_s_traced - 1,
        }
        for name, _ in PER_LAYER:
            if name in values:
                continue
            stem, _, field = name.rpartition(".")
            if field == "busy_s":
                values[name] = row(stem)[1] / rounds
            elif field == "calls":
                values[name] = row(stem)[0] / rounds
            else:
                values[name] = self.counts.get(name, 0) / rounds
        return values

    def dump(self):
        return {"spans": self.spans, "hot": self.hot, "counts": self.counts}
