"""Batch command-line front end: `gt analyze|evolve|quantumize|padic`.

Reads gt-game/1 files (or packaged scenario names) and writes deterministic
JSON/CSV reports: ordered keys, rationals as strings, floats at 17
significant digits.  Exit codes: 0 success, 2 parse error, 3 validation
error, 4 size limit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import operator
import os
import sys
from fractions import Fraction

import gtkit

from . import errors, gamefile, games

# evolution, quantum, padic and padic_quantum are reached as attributes of the
# package, which loads each on first use: a subcommand loads only what it runs

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SIZE = 4
WRITE_CHUNK = 4096  # encoder chunks per write in _write_json


# ---------------------------------------------------------------------------
# serialization helpers


def _frac(x):
    return str(Fraction(x))


@contextlib.contextmanager
def _writing(path):
    """An OSError on an output path becomes a validation error that names the path."""
    try:
        yield
    except OSError as exc:
        raise errors.InvalidArgument(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path, obj):
    """Write obj as the text of json.dumps(obj, sort_keys=True, indent=2,
    default=float) and a newline, WRITE_CHUNK encoder chunks per write, so a
    large report is never held whole as text (with an indent, dumps joins the
    chunks of this same encoder)."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2, default=float).iterencode(obj)
    with _writing(path), open(path, "w", encoding="utf-8") as fh:
        while chunk := "".join(itertools.islice(chunks, WRITE_CHUNK)):
            fh.write(chunk)
        fh.write("\n")
    return path


@contextlib.contextmanager
def _staged(out, name):
    """Yield a text file for out/name, made with out when that is missing, and
    os.replace it onto out/name when the block ends.  On any error the file is
    removed, with each directory this call made, so an existing out/name stays
    untouched and a refused run leaves no trace.  OSErrors name out or
    out/name, as `_outdir` and the writers do."""
    path = os.path.join(out, name)
    part = os.path.join(out, f".{name}.part")
    made = []
    parent = os.path.abspath(out)
    while not os.path.lexists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    try:
        with _writing(out):
            os.makedirs(out, exist_ok=True)
        with _writing(path):
            with open(part, "w", encoding="utf-8") as fh:
                yield fh
            os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        for directory in made:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise


def _outdir(args):
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    return args.out


def _positive_real(text):
    """argparse type: a finite number > 0 (NaN and infinities are refused)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _mixed_to_json(mixed):
    return [[_frac(q) for q in vec] for vec in mixed]


def _profile_labels(game, profile):
    return list(game.labels(profile))


# ---------------------------------------------------------------------------
# scenario conversion


def _to_strategic(scn):
    """StrategicGame view of any scenario kind, plus congestion extras."""
    if scn.kind == "strategic":
        return scn.game, None
    if scn.kind == "evolution":
        g = scn.game
        names = tuple(scn.metadata.get("strategy_names") or (f"s{i + 1}" for i in range(g.n)))
        t = g.table
        cells = {(i, j): (t[i][j], t[j][i]) for i in range(g.n) for j in range(g.n)}
        return games.StrategicGame._checked((names, names), g.scale, cells), None
    if scn.kind == "congestion":
        return games.congestion_to_strategic(scn.game), scn.game
    raise errors.InvalidArgument(f"unknown scenario kind {scn.kind!r}")


def _to_evolution(scn):
    if scn.kind == "evolution":
        return scn.game
    if scn.kind == "strategic":
        g = scn.game
        if g.n_players != 2 or g.shape[0] != g.shape[1]:
            raise errors.InvalidArgument("evolve needs a square symmetric-role game")
        n, t = g.shape[0], g._table  # both players' payoffs in ints over one D
        if any(t[i, j][1] != t[j, i][0] for i in range(n) for j in range(n)):
            raise errors.InvalidArgument("evolve needs symmetric roles: u2(i,j) must equal u1(j,i)")
        return gtkit.evolution.EvolutionGame._checked(
            g._scale, [[t[i, j][0] for j in range(n)] for i in range(n)])
    raise errors.InvalidArgument(f"cannot evolve a {scn.kind!r} scenario")


# ---------------------------------------------------------------------------
# analyze


def _analyze_equilibria(game, eps):
    """Equilibrium sections plus the epsilon verification of everything found."""
    report = {}
    found = []
    if game.n_players == 2 and game.shape == (2, 2):
        rows = []
        for sigma, pay in games.mixed_ne_2x2(game):
            rows.append({"profile": _mixed_to_json(sigma), "payoffs": [_frac(v) for v in pay]})
            found.append(sigma)
        report["mixed_ne_2x2"] = rows
    else:
        report["mixed_ne_2x2"] = None
    try:
        eqs = games.support_enumeration(game)
    except (errors.UnsupportedShape, errors.SizeLimit):
        report["support_enumeration"] = {
            "skipped": "support enumeration runs on 2-player games with at most 5 strategies"
        }
    except errors.DegenerateGame as exc:
        report["support_enumeration"] = {"degenerate": str(exc)}
    else:
        report["support_enumeration"] = {"equilibria": [_mixed_to_json(sigma) for sigma in eqs]}
        found.extend(eqs)
    all_pass = all(games.is_epsilon_nash(game, sigma, eps) for sigma in found)
    report["epsilon_check"] = {
        "epsilon": _frac(eps),
        "equilibria_checked": len(found),
        "all_pass": bool(all_pass),
    }
    return report


def _congestion_section(cg, game):
    """The Rosenthal potential, an exact potential of the costs (Rosenthal 1973),
    and the end and length of every best-response path.  A strict improvement
    lowers the potential, so in ascending potential each successor is settled.
    The potential is summed and sorted in ints over cg.scale."""
    phi = {s: games.integer_potential(cg, s) for s in game.profiles()}
    labels = {s: _profile_labels(game, s) for s in phi}
    ends = {}
    for s in sorted(phi, key=phi.__getitem__):
        nxt = games.best_response_step(game, s)
        ends[s] = (s, 0) if nxt is None else (ends[nxt][0], ends[nxt][1] + 1)
    return {
        "rosenthal_potential": {
            "/".join(labels[s]): str(Fraction(v, cg.scale)) for s, v in phi.items()
        },
        "best_response_dynamics": [
            {"start": labels[s], "equilibrium": labels[ends[s][0]], "steps": ends[s][1]}
            for s in phi
        ],
    }


def cmd_analyze(args):
    eps = gamefile.parse_rational(args.epsilon, "--epsilon")
    if eps < 0:
        raise errors.InvalidArgument("--epsilon must be non-negative")
    scn = gamefile.resolve_input(args.infile)
    game, cg = _to_strategic(scn)
    gamefile.check_profile_count(game.shape, scn.name)

    ne = sorted(games.pure_nash(game))
    elim = games.iterated_elimination(game)
    pareto = sorted(games.pareto_optimal_profiles(game))
    opt_profiles, welfare = games.social_optimum(game)
    try:
        poa = {"value": _frac(games.anarchy_ratio(game, ne, welfare)), "note": None}
    except errors.NoEquilibrium:
        poa = {"value": None, "note": "no pure Nash equilibrium"}
    except errors.UndefinedRatio as exc:
        poa = {"value": None, "note": str(exc)}

    report = {
        "command": "analyze",
        "scenario": scn.name,
        "kind": scn.kind,
        "players": game.n_players,
        "strategies": [list(s) for s in game.strategy_names],
        "pure_nash": [_profile_labels(game, s) for s in ne],
        "elimination": {
            "trace": [
                {
                    "round": step.round,
                    "player": step.player,
                    "strategy": step.label,
                    "dominated_by": game.strategy_names[step.player][step.dominated_by],
                }
                for step in elim.trace
            ],
            "surviving": [list(s) for s in elim.game.strategy_names],
        },
        "pareto_optimal": [_profile_labels(game, s) for s in pareto],
        "social_optimum": {
            "profiles": [_profile_labels(game, s) for s in sorted(opt_profiles)],
            "welfare": _frac(welfare),
        },
        "price_of_anarchy": poa,
        "metadata": {"poa_scope": "pure-strategy equilibria only"},
    }
    report.update(_analyze_equilibria(game, eps))
    if cg is not None:
        report["congestion"] = _congestion_section(cg, game)
    if args.ce:
        report["correlated_check"] = _correlated_section(game, args.ce)

    path = _write_json(os.path.join(_outdir(args), "analyze.json"), report)
    print(f"scenario        {scn.name}")
    print(f"pure NE         {report['pure_nash']}")
    if report["mixed_ne_2x2"]:
        for row in report["mixed_ne_2x2"]:
            print(f"equilibrium     {row['profile']} payoffs {row['payoffs']}")
    print(f"pareto optimal  {report['pareto_optimal']}")
    print(f"social optimum  {report['social_optimum']['profiles']} welfare {report['social_optimum']['welfare']}")
    print(f"PoA             {poa['value'] or poa['note']}")
    print(f"report          {path}")
    return EXIT_OK


def _correlated_section(game, ce_path):
    doc = gamefile.parse_json(gamefile.read_text(ce_path), ce_path)
    rows = doc.get("distribution") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        raise errors.ParseError(f"{ce_path}: expected an object with a 'distribution' list")
    dist = {}
    for k, row in enumerate(rows):
        where = f"{ce_path}: distribution[{k}]"
        profile = row.get("profile") if isinstance(row, dict) else None
        if not isinstance(profile, list) or len(profile) != game.n_players or "prob" not in row:
            raise errors.ParseError(
                f"{where}: expected an object with a {game.n_players}-entry 'profile' and a 'prob'"
            )
        idx = []
        for player, s in enumerate(profile):
            if isinstance(s, str):
                try:
                    s = game.strategy_names[player].index(s)
                except ValueError as exc:
                    raise errors.ParseError(f"{where}: unknown strategy {s!r}") from exc
            elif not isinstance(s, int) or isinstance(s, bool):
                raise errors.ParseError(f"{where}: strategy {s!r} is neither a name nor an index")
            idx.append(s)
        if tuple(idx) in dist:
            raise errors.ParseError(f"{where}: profile {profile} listed twice")
        dist[tuple(idx)] = gamefile.parse_rational(row["prob"], f"{where}.prob")
    check = games.is_correlated_equilibrium(game, dist)
    return {
        "is_correlated_equilibrium": bool(check.holds),
        "worst_margin": _frac(check.worst_margin),
        "violations": len(check.violations),
    }


# ---------------------------------------------------------------------------
# evolve


def cmd_evolve(args):
    """Run the replicator dynamics and write trajectory.csv and evolve.json.

    The run is made, checked and written one chunk of `evolution.run_chunks`
    at a time, through one `evolution.RunSummary`, so no whole trajectory is
    held.  The refusals keep their order: the caps, then divergence, then a
    run of fewer than 10 samples, then the rest-point diagnostics; an
    unusable --out is refused before the run.  The CSV is written under a
    temporary name and put in place after the last check (`_staged`), so a
    refused run leaves the file system as it was.
    """
    evolution = gtkit.evolution
    scn = gamefile.resolve_input(args.infile)
    g = _to_evolution(scn)
    p0_text = args.p0 or ",".join(scn.metadata.get("default_p0", []))
    if not p0_text:
        raise errors.InvalidArgument("no initial state: pass --p0 or use a scenario with default_p0")
    raw = [gamefile.parse_rational(tok.strip(), "p0") for tok in p0_text.split(",")]
    if len(raw) != g.n:
        raise errors.InvalidState(f"p0 has {len(raw)} coordinates for a game of {g.n} strategies")
    p0 = evolution.SimplexState(raw)
    evolution.check_face_walk(g)

    samples, chunks = evolution.run_chunks(g, p0, t_end=args.t_end, h=args.h)
    summary = evolution.RunSummary(samples, tol=args.tol)
    with _staged(args.out, "trajectory.csv") as fh:
        fh.write(evolution.csv_header(g.n, scn.metadata.get("strategy_names")) + "\n")
        for chunk in chunks:
            summary.add(chunk)
            fh.write("\n".join(chunk.csv_lines()) + "\n")
        avg, rec = summary.averages(), summary.recurrence()
        rest, continua = _rest_points(evolution, g)
    analysis = {
        "command": "evolve",
        "scenario": scn.name,
        "h": float(args.h),
        "t_end": float(args.t_end),
        "p0": [_frac(v) for v in raw],
        "rest_points": rest,
        "rest_point_continua": [list(s) for s in continua],
        "time_average": [float(v) for v in avg],
        "recurrence": {
            "kind": rec.kind,
            "period": float(rec.period) if rec.period else None,
            "detail": rec.detail,
        },
        "samples": samples,
    }
    json_path = _write_json(os.path.join(args.out, "evolve.json"), analysis)
    print(f"scenario        {scn.name}")
    print(f"trajectory      {os.path.join(args.out, 'trajectory.csv')} ({samples} samples)")
    print(f"time average    {[f'{v:.6f}' for v in avg]}")
    print(f"recurrence      {rec.kind}" + (f" (period {rec.period:.3f})" if rec.period else ""))
    print(f"report          {json_path}")
    return EXIT_OK


def _rest_points(evolution, g):
    """The rest_points entries of evolve.json, and the continuum supports."""
    reports, continua = evolution.rest_point_reports(g)
    rest = []
    for rep in reports:
        entry = {
            "point": [_frac(q) for q in rep.point.exact],
            "residual": float(rep.residual),
            "classification": rep.classification,
            "is_nash": rep.is_nash,
            "transversal_eigenvalues": [
                {"strategy": i, "value": float(v)} for i, v in rep.transversal_eigenvalues
            ],
        }
        if rep.is_nash:
            ess = evolution.ess_check(g, rep.point)
            entry["ess"] = {"is_ess": ess.is_ess, "method": ess.method}
        rest.append(entry)
    return rest, continua


# ---------------------------------------------------------------------------
# quantumize


def _alpha_weight(text):
    """Exact (a, a2) from --alpha: 'max' -> (None, 1/2), a rational a -> (a, a^2)."""
    if text in (None, "max"):
        return None, Fraction(1, 2)
    a = gamefile.parse_rational(text, "--alpha")
    return a, a * a


def cmd_quantumize(args):
    """Write the payoff surface as surface.csv and the equilibria as equilibria.json.

    The surface is written one grid row at a time, each block as
    `quantum.payoff_surface_rows` makes it, under a temporary name put in
    place after its last block (`_staged`), so a run refused before then
    leaves the file system as it was.  The out directory is made after the
    argument checks and before the report is printed, so an unusable --out
    is refused first.
    """
    quantum = gtkit.quantum
    scn = gamefile.resolve_input(args.infile)
    game, _ = _to_strategic(scn)
    if game.shape != (2, 2):
        raise errors.UnsupportedShape("quantumize needs a 2x2 game")
    grid = args.grid if args.grid is not None else (10 if args.padic else 100)
    if grid < 1:
        raise errors.InvalidArgument("--grid must be >= 1")
    gamefile.check_profile_count((grid + 1, grid + 1), "--grid")
    a, a2 = _alpha_weight(args.alpha)
    form = quantum.ClassicalForm(game, a2)
    if args.padic:  # the exact surface: its payoffs' digits bound its work
        gamefile.check_surface_digits((grid + 1) ** 2, form.game, "--grid")
    with _staged(args.out, "surface.csv") as fh:
        if args.padic:
            doc = _padic_report(args, scn, form, a)
            surface = quantum.payoff_surface_rows(form, grid, exact=True)
        else:  # the float surface refuses payoffs beyond binary64 at the call: before printing
            surface = quantum.payoff_surface_rows(form, grid)
            doc = _complex_report(scn, form, a)
        for block in surface:
            fh.write(block + "\n")
    doc["grid"] = grid
    json_path = _write_json(os.path.join(args.out, "equilibria.json"), doc)
    print(f"surface         {os.path.join(args.out, 'surface.csv')}")
    print(f"report          {json_path}")
    return EXIT_OK


def _complex_report(scn, form, a):
    """equilibria.json of the complex mode, less the grid; prints its summary."""
    if a is None:
        alpha = beta = 1.0 / math.sqrt(2.0)
    elif 0 <= a <= 1:
        alpha = float(a)
        beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    else:
        raise errors.InvalidArgument("--alpha must lie in [0, 1] (amplitude of |00>)")
    rep = gtkit.quantum.equilibrium_report(form)
    classical_mixed = rep["classical_mixed_payoffs"]
    doc = {
        "command": "quantumize",
        "mode": "complex",
        "scenario": scn.name,
        "alpha": alpha,
        "beta": beta,
        **rep,
        "classical_mixed_payoffs": [_frac(v) for v in classical_mixed] if classical_mixed else None,
    }
    print(f"scenario        {scn.name}")
    print(f"equilibria      {[(str(r['p']), str(r['q'])) for r in rep['equilibria']]}")
    if rep["continua"]:
        print(f"continua        {[[list(map(str, c[k])) for k in 'pq'] for c in rep['continua']]}")
    print(f"best payoffs    {[str(v) for v in rep['best_equilibrium_payoffs']]}")
    if classical_mixed:
        print(f"classical mixed {doc['classical_mixed_payoffs']}")
    return doc


def _padic_report(args, scn, form, a):
    """equilibria.json of the p-adic mode, less the grid; prints its summary."""
    padic = gtkit.padic
    p = args.p
    prec = args.prec  # recorded in the report; every value is exact at any precision
    gamefile.check_precision(p, prec, "--prec")
    if prec < 1:
        raise errors.InvalidArgument("--prec must be >= 1")
    mu = padic.find_nonresidue(p)
    # the state needs amplitudes in Q_p: both weights squares (3 digits decide Q_2 too)
    for w in (form.a2, 1 - form.a2):
        if not padic.is_square(padic.padic_from_rational(w, 1, p, 3)):
            raise errors.InvalidArgument(
                f"{w} is not a square in Q_{p}: |alpha|^2 = {form.a2} has no amplitudes in Q_{p}")
    res = gtkit.padic_quantum.padic_quantumize_2x2(form, p, 1, 1)
    doc = {
        "command": "quantumize",
        "mode": "padic",
        "scenario": scn.name,
        "p": p,
        "mu": mu,
        "precision": prec,
        "alpha": "max" if a is None else _frac(a),
        "distribution": [_frac(v) for v in res.distribution.entries],
        "payoffs": [
            {
                "value": _frac(v.value),
                "norm": _frac(v.norm),
                "valuation": None if v.valuation == math.inf else int(v.valuation),
            }
            for v in res.payoffs
        ],
        "hierarchy": [
            {
                "against": g.label,
                "payoffs": [_frac(v) for v in g.payoffs],
                "gap": [_frac(v) for v in g.gap],
                "gap_norms": [_frac(v) for v in g.gap_norms],
            }
            for g in res.hierarchy
        ],
        "note": "Q_p carries no canonical total order; payoffs and norms are reported "
        "without declaring a p-adic equilibrium",
    }
    print(f"scenario        {scn.name} (p-adic mode, p={p}, mu={mu})")
    print(f"payoffs         {[e['value'] for e in doc['payoffs']]}")
    print(f"norms           {[e['norm'] for e in doc['payoffs']]}")
    return doc


# ---------------------------------------------------------------------------
# padic expression evaluator


def _eval_padic_expr(line, default_prec):
    padic = gtkit.padic
    tokens = line.split()
    if not tokens:
        raise errors.ParseError("empty expression")
    op = tokens[0].lower()

    def split_site(tok):
        p_s, caret, n_s = tok.partition("^")
        try:
            p, n = int(p_s), int(n_s) if caret else default_prec
        except ValueError as exc:
            raise errors.ParseError(f"bad site {tok!r}: expected p or p^N") from exc
        gamefile.check_precision(p, n, f"site {tok!r}")
        return p, n

    def rat(tok):
        return gamefile.parse_rational(tok, "operand")

    if op == "distcheck":
        seq = [rat(t) for t in " ".join(tokens[1:]).split(",") if t.strip()]
        total = games.bounded(padic.distribution_sum(seq), "distribution sum")
        return {
            "op": "distcheck",
            "entries": [_frac(v) for v in seq],
            "sum": _frac(total),
            "is_distribution": total == 1,
        }
    if op == "nonresidue":
        if len(tokens) != 2:
            raise errors.ParseError("usage: nonresidue <p>")
        try:
            p = int(tokens[1])
        except ValueError as exc:
            raise errors.ParseError(f"bad prime {tokens[1]!r}") from exc
        return {"op": "nonresidue", "p": p, "mu": padic.find_nonresidue(p)}

    if "@" not in tokens:
        raise errors.ParseError(f"expression needs '@ p[^N]': {line!r}")
    at = tokens.index("@")
    args, site = tokens[1:at], tokens[at + 1:]
    if len(site) != 1:
        raise errors.ParseError(f"exactly one site spec after '@': {line!r}")
    p, n = split_site(site[0])

    def operands(count):
        if len(args) != count:
            raise errors.ParseError(f"{op} takes {count} operand(s), {len(args)} given: {line!r}")
        return [rat(t) for t in args]

    def embed(q):
        return padic.padic_from_rational(q, 1, p, n)

    if op == "expand":
        (a,) = operands(1)
        x = embed(a)
        return {
            "op": "expand",
            "input": _frac(a),
            "valuation": None if x.is_zero else x.valuation,
            "digits": list(x.digits),
            "literal": padic.format_padic(x),
        }
    if op in ("norm", "val"):
        (a,) = operands(1)
        v = padic.rational_valuation(a, p)
        return {
            "op": op,
            "input": _frac(a),
            "valuation": None if v == math.inf else int(v),
            "norm": _frac(padic.rational_norm(a, p)),
        }
    if op == "dist":
        a, b = operands(2)
        return {"op": "dist", "inputs": [_frac(a), _frac(b)],
                "distance": _frac(padic.rational_norm(a - b, p))}
    if op in ("add", "sub", "mul", "div"):
        a, b = operands(2)
        apply = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
                 "div": operator.truediv}[op]
        z = apply(embed(a), embed(b))  # first, so `div a 0` is the p-adic DivisionByZero
        return {
            "op": op,
            "inputs": [_frac(a), _frac(b)],
            "literal": padic.format_padic(z),
            "rational": _frac(apply(a, b)),
        }
    if op == "sqrt":
        (a,) = operands(1)
        x = embed(a)
        if not padic.is_square(x):
            return {"op": "sqrt", "input": _frac(a), "is_square": False}
        r = padic.hensel_sqrt(x)
        return {
            "op": "sqrt",
            "input": _frac(a),
            "is_square": True,
            "literal": padic.format_padic(r),
        }
    raise errors.ParseError(f"unknown p-adic operation {op!r}")


def cmd_padic(args):
    lines = gamefile.read_text(args.infile).splitlines() if args.infile else []
    lines.extend(args.expr or [])
    expressions = [ln for ln in lines if ln.strip() and not ln.strip().startswith("#")]
    if not expressions:
        raise errors.ParseError("no expressions: pass --in FILE or --expr")

    results = []
    for i, line in enumerate(expressions, start=1):
        try:
            res = _eval_padic_expr(line.strip(), args.prec)
        except errors.ParseError as exc:
            raise errors.ParseError(f"line {i}: {exc}", line=i) from exc
        res["expr"] = line.strip()
        results.append(res)

    out = _outdir(args)
    path = _write_json(os.path.join(out, "padic.json"), {"command": "padic", "results": results})
    for res in results:
        summary = {k: v for k, v in res.items() if k not in ("op", "expr")}
        print(f"{res['expr']}  ->  {json.dumps(summary, sort_keys=True)}")
    print(f"report          {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point


@functools.cache
def build_parser():
    """The `gt` argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gt",
        description="Game-theory batch toolkit: classical, evolutionary, quantum and p-adic analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_in=True):
        if needs_in:
            p.add_argument("--in", dest="infile", required=True,
                           help="gt-game/1 file or scenario name "
                                f"({', '.join(gamefile.SCENARIO_NAMES)})")
        p.add_argument("--out", required=True, help="output directory")

    a = sub.add_parser("analyze", help="equilibria, dominance, welfare, PoA")
    common(a)
    a.add_argument("--epsilon", default="0", help="epsilon for the equilibrium verification")
    a.add_argument("--ce", help="JSON file with a joint distribution to check for correlated equilibrium")
    a.set_defaults(func=cmd_analyze)

    e = sub.add_parser("evolve", help="replicator trajectory, rest points, recurrence")
    common(e)
    e.add_argument("--h", dest="h", type=_positive_real, default=1e-3, help="RK4 step size")
    e.add_argument("--t-end", dest="t_end", type=_positive_real, default=100.0,
                   help="integration horizon")
    e.add_argument("--p0", help="initial state, e.g. 1/2,1/4,1/4")
    e.add_argument("--tol", type=_positive_real, default=1e-3,
                   help="recurrence detection tolerance")
    e.set_defaults(func=cmd_evolve)

    q = sub.add_parser("quantumize", help="entangled quantumization of a 2x2 game")
    common(q)
    q.add_argument("--grid", type=int, default=None,
                   help="grid density (default 100 complex, 10 p-adic)")
    q.add_argument("--alpha", default="max",
                   help="initial-state amplitude of |00>: 'max' (maximally entangled) or a number")
    q.add_argument("--padic", action="store_true", help="run over Q_p instead of C")
    q.add_argument("--p", type=int, default=7, help="prime for the p-adic mode")
    q.add_argument("--prec", type=int, default=32,
                   help="p-adic precision N, >= 1: recorded in the report; it changes no value, "
                        "every value is exact")
    q.set_defaults(func=cmd_quantumize)

    # no abbreviations: the removed `--p` would otherwise silently mean `--prec`
    d = sub.add_parser("padic", help="p-adic expression evaluation", allow_abbrev=False)
    d.add_argument("--in", dest="infile", help="file with one expression per line")
    d.add_argument("--out", required=True, help="output directory")
    d.add_argument("--expr", action="append", help="inline expression (repeatable)")
    d.add_argument("--prec", type=int, default=32, help="default precision N")
    d.set_defaults(func=cmd_padic)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.SizeLimit as exc:
        print(f"error (size limit): {exc}", file=sys.stderr)
        return EXIT_SIZE
    except errors.ParseError as exc:
        where = f" at line {exc.line}" if exc.line else ""
        print(f"error (parse{where}): {exc}", file=sys.stderr)
        return EXIT_PARSE
    except errors.GTError as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
