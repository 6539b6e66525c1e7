"""Tests for the gt-game/1 schema and the gt command-line interface."""

import copy
import errno
import gc
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtkit
from gtkit import errors, evolution, gamefile, padic, quantum
from gtkit.games import StrategicGame
from gtkit.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SIZE,
    EXIT_VALIDATION,
    _staged,
    _to_strategic,
    _write_json,
    build_parser,
    main,
)

F = Fraction


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# game files


def test_scenarios_load_and_round_trip():
    for name in gamefile.SCENARIO_NAMES:
        scn = gamefile.load_scenario(name)
        text = gamefile.dumps(scn)
        again = gamefile.loads(text, source=name)
        assert again == scn, name
    # a cost ladder longer than the player count: no usage count reaches the
    # entries past it, so the game drops them and the file it writes round-trips
    doc = congestion_doc()
    doc["resources"][0]["costs"] = ["1", "2", "3"]
    scn = gamefile.parse_dict(doc)
    assert gamefile.loads(gamefile.dumps(scn)) == scn
    assert scn.game.costs == ((1, 2), (1, 2))


def test_a_game_file_read_or_written_leaves_no_reference_cycle(tmp_path):
    # the parsed payoff values are freed when the load returns, not at the next
    # cyclic collection (a 58^3 game's values take about 20 MiB), and so is the
    # nested payoff document of a game written back
    path = tmp_path / "game.json"
    path.write_text(gamefile.dumps(gamefile.load_scenario("bos")))
    gc.collect()
    gc.disable()
    try:
        for name in gamefile.SCENARIO_NAMES:
            gamefile.scenario_to_dict(gamefile.load_scenario(name))
        gamefile.load_path(str(path))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unknown_scenario():
    with pytest.raises(errors.ParseError):
        gamefile.load_scenario("nope")


def test_parse_errors_carry_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "gt-game/1",\n  "kind": !}')
    with pytest.raises(errors.ParseError) as err:
        gamefile.load_path(str(bad))
    assert err.value.line == 2
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(errors.ParseError):
        gamefile.load_path(str(empty))


def test_parse_rejects_bad_shapes(tmp_path):
    doc = {
        "format": "gt-game/1",
        "kind": "strategic",
        "name": "x",
        "strategies": [["a", "b"], ["c"]],
        "payoffs": [[["1", "1"]]],  # one row for two strategies
    }
    with pytest.raises(errors.ParseError):
        gamefile.parse_dict(doc)
    doc["payoffs"] = [[["1", "1", "1"]], [["1", "1"]]]  # three payoffs for two players
    with pytest.raises(errors.ParseError):
        gamefile.parse_dict(doc)
    with pytest.raises(errors.ParseError):
        gamefile.parse_dict({"format": "other/9"})


def _one_payoff_game(value):
    """A 1 x 1 two-player game document whose first payoff is `value`."""
    return {"format": "gt-game/1", "kind": "strategic", "name": "x",
            "strategies": [["a"], ["b"]], "payoffs": [[[value, "0"]]]}


def _filled_game(value):
    """A 2 x 2 two-player game document with `value` as every payoff."""
    return {"format": "gt-game/1", "kind": "strategic", "name": "x",
            "strategies": [["a", "b"], ["c", "d"]], "payoffs": [[[value] * 2] * 2] * 2}


PAYOFF_LITERALS = st.one_of(
    st.sampled_from([
        "1_000", " 12 ", "+5", "007", "-0", "١٢", "2/4", "1e3", "-", "", "--5", "1/0", "²",
        "0x10", "1.5e-3", "inf", "9" * 1000, "-" + "9" * 1000, "1" + "0" * 1000,
        "0" * 1001 + "7", "1" * 5000, "1e1001", True, None, [1],
        10**1000 - 1, -10**1000 + 1, 10**1000, -10**1000,
        "5\n", "\n5", "1\n2", "٣", "0" * 1000, "0" * 1001,
        "1,2", "1/1", "5-", "1-2", "-" + "1" * 1001, F(3), 1.0, 10**5000,
    ]),
    st.integers(-10**30, 10**30),
    st.integers(-10**6, 10**6).map(str),
    st.floats(),
    st.text(alphabet="0123456789-+/._ e", max_size=8),
    st.text(max_size=4),
)


def _outcome(fn):
    try:
        return fn()
    except errors.GTError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(PAYOFF_LITERALS, st.sampled_from([(_one_payoff_game, {0}), (_filled_game, set())]))
def test_a_game_file_payoff_parses_as_parse_rational_does(value, document):
    # the game-file parse reads a plain integer literal straight to int and any
    # other literal through parse_rational; either way it must accept the same
    # literals, with the same values and the same errors, whether the literal
    # fills every payoff of the game or sits beside an integer payoff
    make, others = document

    def every_payoff():
        game = gamefile.parse_dict(make(value)).game
        return {v for s in game.profiles() for v in game.payoff(s)}

    parsed = _outcome(every_payoff)
    assert parsed == _outcome(lambda: {gamefile.parse_rational(value, "payoffs[0, 0]"), *others})


def _short_id(value):
    """A test id for a long literal: its type and length."""
    text = repr(value)
    return f"{type(value).__name__}-of-{len(text)}-chars" if len(text) > 20 else None


@pytest.mark.parametrize("value", [
    "5\n", "\n5", "1\n2", "٣", "²", " 12 ", "+5", "1_000", "-", "", "--5", "1-2", "5-", "1,2",
    "1/1", "1" + "0" * 1000, "-" + "1" * 1001, "1" * 5000, True, 1.0, None, [1], F(3),
    10**1000, -10**1000, pytest.param(10**5000, id="past-the-int-to-string-limit")],
    ids=_short_id)
def test_only_plain_integer_literals_skip_the_rational_parse(value, monkeypatch):
    # `_payoff` reads a plain integer literal with int(); every one of these, some
    # of which int() would take, goes through parse_rational with its position
    monkeypatch.setattr(gamefile, "parse_rational", lambda text, where: ("parsed", text, where))
    assert gamefile._payoff(value, "payoffs", (1, 0)) == ("parsed", value, "payoffs[1, 0]")


def test_a_game_whose_common_denominator_is_too_long_is_refused(tmp_path):
    # each denominator has about 600 digits, well inside the limit, but they are
    # coprime, so their lcm has over 1000 digits
    a, b = 2**1994, 3**1258
    assert 590 < len(str(a)) < 610 and 590 < len(str(b)) < 610
    doc = _one_payoff_game(f"1/{a}")
    doc["payoffs"][0][0][1] = f"1/{b}"
    with pytest.raises(errors.SizeLimit, match="common multiple"):
        gamefile.parse_dict(doc)
    with pytest.raises(errors.SizeLimit):
        StrategicGame([["a"], ["b"]], [[(F(1, a), F(1, b))]])
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--in", str(path), "--out", str(tmp_path / "o")]) == EXIT_SIZE
    # one such denominator alone, or two that share it, is accepted
    doc["payoffs"][0][0][1] = f"3/{a}"
    assert gamefile.parse_dict(doc).game.payoff((0, 0)) == (F(1, a), F(3, a))


def test_every_command_refuses_an_evolution_matrix_whose_denominator_is_too_long(
        tmp_path, capsys):
    # coprime diagonal denominators of about 600 digits each: an lcm of about 1800
    diagonal = [f"1/{2**1994}", f"1/{3**1258}", f"1/{5**860}"]
    doc = evolution_doc()
    doc["matrix"] = [[diagonal[i] if i == j else "0" for j in range(3)] for i in range(3)]
    with pytest.raises(errors.SizeLimit, match="common multiple"):
        gamefile.parse_dict(doc)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    messages = []
    for command, *options in (["analyze"], ["evolve", "--t-end", "0.2", "--h", "0.01"]):
        argv = [command, "--in", str(path), *options, "--out", str(tmp_path / command)]
        assert main(argv) == EXIT_SIZE
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert "common multiple over 1000 digits" in messages[0]


def test_a_congestion_game_whose_denominator_is_too_long_exits_4(tmp_path):
    a, b = 2**1994, 3**1258
    doc = congestion_doc()
    doc["resources"][0]["costs"] = [f"1/{a}", "2"]
    doc["resources"][1]["costs"] = [f"1/{b}", "2"]
    # the refusal is a size limit, not wrapped as a parse error of the resources
    with pytest.raises(errors.SizeLimit, match="^the cost denominators have a common multiple"):
        gamefile.parse_dict(doc)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--in", str(path), "--out", str(tmp_path / "o")]) == EXIT_SIZE
    # a ladder entry past the player count is dropped before D is taken
    doc["resources"][1]["costs"] = ["1", "2", f"1/{b}"]
    assert gamefile.parse_dict(doc).game.scale == a


# ---------------------------------------------------------------------------
# analyze


def test_analyze_bos(tmp_path):
    code, out = run(tmp_path, "analyze", "--in", "bos")
    assert code == EXIT_OK
    rep = read_json(out / "analyze.json")
    assert rep["pure_nash"] == [["O", "O"], ["F", "F"]]
    mixed = rep["mixed_ne_2x2"]
    assert {"profile": [["3/5", "2/5"], ["2/5", "3/5"]], "payoffs": ["6/5", "6/5"]} in mixed
    assert rep["epsilon_check"]["all_pass"] is True
    assert len(rep["support_enumeration"]["equilibria"]) == 3
    assert rep["metadata"]["poa_scope"] == "pure-strategy equilibria only"
    assert rep["price_of_anarchy"]["value"] == "1"


def test_analyze_pd(tmp_path):
    code, out = run(tmp_path, "analyze", "--in", "pd")
    rep = read_json(out / "analyze.json")
    assert code == EXIT_OK
    assert rep["pure_nash"] == [["D", "D"]]
    assert rep["price_of_anarchy"]["value"] == "3"
    assert ["D", "D"] not in rep["pareto_optimal"]
    assert rep["elimination"]["surviving"] == [["D"], ["D"]]


def test_analyze_every_scenario_passes(tmp_path):
    for i, name in enumerate(gamefile.SCENARIO_NAMES):
        out = tmp_path / f"out{i}"
        assert main(["analyze", "--in", name, "--out", str(out)]) == EXIT_OK


def test_analyze_lists_every_profile_of_a_200_by_200_zero_sum_game(tmp_path):
    # no profile of a zero-sum game dominates another, so every one is Pareto optimal:
    # the worst case of a maxima scan, which the staircase sweep passes over once,
    # its staircase one point
    rng = random.Random(7)
    names = [f"s{i}" for i in range(200)]
    payoffs = [[[str(a), str(-a)] for a in (rng.randint(-10**6, 10**6) for _ in names)]
               for _ in names]
    path = tmp_path / "zero-sum-200.json"
    path.write_text(json.dumps({"format": "gt-game/1", "kind": "strategic", "name": "z",
                                "strategies": [names, names], "payoffs": payoffs}))
    code, out = run(tmp_path, "analyze", "--in", str(path))
    assert code == EXIT_OK
    assert len(read_json(out / "analyze.json")["pareto_optimal"]) == 200 * 200


def test_analyze_lists_every_profile_of_a_20_cubed_constant_sum_game(tmp_path):
    # the 3-player worst case of the maxima scan, which the staircase sweep
    # passes over once, bisecting: the quadratic scan took about 10 s here
    rng = random.Random(7)
    names = [f"s{i}" for i in range(20)]
    payoffs = [[[[str(a), str(b), str(100 - a - b)]
                 for a, b in ((rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
                              for _ in names)]
                for _ in names] for _ in names]
    path = tmp_path / "constant-sum-20.json"
    path.write_text(json.dumps({"format": "gt-game/1", "kind": "strategic", "name": "c",
                                "strategies": [names] * 3, "payoffs": payoffs}))
    start = time.perf_counter()
    code, out = run(tmp_path, "analyze", "--in", str(path))
    assert time.perf_counter() - start < 5
    assert code == EXIT_OK
    assert len(read_json(out / "analyze.json")["pareto_optimal"]) == 20 ** 3


def test_analyze_skips_support_enumeration_beyond_its_cap(tmp_path):
    three = {
        "format": "gt-game/1",
        "kind": "strategic",
        "name": "three",
        "strategies": [["a", "b"]] * 3,
        "payoffs": [[[["1", "0", "0"]] * 2] * 2] * 2,
    }
    path = tmp_path / "three.json"
    path.write_text(json.dumps(three))
    for source in ("american-values-10", str(path)):  # 10 strategies; 3 players
        code, out = run(tmp_path, "analyze", "--in", source)
        assert code == EXIT_OK
        assert read_json(out / "analyze.json")["support_enumeration"] == {
            "skipped": "support enumeration runs on 2-player games with at most 5 strategies"}


def test_analyze_congestion_section(tmp_path):
    code, out = run(tmp_path, "analyze", "--in", "congestion-2link")
    rep = read_json(out / "analyze.json")
    assert code == EXIT_OK
    # the potential's exactness is a theorem, held by tests, not a report key
    assert "negated_potential_is_exact_potential" not in rep["congestion"]
    assert rep["congestion"] == {
        "rosenthal_potential": {
            "link1/link1": "3", "link1/link2": "2", "link2/link1": "2", "link2/link2": "3"},
        "best_response_dynamics": [
            {"start": ["link1", "link1"], "equilibrium": ["link2", "link1"], "steps": 1},
            {"start": ["link1", "link2"], "equilibrium": ["link1", "link2"], "steps": 0},
            {"start": ["link2", "link1"], "equilibrium": ["link2", "link1"], "steps": 0},
            {"start": ["link2", "link2"], "equilibrium": ["link1", "link2"], "steps": 1},
        ],
    }
    assert rep["pure_nash"] == [["link1", "link2"], ["link2", "link1"]]


def test_analyze_matching_pennies_poa_note(tmp_path):
    code, out = run(tmp_path, "analyze", "--in", "matching-pennies")
    rep = read_json(out / "analyze.json")
    assert rep["price_of_anarchy"]["value"] is None
    assert "no pure Nash equilibrium" in rep["price_of_anarchy"]["note"]


def test_analyze_ce_check(tmp_path):
    ce = tmp_path / "ce.json"
    ce.write_text(
        json.dumps(
            {
                "distribution": [
                    {"profile": ["O", "O"], "prob": "1/2"},
                    {"profile": ["F", "F"], "prob": "1/2"},
                ]
            }
        )
    )
    code, out = run(tmp_path, "analyze", "--in", "bos", "--ce", str(ce))
    rep = read_json(out / "analyze.json")
    assert rep["correlated_check"]["is_correlated_equilibrium"] is True
    bad = tmp_path / "bad_ce.json"
    bad.write_text(
        json.dumps(
            {
                "distribution": [
                    {"profile": ["O", "F"], "prob": "1/2"},
                    {"profile": ["F", "O"], "prob": "1/2"},
                ]
            }
        )
    )
    code2, out2 = run(tmp_path / "2", "analyze", "--in", "bos", "--ce", str(bad))
    rep2 = read_json(out2 / "analyze.json")
    assert rep2["correlated_check"]["is_correlated_equilibrium"] is False


def test_analyze_ce_with_a_too_long_common_denominator_exits_4(tmp_path, capsys):
    # 40 probabilities 1/40 +- 1/d_k with distinct d_k of about 300 digits: each is
    # within the digit bound and they sum to 1, but their lcm has about 6000 digits,
    # and the worst margin over it ended in a ValueError when it was printed
    doc = bimatrix_doc()
    doc["strategies"] = [[f"r{k}" for k in range(20)], ["a", "b"]]
    doc["payoffs"] = [[["0", str(-j * (k + 1))] for j in range(2)] for k in range(20)]
    rows = [{"profile": [k, j], "prob": str(F(1, 40) + (-1) ** j * F(1, 10**300 + k))}
            for k in range(20) for j in range(2)]
    game, ce = tmp_path / "game.json", tmp_path / "ce.json"
    game.write_text(json.dumps(doc))
    ce.write_text(json.dumps({"distribution": rows}))
    argv = ["analyze", "--in", str(game), "--ce", str(ce), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_SIZE
    assert capsys.readouterr().err == ("error (size limit): the probability denominators have "
                                       "a common multiple over 1000 digits\n")


def _denominator_digits(point):
    return max(len(str(F(q).denominator)) for q in point)


def test_computed_equilibria_and_rest_points_are_not_held_to_the_input_bound(tmp_path):
    # the 1000-digit bound on common denominators holds for what a caller hands
    # in; a point gtkit solves for from such input may need more digits, and its
    # exact checks must still run on it
    rng = random.Random(5)
    big, pennies, rps = 10**600, [[5, -5], [-5, 5]], [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
    # 3x3 payoffs of about 600 digits: a full-support equilibrium of ~1200-digit denominators
    doc = _with(bimatrix_doc(), ["strategies"], [["a", "b", "c"], ["d", "e", "f"]])
    doc["payoffs"] = [[[str(big * rps[i][j] + rng.randrange(big // 10)),
                        str(-big * rps[i][j] + rng.randrange(big // 10))]
                       for j in range(3)] for i in range(3)]
    path = tmp_path / "g3.json"
    path.write_text(json.dumps(doc))
    code, out = run(tmp_path / "g3", "analyze", "--in", str(path))
    assert code == EXIT_OK
    rep = read_json(out / "analyze.json")
    (eq,) = rep["support_enumeration"]["equilibria"]
    assert _denominator_digits(eq[0]) > 1000
    assert rep["epsilon_check"] == {"all_pass": True, "epsilon": "0", "equilibria_checked": 1}
    # 2x2 payoffs over a 1000-digit D: a mixture of mixed_ne_2x2 has over 1000 digits
    d = 10**999
    doc["strategies"] = [["a", "b"], ["c", "d"]]
    doc["payoffs"] = [[[str(pennies[i][j] + F(rng.randrange(d), d)),
                        str(-pennies[i][j] + F(rng.randrange(d), d))]
                       for j in range(2)] for i in range(2)]
    path.write_text(json.dumps(doc))
    code, out = run(tmp_path / "g2", "analyze", "--in", str(path))
    assert code == EXIT_OK
    (eq,) = read_json(out / "analyze.json")["mixed_ne_2x2"]
    assert _denominator_digits(eq["profile"][0] + eq["profile"][1]) > 1000
    # an evolution matrix over a 601-digit D: its interior Nash rest point has ~1200
    path = _evolution_file(tmp_path, [[str(rps[i][j] + F(rng.randrange(big // 10), big))
                                       for j in range(3)] for i in range(3)])
    code, out = run(tmp_path / "e", "evolve", "--in", path, "--t-end", "0.2", "--h", "0.01")
    assert code == EXIT_OK
    (interior,) = [r for r in read_json(out / "evolve.json")["rest_points"]
                   if r["classification"] == "interior"]
    assert interior["is_nash"] and _denominator_digits(interior["point"]) > 1000
    assert interior["ess"] == {"is_ess": False, "method": "exact-face"}


def test_analyze_empty_file_exit_code(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code = main(["analyze", "--in", str(empty), "--out", str(tmp_path / "o")])
    assert code == EXIT_PARSE


def test_analyze_non_utf8_game_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    with pytest.raises(errors.ParseError):
        gamefile.load_path(str(bad))
    assert main(["analyze", "--in", str(bad), "--out", str(tmp_path / "o")]) == EXIT_PARSE


def test_analyze_non_utf8_ce_file(tmp_path):
    bad = tmp_path / "ce.json"
    bad.write_bytes(b'{"distribution": []}\xff')
    assert run(tmp_path, "analyze", "--in", "bos", "--ce", str(bad))[0] == EXIT_PARSE


@pytest.mark.parametrize("argv", [
    ["analyze", "--in", "{path}"],
    ["analyze", "--in", "bos", "--ce", "{path}"],
    ["padic", "--in", "{path}"],
], ids=["game", "ce", "padic"])
@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
def test_an_unreadable_input_file_is_a_parse_error_naming_it(tmp_path, capsys, argv, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b'{"distribution": []}\xff')
    argv = [arg.replace("{path}", str(path)) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error (parse): cannot read {path}: ")
    assert "Traceback" not in err


def test_analyze_size_limit(tmp_path):
    # 3 players x 60 strategies = 216000 profiles > cap
    doc = {
        "format": "gt-game/1",
        "kind": "strategic",
        "name": "big",
        "strategies": [[f"s{i}" for i in range(60)]] * 3,
        "payoffs": None,
    }

    def zeros(depth):
        if depth == 3:
            return ["0", "0", "0"]
        return [zeros(depth + 1) for _ in range(60)]

    doc["payoffs"] = zeros(0)
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    code = main(["analyze", "--in", str(big), "--out", str(tmp_path / "o")])
    assert code == EXIT_SIZE


def test_analyze_refuses_a_large_game_before_reading_its_payoffs():
    doc = {
        "format": "gt-game/1",
        "kind": "strategic",
        "strategies": [[f"s{i}" for i in range(60)]] * 3,
        "payoffs": "not even a list",
    }
    with pytest.raises(errors.SizeLimit):
        gamefile.parse_dict(doc)


# ---------------------------------------------------------------------------
# input boundary: every malformed input exits 2, 3 or 4 with a message


def bimatrix_doc():
    return {
        "format": "gt-game/1",
        "kind": "strategic",
        "name": "g",
        "strategies": [["a", "b"], ["c", "d"]],
        "payoffs": [[["3", "3"], ["0", "5"]], [["5", "0"], ["1", "1"]]],
    }


def congestion_doc():
    return {
        "format": "gt-game/1",
        "kind": "congestion",
        "name": "c",
        "resources": [{"name": "x", "costs": ["1", "2"]}, {"name": "y", "costs": ["1", "2"]}],
        "strategies": [[[0], [1]], [[0], [1]]],
    }


def evolution_doc():
    return {
        "format": "gt-game/1",
        "kind": "evolution",
        "name": "e",
        "strategies": [["R", "P", "S"]],
        "matrix": [["0", "-1", "1"], ["1", "0", "-1"], ["-1", "1", "0"]],
        "metadata": {"default_p0": ["1/2", "1/4", "1/4"]},
    }


def _with(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


BAD_GAME_FILES = {
    "metadata is a list": (_with(bimatrix_doc(), ["metadata"], ["a", 1]), EXIT_PARSE),
    "name is a list": (_with(bimatrix_doc(), ["name"], ["g"]), EXIT_PARSE),
    "strategy names are strings": (_with(bimatrix_doc(), ["strategies"], ["ab", "cd"]),
                                   EXIT_PARSE),
    "strategy name is a number": (_with(bimatrix_doc(), ["strategies", 0, 1], 2), EXIT_PARSE),
    "repeated strategy name": (_with(bimatrix_doc(), ["strategies", 0, 1], "a"), EXIT_PARSE),
    "payoff beyond the digit bound": (
        _with(bimatrix_doc(), ["payoffs", 0, 0, 0], "1e100000"), EXIT_SIZE),
    "payoff with a long numerator": (
        _with(bimatrix_doc(), ["payoffs", 0, 0, 0], "7" * 1001), EXIT_SIZE),
    "payoff is not a number": (_with(bimatrix_doc(), ["payoffs", 0, 0, 0], [1]), EXIT_PARSE),
    "one player": (_with(_with(bimatrix_doc(), ["strategies"], [["a", "b"]]),
                         ["payoffs"], [["3"], ["5"]]), EXIT_VALIDATION),
    "resources are not objects": (_with(congestion_doc(), ["resources"], ["x", "y"]),
                                  EXIT_PARSE),
    "costs are not a list": (_with(congestion_doc(), ["resources", 0, "costs"], "12"),
                             EXIT_PARSE),
    "non-integer resource index": (_with(congestion_doc(), ["strategies", 0, 0, 0], 0.5),
                                   EXIT_PARSE),
    "string resource index": (_with(congestion_doc(), ["strategies", 0, 0, 0], "0"),
                              EXIT_PARSE),
    "evolution names of the wrong length": (
        _with(evolution_doc(), ["strategies"], [["R", "P"]]), EXIT_PARSE),
    "evolution names are a string": (_with(evolution_doc(), ["strategies"], "RPS"), EXIT_PARSE),
    "default p0 holds numbers": (
        _with(evolution_doc(), ["metadata", "default_p0"], [0.5, 0.25, 0.25]), EXIT_PARSE),
    "evolution entry beyond binary64": (
        _with(evolution_doc(), ["matrix", 0, 0], "1e400"), EXIT_VALIDATION),
}


@pytest.mark.parametrize("case", sorted(BAD_GAME_FILES))
def test_malformed_game_files_exit_with_a_message(tmp_path, capsys, case):
    doc, want = BAD_GAME_FILES[case]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    for command in ("analyze", "evolve"):
        if command == "evolve" and doc["kind"] != "evolution":
            continue
        argv = [command, "--in", str(path), "--out", str(tmp_path / "o")]
        assert main(argv + (["--t-end", "0.1"] if command == "evolve" else [])) == want
        assert "error" in capsys.readouterr().err


STRATEGIC_FILE_MESSAGES = {
    "players is a string": (_with(bimatrix_doc(), ["players"], "2"), EXIT_PARSE,
                            "error (parse): {path}: players='2' but 2 strategy lists"),
    "one player": (*BAD_GAME_FILES["one player"],
                   "error (validation): a strategic game needs at least 2 players"),
    # depth first: the short payoff list inside the first row is named, not the
    # second row that is no list at all
    "two faults": (_with(bimatrix_doc(), ["payoffs"], [[["1", "1"], ["1"]], "x"]), EXIT_PARSE,
                   "error (parse): payoffs[0, 1]: expected 2 payoffs"),
    "a bad literal among integers": (_with(bimatrix_doc(), ["payoffs", 1, 0, 1], "1,2"),
                                     EXIT_PARSE, "error (parse): bad rational '1,2' (payoffs[1, 0])"),
}


@pytest.mark.parametrize("case", sorted(STRATEGIC_FILE_MESSAGES))
def test_malformed_strategic_files_exit_with_their_message(tmp_path, capsys, case):
    doc, want, message = STRATEGIC_FILE_MESSAGES[case]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--in", str(path), "--out", str(tmp_path / "o")]) == want
    assert capsys.readouterr().err == message.format(path=path) + "\n"


def _symmetric_doc_with_a_long_payoff():
    # u2(i, j) = u1(j, i) still holds; a 401-digit payoff is exact but has no binary64 value
    big = "1" + "0" * 400
    return _with(bimatrix_doc(), ["payoffs", 0, 0], [big, big])


REFUSAL_MESSAGES = {
    "sqrt in Q_2 below 3 digits": (
        ["padic", "--expr", "sqrt 17 @ 2^2"], EXIT_VALIDATION,
        "error (validation): need at least 3 digits to decide squareness in Q_2"),
    "two site specs": (
        ["padic", "--expr", "add 1 2 @ 7 5"], EXIT_PARSE,
        "error (parse at line 1): line 1: exactly one site spec after '@': 'add 1 2 @ 7 5'"),
    "no initial state": (
        ["evolve", "--in", "pd"], EXIT_VALIDATION,
        "error (validation): no initial state: pass --p0 or use a scenario with default_p0"),
    "an evolution view beyond binary64": (
        ["evolve", "--in", "{game}", "--p0", "1/2,1/2"], EXIT_VALIDATION,
        "error (validation): payoff entry beyond the binary64 range"),
}


@pytest.mark.parametrize("case", sorted(REFUSAL_MESSAGES))
def test_refused_runs_exit_with_their_message(tmp_path, capsys, case):
    argv, want, message = REFUSAL_MESSAGES[case]
    game = tmp_path / "game.json"
    game.write_text(json.dumps(_symmetric_doc_with_a_long_payoff()))
    code, out = run(tmp_path, *(arg.format(game=game) for arg in argv))
    assert code == want
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_malformed_congestion_strategies_exit_2_naming_their_position(tmp_path, capsys):
    # CongestionGame checks the lists the file holds; the parse wraps its message
    path = tmp_path / "game.json"
    for strategies, message in (
            ([[0]], "strategies[0, 0]: expected a sequence, got int"),
            ([[[0]], None], "strategies[1]: expected a sequence, got NoneType"),
            ([[[0]], [[True]]], "strategies[1, 0]: resource indices must be integers, got [True]"),
            ([[[0]], [[1.0]]], "strategies[1, 0]: resource indices must be integers, got [1.0]"),
            ([[[0]], [["0"]]], "strategies[1, 0]: resource indices must be integers, got ['0']"),
            ([[[0]], [{"a": 1}]],
             "strategies[1, 0]: resource indices must be integers, got {'a': 1}"),
            ([[[0]], {"0": [0]}], "strategies[1, 0]: expected a sequence, got str")):
        path.write_text(json.dumps(_with(congestion_doc(), ["strategies"], strategies)))
        assert main(["analyze", "--in", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error (parse): {path}: {message}\n"


def test_json_integer_beyond_the_digit_limit_is_a_parse_error(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(bimatrix_doc()).replace('"3"', "1" + "0" * 5000, 1))
    assert main(["analyze", "--in", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE


BAD_CE_FILES = {
    "rows are not objects": [["a", "c"]],
    "row without a profile": [{"prob": "1"}],
    "row without a prob": [{"profile": ["a", "c"]}],
    "profile is a string": [{"profile": "ac", "prob": "1"}],
    "profile of the wrong length": [{"profile": ["a"], "prob": "1"}],
    "non-integer strategy index": [{"profile": [0.0, 1], "prob": "1"}],
    "boolean strategy index": [{"profile": [True, 1], "prob": "1"}],
    "prob is not a rational": [{"profile": ["a", "c"], "prob": "x"}],
    "prob overflows to infinity": [{"profile": ["a", "c"], "prob": 1.5e400}],
    "profile listed twice": [{"profile": ["a", "c"], "prob": "1/2"},
                             {"profile": [0, 0], "prob": "1/2"}],
}


@pytest.mark.parametrize("case", sorted(BAD_CE_FILES))
def test_malformed_ce_files_exit_with_a_message(tmp_path, capsys, case):
    game = tmp_path / "game.json"
    game.write_text(json.dumps(bimatrix_doc()))
    ce = tmp_path / "ce.json"
    ce.write_text(json.dumps({"distribution": BAD_CE_FILES[case]}))
    assert main(["analyze", "--in", str(game), "--ce", str(ce),
                 "--out", str(tmp_path / "o")]) == EXIT_PARSE
    assert "error" in capsys.readouterr().err
    ce.write_text(json.dumps(BAD_CE_FILES[case]))  # no top-level object
    assert main(["analyze", "--in", str(game), "--ce", str(ce),
                 "--out", str(tmp_path / "o")]) == EXIT_PARSE


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--in", "rps", "--h", "nan"],
        ["evolve", "--in", "rps", "--t-end", "nan"],
        ["evolve", "--in", "rps", "--t-end", "inf"],
        ["evolve", "--in", "rps", "--h", "0"],
        ["evolve", "--in", "rps", "--tol", "nan"],
        ["evolve", "--in", "rps", "--tol", "-1"],
        ["evolve", "--in", "rps", "--h", "abc"],
    ],
)
def test_non_finite_options_are_refused(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_PARSE
    assert f"expected a finite number > 0, got {argv[-1]!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_epsilon_and_p0_are_refused(tmp_path):
    assert run(tmp_path, "analyze", "--in", "bos", "--epsilon", "x")[0] == EXIT_PARSE
    assert run(tmp_path, "analyze", "--in", "bos", "--epsilon", "1e100000")[0] == EXIT_SIZE
    assert run(tmp_path, "analyze", "--in", "bos", "--epsilon=-1/2")[0] == EXIT_VALIDATION
    for p0, want in (("1e400,0,0", EXIT_VALIDATION), ("nan,0,0", EXIT_PARSE),
                     ("1" + "0" * 1000 + ",0,0", EXIT_SIZE)):
        assert run(tmp_path, "evolve", "--in", "rps", "--p0", p0, "--t-end", "0.1")[0] == want


def test_evolve_refuses_a_trajectory_that_overflows(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(_with(evolution_doc(), ["matrix", 0], ["1e300", "-1e300", "0"])))
    assert run(tmp_path, "analyze", "--in", str(path))[0] == EXIT_OK
    assert run(tmp_path, "evolve", "--in", str(path), "--t-end", "0.1", "--h", "0.01")[0] == (
        EXIT_VALIDATION)


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from(["", "x", "ab", "1/2", "1/0", "1e100000", "-7/3", "0.5", "a"]),
    st.lists(st.sampled_from([0, 1, "a", "c", None]), max_size=3),
    st.dictionaries(st.sampled_from(["name", "costs", "profile", "prob"]),
                    st.sampled_from([0, "1", [0], None]), max_size=2),
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, (*prefix, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, (*prefix, i))


@st.composite
def mutated(draw, doc):
    """doc with up to three subtrees replaced by junk of another type, or deleted.

    Each junk value is a copy: `sampled_from` hands out one shared `[0]`, and a
    later mutation inside it would change other examples or make a cycle."""
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return draw(_JUNK)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(_JUNK))
    return doc


_PAYOFF = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6).map(str))


@st.composite
def game_documents(draw):
    kind = draw(st.sampled_from(["strategic", "evolution", "congestion"]))
    if kind == "strategic":
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        doc = {
            "format": "gt-game/1",
            "kind": kind,
            "name": "g",
            "strategies": [[f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)]],
            "payoffs": [[[draw(_PAYOFF), draw(_PAYOFF)] for _ in range(cols)]
                        for _ in range(rows)],
        }
    elif kind == "evolution":
        doc = evolution_doc()
        doc["matrix"] = [[draw(_PAYOFF) for _ in range(3)] for _ in range(3)]
    else:
        doc = congestion_doc()
    return draw(mutated(doc))


@st.composite
def ce_documents(draw):
    cells = st.tuples(st.integers(0, 1), st.integers(0, 1))
    profiles = draw(st.lists(cells, min_size=1, max_size=4, unique=True))
    rows = [
        {"profile": [draw(st.sampled_from([f"r{i}", i])), draw(st.sampled_from([f"c{j}", j]))],
         "prob": f"1/{len(profiles)}"}
        for i, j in profiles
    ]
    return draw(mutated({"distribution": rows}))


@settings(max_examples=200, deadline=None)
@given(game_documents(), st.one_of(st.none(), ce_documents()))
def test_game_and_ce_documents_never_raise(tmp_path_factory, game, ce):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "game.json"
    path.write_text(json.dumps(game))
    argv = ["analyze", "--in", str(path), "--out", str(work / "o")]
    if ce is not None:
        (work / "ce.json").write_text(json.dumps(ce))
        argv += ["--ce", str(work / "ce.json")]
    codes = (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_SIZE)
    assert main(argv) in codes
    evolve = ["evolve", "--in", str(path), "--t-end", "0.1", "--h", "0.01",
              "--out", str(work / "e")]
    assert main(evolve) in codes


# ---------------------------------------------------------------------------
# evolve


def test_evolve_rps(tmp_path):
    code, out = run(
        tmp_path, "evolve", "--in", "rps", "--t-end", "50", "--h", "0.001"
    )
    assert code == EXIT_OK
    rep = read_json(out / "evolve.json")
    assert rep["recurrence"]["kind"] == "recurrent"
    interior = [r for r in rep["rest_points"] if r["classification"] == "interior"]
    assert interior and interior[0]["point"] == ["1/3", "1/3", "1/3"]
    assert interior[0]["is_nash"] is True
    csv_lines = (out / "trajectory.csv").read_text().splitlines()
    assert csv_lines[0] == "t,R,P,S"
    assert len(csv_lines) == 1 + 50001
    first = csv_lines[1].split(",")
    assert [float(x) for x in first] == [0.0, 0.5, 0.25, 0.25]


def test_evolve_vertex_constant(tmp_path):
    code, out = run(
        tmp_path, "evolve", "--in", "rps", "--p0", "1,0,0", "--t-end", "1", "--h", "0.01"
    )
    rep = read_json(out / "evolve.json")
    assert rep["recurrence"]["kind"] == "convergent"
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[1].split(",")[1:] == lines[-1].split(",")[1:]


def test_evolve_american_values(tmp_path):
    code, out = run(
        tmp_path, "evolve", "--in", "american-values-10", "--t-end", "20", "--h", "0.01"
    )
    assert code == EXIT_OK
    rep = read_json(out / "evolve.json")
    assert rep["recurrence"]["kind"] in ("none", "convergent", "recurrent")
    assert len(rep["time_average"]) == 10


def test_evolve_validates_p0(tmp_path, capsys):
    code = main(
        ["evolve", "--in", "rps", "--p0", "1/2,1/2,1/2", "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_VALIDATION
    code = main(["evolve", "--in", "rps", "--p0", "1/2,1/2", "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "p0 has 2 coordinates for a game of 3 strategies" in capsys.readouterr().err


def test_evolve_refuses_a_p0_whose_exact_sum_is_not_1(tmp_path, capsys):
    # p0 is read exactly, so a sum off 1 by 1e-10 is refused rather than rescaled
    code, out = run(tmp_path, "evolve", "--in", "rps", "--p0", "0.5,0.25,0.2500000001",
                    "--t-end", "0.1")
    assert code == EXIT_VALIDATION
    assert "not an exact simplex point: (1/2, 1/4, 2500000001/10000000000)" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("p0", ["1/2,,1/2", ",1/2,1/2,"])
def test_evolve_refuses_an_empty_p0_entry(tmp_path, capsys, p0):
    code, out = run(tmp_path, "evolve", "--in", "pd", "--p0", p0, "--t-end", "0.1")
    assert code == EXIT_PARSE
    assert "p0" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_that_exits_3_writes_no_file(tmp_path, capsys):
    # 6 samples are too few for the recurrence verdict, which comes before any write
    code, out = run(tmp_path, "evolve", "--in", "rps", "--t-end", "0.005", "--h", "0.001")
    assert code == EXIT_VALIDATION
    assert "need at least 10 samples, got 6" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_refuses_a_too_short_run_before_any_rest_point(tmp_path, capsys, monkeypatch):
    # the recurrence verdict needs only the trajectory: the 2^10 - 1 faces are never solved
    def unreachable(g):
        raise AssertionError("rest_point_reports ran on a run too short to report")

    monkeypatch.setattr(evolution, "rest_point_reports", unreachable)
    code, out = run(tmp_path, "evolve", "--in", "american-values-10",
                    "--t-end", "0.005", "--h", "0.001")
    assert code == EXIT_VALIDATION
    assert "need at least 10 samples, got 6" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_that_diverges_past_the_first_chunk_leaves_the_out_directory_as_it_was(
        tmp_path, capsys):
    # the share of the first strategy leaves 1 slowly and then falls at a rate
    # of 1000: at h = 0.01 step 1383 lands below the simplex, in the second chunk
    assert evolution.CHUNK_STEPS < 1383
    doc = _with(evolution_doc(), ["matrix"], [["0", "0"], ["1", "1000"]])
    path = tmp_path / "game.json"
    path.write_text(json.dumps(_with(doc, ["strategies"], [["A", "B"]])))
    argv = ["evolve", "--in", str(path), "--p0", "999999999/1000000000,1/1000000000",
            "--t-end", "40", "--h", "0.01"]
    out = tmp_path / "existing"
    out.mkdir()
    (out / "trajectory.csv").write_text("kept\n")
    (out / "notes.txt").write_text("mine\n")
    fresh = tmp_path / "fresh" / "nested"
    for where in (out, fresh):
        assert main([*argv, "--out", str(where)]) == EXIT_VALIDATION
        assert "below -1e-09" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["notes.txt", "trajectory.csv"]
    assert (out / "trajectory.csv").read_text() == "kept\n"
    assert not (tmp_path / "fresh").exists()
    # a run that passes every check replaces the file and leaves nothing else
    assert main([*argv[:-4], "--t-end", "5", "--h", "0.01", "--out", str(out)]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["evolve.json", "notes.txt", "trajectory.csv"]
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 501


def test_evolve_holds_one_chunk_whatever_the_run_length(tmp_path):
    # 1,000 and 10,000 steps: holding the whole run, the traced peak went from
    # 0.3 to 1.4 MiB; one chunk of rps and its CSV text take about 0.25 MiB
    peaks = []
    for t_end in ("20", "200"):
        out = tmp_path / t_end
        tracemalloc.start()
        try:
            code = main(["evolve", "--in", "rps", "--t-end", t_end, "--h", "0.02",
                         "--out", str(out)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 50 * int(t_end) + 1
    assert max(peaks) < 2**19, peaks


def test_evolve_reads_decimal_p0_exactly(tmp_path):
    reports = []
    for p0 in ("0.2,0.3,0.5", "1/5,3/10,1/2"):
        out = tmp_path / p0.replace("/", "_")
        argv = ["evolve", "--in", "rps", "--p0", p0, "--t-end", "0.5", "--h", "0.01"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        reports.append([(out / f).read_bytes() for f in ("evolve.json", "trajectory.csv")])
    assert read_json(tmp_path / "0.2,0.3,0.5" / "evolve.json")["p0"] == ["1/5", "3/10", "1/2"]
    assert reports[0] == reports[1]


def test_the_evolution_view_of_a_strategic_game_equals_the_game_of_its_fractions():
    # u2(i, j) = u1(j, i), so at each profile the two players' payoffs have
    # different denominators; the view is built from the integer table
    from gtkit.cli import _to_evolution

    a = [[F(1, 2), F(2, 3), F(0)], [F(5, 7), F(1), F(-3, 4)], [F(2), F(1, 6), F(9, 5)]]
    n = len(a)
    game = StrategicGame((("x", "y", "z"),) * 2,
                         [[(a[i][j], a[j][i]) for j in range(n)] for i in range(n)])
    assert any(game.payoff((i, j))[0].denominator != game.payoff((i, j))[1].denominator
               for i in range(n) for j in range(n))
    view = _to_evolution(gamefile.Scenario("strategic", "s", "", game))
    expected = evolution.EvolutionGame(a)
    assert view == expected and hash(view) == hash(expected)
    assert (view.scale, view.table) == (expected.scale, expected.table) and view.scale == 420
    assert [x.hex() for row in view.matrix for x in row] == [
        x.hex() for row in expected.matrix for x in row]
    assert view.exact == tuple(map(tuple, a))
    # a table over a multiple of D is reduced, so the game stays value-equal
    doubled = evolution.EvolutionGame._checked(
        2 * view.scale, [[2 * v for v in row] for row in view.table])
    assert doubled == expected and hash(doubled) == hash(expected)
    assert doubled.matrix == expected.matrix


def test_evolve_rejects_asymmetric_strategic(tmp_path):
    # BoS and the (matcher vs mismatcher) Matching Pennies are not symmetric-role games
    for name in ("bos", "matching-pennies"):
        code = main(["evolve", "--in", name, "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION


def test_evolve_accepts_symmetric_strategic(tmp_path):
    # the Prisoner's Dilemma is symmetric: u2(i, j) = u1(j, i)
    code, out = run(
        tmp_path, "evolve", "--in", "pd", "--p0", "1/2,1/2",
        "--t-end", "60", "--h", "0.01",
    )
    assert code == EXIT_OK
    rep = read_json(out / "evolve.json")
    assert rep["recurrence"]["kind"] == "convergent"  # defection takes over


# ---------------------------------------------------------------------------
# quantumize


def test_quantumize_bos_complex(tmp_path):
    code, out = run(tmp_path, "quantumize", "--in", "bos")
    assert code == EXIT_OK
    rep = read_json(out / "equilibria.json")
    assert rep["mode"] == "complex"
    assert rep["best_equilibrium_payoffs"] == pytest.approx([2.5, 2.5], abs=1e-9)
    assert rep["classical_mixed_payoffs"] == ["6/5", "6/5"]
    pareto = [r for r in rep["equilibria"] if r["pareto_optimal_among_equilibria"]]
    assert {(r["p"], r["q"]) for r in pareto} == {(0.0, 0.0), (1.0, 1.0)}
    assert all(r["exceeds_classical_mixed"] for r in pareto)
    surface = (out / "surface.csv").read_text().splitlines()
    assert surface[0] == "p,q,payoff1,payoff2"
    assert len(surface) == 1 + 101 * 101


def test_quantumize_classical_limit(tmp_path):
    code, out = run(tmp_path, "quantumize", "--in", "bos", "--alpha", "1", "--grid", "100")
    rep = read_json(out / "equilibria.json")
    pts = {(r["p"], r["q"]) for r in rep["equilibria"]}
    assert pts == {(0.0, 0.0), (1.0, 1.0), (0.6, 0.4)}


def test_quantumize_padic_mode(tmp_path):
    code, out = run(
        tmp_path, "quantumize", "--in", "bos", "--padic", "--p", "7", "--grid", "4"
    )
    assert code == EXIT_OK
    rep = read_json(out / "equilibria.json")
    assert rep["mode"] == "padic" and rep["p"] == 7 and rep["mu"] == -1
    assert [e["value"] for e in rep["payoffs"]] == ["5/2", "5/2"]
    assert [e["norm"] for e in rep["payoffs"]] == ["1", "1"]
    gaps = {g["against"]: g for g in rep["hierarchy"]}
    assert gaps["mixed interior"]["gap"] == ["13/10", "13/10"]
    assert gaps["mixed interior"]["gap_norms"] == ["1", "1"]
    surface = (out / "surface.csv").read_text().splitlines()
    assert surface[0] == "p,q,payoff1,payoff2"
    assert len(surface) == 1 + 25
    assert surface[-1].split(",") == ["1", "1", "5/2", "5/2"]


def test_quantumize_padic_classical_alpha(tmp_path):
    code, out = run(
        tmp_path, "quantumize", "--in", "bos", "--padic", "--alpha", "1", "--grid", "2"
    )
    rep = read_json(out / "equilibria.json")
    assert [e["value"] for e in rep["payoffs"]] == ["3", "2"]
    assert rep["distribution"] == ["1", "0", "0", "0"]


def test_quantumize_padic_reports_the_parsed_alpha(tmp_path):
    reports = []
    for alpha in ("0.6", "3/5"):
        code, out = run(tmp_path, "quantumize", "--in", "bos", "--padic", "--alpha", alpha,
                        "--grid", "2")
        assert code == EXIT_OK
        reports.append((out / "equilibria.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["alpha"] == "3/5"


def test_quantumize_rejects_non_2x2(tmp_path):
    code = main(["quantumize", "--in", "rps", "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# padic command


def test_padic_expand(tmp_path):
    code, out = run(tmp_path, "padic", "--expr", "expand -1 @ 3^8")
    assert code == EXIT_OK
    rep = read_json(out / "padic.json")
    assert rep["results"][0]["digits"] == [2] * 8
    assert rep["results"][0]["valuation"] == 0


def test_padic_dist_and_distcheck(tmp_path):
    code, out = run(
        tmp_path,
        "padic",
        "--expr", "dist 2 51 @ 7",
        "--expr", "distcheck 1,-5,-1,6",
        "--expr", "dist 1 2 @ 7",
    )
    rep = read_json(out / "padic.json")
    assert rep["results"][0]["distance"] == "1/49"
    assert rep["results"][1]["is_distribution"] is True
    assert rep["results"][2]["distance"] == "1"


def _distcheck_expression(n):
    # n probabilities 1/n +- 1/(10^300 + k), the "+" ones first: each is within the
    # digit bound and they sum to exactly 1, but a running Fraction total of them
    # reaches a denominator of n/2 * 300 digits before it cancels
    half = n // 2
    plus = [F(1, n) + F(1, 10**300 + k) for k in range(half)]
    minus = [F(1, n) - F(1, 10**300 + k) for k in range(half)]
    return "distcheck " + ",".join(map(str, plus + minus))


def test_distcheck_of_many_long_denominators_is_pinned_and_fast(tmp_path, capsys):
    import hashlib

    expr = _distcheck_expression(200)
    start = time.perf_counter()
    code, out = run(tmp_path, "padic", "--expr", expr)
    assert time.perf_counter() - start < 0.1  # 0.18 s when the sum was taken twice
    assert code == EXIT_OK
    report = (out / "padic.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == (
        "b3cf62af223317e3c7b1f1f9a74f56ab99464fd594f69b1592a41d9238ead0c1")
    (result,) = json.loads(report)["results"]
    assert (result["sum"], result["is_distribution"]) == ("1", True)
    summary = {k: v for k, v in result.items() if k not in ("op", "expr")}
    assert capsys.readouterr().out == (
        f"{expr}  ->  {json.dumps(summary, sort_keys=True)}\n"
        f"report          {out / 'padic.json'}\n")


def test_padic_file_input(tmp_path):
    exprs = tmp_path / "exprs.txt"
    exprs.write_text(
        "# a comment\n"
        "norm 49 @ 7\n"
        "add -1 1 @ 3^5\n"
        "mul 1/3 3 @ 3^6\n"
        "sqrt 1/2 @ 7^10\n"
        "nonresidue 5\n"
    )
    code, out = run(tmp_path, "padic", "--in", str(exprs))
    assert code == EXIT_OK
    rep = read_json(out / "padic.json")
    res = rep["results"]
    assert res[0]["norm"] == "1/49"
    assert res[1]["literal"].startswith("inf:")  # canonical zero
    assert res[2]["rational"] == "1"
    assert res[3]["is_square"] is True
    assert res[4]["mu"] == 2


@pytest.mark.parametrize("expr,key,want", [
    ("dist 1 8 @ 7^1", "distance", "1/7"),
    ("dist 1 282475250 @ 7^5", "distance", "1/282475249"),
    ("sub 3/5 1/7 @ 7^2", "rational", "16/35"),
    ("add 1/999 1/998 @ 7^3", "rational", "1997/997002"),
    ("sqrt 17 @ 2^8", "literal", "0:1.0.0.1.0.1.1@2^7"),  # the 2-adic lift
])
def test_padic_reports_exact_values_at_any_precision(tmp_path, expr, key, want):
    code, out = run(tmp_path, "padic", "--expr", expr)
    assert code == EXIT_OK
    assert read_json(out / "padic.json")["results"][0][key] == want


def test_padic_division_by_zero_is_a_validation_error(tmp_path, capsys):
    assert run(tmp_path, "padic", "--expr", "div 1 0 @ 7")[0] == EXIT_VALIDATION
    assert "division by zero" in capsys.readouterr().err


def _exact_norm(q, p):
    """|q|_p by counting factors of p, independent of gtkit."""
    if q == 0:
        return F(0)
    v = 0
    for part, sign in ((q.numerator, 1), (q.denominator, -1)):
        while part % p == 0:
            part, v = part // p, v + sign
    return F(p) ** -v


_SMALL_RATIONALS = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["add", "sub", "mul", "div", "dist"]), _SMALL_RATIONALS,
       _SMALL_RATIONALS, st.sampled_from([2, 3, 5, 7, 101]), st.integers(1, 8))
def test_padic_arithmetic_reports_are_exact(tmp_path_factory, op, a, b, p, n):
    out = tmp_path_factory.mktemp("arith")
    code = main(["padic", f"--expr={op} {a} {b} @ {p}^{n}", "--out", str(out)])
    if op == "div" and b == 0:
        assert code == EXIT_VALIDATION
        return
    assert code == EXIT_OK
    (res,) = read_json(out / "padic.json")["results"]
    if op == "dist":
        assert res["distance"] == str(_exact_norm(a - b, p))
        return
    exact = {"add": a + b, "sub": a - b, "mul": a * b, "div": a / b if b else None}[op]
    assert res["rational"] == str(exact)
    # the literal is still the fixed-precision p-adic result
    x, y = (padic.padic_from_rational(q, 1, p, n) for q in (a, b))
    z = {"add": padic.add, "sub": padic.sub, "mul": padic.mul, "div": padic.div}[op](x, y)
    assert res["literal"] == padic.format_padic(z)


def test_padic_non_utf8_expression_file(tmp_path):
    bad = tmp_path / "exprs.txt"
    bad.write_bytes(b"expand 1 @ 7\n\xff\n")
    assert run(tmp_path, "padic", "--in", str(bad))[0] == EXIT_PARSE


def test_padic_large_prime_is_fast(tmp_path):
    start = time.perf_counter()
    code, out = run(tmp_path, "padic", "--expr", "sqrt 2 @ 1000000007",
                    "--expr", "nonresidue 1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    sqrt2, nonresidue = read_json(out / "padic.json")["results"]
    assert sqrt2["is_square"] is True
    assert sqrt2["literal"].startswith("0:59713600.595495017.")
    assert nonresidue["mu"] == -1


def test_padic_bad_expression(tmp_path, capsys):
    code = main(["padic", "--expr", "frobnicate 5 @ 7", "--out", str(tmp_path / "o")])
    assert code == EXIT_PARSE
    code2 = main(["padic", "--out", str(tmp_path / "o2")])
    assert code2 == EXIT_PARSE
    bad = {
        "add 1 @ 7": EXIT_PARSE,  # wrong arity
        "dist 1 @ 7": EXIT_PARSE,
        "sqrt @ 7": EXIT_PARSE,
        "expand 1 2 @ 7": EXIT_PARSE,
        "expand 1 @ x": EXIT_PARSE,  # site is not an integer
        "expand 1 @ 7^x": EXIT_PARSE,
        "expand 1 @ 7^": EXIT_PARSE,
        "distcheck 1/2,x": EXIT_PARSE,
        "nonresidue x": EXIT_PARSE,
        "expand 1e5000 @ 7": EXIT_SIZE,  # beyond the int-to-string limit
        "expand 1e999999999 @ 7": EXIT_SIZE,  # rejected before 10**exponent is built
        "expand 1 @ 7^0": EXIT_VALIDATION,
        "expand 1 @ 6": EXIT_VALIDATION,
    }
    for expr, want in bad.items():
        capsys.readouterr()
        assert main(["padic", "--expr", expr, "--out", str(tmp_path / "o3")]) == want, expr
        assert "error" in capsys.readouterr().err, expr
    # `--p` was never read; it is gone rather than silently taken as `--prec`
    with pytest.raises(SystemExit) as exc:
        main(["padic", "--p", "5", "--expr", "expand 1/5 @ 7", "--out", str(tmp_path / "o4")])
    assert exc.value.code == EXIT_PARSE


_PADIC_OPS = ("expand", "norm", "val", "dist", "add", "sub", "mul", "div", "sqrt",
              "distcheck", "nonresidue", "frobnicate")
_RATIONAL_TOKENS = st.one_of(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6).map(str),
    st.sampled_from(["0", "x", "1/0", "1/", "1e3", "1e-3", "1e5000", "-7/49"]),
)
_SITES = st.one_of(
    st.builds("{}^{}".format, st.integers(-1, 14), st.integers(-1, 64)),
    st.integers(-1, 14).map(str),
    st.sampled_from(["x", "7^x", "7^", "^3", "7^3^2", "@"]),
)


@st.composite
def padic_expressions(draw):
    op = draw(st.sampled_from(_PADIC_OPS))
    operands = draw(st.lists(_RATIONAL_TOKENS, max_size=3))
    if op == "distcheck":
        return f"{op} {','.join(operands)}"
    site = draw(st.one_of(st.none(), _SITES))
    return " ".join([op, *operands] + ([] if site is None else ["@", site]))


@settings(max_examples=150, deadline=None)
@given(padic_expressions())
def test_padic_expressions_never_raise(tmp_path_factory, expr):
    out = tmp_path_factory.mktemp("padic")
    assert main(["padic", "--expr", expr, "--out", str(out)]) in (
        EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_SIZE)


def test_quantumize_finds_off_grid_interior_equilibrium(tmp_path):
    reports = []
    for alpha in ("3/5", "0.6"):
        code, out = run(tmp_path, "quantumize", "--in", "bos", "--alpha", alpha)
        assert code == EXIT_OK
        rep = read_json(out / "equilibria.json")
        interior = [r for r in rep["equilibria"] if 0 < r["p"] < 1]
        assert [(r["p"], r["q"]) for r in interior] == [(0.472, 0.528)]
        assert interior[0]["payoffs"] == [3894 / 3125, 3894 / 3125] == [1.24608, 1.24608]
        assert rep["best_equilibrium_payoffs"] == [2.64, 2.64]
        reports.append([(out / f).read_bytes() for f in ("equilibria.json", "surface.csv")])
    assert reports[0] == reports[1]


def test_quantumize_exact_payoffs_at_max(tmp_path):
    code, out = run(tmp_path, "quantumize", "--in", "bos", "--grid", "4")
    rep = read_json(out / "equilibria.json")
    assert rep["best_equilibrium_payoffs"] == [2.5, 2.5]
    assert [r["payoffs"] for r in rep["equilibria"]] == [[2.5, 2.5], [1.25, 1.25], [2.5, 2.5]]
    assert rep["continua"] == []
    assert len((out / "surface.csv").read_text().splitlines()) == 1 + 25


def test_quantumize_constant_game_is_one_continuum(tmp_path):
    game = tmp_path / "const.json"
    game.write_text(json.dumps({
        "format": "gt-game/1", "kind": "strategic", "name": "const", "players": 2,
        "strategies": [["a", "b"], ["a", "b"]],
        "payoffs": [[["1", "1"], ["1", "1"]], [["1", "1"], ["1", "1"]]],
    }))
    code, out = run(tmp_path, "quantumize", "--in", str(game), "--grid", "10")
    assert code == EXIT_OK
    rep = read_json(out / "equilibria.json")
    assert rep["equilibria"] == []
    assert rep["continua"] == [{
        "p": [0.0, 1.0], "q": [0.0, 1.0], "payoff_range": [[1.0, 1.0], [1.0, 1.0]],
        "pareto_optimal_among_equilibria": True,
    }]


def test_quantumize_padic_coarse_precision_fine_grid(tmp_path):
    code, out = run(
        tmp_path, "quantumize", "--in", "bos", "--padic", "--p", "7", "--prec", "10",
        "--grid", "100",
    )
    assert code == EXIT_OK
    rows = (out / "surface.csv").read_text().splitlines()
    assert len(rows) == 1 + 101 * 101
    u = {(0, 0): (3, 2), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (2, 3)}
    for k, line in enumerate(rows[1:]):
        p, q, pay1, pay2 = (F(v) for v in line.split(","))
        assert (p, q) == (F(k // 101, 100), F(k % 101, 100))
        d = {
            (0, 0): (p * q + (1 - p) * (1 - q)) / 2,
            (0, 1): (p * (1 - q) + (1 - p) * q) / 2,
            (1, 0): ((1 - p) * q + p * (1 - q)) / 2,
            (1, 1): ((1 - p) * (1 - q) + p * q) / 2,
        }
        assert [pay1, pay2] == [sum(d[s] * u[s][i] for s in u) for i in (0, 1)]


PADIC_DIGESTS = {
    ("bos", "max"): ("269e381902d3474c82adfffc351f64dd7ad413382e8c657d97e90a8ef72c4b59",
                     "e27672e8e156e5b920d2c89466e67169c37dcaf284c8ae6a6cdbb5fb08193f40"),
    ("pd", "max"): ("dbf600c8f102ef9a44420ac02215b075fc2dad9535ef6ed84203cd6479b029e8",
                    "39f3b65e9b03728ca6e9f87b96fa359cef5878b9ed7c1b2c17dfcea3a1b46786"),
    ("matching-pennies", "max"): (
        "1b8dd226de8570bf7e103fb983997bd952c498a6dcd0fbea816d6c2949541299",
        "641b73a970b1cc69028d5dead62590a340171f9e44e1d6172968c177995af759"),
    ("bos", "3/5"): ("ef04932a555b9c23c6c830c59216d7b7327408835a26a7e9dede9e9b2a41e816",
                     "2f371df31adb0a419185cfe70e58d90672a4c6a663fc8adff4e626b3e072b885"),
    ("bos", "4/5"): ("64d161d65e24e7dfc87437b8ff967140bd595f8a059c062014842a43b2ec1a0c",
                     "002c155a08c84cc814323f1c7b02f3199f31d187bb53181760dbf4fb483b26b4"),
}


@pytest.mark.parametrize("name,alpha", sorted(PADIC_DIGESTS))
def test_quantumize_padic_reports_are_pinned(tmp_path, monkeypatch, name, alpha):
    # sha256 of the reports as the per-grid-point p-adic construction wrote
    # them; padic_quantumize_2x2 now runs once per job, and neither reference
    # oracle runs at all
    import hashlib

    from gtkit import padic_quantum, quantum

    calls = []
    original = padic_quantum.padic_quantumize_2x2
    monkeypatch.setattr(padic_quantum, "padic_quantumize_2x2",
                        lambda *a: calls.append(a) or original(*a))
    # the Kraus-sum oracle lives in the tests only; the grid search is disabled
    assert not hasattr(quantum, "mw_final_density")
    monkeypatch.setattr(quantum, "mw_nash_search", None)
    code, out = run(tmp_path, "quantumize", "--in", name, "--padic", "--grid", "28",
                    "--p", "7", "--prec", "32", "--alpha", alpha)
    assert code == EXIT_OK
    assert len(calls) == 1
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("surface.csv", "equilibria.json"))
    assert digests == PADIC_DIGESTS[(name, alpha)]


COMPLEX_DIGESTS = {
    ("bos", "max"): ("63aa6544ed989bb934d631a4aff7ea4f15d8b3e667256ff9fa3355296f230f38",
                     "7e75158187217e2965c90f3b09922aec6ac9d6413cd83969afb5c6b796ed1bcd"),
    ("pd", "max"): ("9bc68e5763713198e4d75b82d64b454401a270ca8dc552604db17289348a12c5",
                    "44782d4d1159fb7b1539be6945326569be2686f15a90dc56050f1a1c14154c63"),
    ("matching-pennies", "max"): (
        "803c30247cd6d8270c3abf76eb4a8094f063e20ad29285a0622510e2c9d3a8ca",
        "423d68696c8c4e252b77f133b57ec1ad3ad03c0ecb4a3362c352afa581548a94"),
    ("bos", "3/5"): ("f62d306f93272b1420b5da1911a04e7074d9ecae3df433b5a3228889ace08c3c",
                     "9bcc94c172dec61bf2e001b509c34a1e02e123ca2d2a8b0e022df1932843e3e6"),
}


@pytest.mark.parametrize("name,alpha", sorted(COMPLEX_DIGESTS))
def test_quantumize_complex_reports_are_pinned(tmp_path, name, alpha):
    # sha256 of the reports, each surface payoff the exact payoff correctly rounded
    import hashlib

    code, out = run(tmp_path, "quantumize", "--in", name, "--grid", "100", "--alpha", alpha)
    assert code == EXIT_OK
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("surface.csv", "equilibria.json"))
    assert digests == COMPLEX_DIGESTS[(name, alpha)]


# Reports pinned by sha256 over the exact-decision paths of evolve and analyze:
# (exit code, digest per report file, in the order named).  bos and
# matching-pennies do not have symmetric roles, so evolve refuses them with
# exit 3 and writes no file.
MIXED_EVOLUTION = [["1/2", "-1/3", "2/7", "0"], ["-5/7", "1/3", "1/2", "1"],
                   ["2/3", "-1/2", "3/7", "-1/3"], ["1/7", "2/3", "-3/2", "5/7"]]
MIXED_CONGESTION = {
    "players": 3,
    "resources": [{"name": "x", "costs": ["1/2", "4/3", "17/7"]},
                  {"name": "y", "costs": ["2/3", "5/7", "3"]},
                  {"name": "z", "costs": ["1/7", "3/2", "7/3"]}],
    "strategies": [[[0], [1], [0, 2]], [[1], [2], [0, 1]], [[0], [2]]],
}


def _mixed_denominator_input(tmp_path, kind):
    body = ({"kind": "evolution", "matrix": MIXED_EVOLUTION} if kind == "evolution"
            else {"kind": "congestion", **MIXED_CONGESTION})
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({"format": "gt-game/1", "name": f"mixed-{kind}", **body}))
    return str(path)


EVOLVE_FILES = ("evolve.json", "trajectory.csv")
REPORT_JOBS = {
    **{("analyze", name): () for name in gamefile.SCENARIO_NAMES},
    ("evolve", "rps"): ("--t-end", "20", "--h", "0.01"),
    ("evolve", "american-values-10"): ("--t-end", "20", "--h", "0.01"),
    **{("evolve", name): ("--t-end", "20", "--h", "0.01", "--p0", "1/3,2/3")
       for name in ("bos", "pd", "matching-pennies")},
    ("analyze", "mixed-evolution"): (),
    ("evolve", "mixed-evolution"): ("--t-end", "5", "--h", "0.01", "--p0", "1/7,2/7,1/2,1/14"),
    ("analyze", "mixed-congestion"): (),
}
REPORT_DIGESTS = {
    ("analyze", "american-values-10"): (
        0,
        "87a850312ed99015aadb0a231d7fbc05925fb3487bf6666500db79aab069133a"),
    ("analyze", "bos"): (0, "c953ac7c29cbac3b8ad3bc0f20c2a677ff4c20e3c6ce7cfb4ddc44e210803a12"),
    ("analyze", "congestion-2link"): (
        0,
        "4ef1cd2455c1cf4c7f1eea846012b510f6ce3a31c5c403828a3350a168cb132c"),
    ("analyze", "matching-pennies"): (
        0,
        "def88ab4fd9ac1ad69b00353c0b362c1c867517e4ef6f3167b8ce8d534e3f18f"),
    ("analyze", "mixed-congestion"): (
        0,
        "2cf3aca3faaabfb769e996720b0cecc03e40ecc84bcf1cbbb0b92dc6ba4f09de"),
    ("analyze", "mixed-evolution"): (
        0,
        "9e2ca6731c3b3182211587ba6b96c49bd7ff10fd4c2f2985f7b2477d16508f25"),
    ("analyze", "pd"): (0, "897ddfed24654102fa472d72c815fb812e1b45dda09a3ee118d0415b9236de5e"),
    ("analyze", "rps"): (0, "b87020520db85d429d9db19b32ea42a537e102030d924b3d67adc3a1c6b096a9"),
    ("evolve", "american-values-10"): (
        0,
        "e301f72e9d1f7a810c1b40210326a462169d73c368baf571c091fb02792546f5",
        "bc5aa043ed8299c01e32d6b325b541d43d25d89058d424e0ffafbf4873ab7782"),
    ("evolve", "bos"): (3,),
    ("evolve", "matching-pennies"): (3,),
    ("evolve", "mixed-evolution"): (
        0,
        "66f3d7ec74f193208d53a78f886fe2bdf8615501ae93ebb880ae6ad7cb271b22",
        "3f0739c8fc84f96f1be1f9589bd5b9ad01914f261319cb3657aa31ae6bc3a756"),
    ("evolve", "pd"): (
        0,
        "f3291d1c10b5bcb8d9710e7af5dbd6c9227e95baa830f7df51b183f5b8a3be96",
        "8966c30e746bc84a5726f51bbce3b6561ae532cc1e97a6c89ed77f0830507249"),
    ("evolve", "rps"): (
        0,
        "e2bbd51487552296a52c1ead76d579dc03f2f74566beaef408fc2985b10e315d",
        "958d891e2638a041851257ee6c2721d793afd1fae9f158a03c08dbee53a119ca"),
}


@pytest.mark.parametrize("command,name", sorted(REPORT_JOBS))
def test_reports_are_pinned(tmp_path, command, name):
    import hashlib

    source = (_mixed_denominator_input(tmp_path, name.removeprefix("mixed-"))
              if name.startswith("mixed-") else name)
    code, out = run(tmp_path, command, "--in", source, *REPORT_JOBS[command, name])
    files = ("analyze.json",) if command == "analyze" else EVOLVE_FILES
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in files if (out / f).exists())
    assert (code, *digests) == REPORT_DIGESTS[command, name]


def test_quantumize_complex_runs_no_oracle(tmp_path, monkeypatch):
    from gtkit import quantum

    assert not hasattr(quantum, "mw_final_density")
    monkeypatch.setattr(quantum, "mw_nash_search", None)
    assert run(tmp_path, "quantumize", "--in", "pd", "--grid", "5")[0] == EXIT_OK


def test_quantumize_rejects_bad_grid_and_alpha(tmp_path):
    for extra in (["--grid", "0"], ["--padic", "--grid", "0"], ["--alpha", "2"]):
        assert run(tmp_path, "quantumize", "--in", "bos", *extra)[0] == EXIT_VALIDATION
    assert run(tmp_path, "quantumize", "--in", "bos", "--alpha", "x")[0] == EXIT_PARSE
    assert run(tmp_path, "quantumize", "--in", "bos", "--padic", "--alpha", "1/2")[0] == (
        EXIT_VALIDATION
    )


def _padic_report_at(out, alpha, p, prec):
    """(exit code, equilibria.json less its precision) of a p-adic bos run on a grid of 1."""
    code = main(["quantumize", "--in", "bos", "--padic", f"--alpha={alpha}", "--p", str(p),
                 "--prec", str(prec), "--grid", "1", "--out", str(out)])
    if code != EXIT_OK:
        return code, None
    rep = read_json(out / "equilibria.json")
    assert rep.pop("precision") == prec
    return code, rep


@pytest.mark.parametrize("alpha,p,prec", [
    # precisions too low to read |alpha|^2 back from p-adic amplitudes, then two just enough
    ("5/13", 7, 3), ("5/13", 7, 4), ("12/13", 7, 4), ("8/17", 7, 2), ("8/17", 7, 3),
    ("8/17", 7, 5), ("3/5", 7, 2), ("3/5", 2, 2), ("3/5", 2, 3),
    ("3/5", 7, 4), ("5/13", 7, 6)])
def test_quantumize_padic_report_does_not_depend_on_the_precision(tmp_path, alpha, p, prec):
    code, rep = _padic_report_at(tmp_path / "low", alpha, p, prec)
    assert code == EXIT_OK
    assert rep == _padic_report_at(tmp_path / "high", alpha, p, 32)[1]
    a2 = F(alpha) ** 2
    assert rep["distribution"] == [str(a2), "0", "0", str(1 - a2)]


def test_quantumize_padic_works_from_the_exact_weight(tmp_path, monkeypatch):
    # no amplitude is lifted into Q_p(sqrt(mu)) and nothing is read back from p^N
    from gtkit import padic_quantum

    def refuse(*args):
        raise AssertionError("called on the p-adic quantumize path")

    monkeypatch.setattr(padic.PAdicExtElement, "__init__", refuse)
    monkeypatch.setattr(padic.PAdicNumber, "to_rational", refuse)
    for module in (padic, padic_quantum):
        monkeypatch.setattr(module, "hensel_sqrt", refuse)
    for alpha in ("max", "3/5", "5/13"):
        assert run(tmp_path, "quantumize", "--in", "bos", "--padic", "--alpha", alpha)[0] == EXIT_OK


def test_quantumize_has_no_mu_option(tmp_path):
    # the report's mu is find_nonresidue(p); nothing is computed in Q_p(sqrt(mu))
    with pytest.raises(SystemExit) as exc:
        main(["quantumize", "--in", "bos", "--padic", "--mu", "3", "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_PARSE
    assert not (tmp_path / "o").exists()


def _is_square_in_qp(q, p):
    """Squareness in Q_p by the Legendre symbol (p odd) or the unit mod 8 (p = 2)."""
    if q == 0:
        return True
    num, den, v = q.numerator, q.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    if v % 2:
        return False
    if p == 2:
        return num * den % 8 == 1  # den is odd, so den^2 = 1 mod 8 and num/den = num*den
    return pow(num * den, (p - 1) // 2, p) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 50).flatmap(lambda d: st.tuples(st.integers(-2 * d, 2 * d), st.just(d))),
       st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 12))
def test_every_padic_quantumize_report_is_exact(tmp_path_factory, alpha, p, prec):
    # exit 3 exactly when the state has no amplitudes in Q_p; otherwise the report is
    # the closed form, the same at every precision
    a = F(*alpha)
    a2 = a * a
    out = tmp_path_factory.mktemp("exact")
    code, rep = _padic_report_at(out, a, p, prec)
    if not (_is_square_in_qp(a2, p) and _is_square_in_qp(1 - a2, p)):
        assert code == EXIT_VALIDATION
        assert list(out.iterdir()) == []
        return
    assert code == EXIT_OK
    assert rep == _padic_report_at(tmp_path_factory.mktemp("exact32"), a, p, 32)[1]
    assert rep["distribution"] == [str(a2), "0", "0", str(1 - a2)]
    # bos pays (3, 2) on 00 and (2, 3) on 11
    assert [e["value"] for e in rep["payoffs"]] == [str(3 * a2 + 2 * (1 - a2)),
                                                    str(2 * a2 + 3 * (1 - a2))]


@pytest.mark.parametrize("argv", [
    ["quantumize", "--in", "bos", "--alpha", "1e30000000"],
    ["quantumize", "--in", "bos", "--padic", "--prec", "50000000"],
    ["quantumize", "--in", "bos", "--grid", "100000"],
    ["quantumize", "--in", "bos", "--padic", "--grid", "100000"],
    ["quantumize", "--in", "bos", "--grid", "447"],  # 448^2 points: just past the cap
    ["padic", "--expr", "expand 1/3 @ 7^50000000"],
    ["padic", "--prec", "100000000", "--expr", "expand 1/3 @ 7"],
])
def test_oversized_quantumize_and_padic_options_are_refused_at_once(tmp_path, capsys, argv):
    start = time.perf_counter()
    assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_SIZE
    assert time.perf_counter() - start < 1
    assert "error (size limit)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["evolve", "--in", "rps", "--t-end", "1e6", "--h", "1e-9"],
    ["evolve", "--in", "rps", "--t-end", "666.667", "--h", "0.001"],  # just past the cap
    ["evolve", "--in", "american-values-10", "--t-end", "1e300", "--h", "1e-300"],
])
def test_oversized_evolve_steps_are_refused_at_once(tmp_path, capsys, argv):
    start = time.perf_counter()
    assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_SIZE
    assert time.perf_counter() - start < 1
    assert "error (size limit)" in capsys.readouterr().err


def test_evolve_past_the_face_walk_bound_is_refused_at_once(tmp_path, capsys):
    n = evolution.SUPPORT_CAP.bit_length() + 1  # the smallest n with 2^n - 1 supports past it
    doc = _with(evolution_doc(), ["matrix"],
                [[str((i * j) % 5 - 2) for j in range(n)] for i in range(n)])
    doc = _with(doc, ["strategies"], [[f"s{i}" for i in range(n)]])
    doc = _with(doc, ["metadata", "default_p0"], [f"1/{n}"] * n)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run(tmp_path, "evolve", "--in", str(path))
    assert code == EXIT_SIZE
    assert time.perf_counter() - start < 1
    assert "error (size limit)" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_decides_nash_exactly(tmp_path):
    path = tmp_path / "near.json"
    doc = _with(evolution_doc(), ["matrix"], [["0", "0"], ["1/100000000000", "1"]])
    path.write_text(json.dumps(_with(doc, ["strategies"], [["A", "B"]])))
    code, out = run(tmp_path, "evolve", "--in", str(path), "--p0", "1/2,1/2", "--t-end", "0.1")
    assert code == EXIT_OK
    rest = {tuple(r["point"]): r for r in read_json(out / "evolve.json")["rest_points"]}
    assert rest[("1", "0")]["is_nash"] is False and "ess" not in rest[("1", "0")]
    assert rest[("0", "1")]["ess"] == {"is_ess": True, "method": "exact-face"}


def _evolution_file(tmp_path, matrix):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(_with(evolution_doc(), ["matrix"], matrix)))
    return str(path)


def test_evolve_decides_rest_points_of_large_payoffs_exactly(tmp_path):
    # binary64 residuals of these exact rest points are far above 1e-9
    path = _evolution_file(tmp_path, [
        ["250412573173", "764576291551", "-859280659516"],
        ["-741206449092", "672870155643", "37017667747"],
        ["-163977774053", "-537050958314", "69849980556"]])
    code, out = run(tmp_path, "evolve", "--in", path, "--t-end", "1e-13", "--h", "1e-14")
    assert code == EXIT_OK
    rest = read_json(out / "evolve.json")["rest_points"]
    assert [r["is_nash"] for r in rest] == [True, False, True, True, True, True]
    assert all(r["ess"]["method"] == "exact-face" for r in rest if r["is_nash"])


def test_evolve_refuses_non_finite_rest_point_diagnostics(tmp_path, capsys):
    path = _evolution_file(tmp_path, [
        ["1e308", "-1e308", "0"], ["-1e308", "1e308", "0"], ["0", "0", "1e308"]])
    code, out = run(tmp_path, "evolve", "--in", path, "--t-end", "1e-318", "--h", "1e-319")
    assert code == EXIT_VALIDATION
    assert "error (validation)" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_refuses_a_non_finite_step_at_once(tmp_path, capsys):
    path = _evolution_file(tmp_path, [
        ["1e308", "-1e308", "0"], ["-1e308", "1e308", "0"], ["0", "0", "1e308"]])
    start = time.perf_counter()
    code, out = run(tmp_path, "evolve", "--in", path, "--p0", "1/3,1/3,1/3")
    assert time.perf_counter() - start < 1
    assert code == EXIT_VALIDATION
    assert "RK4 step is not finite" in capsys.readouterr().err
    assert not out.exists()


def _rational_game(tmp_path, digits):
    """A 2x2 game file of rationals with numerators and one denominator of these many digits."""
    rng = random.Random(7)
    den = 10 ** (digits - 1) + 7
    doc = _with(bimatrix_doc(), ["payoffs"], [
        [[f"{rng.randrange(10 ** (digits - 1), 10**digits)}/{den}" for _ in range(2)]
         for _ in range(2)]
        for _ in range(2)])
    path = tmp_path / f"digits-{digits}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_an_exact_surface_of_long_payoffs_is_refused_at_once(tmp_path, capsys):
    # 447^2 points of about 1000 payoff digits: 408 MB written in 12 s without the bound
    start = time.perf_counter()
    code, out = run(tmp_path, "quantumize", "--in", _rational_game(tmp_path, 500),
                    "--padic", "--grid", "446")
    assert time.perf_counter() - start < 1
    assert code == EXIT_SIZE
    assert "error (size limit): --grid: 199809 points" in capsys.readouterr().err
    assert not out.exists()
    # 20-digit payoffs, about 40 digits a value, still get the largest grid
    game = gamefile.resolve_input(_rational_game(tmp_path, 20)).game
    gamefile.check_surface_digits(447**2, quantum.ClassicalForm(game, F(1, 2)).game, "--grid")


@pytest.mark.parametrize("name", ["bos", "pd", "matching-pennies", "congestion-2link"])
@pytest.mark.parametrize("alpha", ["max", "3/5", "4/5"])
def test_every_packaged_2x2_surface_is_accepted_at_the_largest_grid(name, alpha):
    game, _ = _to_strategic(gamefile.load_scenario(name))
    a2 = F(1, 2) if alpha == "max" else F(alpha) ** 2
    gamefile.check_surface_digits(447**2, quantum.ClassicalForm(game, a2).game, "--grid")


def test_quantumize_refuses_payoffs_beyond_binary64(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_with(bimatrix_doc(), ["payoffs", 0, 0], ["1e400", "3"])))
    code, out = run(tmp_path, "quantumize", "--in", str(path))
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "binary64 range" in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert run(tmp_path / "padic", "quantumize", "--padic", "--in", str(path))[0] == EXIT_OK


def test_precision_bound_counts_the_digits_of_p_to_the_n():
    for p in (2, 3, 7, 1000000007):
        n = 1
        while len(str(p**n)) <= gamefile.RATIONAL_DIGITS:
            n += 1
        gamefile.check_precision(p, n - 1, "site")
        with pytest.raises(errors.SizeLimit):
            gamefile.check_precision(p, n, "site")


_PRIMES = st.one_of(st.integers(-2, 16), st.sampled_from([1000000007, 10**30 + 57]))
# valid precisions stay small; the invalid ones are past the p^N digit bound
_PRECISIONS = st.one_of(st.integers(-1, 40), st.sampled_from([3322, 10**8, 10**40]))
_OPTION_VALUES = {
    "--grid": st.one_of(st.integers(-1, 6), st.sampled_from([447, 10**5, 10**40])),
    "--p": _PRIMES,
    "--prec": _PRECISIONS,
    "--alpha": st.one_of(
        st.fractions(min_value=-2, max_value=2, max_denominator=50).map(str),
        st.sampled_from(["max", "0.6", "1e-3", "", "x", "1/0", "nan", "1e30000000"])),
}


@st.composite
def quantumize_and_padic_argvs(draw):
    if draw(st.booleans()):
        argv = ["quantumize", "--in", draw(st.sampled_from(["bos", "pd", "matching-pennies"]))]
        if draw(st.booleans()):
            argv.append("--padic")
        for flag, values in _OPTION_VALUES.items():
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(values)}")
        return argv
    site = draw(st.one_of(_PRIMES.map(str), st.builds("{}^{}".format, _PRIMES, _PRECISIONS)))
    op = draw(st.sampled_from(["expand", "norm", "add", "sqrt"]))
    operands = ["1/3", "-2"][:2 if op == "add" else 1]
    argv = ["padic", "--expr", " ".join([op, *operands, "@", site])]
    if draw(st.booleans()):
        argv.append(f"--prec={draw(_PRECISIONS)}")
    return argv


@settings(max_examples=200, deadline=None)
@given(quantumize_and_padic_argvs())
def test_quantumize_and_padic_options_never_raise(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("opts")
    try:
        code = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse refuses a malformed integer
        code = exc.code
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_SIZE), argv


@pytest.mark.parametrize("argv", [
    ["analyze", "--in", "bos"],
    ["evolve", "--in", "rps", "--t-end", "1", "--h", "0.01"],
    ["quantumize", "--in", "bos", "--grid", "2"],
    ["padic", "--expr", "expand 1/3 @ 7^4"],
], ids=lambda argv: argv[0])
def test_an_unusable_out_is_a_validation_error(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):  # an existing file, then a path through it
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error (validation)" in err and str(out) in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# determinism


def test_outputs_are_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["analyze", "--in", "bos", "--out", str(out)]) == EXIT_OK
        assert main(
            ["evolve", "--in", "rps", "--t-end", "2", "--h", "0.01", "--out", str(out)]
        ) == EXIT_OK
        assert main(["quantumize", "--in", "bos", "--grid", "20", "--out", str(out)]) == EXIT_OK
    for name in ("analyze.json", "evolve.json", "trajectory.csv", "equilibria.json", "surface.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("name", ["bos", "matching-pennies"])
def test_quantumize_streams_its_surface(tmp_path, name):
    # one grid row's block at a time holds about 0.1 MiB at grid 200; its 40,401
    # lines joined 4096 at a time held 1.1 MiB.  Each mode is measured from its own
    # start.  At maximal entanglement bos's A' pays both players alike and
    # matching-pennies's does not, so both kinds of surface row are measured.  A
    # small untraced run first imports the modules the mode loads on first use
    for mode in ([], ["--padic"]):
        out = tmp_path / "".join(mode or ["complex"])
        assert main(["quantumize", "--in", name, "--grid", "2", *mode,
                     "--out", str(tmp_path / "first")]) == EXIT_OK
        tracemalloc.start()
        try:
            code = main(["quantumize", "--in", name, "--grid", "200", *mode, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK, mode
        assert len((out / "surface.csv").read_text().splitlines()) == 1 + 201 * 201
        assert peak < 2**18, mode


@pytest.mark.parametrize("mode", [[], ["--padic"]], ids=["complex", "padic"])
def test_a_surface_that_fails_after_its_first_block_leaves_the_out_directory_as_it_was(
        tmp_path, monkeypatch, capsys, mode):
    made = quantum.payoff_surface_rows

    def failing(*args, **kwargs):
        blocks = made(*args, **kwargs)
        yield from itertools.islice(blocks, 2)  # the header and the first grid row
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(quantum, "payoff_surface_rows", failing)
    out = tmp_path / "existing"
    out.mkdir()
    (out / "surface.csv").write_text("kept\n")
    (out / "notes.txt").write_text("mine\n")
    fresh = tmp_path / "fresh" / "nested"
    for where in (out, fresh):
        argv = ["quantumize", "--in", "bos", "--grid", "20", *mode, "--out", str(where)]
        assert main(argv) == EXIT_VALIDATION
        assert f"cannot write {where / 'surface.csv'}: No space left on device" in (
            capsys.readouterr().err)
    assert sorted(os.listdir(out)) == ["notes.txt", "surface.csv"]
    assert (out / "surface.csv").read_text() == "kept\n"
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("argv,name", [
    (["analyze", "--in", "bos"], "analyze.json"),
    (["padic", "--expr", "expand 1/3 @ 7"], "padic.json"),
    (["evolve", "--in", "rps", "--t-end", "1"], "trajectory.csv"),
    (["evolve", "--in", "rps", "--t-end", "1"], "evolve.json"),
    (["quantumize", "--in", "bos", "--grid", "2"], "surface.csv"),
    (["quantumize", "--in", "bos", "--grid", "2"], "equilibria.json"),
    (["quantumize", "--in", "bos", "--grid", "2", "--padic"], "equilibria.json"),
], ids=["analyze", "padic", "evolve-csv", "evolve-json", "quantumize-csv", "quantumize-json",
        "quantumize-padic-json"])
def test_a_report_that_is_a_directory_refuses_the_run_and_places_no_file(
        tmp_path, capsys, argv, name):
    # every report is staged, and a run places all its files or none
    (tmp_path / name).mkdir()
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error (validation): cannot write {tmp_path / name}: Is a directory\n")
    assert os.listdir(tmp_path) == [name]
    assert os.listdir(tmp_path / name) == []


def test_a_json_report_is_written_as_it_is_encoded(tmp_path):
    # 10**5 profile rows, each profile twice, as `gt analyze` lists a constant-sum
    # game's: json.dumps would hold every encoder chunk and then their join, a
    # traced peak of about 25 MiB above the report itself
    rows = [[f"s{k // 250}", f"t{k % 250}"] for k in range(5 * 10**4)]
    report = {"pareto_optimal": rows, "social_optimum": {"profiles": rows, "welfare": "1/3"},
              "value": 0.1}
    tracemalloc.start()
    try:
        with _staged(str(tmp_path), "report.json") as fh:
            _write_json(fh, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with open(tmp_path / "report.json", "rb") as fh:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert fh.read() == text.encode("utf-8")


def test_a_report_holding_an_exact_value_raises_and_places_no_file(tmp_path):
    # a report converts its own exact values: the writer has no silent float path
    with pytest.raises(TypeError):
        with _staged(str(tmp_path / "out"), "report.json") as fh:
            _write_json(fh, {"value": 0.5, "welfare": F(1, 3)})
    assert os.listdir(tmp_path) == []


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_one_parser_serves_runs_with_different_options(tmp_path):
    # a p-adic run, then a complex one, in one process and in two fresh processes
    env = dict(os.environ, PYTHONPATH=str(Path(gtkit.__file__).resolve().parent.parent))
    for where, mode in (("padic", ["--padic"]), ("complex", [])):
        argv = ["quantumize", "--in", "bos", "--grid", "12", *mode]
        assert main([*argv, "--out", str(tmp_path / "here" / where)]) == EXIT_OK
        subprocess.run([sys.executable, "-m", "gtkit.cli", *argv,
                        "--out", str(tmp_path / "fresh" / where)],
                       env=env, capture_output=True, check=True)
    for where in ("padic", "complex"):
        for name in ("surface.csv", "equilibria.json"):
            here, fresh = (tmp_path / side / where / name for side in ("here", "fresh"))
            assert here.read_bytes() == fresh.read_bytes(), (where, name)
