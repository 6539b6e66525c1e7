"""The gt-game/1 JSON schema: parsing, serialization, packaged scenario library.

Strategic games store the payoff tensor as nested arrays of rational strings
("3", "2/5") so exactness survives the file system.  Two schema variants
cover the non-strategic scenarios: kind "evolution" (a square payoff matrix)
and kind "congestion" (resources with cost ladders plus per-player strategy
lists).  Every scenario serialized and re-parsed is value-identical.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import gtkit

from . import errors
from .games import (
    RATIONAL_DIGITS,
    _RATIONAL_LIMIT,
    CongestionGame,
    StrategicGame,
    _integer_payoffs,
    parse_fraction,
)

FORMAT = "gt-game/1"
SCENARIO_NAMES = (
    "bos",
    "pd",
    "matching-pennies",
    "rps",
    "congestion-2link",
    "american-values-10",
)
# Largest number of pure profiles a game file may declare, and of (p, q) points
# on a `gt quantumize` surface grid.
PROFILE_CAP = 200_000
# Largest grid points x payoff digits of an exact `gt quantumize --padic`
# surface, which writes two payoffs of about that many digits per point: at
# the cap about 20 MB, made in about 0.7 s on a 2-core Xeon.
SURFACE_DIGIT_CAP = 10_000_000


class Scenario:
    """A parsed game file of kind "strategic", "evolution" or "congestion";
    mutable, so unhashable (it defines __eq__ alone), and equal when every field is."""

    __slots__ = ("kind", "name", "description", "game", "metadata")

    def __init__(self, kind, name, description, game, metadata=None):
        self.kind, self.name, self.description, self.game = kind, name, description, game
        self.metadata = {} if metadata is None else metadata

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ([getattr(self, f) for f in self.__slots__]
                    == [getattr(other, f) for f in self.__slots__])
        return NotImplemented


def parse_rational(text, where):
    """Fraction from a literal such as "3", "-2/5", "0.25" or "1e-3" (JSON numbers too).

    ParseError when malformed; SizeLimit beyond RATIONAL_DIGITS digits, with a
    large exponent refused before 10**exponent is built.  An int past Python's
    int-to-string limit, which str() refuses, is a SizeLimit too.
    """
    try:
        text = str(text)
    except ValueError as exc:
        raise errors.SizeLimit(f"rational ({where}) exceeds {RATIONAL_DIGITS} digits") from exc
    try:
        return parse_fraction(text, f"rational {text!r} ({where})")
    except (ValueError, ZeroDivisionError) as exc:
        raise errors.ParseError(f"bad rational {text!r} ({where})") from exc


def _payoff(value, where, prefix):
    """parse_rational(value, f"{where}{list(prefix)}"), but a plain integer literal
    (at most RATIONAL_DIGITS ASCII digits with an optional "-", or a JSON int
    inside the bound) goes straight to int: the one home of that rule.  The
    location is built only for the general parse, where a message may need it."""
    if type(value) is str:
        digits = value.removeprefix("-")
        if digits.isascii() and digits.isdigit() and len(digits) <= RATIONAL_DIGITS:
            return int(value)
    elif type(value) is int and -_RATIONAL_LIMIT < value < _RATIONAL_LIMIT:
        return value
    return parse_rational(value, f"{where}{list(prefix)}")


def check_profile_count(shape, where):
    """SizeLimit when a game of this shape has more than PROFILE_CAP pure profiles."""
    count = math.prod(shape)
    if count > PROFILE_CAP:
        raise errors.SizeLimit(
            f"{where}: {count} profiles exceed the desk-scale cap of {PROFILE_CAP}"
        )


def check_surface_digits(points, game, where):
    """SizeLimit when points times the payoff digits of a strategic game exceed
    SURFACE_DIGIT_CAP.  The payoff digits are those of the largest magnitude
    among the game's ints plus those of its denominator D, counted from
    bit lengths (within one of the decimal count): a payoff of the exact
    surface, a fraction over D times the squared grid, has about that many."""
    largest = max(abs(v) for s in game.profiles() for v in game.ints(s))
    digits = (largest.bit_length() + game._scale.bit_length()) * math.log10(2)
    if points * digits > SURFACE_DIGIT_CAP:
        raise errors.SizeLimit(
            f"{where}: {points} points of payoffs of about {digits:.0f} digits exceed "
            f"the cap of {SURFACE_DIGIT_CAP} digits"
        )


def check_precision(p, n, where):
    """SizeLimit when p**n would have more than RATIONAL_DIGITS digits, decided without it.

    p < 2 is no prime and is left to the prime check.
    """
    if p > 1 and n >= RATIONAL_DIGITS / math.log10(p):
        raise errors.SizeLimit(f"{where}: p^N exceeds {RATIONAL_DIGITS} digits")


def _strings(value, where, length=None):
    """value if it is a non-empty list of strings (of the given length); ParseError otherwise."""
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(v, str) for v in value)
        or length is not None and len(value) != length
    ):
        size = "a non-empty" if length is None else f"a {length}-entry"
        raise errors.ParseError(f"{where}: expected {size} list of strings")
    return value


def _names(value, where, length=None):
    """_strings, all distinct: a repeated strategy name would make labels ambiguous."""
    if len(set(_strings(value, where, length))) != len(value):
        raise errors.ParseError(f"{where}: strategy names must be distinct")
    return value


def _tensor_to_nested(game):
    """The payoffs as nested lists of strings, grouped from the last player up."""
    nested = [[str(v) for v in game.payoff(s)] for s in game.profiles()]
    for k in reversed(game.shape):
        nested = [nested[at:at + k] for at in range(0, len(nested), k)]
    return nested[0]


def _parse_payoffs(nested, shape, n_players, where="payoffs"):
    """The payoffs of the nested arrays, checked against the shape and read
    depth first into one flat list, each literal read once by `_payoff`, to an
    int or a Fraction, so an error names the first bad position.  Every
    strategic game file's payoffs are read here, by an explicit stack: a
    recursive closure would hold itself, and the values, in a cycle."""
    values = []
    stack = [(nested, ())]
    while stack:
        node, prefix = stack.pop()
        depth = len(prefix)
        if depth == n_players:
            if not isinstance(node, list) or len(node) != n_players:
                raise errors.ParseError(f"{where}{list(prefix)}: expected {n_players} payoffs")
            values.extend([_payoff(v, where, prefix) for v in node])
            continue
        if not isinstance(node, list) or len(node) != shape[depth]:
            raise errors.ParseError(
                f"{where}{list(prefix)}: expected {shape[depth]} entries, got "
                f"{len(node) if isinstance(node, list) else type(node).__name__}"
            )
        stack += [(node[i], prefix + (i,)) for i in reversed(range(len(node)))]
    return values


def _strategic_game(strategies, shape, payoffs):
    """The StrategicGame of a file's checked strategy lists and its payoff
    arrays: `_parse_payoffs` reads the payoffs depth first, so an error names
    the first bad position, and `games._integer_payoffs` puts the values over
    their common denominator, as `StrategicGame` does."""
    n = len(shape)
    values = _parse_payoffs(payoffs, shape, n)
    if n < 2:  # refused after the payoffs are read, as StrategicGame refuses it
        raise errors.InvalidArgument("a strategic game needs at least 2 players")
    return StrategicGame._checked(tuple(map(tuple, strategies)), *_integer_payoffs(values, n))


def scenario_to_dict(scn):
    """Canonical JSON-ready dict for a Scenario."""
    doc = {
        "format": FORMAT,
        "kind": scn.kind,
        "name": scn.name,
        "description": scn.description,
        "metadata": scn.metadata,
    }
    g = scn.game
    if scn.kind == "strategic":
        doc["players"] = g.n_players
        doc["strategies"] = [list(names) for names in g.strategy_names]
        doc["payoffs"] = _tensor_to_nested(g)
    elif scn.kind == "evolution":
        doc["strategies"] = [[f"s{i + 1}" for i in range(g.n)]] if not scn.metadata.get(
            "strategy_names"
        ) else [list(scn.metadata["strategy_names"])]
        doc["matrix"] = [[str(v) for v in row] for row in g.exact]
    elif scn.kind == "congestion":
        doc["players"] = g.n_players
        doc["resources"] = [
            {"name": name, "costs": [str(Fraction(c, g.scale)) for c in costs]}
            for name, costs in zip(g.resource_names, g.costs)
        ]
        doc["strategies"] = [[list(s) for s in per_player] for per_player in g.strategies]
    else:
        raise errors.InvalidArgument(f"unknown scenario kind {scn.kind!r}")
    return doc


def dumps(scn):
    return json.dumps(scenario_to_dict(scn), sort_keys=True, indent=2) + "\n"


def parse_dict(doc, source="<dict>"):
    if not isinstance(doc, dict):
        raise errors.ParseError(f"{source}: top level must be an object")
    if doc.get("format") != FORMAT:
        raise errors.ParseError(
            f"{source}: format must be {FORMAT!r}, got {doc.get('format')!r}"
        )
    kind = doc.get("kind", "strategic")
    name = doc.get("name", "unnamed")
    description = doc.get("description", "")
    metadata = doc.get("metadata")
    metadata = {} if metadata is None else metadata
    if not isinstance(name, str) or not isinstance(description, str):
        raise errors.ParseError(f"{source}: name and description must be strings")
    if not isinstance(metadata, dict):
        raise errors.ParseError(f"{source}: metadata must be an object")
    if "strategy_names" in metadata:
        _names(metadata["strategy_names"], f"{source}: metadata.strategy_names")
    if "default_p0" in metadata:
        _strings(metadata["default_p0"], f"{source}: metadata.default_p0")

    if kind == "strategic":
        strategies = doc.get("strategies")
        if not isinstance(strategies, list) or not strategies:
            raise errors.ParseError(f"{source}: missing strategy name lists")
        for i, names in enumerate(strategies):
            _names(names, f"{source}: strategies[{i}]")
        shape = tuple(len(s) for s in strategies)
        n = len(strategies)
        declared = doc.get("players", n)
        if declared != n:
            raise errors.ParseError(f"{source}: players={declared!r} but {n} strategy lists")
        check_profile_count(shape, source)
        game = _strategic_game(strategies, shape, doc.get("payoffs"))
    elif kind == "evolution":
        matrix = doc.get("matrix")
        if not isinstance(matrix, list) or not matrix:
            raise errors.ParseError(f"{source}: evolution scenario needs a matrix")
        rows = []
        for i, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != len(matrix):
                raise errors.ParseError(f"{source}: matrix row {i} is not length {len(matrix)}")
            rows.append([parse_rational(v, f"matrix[{i}]") for v in row])
        game = gtkit.evolution.EvolutionGame(rows)  # the package loads evolution here
        names = doc.get("strategies")
        if names is not None:
            if not isinstance(names, list) or len(names) != 1:
                raise errors.ParseError(f"{source}: strategies must hold one list of names")
            metadata = dict(metadata)
            _names(names[0], f"{source}: strategies[0]", len(rows))
            metadata.setdefault("strategy_names", list(names[0]))
    elif kind == "congestion":
        res = doc.get("resources")
        strategies = doc.get("strategies")
        if not isinstance(res, list) or not res or not isinstance(strategies, list):
            raise errors.ParseError(f"{source}: congestion scenario needs resources and strategies")
        if not all(
            isinstance(r, dict) and isinstance(r.get("name", ""), str)
            and isinstance(r.get("costs", []), list)
            for r in res
        ):
            raise errors.ParseError(
                f"{source}: each resource must be an object with a string name and a costs list"
            )
        names = tuple(r.get("name", f"r{i}") for i, r in enumerate(res))
        costs = tuple(
            tuple(parse_rational(c, f"resources[{i}].costs") for c in r.get("costs", []))
            for i, r in enumerate(res)
        )
        try:  # CongestionGame checks the strategy lists, naming each position
            game = CongestionGame(names, costs, strategies)
        except errors.SizeLimit:
            raise
        except errors.GTError as exc:
            raise errors.ParseError(f"{source}: {exc}") from exc
        check_profile_count(tuple(map(len, game.strategies)), source)
    else:
        raise errors.ParseError(f"{source}: unknown kind {kind!r}")
    return Scenario(kind, name, description, game, dict(metadata))


def loads(text, source="<string>"):
    if not text.strip():
        raise errors.ParseError(f"{source}: empty game file", line=1, position=1)
    return parse_dict(parse_json(text, source), source)


def parse_json(text, source):
    """json.loads with every decoding failure as a ParseError (with a position when known)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise errors.ParseError(
            f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}", line=exc.lineno, position=exc.colno
        ) from exc
    except (ValueError, RecursionError) as exc:  # e.g. an integer beyond the digit limit
        raise errors.ParseError(f"{source}: {exc}") from exc


def read_text(path):
    """The whole UTF-8 text of the file at path: every outside text file that
    gtkit reads comes through here.  ParseError naming the path when it cannot
    be opened or read (missing, a directory, unreadable) or is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise errors.ParseError(f"cannot read {path}: {exc}") from exc


def load_path(path):
    return loads(read_text(path), source=str(path))


def load_scenario(name):
    """Load one of the packaged scenarios by name."""
    if name not in SCENARIO_NAMES:
        raise errors.ParseError(f"unknown scenario {name!r}; choices: {', '.join(SCENARIO_NAMES)}")
    path = os.path.join(os.path.dirname(__file__), "scenarios", f"{name}.json")
    return loads(read_text(path), source=f"scenario:{name}")


def resolve_input(source):
    """Interpret --in as a packaged scenario name or a file path."""
    if source in SCENARIO_NAMES and not os.path.exists(source):
        return load_scenario(source)
    return load_path(source)
