"""The gt-game/1 JSON schema: parsing, serialization, packaged scenario library.

Strategic games store the payoff tensor as nested arrays of rational strings
("3", "2/5") so exactness survives the file system.  Two schema variants
cover the non-strategic scenarios: kind "evolution" (a square payoff matrix)
and kind "congestion" (resources with cost ladders plus per-player strategy
lists).  Every scenario serialized and re-parsed is value-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from . import errors
from .evolution import EvolutionGame
from .games import CongestionGame, StrategicGame

FORMAT = "gt-game/1"
SCENARIO_NAMES = (
    "bos",
    "pd",
    "matching-pennies",
    "rps",
    "congestion-2link",
    "american-values-10",
)


@dataclass
class Scenario:
    kind: str  # "strategic" | "evolution" | "congestion"
    name: str
    description: str
    game: object
    metadata: dict = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        same_game = (
            self.game.exact == other.game.exact
            if isinstance(self.game, EvolutionGame)
            else self.game == other.game
        )
        return (
            self.kind == other.kind
            and self.name == other.name
            and self.description == other.description
            and same_game
            and self.metadata == other.metadata
        )


def _fraction(text, where):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise errors.ParseError(f"bad rational {text!r} at {where}") from exc


def _tensor_to_nested(game):
    def build(prefix):
        depth = len(prefix)
        if depth == game.n_players:
            return [str(v) for v in game.payoff(tuple(prefix))]
        return [build(prefix + [s]) for s in range(game.shape[depth])]

    return build([])


def _nested_to_table(nested, shape, n_players, where="payoffs"):
    table = {}

    def walk(node, prefix):
        depth = len(prefix)
        here = f"{where}{list(prefix)}"
        if depth == n_players:
            if not isinstance(node, list) or len(node) != n_players:
                raise errors.ParseError(f"{here}: expected {n_players} payoffs")
            table[tuple(prefix)] = tuple(_fraction(v, here) for v in node)
            return
        if not isinstance(node, list) or len(node) != shape[depth]:
            raise errors.ParseError(
                f"{here}: expected {shape[depth]} entries, got "
                f"{len(node) if isinstance(node, list) else type(node).__name__}"
            )
        for i, child in enumerate(node):
            walk(child, prefix + (i,))

    walk(nested, ())
    return table


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
            {"name": name, "costs": [str(c) for c in costs[: g.n_players]]}
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
    metadata = doc.get("metadata", {}) or {}

    if kind == "strategic":
        strategies = doc.get("strategies")
        if not isinstance(strategies, list) or not strategies:
            raise errors.ParseError(f"{source}: missing strategy name lists")
        shape = tuple(len(s) for s in strategies)
        n = len(strategies)
        declared = doc.get("players", n)
        if declared != n:
            raise errors.ParseError(f"{source}: players={declared} but {n} strategy lists")
        table = _nested_to_table(doc.get("payoffs"), shape, n)
        game = StrategicGame(strategies, table)
    elif kind == "evolution":
        matrix = doc.get("matrix")
        if not isinstance(matrix, list) or not matrix:
            raise errors.ParseError(f"{source}: evolution scenario needs a matrix")
        rows = []
        for i, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != len(matrix):
                raise errors.ParseError(f"{source}: matrix row {i} is not length {len(matrix)}")
            rows.append([_fraction(v, f"matrix[{i}]") for v in row])
        game = EvolutionGame(rows)
        names = doc.get("strategies")
        if names:
            metadata = dict(metadata)
            metadata.setdefault("strategy_names", list(names[0]))
    elif kind == "congestion":
        res = doc.get("resources")
        strategies = doc.get("strategies")
        if not isinstance(res, list) or not res or not isinstance(strategies, list):
            raise errors.ParseError(f"{source}: congestion scenario needs resources and strategies")
        names = tuple(r.get("name", f"r{i}") for i, r in enumerate(res))
        costs = tuple(
            tuple(_fraction(c, f"resources[{i}].costs") for c in r.get("costs", []))
            for i, r in enumerate(res)
        )
        strat = tuple(tuple(tuple(int(j) for j in s) for s in per) for per in strategies)
        try:
            game = CongestionGame(names, costs, strat)
        except errors.GTError as exc:
            raise errors.ParseError(f"{source}: {exc}") from exc
    else:
        raise errors.ParseError(f"{source}: unknown kind {kind!r}")
    return Scenario(kind, name, description, game, dict(metadata))


def loads(text, source="<string>"):
    if not text.strip():
        raise errors.ParseError(f"{source}: empty game file", line=1, position=1)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise errors.ParseError(
            f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}", line=exc.lineno, position=exc.colno
        ) from exc
    return parse_dict(doc, source)


def load_path(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise errors.ParseError(f"cannot read {path}: {exc}") from exc
    return loads(text, source=str(path))


def load_scenario(name):
    """Load one of the packaged scenarios by name."""
    if name not in SCENARIO_NAMES:
        raise errors.ParseError(f"unknown scenario {name!r}; choices: {', '.join(SCENARIO_NAMES)}")
    ref = resources.files("gtkit").joinpath("scenarios", f"{name}.json")
    return loads(ref.read_text(encoding="utf-8"), source=f"scenario:{name}")


def resolve_input(source):
    """Interpret --in as a packaged scenario name or a file path."""
    import os

    if source in SCENARIO_NAMES and not os.path.exists(source):
        return load_scenario(source)
    return load_path(source)
