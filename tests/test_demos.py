"""Every demo runs end to end against the current library API."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", [
    "01_classical_games.py",
    "02_replicator_dynamics.py",
    "03_quantum_battle_of_sexes.py",
    "04_padic_numbers.py",
    "05_padic_quantum_game.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert "====" in capsys.readouterr().out
