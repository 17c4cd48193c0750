"""Every demo script runs to completion."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from qrgames import PureState, RepGame, build_extensive, make_pd

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_tree_export_writes_the_tree_to_out(tmp_path, monkeypatch, capsys):
    path = next(path for path in DEMOS if path.stem == "game_tree_export")
    out = tmp_path / "tree.json"
    monkeypatch.setattr(sys, "argv", [str(path), "--out", str(out)])
    runpy.run_path(str(path), run_name="__main__")
    state = PureState.from_terms(
        10, {"0" * 10: np.sqrt(0.3), "1" * 10: np.sqrt(0.7)}
    )
    tree = build_extensive(RepGame(state, make_pd(5, 3, 1, 0)))
    assert out.read_text() == tree.to_json()
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")
