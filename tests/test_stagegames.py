"""Tests for stage games, strategy encodings and bimatrix containers."""

from __future__ import annotations

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from qrgames.stagegames import (
    Bimatrix,
    ExpectedPayoffs,
    RepStrategy,
    StageGame,
    all_strategies,
    classical_twice_repeated,
    make_bos,
    make_pd,
    qubit_count,
)


# ---------------------------------------------------------------------------
# stage games


def test_dilemma_table_and_classification():
    game = make_pd(5, 3, 1, 0)
    assert game.pair(0, 0) == (3.0, 3.0)
    assert game.pair(0, 1) == (0.0, 5.0)
    assert game.pair(1, 0) == (5.0, 0.0)
    assert game.pair(1, 1) == (1.0, 1.0)
    assert game.payoff(1, 1, 0) == 5.0
    assert game.payoff(2, 1, 0) == 0.0
    assert game.is_pd
    assert game.pd_values == (5.0, 3.0, 1.0, 0.0)


def test_battle_of_the_sexes_table():
    game = make_bos(3, 2, 1)
    assert np.array_equal(game.payoff_table(1), [[3.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(game.payoff_table(2), [[2.0, 1.0], [1.0, 3.0]])
    assert not game.is_pd


def test_misordered_payoffs_are_not_classified_as_a_dilemma():
    # The constructor accepts any finite table; only the flags care.
    assert not make_pd(3, 5, 1, 0).is_pd
    assert not make_pd(5, 3, 0, 1).is_pd
    # 2R > T + S fails: alternating exploitation beats cooperation.
    assert not make_pd(10, 3, 1, 0).is_pd


def test_stage_game_rejects_bad_tables():
    one_row = ((((1.0, 1.0), (0.0, 0.0))),)
    with pytest.raises(ValueError, match="2x2"):
        StageGame(one_row)  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="finite"):
        make_pd(float("nan"), 3, 1, 0)


@pytest.mark.parametrize(
    "stage",
    [
        make_pd(5, 3, 1, 0),
        make_pd(2.5, -0.0, -1.2, -3.1),
        make_bos(3, 2, 1),
        StageGame((((-0.0, 0.0), (1e300, -5e-324)), ((0.1, -0.0), (7, -2)))),
    ],
    ids=["pd", "signed-zero-pd", "bos", "extremes"],
)
def test_stage_array_is_the_read_only_outcome_array(stage):
    want = np.array(stage.outcomes)
    assert stage.array.dtype == want.dtype and stage.array.shape == (2, 2, 2)
    # Bytes, so that a signed zero must keep its sign.
    assert stage.array.tobytes() == want.tobytes()
    assert not stage.array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stage.array[0, 0, 0] = 1.0
    for player in (1, 2):
        table = stage.payoff_table(player)
        cells = [[stage.payoff(player, a1, a2) for a2 in (0, 1)] for a1 in (0, 1)]
        assert table.tobytes() == np.array(cells).tobytes()
        assert not table.flags.writeable


def test_stage_array_takes_no_part_in_repr_or_equality():
    stage = make_pd(2.5, -0.0, -1.2, -3.1)
    assert "array" not in repr(stage)
    assert repr(stage) == f"StageGame(outcomes={stage.outcomes!r})"
    # -0.0 == 0.0: equal games, whose arrays differ in one sign bit.
    plain = make_pd(2.5, 0.0, -1.2, -3.1)
    assert stage == plain and hash(stage) == hash(plain)
    assert stage.array.tobytes() != plain.array.tobytes()
    assert [f.name for f in dataclasses.fields(StageGame) if f.compare] == [
        "outcomes"
    ]
    with pytest.raises(TypeError):
        StageGame(stage.outcomes, stage.array)
    with pytest.raises(dataclasses.FrozenInstanceError):
        stage.array = plain.array


@pytest.mark.parametrize(
    "stage",
    [make_pd(5, 3, 1, 0), make_bos(3, 2, 1), make_pd(5.7, 3.3, 1.1, -0.4)],
    ids=["pd", "bos", "fractional-pd"],
)
def test_stage_games_with_equal_payoffs_are_equal(stage):
    """Action names are not part of a game: equal payoffs, equal games."""
    plain = StageGame(stage.outcomes)
    assert plain == stage and hash(plain) == hash(stage)
    assert plain.array.tobytes() == stage.array.tobytes()


# ---------------------------------------------------------------------------
# repeated-game strategies


def test_strategy_index_encoding_round_trips():
    for index in range(32):
        strat = RepStrategy.from_index(index)
        assert strat.index == index
        assert strat.bits == format(index, "05b")
        assert strat.fields() == {
            "stage1": strat.stage1,
            "after_00": strat.after_00,
            "after_01": strat.after_01,
            "after_10": strat.after_10,
            "after_11": strat.after_11,
        }


def test_strategy_bit_weights():
    strat = RepStrategy.from_index(0b10010)
    assert (strat.stage1, strat.after_00, strat.after_01) == (1, 0, 0)
    assert (strat.after_10, strat.after_11) == (1, 0)


def test_after_selects_the_entry_for_an_outcome():
    strat = RepStrategy(stage1=0, after_00=1, after_01=0, after_10=1, after_11=0)
    assert [strat.after(o) for o in ((0, 0), (0, 1), (1, 0), (1, 1))] == [1, 0, 1, 0]


def test_strategy_validation():
    with pytest.raises(ValueError, match="must be 0 or 1"):
        RepStrategy(2, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        RepStrategy.from_index(32)
    with pytest.raises(ValueError, match="out of range"):
        RepStrategy.from_index(-1)


@pytest.mark.parametrize("bit", [1.0, 0.0, 0.5, "1", None])
def test_strategy_refuses_a_bit_that_is_not_an_integer(bit):
    with pytest.raises(ValueError, match=r"stage1 must be 0 or 1, got"):
        RepStrategy(bit, 0, 0, 0, 0)
    with pytest.raises(ValueError, match=r"after_11 must be 0 or 1, got"):
        RepStrategy(0, 0, 0, 0, bit)


@pytest.mark.parametrize("index", [1.0, 16.0, 2.5, "3"])
def test_strategy_from_index_refuses_a_non_integer(index):
    with pytest.raises(ValueError, match="strategy index out of range"):
        RepStrategy.from_index(index)


def test_strategy_takes_numpy_integers_as_bits_and_indices():
    assert RepStrategy(np.int64(1), 0, 0, 0, np.uint8(1)).bits == "10001"
    assert RepStrategy.from_index(np.int64(17)) == RepStrategy(1, 0, 0, 0, 1)


def test_all_strategies_is_the_full_indexed_enumeration():
    strategies = all_strategies()
    assert len(strategies) == 32
    assert [s.index for s in strategies] == list(range(32))
    assert len(set(strategies)) == 32


# ---------------------------------------------------------------------------
# expected payoffs


def test_expected_payoffs_accessors():
    ep = ExpectedPayoffs(1.0, 2.0, 3.0, 4.0)
    assert ep.totals == (3.0, 7.0)
    assert np.array_equal(ep.as_array(), [1.0, 2.0, 3.0, 4.0])


# ---------------------------------------------------------------------------
# bimatrix container


def test_bimatrix_cell_and_labels():
    bm = Bimatrix(
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([[5.0, 6.0], [7.0, 8.0]]),
        ("a", "b"),
        ("x", "y"),
    )
    assert bm.rows == 2 and bm.cols == 2
    assert bm.cell(0, 1) == (2.0, 6.0)


def test_bimatrix_validation():
    square = np.zeros((2, 2))
    with pytest.raises(ValueError, match="share a 2-d shape"):
        Bimatrix(square, np.zeros((2, 3)), ("a", "b"), ("x", "y"))
    with pytest.raises(ValueError, match="labels"):
        Bimatrix(square, square, ("a",), ("x", "y"))


def stage_table(stage: StageGame, labels: tuple[str, str]) -> Bimatrix:
    """The one-shot game as a 2x2 bimatrix under the given action names."""
    return Bimatrix(stage.payoff_table(1), stage.payoff_table(2), labels, labels)


def test_bimatrix_csv_layout():
    bm = stage_table(make_pd(5, 3, 1, 0), ("C", "D"))
    lines = bm.to_csv().splitlines()
    assert lines[0] == ",C,D"
    assert lines[1] == "C,3;3,0;5"
    assert lines[2] == "D,5;0,1;1"


def csv_oracle(bm: Bimatrix) -> str:
    """The CSV writer as first written: one csv row and format() per cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([""] + list(bm.col_labels))
    for r, label in enumerate(bm.row_labels):
        writer.writerow(
            [label]
            + [
                f"{format(float(bm.payoffs1[r, c]), '.12g')};"
                f"{format(float(bm.payoffs2[r, c]), '.12g')}"
                for c in range(bm.cols)
            ]
        )
    return buffer.getvalue()


SPECIAL_VALUES = [
    0.0, -0.0, 1e-300, -1e-300, 1e17, -1e17, 2.5e-5, 123456789012.5,
    np.nan, np.inf, -np.inf,
]


def special_tables(shape, seed):
    """Two seeded tables over 40 decades, about 30% of cells special values."""
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(2):
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
        special = rng.random(shape) < 0.3
        values[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
        tables.append(values)
    return tables


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (32, 32), (0, 3), (2, 0), (0, 0)])
def test_bimatrix_csv_equals_the_per_cell_writer(shape):
    tables = special_tables(shape, seed=shape[0] * 100 + shape[1])
    names = [
        "plain", "a,b", 'say "hi"', "", " pad ", "x;y",
        "two\nlines", "carriage\rreturn", "crlf\r\n", '"lead',
    ]
    # Row 0's label is empty: csv quotes a lone empty field, not one
    # followed by cells.
    rows = [names[i % len(names)] + str(i) if i else "" for i in range(shape[0])]
    cols = [names[(i + 1) % len(names)] for i in range(shape[1])]
    bm = Bimatrix(tables[0], tables[1], rows, cols)
    text = bm.to_csv()
    assert text == csv_oracle(bm)
    if shape[0] >= 3:
        assert '\n"a,b1",' in text


def test_bimatrix_csv_quotes_labels_with_separators_and_quotes():
    bm = Bimatrix(
        np.array([[-0.0, np.nan]]), np.array([[np.inf, 1e17]]),
        ('r"1"',), ("a,b", "c"),
    )
    assert bm.to_csv() == ',"a,b",c\n"r""1""",-0;inf,nan;1e+17\n'
    assert bm.to_csv() == csv_oracle(bm)


def json_oracle(bm: Bimatrix) -> str:
    """The JSON writer as first written: per-cell lists through json.dumps."""
    document = {
        "rows": bm.rows,
        "cols": bm.cols,
        "row_labels": list(bm.row_labels),
        "col_labels": list(bm.col_labels),
        "cells": [
            [[bm.payoffs1[r, c], bm.payoffs2[r, c]] for c in range(bm.cols)]
            for r in range(bm.rows)
        ],
    }
    return json.dumps(document, indent=2)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (32, 32), (0, 3), (2, 0), (0, 0)])
def test_bimatrix_json_equals_json_dumps(shape):
    tables = special_tables(shape, seed=shape[0] * 100 + shape[1] + 1)
    names = [
        "plain", 'say "hi"', "back\\slash", "tab\tbell\x07nul\x00",
        "caf\u00e9", "\u2603\U0001f600", "", "%s%d", "\x7f\u2028",
    ]
    rows = [names[i % len(names)] for i in range(shape[0])]
    cols = [names[(i + 4) % len(names)] for i in range(shape[1])]
    bm = Bimatrix(tables[0], tables[1], rows, cols)
    text = bm.to_json()
    assert text == json_oracle(bm)
    if shape == (32, 32):
        for spelling in ("NaN,", "Infinity,", "-Infinity", "-0.0"):
            assert spelling in text


def test_bimatrix_json_round_trip():
    bm = stage_table(make_bos(3, 2, 1), ("O", "F"))
    doc = json.loads(bm.to_json())
    assert doc["rows"] == 2 and doc["cols"] == 2
    assert doc["row_labels"] == ["O", "F"]
    assert doc["col_labels"] == ["O", "F"]
    for row in range(2):
        for col in range(2):
            assert tuple(doc["cells"][row][col]) == bm.cell(row, col)


# ---------------------------------------------------------------------------
# classical reference


def classical_path_payoffs(stage, s1, s2):
    """Independent two-stage evaluator used as an oracle."""
    first = (s1.stage1, s2.stage1)
    second = (s1.after(first), s2.after(first))
    u1 = stage.payoff(1, *first) + stage.payoff(1, *second)
    u2 = stage.payoff(2, *first) + stage.payoff(2, *second)
    return (u1, u2)


def test_classical_twice_repeated_plays_out_both_stages():
    stage = make_pd(5, 3, 1, 0)
    bm = classical_twice_repeated(stage)
    strategies = all_strategies()
    assert bm.rows == 32 and bm.cols == 32
    assert bm.row_labels == tuple(s.bits for s in strategies)
    for row, s1 in enumerate(strategies):
        for col, s2 in enumerate(strategies):
            assert bm.cell(row, col) == classical_path_payoffs(stage, s1, s2)


def classical_table_oracle(stage: StageGame) -> Bimatrix:
    """The per-cell path sum, kept as the oracle of the index-arithmetic table."""
    strategies = all_strategies()
    cells = []
    for tau1 in strategies:
        row = []
        for tau2 in strategies:
            first = (tau1.stage1, tau2.stage1)
            second = (tau1.after(first), tau2.after(first))
            u1a, u2a = stage.pair(*first)
            u1b, u2b = stage.pair(*second)
            row.append((u1a + u1b, u2a + u2b))
        cells.append(row)
    labels = [s.bits for s in strategies]
    u1, u2 = np.moveaxis(np.array(cells), -1, 0)
    return Bimatrix(u1, u2, labels, labels)


def seeded_stage(kind: str, rng: np.random.Generator) -> StageGame:
    if kind == "dilemma":
        s = rng.uniform(-1.0, 0.5)
        p = s + rng.uniform(0.5, 1.5)
        r = p + rng.uniform(1.0, 2.0)
        return make_pd(r + rng.uniform(0.2, 0.9) * (r - s), r, p, s)
    if kind == "coordination":
        return make_bos(*sorted(rng.uniform(-1.0, 4.0, size=3), reverse=True))
    # Small integers, so that many cells tie exactly.
    cells = rng.integers(-2, 3, size=(2, 2, 2)).tolist()
    return StageGame(tuple(tuple(tuple(pair) for pair in row) for row in cells))


@pytest.mark.parametrize("seed", [71, 72, 73])
@pytest.mark.parametrize("kind", ["dilemma", "coordination", "tied-integers"])
def test_classical_table_equals_the_per_cell_path_sum(kind, seed):
    stage = seeded_stage(kind, np.random.default_rng(seed))
    want = classical_table_oracle(stage)
    got = classical_twice_repeated(stage)
    assert np.array_equal(got.payoffs1, want.payoffs1)
    assert np.array_equal(got.payoffs2, want.payoffs2)
    assert got.row_labels == want.row_labels
    assert got.col_labels == want.col_labels
    assert got.to_csv() == want.to_csv()


def test_classical_twice_repeated_on_a_coordination_game():
    stage = make_bos(3, 2, 1)
    bm = classical_twice_repeated(stage)
    always_opera = RepStrategy(0, 0, 0, 0, 0).index
    always_football = RepStrategy(1, 1, 1, 1, 1).index
    assert bm.cell(always_opera, always_opera) == (6.0, 4.0)
    assert bm.cell(always_football, always_football) == (4.0, 6.0)
    assert bm.cell(always_opera, always_football) == (2.0, 2.0)


# ---------------------------------------------------------------------------
# register size


def test_qubit_count_grows_with_outcome_histories():
    assert tuple(qubit_count(n) for n in (1, 2, 3)) == (2, 10, 42)
    assert qubit_count(4) == 170


def test_qubit_count_rejects_nonpositive_stage_counts():
    with pytest.raises(ValueError, match="positive integer"):
        qubit_count(0)
    with pytest.raises(ValueError, match="positive integer"):
        qubit_count(-1)
