"""Tests for equilibrium search, dominance and the cooperation scan."""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from exact_eval import (
    assert_start_tables_within_rounding,
    exact_dominated,
    exact_nash,
    exact_totals,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qrgames.equilibria import (
    CooperationAnalysis,
    Equilibrium,
    _nash_masks,
    cooperation_bound,
    cooperation_scan,
    pure_nash,
    spe_pair_product,
    strictly_dominated,
)
from qrgames.iqbaltoor import ITGame, it_pure_bimatrix
from qrgames.mw import MWGame, mw_bimatrix, stage_weights
from qrgames.qstate import (
    OUTCOMES,
    PROB_FLOOR,
    FlipLayer,
    PureState,
    apply_flips,
    random_state,
    tensor_all,
)
from qrgames.repeated10 import (
    RepGame,
    factor_pairs,
    rep_bimatrix,
    start_tables,
)
from qrgames.stagegames import (
    Bimatrix,
    RepStrategy,
    StageGame,
    classical_twice_repeated,
    make_bos,
    make_pd,
    payoff_bound,
    payoff_scale,
)

PD = make_pd(5, 3, 1, 0)


def stage_table(stage: StageGame) -> Bimatrix:
    """The one-shot stage game as a 2x2 bimatrix."""
    labels = ("0", "1")
    return Bimatrix(stage.payoff_table(1), stage.payoff_table(2), labels, labels)


def cells_table(cells) -> Bimatrix:
    """A 2x2 bimatrix from its ``[row][col]`` payoff pairs."""
    u1, u2 = np.moveaxis(np.array(cells, dtype=float), -1, 0)
    return Bimatrix(u1, u2, ("0", "1"), ("0", "1"))


def brute_force_nash(bm, tol):
    """Quadratic-time equilibrium sweep used as an oracle."""
    found = []
    for row in range(bm.rows):
        for col in range(bm.cols):
            u1, u2 = bm.cell(row, col)
            best1 = max(bm.cell(r, col)[0] for r in range(bm.rows))
            best2 = max(bm.cell(row, c)[1] for c in range(bm.cols))
            if u1 >= best1 - tol and u2 >= best2 - tol:
                strict = (
                    sum(bm.cell(r, col)[0] >= u1 for r in range(bm.rows)) == 1
                    and sum(bm.cell(row, c)[1] >= u2 for c in range(bm.cols)) == 1
                )
                found.append((row, col, strict))
    return found


def brute_force_dominated(bm, player):
    table = bm.payoffs1 if player == 1 else bm.payoffs2.T
    pairs = []
    for loser in range(table.shape[0]):
        for winner in range(table.shape[0]):
            if winner == loser:
                continue
            if np.all(table[winner] > table[loser]):
                pairs.append((loser, winner))
    return pairs


# ---------------------------------------------------------------------------
# pure Nash search


def test_dilemma_and_coordination_equilibria():
    report = pure_nash(stage_table(PD))
    assert report.kind == "nash"
    assert [(eq.row, eq.col, eq.strict) for eq in report.equilibria] == [(1, 1, True)]
    assert report.equilibria[0].payoffs == (1.0, 1.0)

    bos = pure_nash(stage_table(make_bos(3, 2, 1)))
    assert [(eq.row, eq.col) for eq in bos.equilibria] == [(0, 0), (1, 1)]
    assert all(eq.strict for eq in bos.equilibria)


@pytest.mark.parametrize("seed", range(12))
def test_search_matches_brute_force_on_random_tables(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 6))
    cols = int(rng.integers(2, 6))
    # Small integer payoffs make ties common enough to matter.
    u1 = rng.integers(0, 4, (rows, cols)).astype(float)
    u2 = rng.integers(0, 4, (rows, cols)).astype(float)
    labels_r = tuple(f"r{i}" for i in range(rows))
    labels_c = tuple(f"c{j}" for j in range(cols))
    bm = Bimatrix(u1, u2, labels_r, labels_c)

    report = pure_nash(bm, tol=0.0)
    got = [(eq.row, eq.col, eq.strict) for eq in report.equilibria]
    assert got == brute_force_nash(bm, 0.0)

    for player in (1, 2):
        assert strictly_dominated(bm, player) == brute_force_dominated(bm, player)


def test_tolerance_admits_near_ties():
    u1 = np.array([[1.0, 0.0], [1.0 - 1e-10, 0.0]])
    u2 = np.array([[1.0, 0.0], [1.0, 0.0]])
    bm = Bimatrix(u1, u2, ("a", "b"), ("x", "y"))
    exact = pure_nash(bm, tol=0.0)
    loose = pure_nash(bm, tol=1e-9)
    assert [(eq.row, eq.col) for eq in exact.equilibria] == [(0, 0)]
    assert [(eq.row, eq.col) for eq in loose.equilibria] == [(0, 0), (1, 0)]
    # Strictness stays an exact-arithmetic property; the tolerance only
    # widens which cells count as equilibria at all.
    assert [eq.strict for eq in loose.equilibria] == [True, False]


def test_weak_equilibria_of_the_shared_value_table():
    # A fractional 2x2 with row and column ties: three equilibria, none
    # strict, and the off-diagonal pair must both appear.
    u1 = np.array([[5.0, 10.0], [5.0, 7.0]]) / 3.0
    u2 = np.array([[5.0, 5.0], [10.0, 7.0]]) / 3.0
    bm = Bimatrix(u1, u2, ("0", "1"), ("0", "1"))
    report = pure_nash(bm, tol=1e-9)
    assert [(eq.row, eq.col) for eq in report.equilibria] == [(0, 0), (0, 1), (1, 0)]
    assert not any(eq.strict for eq in report.equilibria)


# Exact ties, signed zeros and gaps at, inside and beyond tol = 1e-9.
_PAYOFF_VALUES = [0.0, -0.0, 1.0, 1.0 + 5e-10, 1.0 + 1e-9, 1.0 - 1e-9, 2.0, -3.5]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    shape=st.tuples(
        st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)
    ),
    tol=st.sampled_from([0.0, 1e-9]),
    data=st.data(),
)
def test_stacked_masks_are_pure_nash_slice_by_slice(shape, tol, data):
    size = 2 * shape[0] * shape[1] * shape[2]
    values = data.draw(
        st.lists(st.sampled_from(_PAYOFF_VALUES), min_size=size, max_size=size)
    )
    u1, u2 = np.array(values).reshape((2,) + shape)
    at_equilibrium, strict = _nash_masks(u1, u2, tol)
    assert at_equilibrium.shape == strict.shape == shape
    for game in range(shape[0]):
        labels1 = tuple(str(r) for r in range(shape[1]))
        labels2 = tuple(str(c) for c in range(shape[2]))
        report = pure_nash(Bimatrix(u1[game], u2[game], labels1, labels2), tol=tol)
        want = [(eq.row, eq.col, eq.strict) for eq in report.equilibria]
        got = [
            (int(r), int(c), bool(strict[game, r, c]))
            for r, c in np.argwhere(at_equilibrium[game])
        ]
        assert got == want
        assert not (strict[game] & ~at_equilibrium[game]).any()


def test_search_validation():
    for tol in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="nonnegative"):
            pure_nash(stage_table(PD), tol=tol)
    with pytest.raises(ValueError, match="nonnegative"):
        spe_pair_product(RepGame(PureState.basis(10, 0), PD), tol=float("nan"))
    with pytest.raises(ValueError, match="player must be 1 or 2"):
        strictly_dominated(stage_table(PD), 3)


def test_report_serialization():
    report = pure_nash(stage_table(PD))
    doc = json.loads(report.to_json(("C", "D"), ("C", "E")))
    assert list(doc) == ["kind", "tolerance", "equilibria"]
    assert doc["kind"] == "nash"
    assert doc["tolerance"] == 1e-9
    (entry,) = doc["equilibria"]
    assert list(entry) == ["row", "col", "payoffs", "strict", "row_label", "col_label"]
    assert entry == {
        "row": 1,
        "col": 1,
        "payoffs": [1.0, 1.0],
        "strict": True,
        "row_label": "D",
        "col_label": "E",
    }


def test_stage_dominance_in_the_dilemma():
    assert strictly_dominated(stage_table(PD), 1) == [(0, 1)]
    assert strictly_dominated(stage_table(PD), 2) == [(0, 1)]
    assert strictly_dominated(stage_table(make_bos(3, 2, 1)), 1) == []


_ROWS, _COLS = np.arange(32)[:, None], np.arange(32)[None, :]
# Rows in one block of four tie exactly; a higher block wins in every column.
_BLOCKS = (_ROWS // 4) * 1.1 + (_COLS % 3) * 0.7
# One column where every row ties: nothing is strictly dominated.
_ONE_TIED_COLUMN = np.where(_COLS == 5, 2.2, _BLOCKS)


@pytest.mark.parametrize(
    "table, pairs",
    [
        (_BLOCKS, 32 * 28 // 2),
        (_ONE_TIED_COLUMN, 0),
        (classical_twice_repeated(make_pd(5.7, 3.3, 1.1, -0.4)).payoffs1, 32),
    ],
    ids=["blocks", "one-tied-column", "classical"],
)
def test_dominance_on_32x32_tables_with_exact_ties(table, pairs):
    labels = tuple(str(i) for i in range(32))
    bm = Bimatrix(table, table.T, labels, labels)
    for player in (1, 2):
        got = strictly_dominated(bm, player)
        assert got == brute_force_dominated(bm, player)
        assert len(got) == pairs


def per_row_dominated(bm, player):
    """strictly_dominated as first written: one argwhere row at a time."""
    own_by_row = bm.payoffs1 if player == 1 else bm.payoffs2.T
    beats = (own_by_row[None, :, :] > own_by_row[:, None, :]).all(axis=2)
    np.fill_diagonal(beats, False)
    return [(int(a), int(b)) for a, b in np.argwhere(beats)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_dominated_pairs_are_python_int_tuples_of_the_per_row_loop(shape, seed):
    rng = np.random.default_rng(seed)
    u1, u2 = rng.integers(0, 3, (2, *shape)).astype(float)
    bm = Bimatrix(u1, u2, ("r",) * shape[0], ("c",) * shape[1])
    for player in (1, 2):
        got = strictly_dominated(bm, player)
        assert got == per_row_dominated(bm, player)
        assert all(type(pair) is tuple and len(pair) == 2 for pair in got)
        assert all(type(index) is int for pair in got for index in pair)


def test_classical_repeated_equilibria_all_pay_double_defection():
    """Equilibrium payoffs are pinned even though off-path bits are free."""
    report = pure_nash(classical_twice_repeated(PD))
    assert len(report.equilibria) == 16
    for eq in report.equilibria:
        assert eq.payoffs == (2.0, 2.0)
        assert not eq.strict
        s1 = RepStrategy.from_index(eq.row)
        s2 = RepStrategy.from_index(eq.col)
        # Defection on the path, and punishment where a deviation lands.
        assert s1.stage1 == 1 and s2.stage1 == 1
        assert s1.after_11 == 1 and s2.after_11 == 1
        assert s1.after_10 == 1
        assert s2.after_01 == 1


# ---------------------------------------------------------------------------
# subgame perfection


def pair_state(weight_00: float) -> PureState:
    return PureState.from_terms(
        2, {"00": np.sqrt(weight_00), "11": np.sqrt(1.0 - weight_00)}
    )


def backward_induction_oracle(factors, stage):
    """Independent subgame-perfect search over pair-product factors, at
    the search's bound ``payoff_bound(stage)``."""
    tol = payoff_bound(stage)
    stage1_bm = mw_bimatrix(MWGame(factors[0], stage))
    subgames = {
        o: mw_bimatrix(MWGame(factors[2 * o[0] + o[1] + 1], stage))
        for o in OUTCOMES
    }
    subgame_ne = {
        o: [(row, col) for row, col, _ in brute_force_nash(subgames[o], tol)]
        for o in OUTCOMES
    }
    amp0 = factors[0].probabilities

    results = []
    for selection in itertools.product(*(subgame_ne[o] for o in OUTCOMES)):
        chosen = dict(zip(OUTCOMES, selection))

        def induced(k1, k2):
            total = np.array(stage1_bm.cell(k1, k2))
            for o in OUTCOMES:
                prob = amp0[(2 * o[0] + o[1]) ^ (2 * k1 + k2)]
                total = total + prob * np.array(
                    subgames[o].cell(*chosen[o])
                )
            return total

        cells = cells_table(
            [[tuple(induced(k1, k2)) for k2 in (0, 1)] for k1 in (0, 1)]
        )
        for row, col, _ in brute_force_nash(cells, tol):
            s1 = RepStrategy(row, *(chosen[o][0] for o in OUTCOMES))
            s2 = RepStrategy(col, *(chosen[o][1] for o in OUTCOMES))
            payoffs = tuple(float(v) for v in induced(row, col))
            results.append(((s1.index, s2.index), payoffs))
    return sorted(results)


def scalar_spe_fold(stage1, chance, values, tol):
    """Backward induction cell by cell on given tables: ``stage1[player, k]``,
    ``chance[k, o]`` and ``values[o][player, a]``, with flips k and a read
    as 2-bit numbers.  One ``pure_nash`` per subgame and per selection's
    induced game, and one scalar sum per player and stage-1 cell, in the
    order the table search must keep bit for bit.  ``tol`` is in payoff
    units."""

    def bimatrix(table):
        u1, u2 = np.asarray(table).reshape(2, 2, 2)
        return Bimatrix(u1, u2, ("0", "1"), ("0", "1"))

    stage1_bm = bimatrix(stage1)
    subgames = {o: bimatrix(table) for o, table in zip(OUTCOMES, values)}
    chance = np.asarray(chance).tolist()
    subgame_ne = [pure_nash(subgames[o], tol=tol).equilibria for o in OUTCOMES]
    found = []
    for selection in itertools.product(*subgame_ne):
        cells = []
        for k1 in (0, 1):
            row = []
            for k2 in (0, 1):
                base = stage1_bm.cell(k1, k2)
                extra1 = extra2 = 0.0
                for o, chosen in zip(OUTCOMES, selection):
                    weight = chance[2 * k1 + k2][2 * o[0] + o[1]]
                    value = subgames[o].cell(chosen.row, chosen.col)
                    extra1 += weight * value[0]
                    extra2 += weight * value[1]
                row.append((base[0] + extra1, base[1] + extra2))
            cells.append(row)
        induced = cells_table(cells)
        for eq in pure_nash(induced, tol=tol).equilibria:
            t1 = RepStrategy(eq.row, *(c.row for c in selection))
            t2 = RepStrategy(eq.col, *(c.col for c in selection))
            strict = eq.strict and all(c.strict for c in selection)
            found.append(Equilibrium(t1.index, t2.index, eq.payoffs, strict))
    return sorted(found, key=lambda eq: (eq.row, eq.col))


def start_table_fold(game):
    """The scalar fold on ``start_tables(game)``, the tables the search reads."""
    tables = start_tables(game)
    bound = payoff_bound(game.stage)
    return scalar_spe_fold(tables.stage1, tables.chance, tables.stage2[0], bound)


def scalar_spe_oracle(game):
    """The scalar fold on the factors' tables: chance weights of the
    flipped first factor and one ``mw_bimatrix`` per factor, a path that
    shares nothing with ``start_tables``."""
    factors = factor_pairs(game.initial)
    tables = [mw_bimatrix(MWGame(f, game.stage)) for f in factors]
    stage1, *values = [
        np.stack([bm.payoffs1.ravel(), bm.payoffs2.ravel()]) for bm in tables
    ]
    chance = [
        apply_flips(factors[0], FlipLayer({1: k >> 1, 2: k & 1})).probabilities
        for k in range(4)
    ]
    return scalar_spe_fold(stage1, chance, values, payoff_bound(game.stage))


def decisions(equilibria):
    return [(eq.row, eq.col, eq.strict) for eq in equilibria]


def assert_same_bits(got, want):
    assert got == want
    assert [np.signbit(eq.payoffs).tolist() for eq in got] == [
        np.signbit(eq.payoffs).tolist() for eq in want
    ]


SPE_STAGES = pytest.mark.parametrize(
    "stage",
    [
        PD,
        make_pd(5.7, 3.3, 1.1, -0.4),
        make_pd(4.2, 2.5, -0.3, -1.7),
        make_pd(1e8, 3, 1, 0),
        make_pd(2.5, -0.0, -1.2, -3.1),
    ],
    ids=["pd", "fractional", "negative", "t1e8", "signed-zero"],
)


@SPE_STAGES
def test_subgame_search_equals_the_scalar_loop_bit_for_bit(stage):
    rng = np.random.default_rng(20261020)
    starts = [tensor_all([random_state(2, rng) for _ in range(5)]) for _ in range(20)]
    for weight in (1e-13, 1.0 - 1e-13):
        zero = PureState.basis(2, 0)
        starts += [
            tensor_all([pair_state(weight)] * 5),
            tensor_all([pair_state(weight), zero, pair_state(weight), zero, zero]),
        ]
    for state in starts:
        game = RepGame(state, stage)
        got = list(spe_pair_product(game).equilibria)
        # The fold, bit for bit, on the tables the search reads.
        assert_same_bits(got, start_table_fold(game))
        # Those tables within rounding of exact arithmetic, and the
        # decisions of the factor path.
        assert_start_tables_within_rounding(
            start_tables(game), state.probabilities, stage_weights(stage), PROB_FLOOR
        )
        assert decisions(got) == decisions(scalar_spe_oracle(game))


@SPE_STAGES
def test_subgame_search_keeps_the_factor_path_decisions_on_64_products(stage):
    """Reading the start's Born weights in place of its SVD factors moves
    payoffs by rounding only: the same profiles, the same strict flags."""
    rng = np.random.default_rng(20261021)
    for index in range(64):
        game = RepGame(tensor_all([random_state(2, rng) for _ in range(5)]), stage)
        got = spe_pair_product(game).equilibria
        want = scalar_spe_oracle(game)
        assert decisions(got) == decisions(want), index
        for eq, old in zip(got, want):
            gap = np.abs(np.subtract(eq.payoffs, old.payoffs)).max()
            assert gap <= 1e-13 * payoff_scale(stage), index


def test_subgame_search_equals_the_scalar_loop_on_sixteen_selections():
    """Battle of the Sexes on a basis start: every subgame has two pure
    equilibria, so 16 selections each induce their own stage-1 game."""
    for stage in (make_bos(3, 2, 0), make_bos(2.7, 1.3, -0.0)):
        for index in (0, 0b0110010011):
            game = RepGame(PureState.basis(10, index), stage)
            factors = factor_pairs(game.initial)
            for factor in factors[1:]:
                subgame = mw_bimatrix(MWGame(factor, stage))
                assert len(pure_nash(subgame).equilibria) == 2
            got = list(spe_pair_product(game).equilibria)
            assert_same_bits(got, start_table_fold(game))
            # One-hot Born weights: both paths read every payoff exactly.
            assert_same_bits(got, scalar_spe_oracle(game))
            assert len(got) >= 16


def test_a_tied_subgame_leaves_no_subgame_perfect_profile_strict():
    """Half |00>, half |01> after outcome 01: player 2's flip does not move
    either payoff there, so both of that subgame's equilibria tie."""
    tie = PureState.from_terms(2, {"00": np.sqrt(0.5), "01": np.sqrt(0.5)})
    zero = PureState.basis(2, 0)
    game = RepGame(tensor_all([zero, zero, tie, zero, zero]), PD)
    got = list(spe_pair_product(game).equilibria)
    assert_same_bits(got, start_table_fold(game))
    assert decisions(got) == decisions(scalar_spe_oracle(game))
    assert len(got) == 2
    assert not any(eq.strict for eq in got)


def test_classical_start_has_one_subgame_perfect_profile():
    report = spe_pair_product(RepGame(PureState.basis(10, 0), PD))
    assert report.kind == "subgame-perfect"
    assert [(eq.row, eq.col, eq.strict) for eq in report.equilibria] == [
        (31, 31, True)
    ]
    assert report.equilibria[0].payoffs == pytest.approx((2.0, 2.0), abs=1e-12)


def test_entangled_after_00_pair_yields_two_profiles():
    pair = pair_state(0.6)
    zero = PureState.basis(2, 0)
    stage = make_pd(5, 4, 1, 0)
    game = RepGame(tensor_all([zero, pair, zero, zero, zero]), stage)
    report = spe_pair_product(game)
    got = [(eq.row, eq.col) for eq in report.equilibria]
    assert got == [(15, 15), (31, 31)]
    assert report.equilibria[0].payoffs == pytest.approx((6.2, 6.2), abs=1e-9)
    assert report.equilibria[1].payoffs == pytest.approx((2.0, 2.0), abs=1e-9)
    assert all(eq.strict for eq in report.equilibria)

    # Subgame perfection refines plain equilibrium search.
    nash_profiles = {
        (eq.row, eq.col) for eq in pure_nash(rep_bimatrix(game)).equilibria
    }
    assert set(got) <= nash_profiles


def test_low_weight_start_keeps_everyone_on_identity():
    game = RepGame(tensor_all([pair_state(0.2)] * 5), PD)
    report = spe_pair_product(game)
    assert [(eq.row, eq.col) for eq in report.equilibria] == [(0, 0)]
    assert report.equilibria[0].payoffs == pytest.approx((2.8, 2.8), abs=1e-9)


@pytest.mark.parametrize("seed", [61, 62, 63, 64])
def test_subgame_search_matches_backward_induction_oracle(seed):
    rng = np.random.default_rng(seed)
    factors = [random_state(2, rng) for _ in range(5)]
    game = RepGame(tensor_all(factors), PD)
    report = spe_pair_product(game)
    got = sorted(
        ((eq.row, eq.col), tuple(round(v, 9) for v in eq.payoffs))
        for eq in report.equilibria
    )
    want = [
        (profile, tuple(round(v, 9) for v in payoffs))
        for profile, payoffs in backward_induction_oracle(factors, PD)
    ]
    assert got == want


def test_subgame_search_needs_pair_factors():
    ghz = PureState.from_terms(
        10, {"0" * 10: np.sqrt(0.3), "1" * 10: np.sqrt(0.7)}
    )
    # Blocks 00 and 11 hold pair patterns 00 and 11: the continuations
    # after outcome 00 differ by |S - T| = 5, and the bound is 1e-9 * 10.
    message = (
        "no self-contained subgame after outcome 00: its continuations differ "
        "by 5.0 across the stage-1 flips, above the bound 1e-08"
    )
    with pytest.raises(ValueError) as raised:
        spe_pair_product(RepGame(ghz, PD))
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def test_subgame_search_reports_an_unsolvable_outcome():
    pennies = StageGame(
        (((1.0, -1.0), (-1.0, 1.0)), ((-1.0, 1.0), (1.0, -1.0)))
    )
    with pytest.raises(ValueError, match="no pure second-stage equilibrium"):
        spe_pair_product(RepGame(PureState.basis(10, 0), pennies))
    # Half |00>, half |01>: every flip ties the players' pennies payoffs at 0,
    # so outcome 00's subgame solves and 01 is the first that does not.
    tie = PureState.from_terms(2, {"00": np.sqrt(0.5), "01": np.sqrt(0.5)})
    zero = PureState.basis(2, 0)
    game = RepGame(tensor_all([zero, tie, zero, zero, zero]), pennies)
    with pytest.raises(ValueError, match="after outcome 01$"):
        spe_pair_product(game)


# ---------------------------------------------------------------------------
# payoff units

PENNIES = StageGame((((1.0, -1.0), (-1.0, 1.0)), ((-1.0, 1.0), (1.0, -1.0))))


def scaled_stage(stage: StageGame, k: int) -> StageGame:
    """The stage game with every payoff times ``2**k``, exactly."""
    return StageGame(np.ldexp(stage.array, k).tolist())


def ten_qubit_starts() -> list[PureState]:
    """30 dense starts (seed 5), pair products, a GHZ-like two-term start
    and basis starts."""
    rng = np.random.default_rng(5)
    starts = [random_state(10, rng) for _ in range(30)]
    starts += [tensor_all([random_state(2, rng) for _ in range(5)]) for _ in range(2)]
    weights = {"00": 0.1, "11": 0.4, "01": 0.3, "10": 0.2}
    rational = PureState.from_terms(2, {b: np.sqrt(w) for b, w in weights.items()})
    starts.append(tensor_all([rational] * 5))
    ghz = {"0" * 10: np.sqrt(0.3), "1" * 10: np.sqrt(0.7)}
    starts.append(PureState.from_terms(10, ghz))
    starts += [PureState.basis(10, 0), PureState.basis(10, 0b0110100101)]
    return starts


def unit_free_decisions(game: RepGame):
    """The table, and what ``nash``, ``dominance`` and ``spe`` decide on it:
    the subgame-perfect profiles, or the clause of the refusal that names
    the outcome (its numbers are in payoff units)."""
    bm = rep_bimatrix(game)
    try:
        spe = decisions(spe_pair_product(game).equilibria)
    except ValueError as err:
        spe = str(err).split(":")[0]
    nash = pure_nash(bm, scale=payoff_scale(game.stage)).equilibria
    dominated = (strictly_dominated(bm, 1), strictly_dominated(bm, 2))
    return bm, (decisions(nash), dominated, spe)


@pytest.mark.parametrize(
    "stage",
    [PD, make_pd(5.7, 3.3, 1.1, -0.4), PENNIES],
    ids=["pd", "fractional", "pennies"],
)
def test_payoffs_times_a_power_of_two_change_no_decision(stage):
    """Payoffs times ``2**k`` scale every cell exactly, so the Nash sets,
    strict flags, dominance lists and subgame-perfect sets (or refusals)
    must be those of the payoffs themselves, for every k in -40..40."""
    for index, start in enumerate(ten_qubit_starts()):
        bm, want = unit_free_decisions(RepGame(start, stage))
        for k in range(-40, 41):
            scaled, got = unit_free_decisions(RepGame(start, scaled_stage(stage, k)))
            assert np.array_equal(scaled.payoffs1, np.ldexp(bm.payoffs1, k))
            assert np.array_equal(scaled.payoffs2, np.ldexp(bm.payoffs2, k))
            assert got == want, (index, k)


# ---------------------------------------------------------------------------
# float decisions against exact arithmetic


def rational_start(weights: list[Fraction]) -> tuple[PureState, list[Fraction]]:
    """The start whose amplitudes are the square roots of ``weights`` (its
    float Born weights round them), paired with the exact weights."""
    n = len(weights).bit_length() - 1
    amplitudes = {index: math.sqrt(w) for index, w in enumerate(weights) if w}
    return PureState.from_terms(n, amplitudes), weights


def prob_weights(rng: np.random.Generator, n: int, count: int) -> list[Fraction]:
    """A ``prob`` term list: ``count`` basis states with weights k/total."""
    labels = rng.choice(2**n, size=count, replace=False).tolist()
    counts = rng.integers(1, 20, size=count).tolist()
    weights = [Fraction(0)] * 2**n
    for label, k in zip(labels, counts):
        weights[label] = Fraction(k, sum(counts))
    return weights


def product_weights(*factors: list[Fraction]) -> list[Fraction]:
    """Born weights of a pair product, the first factor most significant."""
    return [math.prod(ws) for ws in itertools.product(*factors)]


def basis_weights(n: int, index: int) -> list[Fraction]:
    return [Fraction(int(i == index)) for i in range(2**n)]


@functools.lru_cache(maxsize=1)
def exact_decision_starts() -> tuple:
    """Basis starts, ``prob`` term lists and pair products of ``prob``
    pairs on 2, 4 and 10 qubits, and the ten-qubit product of
    {00: 1/10, 01: 3/10, 10: 1/5, 11: 2/5}."""
    starts = []
    for n in (2, 4, 10):
        rng = np.random.default_rng(700 + n)
        starts += [basis_weights(n, 0), basis_weights(n, int(rng.integers(2**n)))]
        starts.append(prob_weights(rng, n, min(2**n, 40)))
        pairs = [prob_weights(rng, 2, 3) for _ in range(n // 2)]
        starts.append(product_weights(*pairs))
    pair = [Fraction(1, 10), Fraction(3, 10), Fraction(1, 5), Fraction(2, 5)]
    starts.append(product_weights(*[pair] * 5))
    return tuple(map(rational_start, starts))


def protocol_table(state: PureState, stage: StageGame) -> Bimatrix:
    """The table ``nash`` and ``dominance`` search for a start's register."""
    if state.num_qubits == 2:
        return mw_bimatrix(MWGame(state, stage))
    if state.num_qubits == 4:
        return it_pure_bimatrix(ITGame(state, stage))
    return rep_bimatrix(RepGame(state, stage))


EXACT_STAGES = {
    "pd": PD,
    "fractional": make_pd(5.7, 3.3, 1.1, -0.4),
    "bos": make_bos(3, 2, 1),
    "signed-zero": make_pd(2.5, -0.0, -1.2, -3.1),
    "t1e8": make_pd(1e8, 3, 1, 0),
    "tiny": make_pd(5e-10, 3e-10, 1e-10, 0),
    "pennies": PENNIES,
}


@functools.lru_cache(maxsize=None)
def exact_and_float_tables(stage_name: str):
    """Per start: its float table and its exact totals, on one stage."""
    stage = EXACT_STAGES[stage_name]
    weights = stage_weights(stage)
    return [
        (protocol_table(state, stage), exact_totals(np.array(born), weights))
        for state, born in exact_decision_starts()
    ]


@pytest.mark.parametrize("stage_name", EXACT_STAGES)
def test_nash_sets_and_strict_flags_are_the_exact_ones(stage_name):
    """On rational payoffs and rational Born weights, ``pure_nash`` at the
    bound of the stage lists exactly the profiles exact arithmetic lists
    at that bound, with the same strict flags: rounding decides nothing."""
    stage = EXACT_STAGES[stage_name]
    bound = payoff_bound(stage)
    for index, (bm, (u1, u2)) in enumerate(exact_and_float_tables(stage_name)):
        got = pure_nash(bm, scale=payoff_scale(stage)).equilibria
        assert decisions(got) == exact_nash(u1, u2, Fraction(bound)), index


ROUNDING_BREAKS_A_TIE = pytest.mark.xfail(
    strict=True,
    reason="exact ties that rounding breaks by 4e-16 read as strict "
    "dominance on the ten-qubit {1/10, 3/10, 1/5, 2/5} product",
)


@pytest.mark.parametrize(
    "stage_name",
    [
        pytest.param(name, marks=ROUNDING_BREAKS_A_TIE if name == "bos" else ())
        for name in EXACT_STAGES
    ],
)
def test_dominance_lists_are_the_exact_ones(stage_name):
    """``strictly_dominated`` compares exactly, so it lists the pairs exact
    arithmetic lists wherever rounding breaks no exact tie."""
    for index, (bm, (u1, u2)) in enumerate(exact_and_float_tables(stage_name)):
        own2 = [list(column) for column in zip(*u2)]
        got = (strictly_dominated(bm, 1), strictly_dominated(bm, 2))
        assert got == (exact_dominated(u1), exact_dominated(own2)), index


# ---------------------------------------------------------------------------
# cooperation threshold


def test_closed_form_bound_values():
    assert cooperation_bound(PD) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert cooperation_bound(make_pd(5, 4, 1, 0)) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError, match="dilemma payoffs"):
        cooperation_bound(make_pd(1, 2, 3, 4))


def test_scan_flags_exactly_the_region_below_the_bound():
    for grid_step in (0.05, 0.01, 0.1, 1 / 6):
        analysis = cooperation_scan(PD, grid_step)
        assert analysis.closed_form_bound == pytest.approx(1.0 / 3.0, abs=1e-15)
        # The last flagged point is the largest grid point below 1/3.
        last = math.ceil(1.0 / 3.0 / grid_step) - 1
        assert analysis.empirical_bound == last * grid_step


def cooperation_scan_oracle(stage, grid_step):
    """One ``mw_bimatrix`` and ``pure_nash(tol=0)`` per grid point.

    The per-point loop the one-pass scan replaced, kept as its oracle.
    """
    _, r, p, _ = stage.pd_values
    closed_form = cooperation_bound(stage)
    empirical = 0.0
    k = 1
    while k * grid_step < 1.0:
        x = k * grid_step
        k += 1
        report = pure_nash(mw_bimatrix(MWGame(pair_state(x), stage)), tol=0.0)
        unique = len(report.equilibria) == 1 and (
            report.equilibria[0].row,
            report.equilibria[0].col,
        ) == (0, 0)
        q = x * r + (1.0 - x) * p
        if unique:
            empirical = x
            if not q > p:
                raise AssertionError(
                    f"stage payoff {q} fails to beat mutual defection at x={x}"
                )
    if abs(closed_form - empirical) > grid_step * (1 + 1e-9):
        raise AssertionError(
            f"scan bound {empirical} disagrees with closed form {closed_form}"
        )
    return CooperationAnalysis(closed_form_bound=closed_form, empirical_bound=empirical)


def assert_scan_matches_the_oracle(stage, grid_step):
    try:
        want = cooperation_scan_oracle(stage, grid_step)
    except AssertionError as err:
        with pytest.raises(AssertionError) as caught:
            cooperation_scan(stage, grid_step)
        assert str(caught.value) == str(err)
        return
    got = cooperation_scan(stage, grid_step)
    # Both bounds bit for bit.
    assert got.closed_form_bound.hex() == want.closed_form_bound.hex()
    assert got.empirical_bound.hex() == want.empirical_bound.hex()


def seeded_dilemma(seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-1.0, 0.5)
    p = s + rng.uniform(0.5, 1.5)
    r = p + rng.uniform(1.0, 2.0)
    return make_pd(r + rng.uniform(0.2, 0.9) * (r - s), r, p, s)


# P = 1e17 and R = P + 16 are one ulp apart, so x*R + (1-x)*P rounds to P
# below x = 1/2, the bound: the scan fails at its first flagged point.
HUGE_DILEMMA = make_pd(1e17 + 80, 1e17 + 16, 1e17, 1e17 - 64)


@pytest.mark.parametrize("grid_step", [0.05, 0.01, 0.25, 1 / 3, 1 / 6, 0.1])
@pytest.mark.parametrize(
    "stage",
    [pytest.param(seeded_dilemma(seed), id=str(seed)) for seed in (81, 82, 83, 84)]
    + [pytest.param(HUGE_DILEMMA, id="1e17")],
)
def test_scan_equals_the_per_point_search(stage, grid_step):
    assert_scan_matches_the_oracle(stage, grid_step)


@pytest.mark.parametrize(
    "values, grid_step, x",
    [
        ((5, 3, 1, 0), 1 / 3, 1 / 3),
        ((5, 3, 1, 0), 1 / 6, 1 / 3),
        ((5, 4, 1, 0), 0.25, 0.5),
        ((4, 3, 1, 0), 1 / 6, 0.5),
        ((4, 3, 1, 0), 0.01, 0.5),
    ],
)
def test_scan_equals_the_per_point_search_on_exact_ties(values, grid_step, x):
    stage = make_pd(*values)
    # The grid point x makes player 1 indifferent in column 0 of the
    # induced game, so only an exact replica of pure_nash(tol=0) agrees.
    induced = mw_bimatrix(MWGame(pair_state(x), stage))
    assert induced.payoffs1[0, 0] == induced.payoffs1[1, 0]
    # A bound on a grid point leaves the last flag one step below it,
    # which is agreement, not a failed scan.
    analysis = cooperation_scan(stage, grid_step)
    gap = analysis.closed_form_bound - analysis.empirical_bound
    assert 0 < gap <= grid_step * (1 + 1e-9)
    assert_scan_matches_the_oracle(stage, grid_step)


def test_scan_validation():
    with pytest.raises(ValueError, match="dilemma payoffs"):
        cooperation_scan(make_bos(3, 2, 1), 0.1)
    for bad_step in (0.0, -0.1, 0.5, 0.7):
        with pytest.raises(ValueError, match=r"grid step"):
            cooperation_scan(PD, bad_step)
