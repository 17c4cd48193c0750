"""Tests for the four-qubit two-stage protocol."""

from __future__ import annotations

import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from exact_eval import exact_pair_tables
from test_equilibria import scaled_stage
from hypothesis import given, settings
from hypothesis import strategies as st

from qrgames import iqbaltoor
from qrgames.iqbaltoor import (
    IT_PURE_STRATEGIES,
    IT_STRATEGY_LABELS,
    ITGame,
    ITStrategy,
    it_expected,
    it_no_cooperation_check,
    it_pure_bimatrix,
    it_stage1_pattern,
    sample_dilemma_state,
)
from qrgames.mw import stage_weights
from qrgames.qstate import Ensemble, PureState, apply_flips, random_state
from qrgames.reference import (
    _expected_from,
    _it_observables,
    it_batch_expected,
    payoff_observable,
)
from qrgames.stagegames import Bimatrix, make_pd

PD = make_pd(5, 3, 1, 0)
# Payoffs whose sums round, so only exact arithmetic keeps ties exact.
FRACTIONAL = make_pd(5.7, 3.3, 1.1, -0.4)
SIGNED_ZERO = make_pd(2.5, -0.0, -1.2, -3.1)
# 0.7 |0000> + 0.3 |0100>: qubits 1-2 read 00 or 01, never 10.
ASYMMETRIC = PureState.from_terms(
    4, {"0000": math.sqrt(0.7), "0100": math.sqrt(0.3)}
)


def pd_game(state: PureState) -> ITGame:
    return ITGame(state, PD)


def batch_oracle(game, k1, k2, k3, k4):
    """Direct Born-rule evaluation of one pure flip assignment.

    Stage 1 reads qubits 1 and 2, stage 2 reads qubits 3 and 4; player 1
    owns the odd qubits and player 2 the even ones.  Qubit q is bit
    ``4 - q`` of the basis index.
    """
    probs = game.initial.probabilities
    flipped = np.zeros(4)
    for index, weight in enumerate(probs):
        if weight == 0.0:
            continue
        b1 = ((index >> 3) & 1) ^ k1
        b2 = ((index >> 2) & 1) ^ k2
        b3 = ((index >> 1) & 1) ^ k3
        b4 = (index & 1) ^ k4
        flipped += weight * np.array(
            [
                game.stage.payoff(1, b1, b2),
                game.stage.payoff(1, b3, b4),
                game.stage.payoff(2, b1, b2),
                game.stage.payoff(2, b3, b4),
            ]
        )
    return flipped


def _mix(flip_prob: float) -> list[tuple[float, int]]:
    options = [(1.0 - flip_prob, 0), (flip_prob, 1)]
    return [(p, bit) for p, bit in options if p > 0.0]


def ensemble_oracle(game, s1, s2):
    """Expected payoffs on the ensemble of the up to 16 flipped states.

    Each member is the initial state under one pure flip assignment,
    weighted by the four per-qubit mixing probabilities; stage-1 mixing
    is applied first and stage-2 mixing on top of it.  The dense
    observables are read on every member.
    """
    stage1_members = [
        (p1 * p2, {1: k1, 2: k2})
        for p1, k1 in _mix(s1.stage1_flip_prob)
        for p2, k2 in _mix(s2.stage1_flip_prob)
    ]
    members = []
    for weight, first_flips in stage1_members:
        mid = apply_flips(game.initial, first_flips)
        for p3, k3 in _mix(s1.stage2_flip_prob):
            for p4, k4 in _mix(s2.stage2_flip_prob):
                final = apply_flips(mid, {3: k3, 4: k4})
                members.append((weight * p3 * p4, final))
    return _expected_from(Ensemble(tuple(members)), _it_observables(game.stage))


def exact_expected(game, s1, s2):
    """Exact it_expected in ExpectedPayoffs order, as Fractions.

    The Born weights, payoffs and flip probabilities are read as the
    exact values of their floats; every product and sum is exact.
    """
    exact = exact_pair_tables(game.initial.probabilities, stage_weights(game.stage))
    # Stage 1 at rows 2*k1 and columns 2*k2, stage 2 at rows k3, columns k4.
    tables = (exact[:, 0, ::2, ::2].reshape(2, 4), exact[:, 1, :2, :2].reshape(2, 4))
    stages = []
    for table, a, b in zip(
        tables,
        (s1.stage1_flip_prob, s1.stage2_flip_prob),
        (s2.stage1_flip_prob, s2.stage2_flip_prob),
    ):
        a, b = Fraction(a), Fraction(b)
        mix = [(1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b]
        stages.append([sum(w * value for w, value in zip(mix, row)) for row in table])
    (p1_stage1, p2_stage1), (p1_stage2, p2_stage2) = stages
    return [p1_stage1, p1_stage2, p2_stage1, p2_stage2]


# ---------------------------------------------------------------------------
# strategies


def test_strategy_probability_bounds():
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        ITStrategy(-0.1, 0.5)
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        ITStrategy(0.5, 1.1)


def test_pure_strategies_and_labels_line_up():
    assert len(IT_PURE_STRATEGIES) == 4
    for strat, label in zip(IT_PURE_STRATEGIES, IT_STRATEGY_LABELS):
        assert {strat.stage1_flip_prob, strat.stage2_flip_prob} <= {0.0, 1.0}
        assert label == f"{int(strat.stage1_flip_prob)}{int(strat.stage2_flip_prob)}"
    assert ITStrategy.pure(1, 0) == ITStrategy(1.0, 0.0)


def test_game_requires_four_qubits():
    with pytest.raises(ValueError, match="exactly 4 qubits"):
        ITGame(PureState.basis(2, 0), PD)


# ---------------------------------------------------------------------------
# expected payoffs


def test_batch_expectation_matches_direct_born_rule():
    rng = np.random.default_rng(11)
    for _ in range(4):
        game = pd_game(random_state(4, rng))
        for corner in range(16):
            k1, k2, k3, k4 = (corner >> 3) & 1, (corner >> 2) & 1, (corner >> 1) & 1, corner & 1
            got = it_batch_expected(game, k1, k2, k3, k4)
            want = batch_oracle(game, k1, k2, k3, k4)
            assert np.allclose(got.as_array(), want, atol=1e-12)


def test_pure_strategy_play_equals_batch_play():
    rng = np.random.default_rng(12)
    game = pd_game(random_state(4, rng))
    for s1 in IT_PURE_STRATEGIES:
        for s2 in IT_PURE_STRATEGIES:
            got = it_expected(game, s1, s2)
            want = it_batch_expected(
                game,
                int(s1.stage1_flip_prob),
                int(s2.stage1_flip_prob),
                int(s1.stage2_flip_prob),
                int(s2.stage2_flip_prob),
            )
            assert np.allclose(got.as_array(), want.as_array(), atol=1e-12)


def test_mixed_strategies_blend_the_pure_corners():
    """Independent per-stage flips induce product weights over corners."""
    rng = np.random.default_rng(13)
    for _ in range(5):
        game = pd_game(random_state(4, rng))
        a1, b1, a2, b2 = rng.uniform(size=4)
        s1 = ITStrategy(a1, b1)
        s2 = ITStrategy(a2, b2)
        blend = np.zeros(4)
        for corner in range(16):
            k1, k2 = (corner >> 3) & 1, (corner >> 2) & 1
            k3, k4 = (corner >> 1) & 1, corner & 1
            weight = (
                (a1 if k1 else 1 - a1)
                * (a2 if k2 else 1 - a2)
                * (b1 if k3 else 1 - b1)
                * (b2 if k4 else 1 - b2)
            )
            blend += weight * it_batch_expected(game, k1, k2, k3, k4).as_array()
        got = it_expected(game, s1, s2)
        assert np.allclose(got.as_array(), blend, atol=1e-12)


def kron_blend(game: ITGame, s1: ITStrategy, s2: ITStrategy) -> np.ndarray:
    """``it_expected`` as first written: each stage's table dotted with the
    ``np.kron`` of its two qubits' flip chances, in ExpectedPayoffs order."""
    stage1, stage2 = (
        table @ np.kron([1.0 - a, a], [1.0 - b, b])
        for table, a, b in zip(
            iqbaltoor._stage_tables(game),
            (s1.stage1_flip_prob, s1.stage2_flip_prob),
            (s2.stage1_flip_prob, s2.stage2_flip_prob),
        )
    )
    return np.array([stage1[0], stage2[0], stage1[1], stage2[1]])


_FLIP_PROBS = st.one_of(
    st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2**-53, 0.5])
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    probs=st.tuples(_FLIP_PROBS, _FLIP_PROBS, _FLIP_PROBS, _FLIP_PROBS),
    seed=st.integers(0, 2**32 - 1),
    stage=st.sampled_from([PD, FRACTIONAL, SIGNED_ZERO]),
)
def test_mixed_payoffs_are_the_kron_weighted_blend_bit_for_bit(probs, seed, stage):
    """The four flip weights written out are the products ``np.kron`` forms,
    so every component keeps its bits, signed zeros included."""
    game = ITGame(random_state(4, np.random.default_rng(seed)), stage)
    s1, s2 = ITStrategy(probs[0], probs[1]), ITStrategy(probs[2], probs[3])
    got = it_expected(game, s1, s2).as_array()
    assert got.tobytes() == kron_blend(game, s1, s2).tobytes()


@pytest.mark.parametrize("stage", [PD, FRACTIONAL, SIGNED_ZERO])
def test_expected_payoffs_match_the_ensemble_oracle(stage):
    rng = np.random.default_rng(16)
    for _ in range(10):
        game = ITGame(random_state(4, rng), stage)
        profiles = [(s1, s2) for s1 in IT_PURE_STRATEGIES for s2 in IT_PURE_STRATEGIES]
        a1, b1, a2, b2 = rng.uniform(size=4)
        profiles.append((ITStrategy(a1, b1), ITStrategy(a2, b2)))
        profiles.append((ITStrategy(a1, 1.0), ITStrategy(0.0, b2)))
        for s1, s2 in profiles:
            got = it_expected(game, s1, s2).as_array()
            want = ensemble_oracle(game, s1, s2).as_array()
            assert np.abs(got - want).max() <= 1e-12


def test_expected_payoffs_round_the_exact_value():
    """Each component is within 8 eps max|u| of the exact rational value."""
    rng = np.random.default_rng(17)
    bound = 8 * np.finfo(float).eps * float(np.abs(FRACTIONAL.outcomes).max())
    for _ in range(40):
        game = ITGame(random_state(4, rng), FRACTIONAL)
        a1, b1, a2, b2 = rng.uniform(size=4)
        s1, s2 = ITStrategy(a1, b1), ITStrategy(a2, b2)
        got = it_expected(game, s1, s2).as_array()
        for value, exact in zip(got.tolist(), exact_expected(game, s1, s2)):
            assert abs(Fraction(value) - exact) <= bound


def test_stage_one_flips_leave_stage_two_payoffs_alone():
    rng = np.random.default_rng(14)
    for _ in range(4):
        game = pd_game(random_state(4, rng))
        for k3 in (0, 1):
            for k4 in (0, 1):
                base = it_batch_expected(game, 0, 0, k3, k4)
                for k1 in (0, 1):
                    for k2 in (0, 1):
                        moved = it_batch_expected(game, k1, k2, k3, k4)
                        assert abs(moved.p1_stage2 - base.p1_stage2) <= 1e-12
                        assert abs(moved.p2_stage2 - base.p2_stage2) <= 1e-12


# ---------------------------------------------------------------------------
# the 4x4 normal form


def test_all_zero_bimatrix_corner_cells():
    bm = it_pure_bimatrix(pd_game(PureState.basis(4, "0000")))
    assert bm.row_labels == IT_STRATEGY_LABELS
    assert bm.cell(0, 0) == (6.0, 6.0)  # cooperate twice
    assert bm.cell(3, 3) == (2.0, 2.0)  # defect twice
    assert bm.cell(2, 2) == (4.0, 4.0)  # defect only in stage 1
    assert bm.cell(3, 0) == (10.0, 0.0)  # exploit a double cooperator


def test_flipped_start_bimatrix_cells():
    # |1100> starts stage 1 at mutual defection and stage 2 at cooperation.
    bm = it_pure_bimatrix(pd_game(PureState.basis(4, "1100")))
    assert bm.cell(0, 0) == (4.0, 4.0)
    assert bm.cell(1, 1) == (2.0, 2.0)
    assert bm.cell(2, 2) == (6.0, 6.0)
    assert bm.cell(3, 3) == (4.0, 4.0)


def test_bimatrix_totals_match_batch_runs():
    """A pure profile blends one stage-table entry per stage with weight
    1.0, so its totals are the bimatrix cell bit for bit."""
    rng = np.random.default_rng(15)
    for stage in (PD, FRACTIONAL, SIGNED_ZERO):
        for _ in range(10):
            game = ITGame(random_state(4, rng), stage)
            bm = it_pure_bimatrix(game)
            for row, s1 in enumerate(IT_PURE_STRATEGIES):
                for col, s2 in enumerate(IT_PURE_STRATEGIES):
                    assert it_expected(game, s1, s2).totals == bm.cell(row, col)


@pytest.mark.parametrize("seed", range(5))
def test_bimatrix_matches_the_xor_gather(seed):
    """Cell totals are sum_y W[y ^ m] p[y] for each stage's observable W."""
    state = random_state(4, np.random.default_rng(200 + seed))
    probs = state.probabilities
    bm = it_pure_bimatrix(ITGame(state, FRACTIONAL))
    indices = np.arange(16)
    for player, table in ((1, bm.payoffs1), (2, bm.payoffs2)):
        stage1 = payoff_observable(FRACTIONAL, player, 4, (1, 2))
        stage2 = payoff_observable(FRACTIONAL, player, 4, (3, 4))
        for row, s1 in enumerate(IT_PURE_STRATEGIES):
            for col, s2 in enumerate(IT_PURE_STRATEGIES):
                mask = (
                    8 * int(s1.stage1_flip_prob)
                    + 4 * int(s2.stage1_flip_prob)
                    + 2 * int(s1.stage2_flip_prob)
                    + int(s2.stage2_flip_prob)
                )
                gathered = (
                    stage1[indices ^ mask] @ probs + stage2[indices ^ mask] @ probs
                )
                assert abs(table[row, col] - gathered) <= 1e-12


@pytest.mark.parametrize("index", range(16))
def test_basis_start_bimatrix_is_exact(index):
    x1, x2, x3, x4 = (int(bit) for bit in format(index, "04b"))
    bm = it_pure_bimatrix(ITGame(PureState.basis(4, index), FRACTIONAL))
    for player, table in ((1, bm.payoffs1), (2, bm.payoffs2)):
        want = np.array(
            [
                [
                    FRACTIONAL.payoff(player, x1 ^ k1, x2 ^ k2)
                    + FRACTIONAL.payoff(player, x3 ^ k3, x4 ^ k4)
                    for k2, k4 in ((0, 0), (0, 1), (1, 0), (1, 1))
                ]
                for k1, k3 in ((0, 0), (0, 1), (1, 0), (1, 1))
            ]
        )
        assert np.array_equal(table, want)


# ---------------------------------------------------------------------------
# first-stage pattern


def test_pattern_on_all_zero_start_is_the_stage_game():
    pattern = it_stage1_pattern(pd_game(PureState.basis(4, "0000")))
    assert (pattern.t, pattern.r, pattern.p, pattern.s) == (5.0, 3.0, 1.0, 0.0)
    assert pattern.symmetric
    assert pattern.pd_consistent


def test_pattern_matches_marginal_oracle():
    state = PureState.from_terms(
        4,
        {
            "0000": np.sqrt(0.5),
            "0110": np.sqrt(0.2),
            "1011": np.sqrt(0.2),
            "1101": np.sqrt(0.1),
        },
    )
    pattern = it_stage1_pattern(pd_game(state))
    weights = {(0, 0): 0.5, (0, 1): 0.2, (1, 0): 0.2, (1, 1): 0.1}

    def entry(k1, k2):
        return sum(
            PD.payoff(1, a1, a2) * weights[(a1 ^ k1, a2 ^ k2)]
            for a1 in (0, 1)
            for a2 in (0, 1)
        )

    assert abs(pattern.r - entry(0, 0)) <= 1e-12
    assert abs(pattern.s - entry(0, 1)) <= 1e-12
    assert abs(pattern.t - entry(1, 0)) <= 1e-12
    assert abs(pattern.p - entry(1, 1)) <= 1e-12
    assert pattern.symmetric
    assert pattern.pd_consistent


def test_lopsided_marginals_break_symmetry():
    state = PureState.from_terms(
        4,
        {
            "0000": np.sqrt(0.5),
            "0110": np.sqrt(0.3),
            "1011": np.sqrt(0.1),
            "1101": np.sqrt(0.1),
        },
    )
    pattern = it_stage1_pattern(pd_game(state))
    assert not pattern.symmetric
    assert not pattern.pd_consistent


# ---------------------------------------------------------------------------
# no-cooperation verdict


def test_all_zero_verdict_pins_the_classical_result():
    verdict = it_no_cooperation_check(pd_game(PureState.basis(4, "0000")))
    assert verdict.player1_gaps == pytest.approx((2.0, 1.0), abs=1e-12)
    assert verdict.player2_gaps == pytest.approx((2.0, 1.0), abs=1e-12)
    assert verdict.equilibria == ((3, 3),)
    assert len(verdict.equilibrium_payoffs) == 1
    assert verdict.equilibrium_payoffs[0] == pytest.approx((2.0, 2.0), abs=1e-12)
    assert verdict.cooperation_excluded


def verdict_on_edited_table(monkeypatch, edit):
    """The verdict on the all-zeros start after ``edit(u1, u2)`` changes
    its 4x4 payoff tables in place."""
    game = pd_game(PureState.basis(4, "0000"))
    bm = it_pure_bimatrix(game)
    u1, u2 = bm.payoffs1.copy(), bm.payoffs2.copy()
    edit(u1, u2)
    edited = Bimatrix(u1, u2, bm.row_labels, bm.col_labels)
    monkeypatch.setattr(iqbaltoor, "it_pure_bimatrix", lambda _: edited)
    return it_no_cooperation_check(game)


@pytest.mark.parametrize("player", [1, 2])
def test_verdict_reports_a_stage1_flip_that_fails_to_dominate(player, monkeypatch):
    def tie(u1, u2):
        # Strategy 01 now pays what 11 pays against the opponent's 11.
        if player == 1:
            u1[1, 3] = u1[3, 3]
        else:
            u2[3, 1] = u2[3, 3]

    with pytest.raises(AssertionError, match=f"fails to dominate for player {player}"):
        verdict_on_edited_table(monkeypatch, tie)


@pytest.mark.parametrize("player", [1, 2])
def test_verdict_reports_a_margin_off_the_stage1_pattern(player, monkeypatch):
    def lower(u1, u2):
        # Staying put against the opponent's 00 pays less than the pattern says.
        if player == 1:
            u1[0, 0] -= 0.5
        else:
            u2[0, 0] -= 0.5

    with pytest.raises(AssertionError, match="margin does not match the stage-1"):
        verdict_on_edited_table(monkeypatch, lower)


def test_verdict_refuses_non_dilemma_patterns():
    lopsided = PureState.from_terms(
        4, {"0000": np.sqrt(0.5), "0110": np.sqrt(0.5)}
    )
    with pytest.raises(ValueError, match="not dilemma-consistent"):
        it_no_cooperation_check(pd_game(lopsided))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_sampled_dilemma_states_always_exclude_cooperation(seed):
    rng = np.random.default_rng(seed)
    state = sample_dilemma_state(PD, rng)
    assert state.num_qubits == 4
    assert abs(state.probabilities.sum() - 1.0) <= 1e-12
    verdict = it_no_cooperation_check(pd_game(state))
    pattern = verdict.pattern
    assert pattern.pd_consistent
    for gaps in (verdict.player1_gaps, verdict.player2_gaps):
        assert abs(gaps[0] - (pattern.t - pattern.r)) <= 1e-9
        assert abs(gaps[1] - (pattern.p - pattern.s)) <= 1e-9
    assert verdict.cooperation_excluded
    # Every equilibrium has both players flipping in stage 1.
    for row, col in verdict.equilibria:
        assert row >= 2 and col >= 2


# ---------------------------------------------------------------------------
# payoff units


def in_units_of(value, k: int):
    """``value`` with every float in it times ``2**-k``, through tuples."""
    if isinstance(value, tuple):
        return tuple(in_units_of(item, k) for item in value)
    return math.ldexp(value, -k) if isinstance(value, float) else value


def four_qubit_decisions(game: ITGame):
    """The stage-1 pattern and the no-cooperation verdict, or its refusal."""
    try:
        verdict = astuple(it_no_cooperation_check(game))
    except ValueError as err:
        verdict = str(err)
    return astuple(it_stage1_pattern(game)), verdict


def test_pattern_and_verdict_change_with_no_payoff_unit():
    """Payoffs times ``2**k`` scale every table entry exactly, so the
    pattern, its symmetry, the margins and the equilibria must be those
    of the payoffs themselves, read in units of ``2**k``."""
    rng = np.random.default_rng(31)
    starts = [PureState.basis(4, 0), PureState.basis(4, 0b0110), ASYMMETRIC]
    starts += [sample_dilemma_state(PD, rng) for _ in range(12)]
    starts += [random_state(4, rng) for _ in range(4)]
    for stage in (PD, FRACTIONAL):
        for index, start in enumerate(starts):
            want = four_qubit_decisions(ITGame(start, stage))
            for k in range(-40, 41):
                got = four_qubit_decisions(ITGame(start, scaled_stage(stage, k)))
                assert in_units_of(got, k) == want, (index, k)


def test_an_asymmetric_start_stays_asymmetric_at_tiny_payoffs():
    """Player 2's stage-1 entries differ from the mirrored ones by
    0.3 * (T - S): 1.5e-10 at T = 5e-10, far above rounding at any unit."""
    for stage in (PD, make_pd(5e-10, 3e-10, 1e-10, 0)):
        pattern = it_stage1_pattern(ITGame(ASYMMETRIC, stage))
        assert not pattern.symmetric
        assert not pattern.pd_consistent


def test_sampler_rejects_non_dilemma_stage_games():
    coordination = make_pd(1, 2, 3, 4)
    with pytest.raises(ValueError, match="dilemma payoffs"):
        sample_dilemma_state(coordination, np.random.default_rng(0))
