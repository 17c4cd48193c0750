"""Tests for the single-stage two-qubit protocol."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrgames.mw import MWGame, mw_bimatrix
from qrgames.qstate import PureState, expectation, random_state
from qrgames.reference import payoff_observable
from qrgames.stagegames import make_bos, make_pd

PD = make_pd(5, 3, 1, 0)
# Payoffs whose sums round, so only exact arithmetic keeps ties exact.
FRACTIONAL = make_pd(5.7, 3.3, 1.1, -0.4)


def test_payoff_observable_reads_the_designated_pair():
    weights = payoff_observable(PD, 1, num_qubits=2, qubit_pair=(1, 2))
    assert weights.tolist() == [3.0, 0.0, 5.0, 1.0]
    other = payoff_observable(PD, 2, num_qubits=2, qubit_pair=(1, 2))
    assert other.tolist() == [3.0, 5.0, 0.0, 1.0]


def test_payoff_observable_ignores_spectator_qubits():
    # On a wider register the weight depends only on the pair's bits.
    weights = payoff_observable(PD, 1, num_qubits=4, qubit_pair=(2, 3))
    for index in range(16):
        a = (index >> 2) & 1
        b = (index >> 1) & 1
        assert weights[index] == PD.payoff(1, a, b)


def test_game_requires_two_qubits():
    with pytest.raises(ValueError, match="exactly 2 qubits"):
        MWGame(PureState.basis(3, 0), PD)


def test_all_zero_start_reproduces_the_stage_table():
    bm = mw_bimatrix(MWGame(PureState.basis(2, "00"), PD))
    for k1 in (0, 1):
        for k2 in (0, 1):
            assert bm.cell(k1, k2) == PD.pair(k1, k2)


def test_all_one_start_relabels_without_changing_outcomes():
    bm = mw_bimatrix(MWGame(PureState.basis(2, "11"), PD))
    assert bm.cell(0, 0) == (1.0, 1.0)
    assert bm.cell(0, 1) == (5.0, 0.0)
    assert bm.cell(1, 0) == (0.0, 5.0)
    assert bm.cell(1, 1) == (3.0, 3.0)


@pytest.mark.parametrize("label", ["00", "01", "10", "11"])
def test_any_basis_start_is_a_relabeling(label):
    """Starting from |x1 x2> shifts which cell each operator pair hits."""
    stage = make_bos(3, 2, 1)
    bm = mw_bimatrix(MWGame(PureState.basis(2, label), stage))
    x1, x2 = int(label[0]), int(label[1])
    for k1 in (0, 1):
        for k2 in (0, 1):
            assert bm.cell(k1, k2) == stage.pair(x1 ^ k1, x2 ^ k2)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_two_term_start_mixes_complementary_cells(weight):
    state = PureState.from_terms(
        2, {"00": np.sqrt(weight), "11": np.sqrt(1.0 - weight)}
    )
    bm = mw_bimatrix(MWGame(state, PD))
    for k1 in (0, 1):
        for k2 in (0, 1):
            direct = np.array(PD.pair(k1, k2))
            flipped = np.array(PD.pair(1 - k1, 1 - k2))
            want = weight * direct + (1.0 - weight) * flipped
            assert np.allclose(bm.cell(k1, k2), want, atol=1e-12)


def test_known_two_term_cell():
    state = PureState.from_terms(2, {"00": np.sqrt(0.6), "11": np.sqrt(0.4)})
    bm = mw_bimatrix(MWGame(state, make_pd(5, 4, 1, 0)))
    assert np.allclose(bm.cell(1, 1), (2.2, 2.2), atol=1e-12)
    assert np.allclose(bm.cell(0, 0), (2.8, 2.8), atol=1e-12)


def test_swapping_weights_equals_complementing_choices():
    heavy = PureState.from_terms(2, {"00": np.sqrt(0.7), "11": np.sqrt(0.3)})
    light = PureState.from_terms(2, {"00": np.sqrt(0.3), "11": np.sqrt(0.7)})
    bm_heavy = mw_bimatrix(MWGame(heavy, PD))
    bm_light = mw_bimatrix(MWGame(light, PD))
    for k1 in (0, 1):
        for k2 in (0, 1):
            assert np.allclose(
                bm_heavy.cell(k1, k2), bm_light.cell(1 - k1, 1 - k2), atol=1e-12
            )


def test_arbitrary_states_match_direct_expectations():
    """The bimatrix agrees with hand-built flip and expectation calls."""
    rng = np.random.default_rng(42)
    for _ in range(5):
        state = random_state(2, rng)
        bm = mw_bimatrix(MWGame(state, PD))
        for k1 in (0, 1):
            for k2 in (0, 1):
                probs = state.probabilities
                want1 = sum(
                    probs[2 * y1 + y2] * PD.payoff(1, y1 ^ k1, y2 ^ k2)
                    for y1 in (0, 1)
                    for y2 in (0, 1)
                )
                assert abs(bm.cell(k1, k2)[0] - want1) <= 1e-12


def test_bimatrix_labels_are_operator_bits():
    bm = mw_bimatrix(MWGame(PureState.basis(2, 0), PD))
    assert bm.row_labels == ("0", "1")
    assert bm.col_labels == ("0", "1")


@pytest.mark.parametrize("seed", range(5))
def test_bimatrix_matches_the_xor_gather(seed):
    """Cell (k1, k2) is sum_y W[y ^ m] p[y] for the flip mask m = k1 k2."""
    state = random_state(2, np.random.default_rng(100 + seed))
    probs = state.probabilities
    bm = mw_bimatrix(MWGame(state, FRACTIONAL))
    for player, table in ((1, bm.payoffs1), (2, bm.payoffs2)):
        weights = payoff_observable(FRACTIONAL, player, 2, (1, 2))
        for k1 in (0, 1):
            for k2 in (0, 1):
                gathered = weights[np.arange(4) ^ (2 * k1 + k2)] @ probs
                assert abs(table[k1, k2] - gathered) <= 1e-12


@pytest.mark.parametrize("label", ["00", "01", "10", "11"])
def test_basis_start_relabels_fractional_payoffs_exactly(label):
    bm = mw_bimatrix(MWGame(PureState.basis(2, label), FRACTIONAL))
    x1, x2 = int(label[0]), int(label[1])
    relabel = np.ix_([x1, 1 - x1], [x2, 1 - x2])
    assert np.array_equal(bm.payoffs1, FRACTIONAL.payoff_table(1)[relabel])
    assert np.array_equal(bm.payoffs2, FRACTIONAL.payoff_table(2)[relabel])
