"""Unit tests for the state-vector primitives."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from exact_eval import (
    IT_STEPS,
    MW_STEPS,
    SECOND_STAGE_STEPS,
    STAGE1_STEPS,
    exact_pair_tables,
    gamma,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qrgames import mw, qstate
from qrgames.iqbaltoor import ITGame, it_pure_bimatrix
from qrgames.mw import MWGame, mw_bimatrix, pair_table, stage_weights
from qrgames.qstate import (
    OUTCOMES,
    PROB_FLOOR,
    DiagonalObservable,
    Ensemble,
    PureState,
    apply_flips,
    basis_index,
    expectation,
    measure_pair,
    random_state,
    tensor_all,
)
from qrgames.reference import payoff_observable
from qrgames.repeated10 import RepGame, rep_component_tables
from qrgames.stagegames import StageGame, make_bos, make_pd


def seeded_state(num_qubits: int, seed: int) -> PureState:
    return random_state(num_qubits, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# basis labels


@given(st.integers(min_value=1, max_value=8), st.data())
def test_basis_label_round_trip(num_qubits, data):
    index = data.draw(st.integers(min_value=0, max_value=2**num_qubits - 1))
    assert basis_index(format(index, f"0{num_qubits}b")) == index


@pytest.mark.parametrize("label", ["", "012", "ab", "10 1"])
def test_basis_index_rejects_junk(label):
    with pytest.raises(ValueError, match="invalid basis bit string"):
        basis_index(label)


# ---------------------------------------------------------------------------
# PureState construction


def test_basis_state_int_and_string_labels_agree():
    by_string = PureState.basis(4, "0110")
    by_index = PureState.basis(4, 6)
    assert np.array_equal(by_string.amplitudes, by_index.amplitudes)
    assert by_string.amplitudes[6] == 1.0
    assert by_string.probabilities.sum() == 1.0


def test_from_terms_accumulates_repeated_labels():
    # "0" and index 0 hit the same slot; amplitudes add.
    state = PureState.from_terms(1, {"0": 0.6, 0: 0.8j})
    assert state.amplitudes[0] == 0.6 + 0.8j
    assert state.amplitudes[1] == 0.0


def test_from_terms_rejects_unnormalized_input():
    with pytest.raises(ValueError, match="not normalized"):
        PureState.from_terms(2, {"00": 0.5})


def test_nan_weights_fail_the_normalization_checks():
    with pytest.raises(ValueError, match="not normalized"):
        PureState.from_terms(2, {"00": float("nan")})
    with pytest.raises(ValueError, match="sum to"):
        Ensemble(((float("nan"), PureState.basis(2, 0)),))


def test_from_terms_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="out of range"):
        PureState.from_terms(2, {7: 1.0})


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: PureState.basis(4, "0000000001"), id="basis-long"),
        pytest.param(lambda: PureState.basis(4, "01"), id="basis-short"),
        pytest.param(lambda: PureState.from_terms(10, {"01": 1.0}), id="terms-short"),
        pytest.param(lambda: PureState.from_terms(2, {"0000": 1.0}), id="terms-long"),
    ],
)
def test_a_label_of_the_wrong_length_is_refused(make):
    with pytest.raises(ValueError, match="expected [0-9]+-bit label"):
        make()


@pytest.mark.parametrize("index", [-1, -16, 16, 99, 1.5])
def test_basis_refuses_an_index_outside_the_register(index):
    with pytest.raises(ValueError, match="out of range"):
        PureState.basis(4, index)


def test_state_rejects_wrong_amplitude_count():
    with pytest.raises(ValueError, match="expected 2"):
        PureState(2, np.array([1.0, 0.0]))


def test_amplitudes_are_read_only():
    state = PureState.basis(2, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_probabilities_are_the_squared_amplitudes_and_read_only():
    state = random_state(5, np.random.default_rng(31))
    assert np.array_equal(state.probabilities, np.abs(state.amplitudes) ** 2)
    with pytest.raises(ValueError):
        state.probabilities[0] = 0.0


def test_bit_uses_one_based_most_significant_order():
    state = PureState.basis(4, "0110")
    assert [state.bit(6, q) for q in (1, 2, 3, 4)] == [0, 1, 1, 0]


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_concatenates_basis_labels():
    left = PureState.basis(1, "1")
    right = PureState.basis(2, "01")
    assert np.array_equal(
        tensor_all([left, right]).amplitudes, PureState.basis(3, "101").amplitudes
    )


def test_tensor_all_matches_pairwise_tensor():
    rng = np.random.default_rng(7)
    factors = [random_state(2, rng) for _ in range(3)]
    first, second, third = (factor.amplitudes for factor in factors)
    chained = np.kron(np.kron(first, second), third)
    product = tensor_all(factors)
    assert product.num_qubits == 6
    assert np.allclose(product.amplitudes, chained)


def test_tensor_all_needs_a_factor():
    with pytest.raises(ValueError, match="at least one factor"):
        tensor_all([])


def test_random_state_is_normalized_and_seed_stable():
    first = seeded_state(5, 123)
    again = seeded_state(5, 123)
    other = seeded_state(5, 124)
    assert abs(first.probabilities.sum() - 1.0) <= 1e-12
    assert np.array_equal(first.amplitudes, again.amplitudes)
    assert not np.array_equal(first.amplitudes, other.amplitudes)


# ---------------------------------------------------------------------------
# flips: a {qubit: bit} map


def test_flip_layer_validates_entries():
    state = PureState.basis(4, 0)
    with pytest.raises(ValueError, match="must be 0 or 1"):
        apply_flips(state, {1: 2})
    with pytest.raises(ValueError, match="1-based"):
        apply_flips(state, {1.5: 1})
    with pytest.raises(ValueError, match="qubit 0 out of range"):
        apply_flips(state, {0: 1})
    flipped = apply_flips(state, {np.int64(3): 1})
    assert np.array_equal(flipped.amplitudes, PureState.basis(4, "0010").amplitudes)


@pytest.mark.parametrize("qubit", [True, False])
def test_flip_layer_refuses_a_bool_qubit(qubit):
    """True == 1, but a bool names no qubit: it would flip qubit 1."""
    with pytest.raises(ValueError, match=f"1-based integers, got {qubit}"):
        apply_flips(PureState.basis(2, 0), {qubit: 1})


def test_mask_places_qubit_one_at_the_top_bit():
    start = PureState.basis(4, 0)
    for flips, index in (({1: 1}, 0b1000), ({4: 1}, 0b0001), ({1: 1, 3: 1}, 0b1010)):
        flipped = apply_flips(start, flips)
        assert np.array_equal(flipped.amplitudes, PureState.basis(4, index).amplitudes)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32),
    st.data(),
)
def test_apply_flips_is_an_xor_permutation(num_qubits, seed, data):
    """apply_flips relocates amplitudes by XOR and touches nothing else."""
    state = seeded_state(num_qubits, seed)
    bits = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=num_qubits,
            max_size=num_qubits,
        )
    )
    flips = dict(enumerate(bits, start=1))
    mask = int("".join(map(str, bits)), 2)
    flipped = apply_flips(state, flips)

    indices = np.arange(state.amplitudes.shape[0])
    assert np.array_equal(flipped.amplitudes, state.amplitudes[indices ^ mask])
    # A permutation reorders the probabilities without touching their values.
    assert np.array_equal(
        np.sort(flipped.probabilities), np.sort(state.probabilities)
    )
    assert abs(flipped.probabilities.sum() - 1.0) <= 1e-12
    twice = apply_flips(flipped, flips)
    assert np.array_equal(twice.amplitudes, state.amplitudes)


def test_apply_flips_identity_layer_returns_input_unchanged():
    state = seeded_state(3, 99)
    assert apply_flips(state, {}) is state
    assert apply_flips(state, {1: 0, 3: 0}) is state


def test_apply_flips_range_check():
    with pytest.raises(ValueError, match="qubit 3 out of range for 2-qubit state"):
        apply_flips(PureState.basis(2, 0), {3: 1})


# ---------------------------------------------------------------------------
# measurement


def test_measure_pair_on_basis_state_is_deterministic():
    state = PureState.basis(4, "0110")
    branches = measure_pair(state, 2, 3)
    assert len(branches) == 1
    outcome, probability, post = branches[0]
    assert outcome == (1, 1)
    assert probability == 1.0
    assert np.array_equal(post.amplitudes, state.amplitudes)


def test_measure_pair_drops_zero_probability_outcomes():
    bell = PureState.from_terms(2, {"00": np.sqrt(0.5), "11": np.sqrt(0.5)})
    outcomes = [outcome for outcome, _, _ in measure_pair(bell, 1, 2)]
    assert outcomes == [(0, 0), (1, 1)]


@pytest.mark.parametrize("seed", range(8))
def test_measure_pair_matches_direct_marginals(seed):
    """Branch probabilities equal Born-rule marginals, and the branch
    mixture reassembles the original distribution."""
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 6))
    state = random_state(num_qubits, rng)
    qubit_a, qubit_b = rng.choice(
        np.arange(1, num_qubits + 1), size=2, replace=False
    )
    qubit_a, qubit_b = int(qubit_a), int(qubit_b)

    weights = state.probabilities
    marginal = {outcome: 0.0 for outcome in OUTCOMES}
    for index, weight in enumerate(weights):
        key = (state.bit(index, qubit_a), state.bit(index, qubit_b))
        marginal[key] += float(weight)

    branches = measure_pair(state, qubit_a, qubit_b)
    assert abs(sum(p for _, p, _ in branches) - 1.0) <= 1e-12
    reassembled = np.zeros_like(weights)
    for outcome, probability, post in branches:
        assert abs(probability - marginal[outcome]) <= 1e-12
        assert abs(post.probabilities.sum() - 1.0) <= 1e-12
        # The post state only keeps amplitudes consistent with the outcome.
        for index in np.nonzero(post.probabilities > 0)[0]:
            assert (state.bit(int(index), qubit_a), state.bit(int(index), qubit_b)) == outcome
        reassembled += probability * post.probabilities
    assert np.allclose(reassembled, weights, atol=1e-12)


def test_measure_pair_argument_checks():
    state = PureState.basis(4, 0)
    with pytest.raises(ValueError, match="distinct"):
        measure_pair(state, 2, 2)
    with pytest.raises(ValueError, match="out of range"):
        measure_pair(state, 1, 5)


@pytest.mark.parametrize("qubit", [1.5, 1.0, "1", None])
def test_measure_pair_refuses_a_qubit_that_is_not_an_integer(qubit):
    state = PureState.basis(4, 0)
    message = "qubit indices are 1-based integers"
    with pytest.raises(ValueError, match=message):
        measure_pair(state, qubit, 2)
    with pytest.raises(ValueError, match=message):
        measure_pair(state, 2, qubit)


@pytest.mark.parametrize("qubit", [True, False])
def test_measure_pair_refuses_a_bool_qubit(qubit):
    state = seeded_state(4, 71)
    message = f"qubit indices are 1-based integers, got {qubit}"
    with pytest.raises(ValueError, match=message):
        qstate._check_qubit(qubit, 4)
    with pytest.raises(ValueError, match=message):
        measure_pair(state, qubit, 2)
    with pytest.raises(ValueError, match=message):
        measure_pair(state, 3, qubit)


def test_measure_pair_takes_numpy_integer_qubits():
    state = seeded_state(4, 70)
    assert [p for _, p, _ in measure_pair(state, np.int64(1), 2)] == [
        p for _, p, _ in measure_pair(state, 1, 2)
    ]


def selector_measure_oracle(
    state: PureState, qubit_a: int, qubit_b: int
) -> list[tuple[tuple[int, int], float, PureState]]:
    """``measure_pair`` by boolean selectors over every basis index.

    Each outcome's probability sums the Born weights its selector picks,
    in ascending index order, and its post state divides the selected
    amplitudes, zeros elsewhere, by the probability's square root.
    """
    n = state.num_qubits
    indices = np.arange(state.amplitudes.shape[0])
    bits_a = (indices >> (n - qubit_a)) & 1
    bits_b = (indices >> (n - qubit_b)) & 1
    results = []
    for outcome_a, outcome_b in OUTCOMES:
        selector = (bits_a == outcome_a) & (bits_b == outcome_b)
        probability = float(state.probabilities[selector].sum())
        if probability <= PROB_FLOOR:
            continue
        post = np.where(selector, state.amplitudes, 0.0) / np.sqrt(probability)
        results.append(((outcome_a, outcome_b), probability, PureState(n, post)))
    return results


def measured_start(
    num_qubits: int, qubit_a: int, qubit_b: int, seed: int, scale: float
) -> PureState:
    """A random start with signed zero amplitudes whose outcome
    ``seed % 4`` on the pair is scaled by ``scale`` before normalizing."""
    rng = np.random.default_rng(seed)
    size = 2**num_qubits
    amplitudes = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    signed_zeros = np.array([complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)])
    zeroed = rng.random(size) < 0.25
    amplitudes[zeroed] = signed_zeros[rng.integers(0, 4, zeroed.sum())]
    indices = np.arange(size)
    outcome = seed % 4
    bits = 2 * ((indices >> (num_qubits - qubit_a)) & 1) + (
        (indices >> (num_qubits - qubit_b)) & 1
    )
    amplitudes[bits == outcome] *= scale
    if not np.any(amplitudes):
        amplitudes[0] = 1.0
    return PureState(num_qubits, amplitudes / np.linalg.norm(amplitudes))


def assert_measure_is_the_oracle(state: PureState, qubit_a: int, qubit_b: int):
    """Outcomes, probabilities, post amplitudes and post Born weights agree
    bit for bit, signed zeros included."""
    got = measure_pair(state, qubit_a, qubit_b)
    want = selector_measure_oracle(state, qubit_a, qubit_b)
    assert [outcome for outcome, _, _ in got] == [outcome for outcome, _, _ in want]
    for (_, p, post), (_, p_want, post_want) in zip(got, want):
        assert p.hex() == p_want.hex()
        assert post.amplitudes.tobytes() == post_want.amplitudes.tobytes()
        assert post.probabilities.tobytes() == post_want.probabilities.tobytes()


# Scales of the scaled outcome: emptied (its amplitudes turn into signed
# zeros), pruned at PROB_FLOOR with weight ~1e-14, kept at ~1e-12 to 1e-10.
OUTCOME_SCALES = (0.0, 1e-7, 2e-6, 1e-5, 1.0)


def test_measure_pair_is_the_selector_oracle_on_every_ordered_pair():
    for num_qubits in range(2, 11):
        for qubit_a in range(1, num_qubits + 1):
            for qubit_b in range(1, num_qubits + 1):
                if qubit_a == qubit_b:
                    continue
                seed = 100 * num_qubits + 10 * qubit_a + qubit_b
                scale = OUTCOME_SCALES[seed % len(OUTCOME_SCALES)]
                state = measured_start(num_qubits, qubit_a, qubit_b, seed, scale)
                assert_measure_is_the_oracle(state, qubit_a, qubit_b)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.data(),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(OUTCOME_SCALES),
)
def test_measure_pair_is_the_selector_oracle(num_qubits, data, seed, scale):
    qubits = st.integers(min_value=1, max_value=num_qubits)
    qubit_a = data.draw(qubits)
    qubit_b = data.draw(qubits.filter(lambda q: q != qubit_a))
    state = measured_start(num_qubits, qubit_a, qubit_b, seed, scale)
    assert_measure_is_the_oracle(state, qubit_a, qubit_b)


def test_measure_pair_oracle_cases_prune_and_keep_signed_zeros():
    """The starts above reach the floor and carry negative zeros into posts."""
    state = measured_start(10, 7, 3, 4, 1e-7)
    branches = measure_pair(state, 7, 3)
    assert [outcome for outcome, _, _ in branches] == [(0, 1), (1, 0), (1, 1)]
    assert len(measure_pair(measured_start(10, 7, 3, 4, 2e-6), 7, 3)) == 4
    zeros = state.amplitudes[state.amplitudes == 0.0]
    assert np.signbit(zeros.real).any() and np.signbit(zeros.imag).any()
    posts = np.concatenate([post.amplitudes for _, _, post in branches])
    assert np.signbit(posts[posts == 0.0].view(float)).any()


# ---------------------------------------------------------------------------
# ensembles and observables


def test_ensemble_validation():
    state = PureState.basis(2, 0)
    with pytest.raises(ValueError, match="at least one member"):
        Ensemble(())
    with pytest.raises(ValueError, match="nonnegative"):
        Ensemble(((-0.5, state), (1.5, state)))
    with pytest.raises(ValueError, match="sum to"):
        Ensemble(((0.7, state),))
    with pytest.raises(ValueError, match="register sizes"):
        Ensemble(((0.5, state), (0.5, PureState.basis(3, 0))))
    assert Ensemble(((1.0, state),)).num_qubits == 2


def test_observable_validation():
    with pytest.raises(ValueError, match="expected 4 weights"):
        DiagonalObservable(2, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        DiagonalObservable(1, np.array([np.inf, 0.0]))


def test_expectation_is_the_weighted_probability_sum():
    state = seeded_state(3, 5)
    rng = np.random.default_rng(6)
    weights = rng.standard_normal(8)
    obs = DiagonalObservable(3, weights)
    assert abs(expectation(state, obs) - weights @ state.probabilities) <= 1e-12


@settings(max_examples=40)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32),
)
def test_expectation_is_affine_in_the_mixture(alpha, seed):
    rng = np.random.default_rng(seed)
    first = random_state(2, rng)
    second = random_state(2, rng)
    obs = DiagonalObservable(2, rng.standard_normal(4))
    mixed = Ensemble(((alpha, first), (1.0 - alpha, second)))
    blend = alpha * expectation(first, obs) + (1.0 - alpha) * expectation(
        second, obs
    )
    assert abs(expectation(mixed, obs) - blend) <= 1e-12


def test_expectation_adds_the_members_left_to_right_from_zero():
    """One term of 1.0 and two of 1e-16: adding left to right, each small
    term rounds away, while a compensated sum (builtin ``sum`` on Python
    3.12 and later, ``math.fsum``) keeps their total and rounds up."""
    obs = DiagonalObservable(1, np.array([2.0, 4e-16]))
    zero, one = PureState.basis(1, 0), PureState.basis(1, 1)
    ensemble = Ensemble(((0.5, zero), (0.25, one), (0.25, one)))
    terms = [1.0, 1e-16, 1e-16]
    assert math.fsum(terms) != (terms[0] + terms[1]) + terms[2]
    assert expectation(ensemble, obs) == (0.0 + terms[0] + terms[1]) + terms[2]
    assert expectation(ensemble, obs) == 1.0


def test_sum_in_order_adds_left_to_right_from_zero():
    """1.0 rounds away against 1e16, so the ordered sum ends at 0.0, while
    a compensated sum (``math.fsum``, builtin ``sum`` on Python 3.12 and
    later) keeps it.  Arrays add elementwise in the same order."""
    assert qstate.sum_in_order([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    rows = [np.array([1e16, 1.0]), np.array([1.0, 1e16]), np.array([-1e16, -1e16])]
    total = qstate.sum_in_order(iter(rows))
    assert total.tobytes() == (((0.0 + rows[0]) + rows[1]) + rows[2]).tobytes()
    assert total.tolist() == [0.0, 0.0]
    assert total.tolist() != (rows[0] + (rows[1] + rows[2])).tolist()


def test_expectation_checks_register_sizes():
    with pytest.raises(ValueError, match="acts on 3 qubits"):
        expectation(PureState.basis(2, 0), DiagonalObservable(3, np.zeros(8)))


# ---------------------------------------------------------------------------
# pair tables

# Dyadic, rounding, signed-zero, large and tiny payoffs.
PAIR_STAGES = (
    make_pd(5, 3, 1, 0),
    make_pd(5.7, 3.3, 1.1, -0.4),
    make_bos(3, 2, 1),
    make_pd(2.5, -0.0, -1.2, -3.1),
    make_pd(1e8, 3, 1, 0),
    make_pd(5e-10, 3e-10, 1e-10, 0),
)


def pair_marginal(state: PureState, qubit_a: int, qubit_b: int) -> np.ndarray:
    """Born distribution of two qubits, ``qubit_a`` the high bit."""
    n = state.num_qubits
    indices = np.arange(2**n)
    pattern = 2 * ((indices >> (n - qubit_a)) & 1) + ((indices >> (n - qubit_b)) & 1)
    return np.bincount(pattern, weights=state.probabilities, minlength=4)


def test_pair_table_is_the_stage_weights_under_one_read_only_xor_index():
    index = mw._XOR_PATTERNS
    assert index.tolist() == [[z ^ f for z in range(4)] for f in range(4)]
    with pytest.raises(ValueError, match="read-only"):
        index[0, 0] = 1
    for stage in PAIR_STAGES:
        rows = stage_weights(stage).tolist()
        want = [[[row[z ^ f] for z in range(4)] for f in range(4)] for row in rows]
        assert pair_table(stage).tolist() == want


@pytest.mark.parametrize("num_qubits", [2, 4, 10])
def test_pair_table_matches_flipping_then_reading_every_pair(num_qubits):
    """``pair_table @ marginal`` is the payoff read densely after the flips,
    on every flip of every ordered qubit pair: to rounding on a dense
    start, and exactly on a basis one."""
    rng = np.random.default_rng(400 + num_qubits)
    stage = StageGame(rng.standard_normal((2, 2, 2)).tolist())
    table = pair_table(stage)
    dense = random_state(num_qubits, rng)
    basis = PureState.basis(num_qubits, int(rng.integers(2**num_qubits)))
    for qubit_a, qubit_b in itertools.permutations(range(1, num_qubits + 1), 2):
        observables = [
            payoff_observable(stage, player, num_qubits, (qubit_a, qubit_b))
            for player in (1, 2)
        ]
        for state in (dense, basis):
            values = table @ pair_marginal(state, qubit_a, qubit_b)
            for flips in range(4):
                final = apply_flips(state, {qubit_a: flips >> 1, qubit_b: flips & 1})
                read = [expectation(final, obs) for obs in observables]
                if state is basis:
                    assert values[:, flips].tolist() == read
                else:
                    assert np.abs(values[:, flips] - read).max() <= 1e-12


def production_tables(state: PureState, stage: StageGame) -> list:
    """The table a start's protocol builds, ``[player, stage, row, col]``;
    on four qubits the one stage is ``it_pure_bimatrix``'s totals."""
    if state.num_qubits == 10:
        tables = rep_component_tables(RepGame(state, stage))
        return [[tables[(p, s)].tolist() for s in (1, 2)] for p in (1, 2)]
    if state.num_qubits == 2:
        bm = mw_bimatrix(MWGame(state, stage))
    else:
        bm = it_pure_bimatrix(ITGame(state, stage))
    return [[bm.payoffs1.tolist()], [bm.payoffs2.tolist()]]


@pytest.mark.parametrize("num_qubits", [2, 4, 10])
def test_pair_tables_read_payoffs_exactly_on_a_basis_start(num_qubits):
    """On a basis start every marginal is one-hot, so each stage entry is
    a payoff read exactly; a four-qubit cell rounds the sum of two."""
    rng = np.random.default_rng(500 + num_qubits)
    for stage in PAIR_STAGES:
        state = PureState.basis(num_qubits, int(rng.integers(2**num_qubits)))
        exact = exact_pair_tables(state.probabilities, stage_weights(stage))
        stages = exact.astype(float)
        assert list(map(Fraction, stages.ravel().tolist())) == exact.ravel().tolist()
        if num_qubits == 4:
            stages = stages.sum(axis=1, keepdims=True)
        assert production_tables(state, stage) == stages.tolist()


def rational_starts(num_qubits: int, rng: np.random.Generator) -> list[PureState]:
    """A ``prob`` term list and a pair product of ``prob`` pairs, each term's
    amplitude the square root of a rational weight."""

    def prob_terms(n: int, count: int) -> PureState:
        labels = rng.choice(2**n, size=count, replace=False)
        weights = rng.integers(1, 20, size=count)
        total = int(weights.sum())
        return PureState.from_terms(
            n,
            {
                int(label): math.sqrt(weight / total)
                for label, weight in zip(labels, weights)
            },
        )

    pairs = tensor_all([prob_terms(2, 3) for _ in range(num_qubits // 2)])
    return [prob_terms(num_qubits, min(2**num_qubits, 40)), pairs]


@pytest.mark.parametrize("num_qubits", [2, 4, 10])
def test_pair_tables_round_the_exact_table_on_rational_starts(num_qubits):
    """Each cell is off the exact table by at most ``gamma(n) * max|u|``
    times the start's exact total weight, n counted along its path: 4
    for the 2x2 dot, 8 for a 4x4 total (whose terms weigh twice the
    total), ``STAGE1_STEPS`` and ``SECOND_STAGE_STEPS`` for the 32x32
    stages."""
    steps = {2: (MW_STEPS,), 4: (IT_STEPS,), 10: (STAGE1_STEPS, SECOND_STAGE_STEPS)}
    rng = np.random.default_rng(600 + num_qubits)
    for stage, state in itertools.product(
        PAIR_STAGES, rational_starts(num_qubits, rng)
    ):
        exact = exact_pair_tables(state.probabilities, stage_weights(stage))
        if num_qubits == 4:
            exact = exact.sum(axis=1, keepdims=True)
        got = production_tables(state, stage)
        top = Fraction(float(np.abs(stage.outcomes).max()))
        total = sum(map(Fraction, state.probabilities.tolist()), Fraction(0))
        terms = 2 * total if num_qubits == 4 else total
        for player, position in np.ndindex(exact.shape[:2]):
            bound = Fraction(gamma(steps[num_qubits][position])) * top * terms
            cells = zip(np.ravel(got[player][position]), exact[player, position].ravel())
            for value, want in cells:
                assert abs(Fraction(value) - want) <= bound
