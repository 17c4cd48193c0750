"""Unit tests for the state-vector primitives."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from exact_eval import exact_flip_table
from hypothesis import given, settings
from hypothesis import strategies as st

from qrgames import qstate
from qrgames.qstate import (
    OUTCOMES,
    PROB_FLOOR,
    DiagonalObservable,
    Ensemble,
    FlipLayer,
    PureState,
    apply_flips,
    basis_index,
    bits_of,
    expectation,
    flip_table,
    measure_pair,
    random_state,
    tensor_all,
)


def seeded_state(num_qubits: int, seed: int) -> PureState:
    return random_state(num_qubits, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# basis labels


@given(st.integers(min_value=1, max_value=8), st.data())
def test_basis_label_round_trip(num_qubits, data):
    index = data.draw(st.integers(min_value=0, max_value=2**num_qubits - 1))
    assert basis_index(bits_of(index, num_qubits)) == index


def test_bits_of_pads_to_register_width():
    assert bits_of(5, 4) == "0101"
    assert bits_of(0, 3) == "000"


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
        left.tensor(right).amplitudes, PureState.basis(3, "101").amplitudes
    )


def test_tensor_all_matches_pairwise_tensor():
    rng = np.random.default_rng(7)
    factors = [random_state(2, rng) for _ in range(3)]
    chained = factors[0].tensor(factors[1]).tensor(factors[2])
    assert np.allclose(tensor_all(factors).amplitudes, chained.amplitudes)


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
# flip layers


def test_flip_layer_validates_entries():
    with pytest.raises(ValueError, match="must be 0 or 1"):
        FlipLayer({1: 2})
    for qubit in (0, 1.5):
        with pytest.raises(ValueError, match="1-based"):
            FlipLayer({qubit: 1})
    assert FlipLayer({np.int64(3): 1}).flips == {3: 1}


@pytest.mark.parametrize("qubit", [True, False])
def test_flip_layer_refuses_a_bool_qubit(qubit):
    """True == 1, but a bool names no qubit: it would flip qubit 1."""
    with pytest.raises(ValueError, match=f"1-based integers, got {qubit}"):
        FlipLayer({qubit: 1})


def test_mask_places_qubit_one_at_the_top_bit():
    assert FlipLayer({1: 1}).mask(4) == 0b1000
    assert FlipLayer({4: 1}).mask(4) == 0b0001
    assert FlipLayer({1: 1, 3: 1}).mask(4) == 0b1010
    assert FlipLayer({2: 0}).mask(4) == 0


def test_mask_rejects_out_of_range_qubit():
    with pytest.raises(ValueError, match="out of range"):
        FlipLayer({5: 1}).mask(4)


def test_merge_joins_disjoint_layers():
    merged = FlipLayer({1: 1}).merge(FlipLayer({3: 0, 4: 1}))
    assert merged.flips == {1: 1, 3: 0, 4: 1}


def test_merge_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        FlipLayer({1: 1, 2: 0}).merge(FlipLayer({2: 1}))


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
    layer = FlipLayer(dict(enumerate(bits, start=1)))
    mask = layer.mask(num_qubits)
    flipped = apply_flips(state, layer)

    indices = np.arange(state.amplitudes.shape[0])
    assert np.array_equal(flipped.amplitudes, state.amplitudes[indices ^ mask])
    # A permutation reorders the probabilities without touching their values.
    assert np.array_equal(
        np.sort(flipped.probabilities), np.sort(state.probabilities)
    )
    assert abs(flipped.probabilities.sum() - 1.0) <= 1e-12
    twice = apply_flips(flipped, layer)
    assert np.array_equal(twice.amplitudes, state.amplitudes)


def test_apply_flips_identity_layer_returns_input_unchanged():
    state = seeded_state(3, 99)
    assert apply_flips(state, FlipLayer({})) is state


def test_apply_flips_range_check():
    with pytest.raises(ValueError, match="out of range"):
        apply_flips(PureState.basis(2, 0), FlipLayer({3: 1}))


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
def test_measure_pair_and_flip_table_refuse_a_qubit_that_is_not_an_integer(qubit):
    state = PureState.basis(4, 0)
    message = "qubit indices are 1-based integers"
    with pytest.raises(ValueError, match=message):
        measure_pair(state, qubit, 2)
    with pytest.raises(ValueError, match=message):
        measure_pair(state, 2, qubit)
    with pytest.raises(ValueError, match=message):
        flip_table(state, (qubit, 2), np.zeros(4))


@pytest.mark.parametrize("qubit", [True, False])
def test_measure_pair_and_flip_table_refuse_a_bool_qubit(qubit):
    state = seeded_state(4, 71)
    message = f"qubit indices are 1-based integers, got {qubit}"
    with pytest.raises(ValueError, match=message):
        qstate._check_qubit(qubit, 4)
    with pytest.raises(ValueError, match=message):
        measure_pair(state, qubit, 2)
    with pytest.raises(ValueError, match=message):
        measure_pair(state, 3, qubit)
    with pytest.raises(ValueError, match=message):
        flip_table(state, (qubit, 2), np.zeros(4))


def test_measure_pair_and_flip_table_take_numpy_integer_qubits():
    state = seeded_state(4, 70)
    assert [p for _, p, _ in measure_pair(state, np.int64(1), 2)] == [
        p for _, p, _ in measure_pair(state, 1, 2)
    ]
    weights = np.arange(4.0)
    assert np.array_equal(
        flip_table(state, (np.int64(3), np.int32(1)), weights),
        flip_table(state, (3, 1), weights),
    )


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
    assert Ensemble.pure(state).num_qubits == 2


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


def test_expectation_checks_register_sizes():
    with pytest.raises(ValueError, match="acts on 3 qubits"):
        expectation(PureState.basis(2, 0), DiagonalObservable(3, np.zeros(8)))


# ---------------------------------------------------------------------------
# flip tables


def test_flip_table_matches_flipping_then_reading_every_pattern():
    state = seeded_state(5, 11)
    qubits = (4, 2, 5)
    weights = np.random.default_rng(12).standard_normal((2, 8))
    table = flip_table(state, qubits, weights)
    assert table.shape == (2, 8)
    # Bit pattern of the read qubits at each basis index, qubit 4 on top.
    indices = np.arange(32)
    pattern = sum(
        ((indices >> (5 - qubit)) & 1) << (2 - position)
        for position, qubit in enumerate(qubits)
    )
    for flips in range(8):
        layer = FlipLayer(
            {
                qubit: (flips >> (2 - position)) & 1
                for position, qubit in enumerate(qubits)
            }
        )
        final = apply_flips(state, layer)
        for row in range(2):
            obs = DiagonalObservable(5, weights[row][pattern])
            assert abs(table[row, flips] - expectation(final, obs)) <= 1e-12


def test_flip_table_reads_weights_exactly_on_a_basis_state():
    # Qubit 3 of |0110> is 1 and qubit 1 is 0, so the start pattern is 0b10.
    weights = np.array([5.7, 3.3, 1.1, -0.4])
    table = flip_table(PureState.basis(4, "0110"), (3, 1), weights)
    assert table.tolist() == [weights[2 ^ flips] for flips in range(4)]


@pytest.mark.parametrize("seed", range(4))
def test_flip_table_rounds_the_exact_rational_table(seed):
    """The exact evaluator gives the value flip_table rounds: the same on
    a basis state, and within a few ulps of max|w| on a dense one."""
    rng = np.random.default_rng(300 + seed)
    weights = rng.standard_normal((2, 8))
    qubits = (4, 2, 5)
    basis = PureState.basis(5, int(rng.integers(32)))
    exact = exact_flip_table(basis.probabilities, qubits, weights)
    assert flip_table(basis, qubits, weights).tolist() == exact.tolist()
    dense = random_state(5, rng)
    exact = exact_flip_table(dense.probabilities, qubits, weights)
    got = flip_table(dense, qubits, weights).ravel().tolist()
    error = max(abs(Fraction(value) - e) for value, e in zip(got, exact.ravel()))
    assert error <= 16 * np.finfo(float).eps * np.abs(weights).max()


def test_flip_table_on_the_whole_register_in_order_reads_the_born_weights():
    """Reading every qubit in order takes the Born weights as the marginal:
    a spare |0> qubit summed away gives the same table bit for bit, and
    the qubits listed in reverse (summed in another order) to rounding."""
    state = seeded_state(3, 14)
    weights = np.random.default_rng(15).standard_normal((2, 8))
    table = flip_table(state, (1, 2, 3), weights)
    born = weights[..., qstate._xor_patterns(8)] @ state.probabilities
    assert np.array_equal(table, born)
    padded = state.tensor(PureState.basis(1, 0))
    assert np.array_equal(flip_table(padded, (1, 2, 3), weights), table)
    # Reversed, pattern z of (3, 2, 1) is pattern reverse(z) of (1, 2, 3).
    reverse = np.array([int(format(z, "03b")[::-1], 2) for z in range(8)])
    reversed_table = flip_table(state, (3, 2, 1), weights[:, reverse])
    assert np.abs(reversed_table[:, reverse] - table).max() <= 1e-12


def test_flip_table_xor_index_is_one_read_only_array_per_size():
    flip_table(seeded_state(2, 16), (1, 2), np.zeros(4))
    index = qstate._xor_patterns(4)
    flip_table(seeded_state(4, 17), (3, 1), np.ones(4))
    assert qstate._xor_patterns(4) is index
    assert index.tolist() == [[z ^ f for f in range(4)] for z in range(4)]
    with pytest.raises(ValueError, match="read-only"):
        index[0, 0] = 1


def test_flip_table_argument_checks():
    state = seeded_state(3, 13)
    with pytest.raises(ValueError, match="out of range"):
        flip_table(state, (1, 4), np.zeros(4))
    with pytest.raises(ValueError, match="distinct"):
        flip_table(state, (2, 2), np.zeros(4))
    with pytest.raises(ValueError, match="expected 4 weights"):
        flip_table(state, (1, 2), np.zeros(8))


@pytest.mark.parametrize(
    "qubits, message",
    [
        ((1.0, 2), "1-based integers, got 1.0"),
        (([1], 2), r"1-based integers, got \[1\]"),
        ((2, np.array(1)), "1-based integers, got array"),
        ((2, 2), r"distinct, got \(2, 2\)"),
        ((1, 4), "qubit 4 out of range for 3-qubit state"),
        ((0, 1), "qubit 0 out of range"),
    ],
    ids=["float", "list", "array", "duplicate", "high", "zero"],
)
def test_flip_table_refuses_the_same_qubits_with_its_plan_cache(qubits, message):
    """Refusals raise ValueError every time, unhashable qubits included."""
    state = seeded_state(3, 72)
    flip_table(state, (1, 2), np.zeros(4))
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            flip_table(state, qubits, np.zeros(4))


def test_flip_table_never_reads_a_float_qubit_through_the_plan_of_an_integer():
    """1.0 == 1 and hash(1.0) == hash(1), so only a typed key refuses it."""
    state = seeded_state(3, 73)
    qstate._flip_plan.cache_clear()
    table = flip_table(state, (1, 2), np.arange(4.0))
    assert qstate._flip_plan.cache_info().currsize == 1
    with pytest.raises(ValueError, match="1-based integers, got 1.0"):
        flip_table(state, (1.0, 2), np.arange(4.0))
    with pytest.raises(ValueError, match="1-based integers, got True"):
        flip_table(state, (True, 2), np.arange(4.0))
    assert qstate._flip_plan.cache_info().currsize == 1
    assert np.array_equal(flip_table(state, (np.int64(1), 2), np.arange(4.0)), table)
    assert qstate._flip_plan.cache_info().currsize == 2


def test_flip_table_plans_are_bounded_immutable_tuples():
    qstate._flip_plan.cache_clear()
    for num_qubits in range(2, 7):
        state = PureState.basis(num_qubits, 0)
        for qubit_a in range(1, num_qubits + 1):
            for qubit_b in range(1, num_qubits + 1):
                if qubit_a != qubit_b:
                    flip_table(state, (qubit_a, qubit_b), np.zeros(4))
    info = qstate._flip_plan.cache_info()
    assert info.misses == 70
    assert info.currsize == info.maxsize == 32
    plan = qstate._flip_plan(10, 3, 1)
    assert plan == ((2,) * 10, (1, 3, 4, 5, 6, 7, 8, 9), (1, 0), 4)
    assert all(isinstance(part, (tuple, int)) for part in plan)
    hash(plan)
