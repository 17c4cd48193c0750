"""Unit tests for the state-vector primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrgames.qstate import (
    OUTCOMES,
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


@pytest.mark.parametrize("index", [-1, -16, 16, 99])
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
    with pytest.raises(ValueError, match="1-based"):
        FlipLayer({0: 1})


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


def test_flip_table_argument_checks():
    state = seeded_state(3, 13)
    with pytest.raises(ValueError, match="out of range"):
        flip_table(state, (1, 4), np.zeros(4))
    with pytest.raises(ValueError, match="distinct"):
        flip_table(state, (2, 2), np.zeros(4))
    with pytest.raises(ValueError, match="expected 4 weights"):
        flip_table(state, (1, 2), np.zeros(8))
