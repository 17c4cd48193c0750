"""Minimal state-vector core for small qubit registers.

Every protocol in this package reduces to three primitives on dense
complex amplitude vectors: tensor-factor bit flips (pure index
permutations), projective measurement of a qubit pair in the
computational basis, and expectations of observables that are diagonal
in that basis.  :func:`flip_table` combines the first and last: the
expectation of an observable on a few qubits under every flip pattern
of those qubits, read off their marginal.  There is no general gate
machinery and none is needed.

Qubit 1 is the most significant bit of the basis index, matching the
left-to-right order of ket labels, so qubit ``j`` of basis index ``x``
on an ``n``-qubit register is ``(x >> (n - j)) & 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

# Construction-time normalization tolerance for states and ensembles.
NORM_ATOL = 1e-12
# Measurement outcomes at or below this probability are dropped.
PROB_FLOOR = 1e-12

OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


def basis_index(bits: str) -> int:
    """Decimal value of a basis label such as ``"0110"``."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"invalid basis bit string: {bits!r}")
    return int(bits, 2)


def bits_of(index: int, num_qubits: int) -> str:
    """Basis label of ``index`` on ``num_qubits`` qubits."""
    return format(index, f"0{num_qubits}b")


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state of a small qubit register.

    Attributes:
        num_qubits: register size (the protocols use 2, 4 or 10).
        amplitudes: complex vector of length ``2**num_qubits`` indexed by
            the decimal value of the basis bit string, qubit 1 first.
        probabilities: Born-rule weights |amplitude|^2 over the basis,
            squared once by the norm check and kept read-only.

    Construction rejects unnormalized input instead of silently fixing
    it; a wrong amplitude list in a config should fail loudly.
    """

    num_qubits: int
    amplitudes: np.ndarray
    probabilities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != 2 ** self.num_qubits:
            raise ValueError(
                f"expected 2**{self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        probabilities = np.abs(amps) ** 2
        total = float(np.sum(probabilities))
        if not abs(total - 1.0) <= NORM_ATOL:
            raise ValueError(f"state is not normalized: sum |amp|^2 = {total!r}")
        amps.setflags(write=False)
        probabilities.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "probabilities", probabilities)

    @classmethod
    def basis(cls, num_qubits: int, label: int | str) -> "PureState":
        """Computational basis state, e.g. ``PureState.basis(4, "0110")``."""
        return cls.from_terms(num_qubits, {label: 1.0})

    @classmethod
    def from_terms(
        cls, num_qubits: int, terms: Mapping[int | str, complex]
    ) -> "PureState":
        """State from a sparse ``{basis label: amplitude}`` mapping."""
        amps = np.zeros(2 ** num_qubits, dtype=complex)
        for label, amp in terms.items():
            if isinstance(label, str) and len(label) != num_qubits:
                raise ValueError(f"expected {num_qubits}-bit label, got {label!r}")
            index = basis_index(label) if isinstance(label, str) else int(label)
            if not 0 <= index < amps.shape[0]:
                raise ValueError(f"basis index {index} out of range")
            amps[index] += amp
        return cls(num_qubits, amps)

    def bit(self, index: int, qubit: int) -> int:
        """Value of 1-based ``qubit`` in basis index ``index``."""
        return (index >> (self.num_qubits - qubit)) & 1

    def tensor(self, other: "PureState") -> "PureState":
        """Tensor product with ``self`` as the more significant factor."""
        return PureState(
            self.num_qubits + other.num_qubits,
            np.kron(self.amplitudes, other.amplitudes),
        )


def tensor_all(factors: Sequence[PureState]) -> PureState:
    """Tensor product of several registers, first factor most significant."""
    if not factors:
        raise ValueError("need at least one factor")
    state = factors[0]
    for factor in factors[1:]:
        state = state.tensor(factor)
    return state


def random_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-ish random state: normalized complex normal amplitudes."""
    n = 2 ** num_qubits
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(num_qubits, amps / np.linalg.norm(amps))


@dataclass(frozen=True)
class FlipLayer:
    """Bit-flip assignment: qubit index (1-based) -> operator bit.

    Bit 0 is the identity and bit 1 the flip; unlisted qubits are left
    alone.  The layer is just an XOR mask in disguise.
    """

    flips: Mapping[int, int]

    def __post_init__(self) -> None:
        clean = {}
        for qubit, bit in dict(self.flips).items():
            if bit not in (0, 1):
                raise ValueError(f"operator bit must be 0 or 1, got {bit!r}")
            if int(qubit) < 1:
                raise ValueError(f"qubit indices are 1-based, got {qubit!r}")
            clean[int(qubit)] = int(bit)
        object.__setattr__(self, "flips", clean)

    def mask(self, num_qubits: int) -> int:
        """XOR mask over basis indices for a register of ``num_qubits``."""
        mask = 0
        for qubit, bit in self.flips.items():
            if qubit > num_qubits:
                raise ValueError(
                    f"qubit {qubit} out of range for {num_qubits}-qubit state"
                )
            mask |= bit << (num_qubits - qubit)
        return mask

    def merge(self, other: "FlipLayer") -> "FlipLayer":
        """Union of two layers acting on disjoint qubits."""
        overlap = self.flips.keys() & other.flips.keys()
        if overlap:
            raise ValueError(f"layers overlap on qubits {sorted(overlap)}")
        return FlipLayer({**self.flips, **other.flips})


def apply_flips(state: PureState, layer: FlipLayer) -> PureState:
    """Apply identity/flip operators qubit-wise to a state.

    The result holds, at basis index ``x``, the input amplitude at
    ``x XOR m`` where ``m`` is the layer's mask.  No arithmetic touches
    the amplitudes, so the norm is preserved exactly.
    """
    mask = layer.mask(state.num_qubits)
    if mask == 0:
        return state
    indices = np.arange(state.amplitudes.shape[0]) ^ mask
    return PureState(state.num_qubits, state.amplitudes[indices])


def flip_table(
    state: PureState, qubits: Sequence[int], weights: np.ndarray
) -> np.ndarray:
    """Expectations of an observable on a few qubits under every flip of them.

    Args:
        state: register to read (not modified).
        qubits: the ``k`` distinct 1-based qubits the observable reads.
        weights: array whose last axis has ``2**k`` entries: the
            observable's value at each bit pattern of ``qubits``, first
            listed qubit most significant.  Leading axes stack several
            observables on the same qubits.

    Returns:
        Array shaped like ``weights`` whose entry ``f`` is the expectation
        after flipping the qubits whose bits are set in ``f``:
        ``sum_z weights[..., z ^ f] * marginal[z]``, where ``marginal`` is
        the state's Born distribution on ``qubits``.  Flips of other
        qubits leave that marginal alone, so one call covers every
        profile that differs only there.  The gather is ``2**k`` by
        ``2**k``, meant for the two or four qubits a payoff reads.  On a
        basis state the marginal is one-hot, so every entry is a weight
        read exactly.
    """
    n = state.num_qubits
    for qubit in qubits:
        if not 1 <= qubit <= n:
            raise ValueError(f"qubit {qubit} out of range for {n}-qubit state")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"read qubits must be distinct, got {tuple(qubits)}")
    size = 2 ** len(qubits)
    weights = np.asarray(weights, dtype=float)
    if weights.shape[-1:] != (size,):
        raise ValueError(
            f"expected {size} weights on the last axis, got shape {weights.shape}"
        )
    others = tuple(q - 1 for q in range(1, n + 1) if q not in qubits)
    kept = state.probabilities.reshape((2,) * n).sum(axis=others)
    ascending = sorted(qubits)
    marginal = kept.transpose([ascending.index(q) for q in qubits]).reshape(size)
    patterns = np.arange(size)
    return weights[..., patterns[:, None] ^ patterns[None, :]] @ marginal


def measure_pair(
    state: PureState, qubit_a: int, qubit_b: int
) -> list[tuple[tuple[int, int], float, PureState]]:
    """Projective measurement of two qubits in the computational basis.

    Args:
        state: register to measure (not modified).
        qubit_a: first measured qubit, 1-based.
        qubit_b: second measured qubit, 1-based.

    Returns:
        List of ``(outcome, probability, post_state)`` triples for every
        outcome with probability above :data:`PROB_FLOOR`, in the fixed
        order (0,0), (0,1), (1,0), (1,1).  Each post state is the
        renormalized projection onto the outcome.
    """
    n = state.num_qubits
    for qubit in (qubit_a, qubit_b):
        if not 1 <= qubit <= n:
            raise ValueError(f"qubit {qubit} out of range for {n}-qubit state")
    if qubit_a == qubit_b:
        raise ValueError("measured qubits must be distinct")

    indices = np.arange(state.amplitudes.shape[0])
    bits_a = (indices >> (n - qubit_a)) & 1
    bits_b = (indices >> (n - qubit_b)) & 1
    weights = state.probabilities

    results = []
    for outcome_a, outcome_b in OUTCOMES:
        selector = (bits_a == outcome_a) & (bits_b == outcome_b)
        probability = float(weights[selector].sum())
        if probability <= PROB_FLOOR:
            continue
        post = np.where(selector, state.amplitudes, 0.0) / np.sqrt(probability)
        results.append(
            ((outcome_a, outcome_b), probability, PureState(n, post))
        )
    return results


@dataclass(frozen=True)
class Ensemble:
    """Probabilistic mixture of pure states.

    This is the only density-operator representation in the package;
    full density matrices are never materialized.  Expectations of
    diagonal observables are exact on this form.
    """

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self) -> None:
        members = tuple((float(p), state) for p, state in self.members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        total = sum(p for p, _ in members)
        if any(p < 0 for p, _ in members):
            raise ValueError("ensemble probabilities must be nonnegative")
        if not abs(total - 1.0) <= NORM_ATOL:
            raise ValueError(f"ensemble probabilities sum to {total!r}, not 1")
        sizes = {state.num_qubits for _, state in members}
        if len(sizes) != 1:
            raise ValueError(f"mixed register sizes in ensemble: {sorted(sizes)}")
        object.__setattr__(self, "members", members)

    @classmethod
    def pure(cls, state: PureState) -> "Ensemble":
        return cls(((1.0, state),))

    @property
    def num_qubits(self) -> int:
        return self.members[0][1].num_qubits


@dataclass(frozen=True, eq=False)
class DiagonalObservable:
    """Observable diagonal in the computational basis, one weight per basis state."""

    num_qubits: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        n = 2 ** self.num_qubits
        dense = np.asarray(self.weights, dtype=float)
        if dense.shape != (n,):
            raise ValueError(f"expected {n} weights, got shape {dense.shape}")
        if not np.all(np.isfinite(dense)):
            raise ValueError("observable weights must be finite")
        dense.setflags(write=False)
        object.__setattr__(self, "weights", dense)


def expectation(source: Ensemble | PureState, obs: DiagonalObservable) -> float:
    """Expectation value of a diagonal observable.

    For an ensemble this is ``sum_k p_k <psi_k|X|psi_k>``, i.e. exactly
    ``tr(X rho)`` for the density operator the ensemble represents.
    """
    if isinstance(source, PureState):
        source = Ensemble.pure(source)
    if source.num_qubits != obs.num_qubits:
        raise ValueError(
            f"observable acts on {obs.num_qubits} qubits, "
            f"ensemble has {source.num_qubits}"
        )
    return float(
        sum(p * float(obs.weights @ state.probabilities)
            for p, state in source.members)
    )
