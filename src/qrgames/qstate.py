"""Minimal state-vector core for small qubit registers.

Every protocol in this package reduces to three primitives on dense
complex amplitude vectors: bit flips, ``apply_flips(state, {qubit: bit})``
as one XOR index permutation, projective measurement of a qubit pair in
the computational basis, and expectations of observables that are
diagonal in that basis.  Flips only permute amplitudes, so the protocols read
their production tables off a qubit pair's Born marginal
(:func:`~.mw.pair_table`).  The dense primitives here serve only the
independent paths of :mod:`.reference` and the checks of :mod:`.claims`.
There is no general gate machinery and none is needed.

Qubit 1 is the most significant bit of the basis index, matching the
left-to-right order of ket labels, so qubit ``j`` of basis index ``x``
on an ``n``-qubit register is ``(x >> (n - j)) & 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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
        probabilities = np.abs(amps)
        np.square(probabilities, out=probabilities)
        total = float(probabilities.sum())
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
            index = basis_index(label) if isinstance(label, str) else label
            # int() would truncate 1.5 to 1; only integers name a basis state.
            if not isinstance(index, (int, np.integer)) or not 0 <= index < len(amps):
                raise ValueError(f"basis index {index} out of range")
            amps[int(index)] += amp
        return cls(num_qubits, amps)

    def bit(self, index: int, qubit: int) -> int:
        """Value of 1-based ``qubit`` in basis index ``index``."""
        return (index >> (self.num_qubits - qubit)) & 1


def tensor_all(factors: Sequence[PureState]) -> PureState:
    """Tensor product of several registers, first factor most significant."""
    if not factors:
        raise ValueError("need at least one factor")
    amplitudes = factors[0].amplitudes
    for factor in factors[1:]:
        amplitudes = np.kron(amplitudes, factor.amplitudes)
    return PureState(sum(factor.num_qubits for factor in factors), amplitudes)


def random_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-ish random state: normalized complex normal amplitudes."""
    n = 2 ** num_qubits
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(num_qubits, amps / np.linalg.norm(amps))


def _check_qubit(qubit: int, num_qubits: int) -> None:
    """Refuse a qubit that is not a 1-based, non-bool integer index into the state."""
    if not isinstance(qubit, (int, np.integer)) or isinstance(qubit, bool):
        raise ValueError(f"qubit indices are 1-based integers, got {qubit!r}")
    if not 1 <= qubit <= num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {num_qubits}-qubit state")


def apply_flips(state: PureState, flips: Mapping[int, int]) -> PureState:
    """Apply the identity (bit 0) or the flip (bit 1) to each listed qubit.

    The result holds, at basis index ``x``, the input amplitude at
    ``x XOR m``, where mask ``m`` holds qubit ``j``'s bit at ``n - j``.
    No arithmetic touches the amplitudes, so the norm is preserved
    exactly; when nothing flips, the input itself comes back.
    """
    n = state.num_qubits
    mask = 0
    for qubit, bit in flips.items():
        if bit not in (0, 1):
            raise ValueError(f"operator bit must be 0 or 1, got {bit!r}")
        _check_qubit(qubit, n)
        mask |= int(bit) << (n - int(qubit))
    if mask == 0:
        return state
    indices = np.arange(state.amplitudes.shape[0]) ^ mask
    return PureState(n, state.amplitudes[indices])


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

    With ``low < high`` the two qubits, the register is reshaped to
    ``(2**(low-1), 2, 2**(high-low-1), 2, 2**(n-high))``, so an outcome is
    one view with those two axes fixed.  Its probability sums the view's
    Born weights copied in C order, which is ascending basis index, so
    the additions do not depend on how numpy iterates a strided view.
    The post state is zero elsewhere and holds the view's amplitudes over
    the square root of the probability.
    """
    n = state.num_qubits
    for qubit in (qubit_a, qubit_b):
        _check_qubit(qubit, n)
    if qubit_a == qubit_b:
        raise ValueError("measured qubits must be distinct")

    low, high = sorted((int(qubit_a), int(qubit_b)))
    shape = (2 ** (low - 1), 2, 2 ** (high - low - 1), 2, 2 ** (n - high))
    amplitudes = state.amplitudes.reshape(shape)
    weights = state.probabilities.reshape(shape)

    results = []
    for outcome in OUTCOMES:
        bit_low, bit_high = outcome if qubit_a < qubit_b else outcome[::-1]
        block = (slice(None), bit_low, slice(None), bit_high)
        probability = float(weights[block].ravel().sum())
        if probability <= PROB_FLOOR:
            continue
        post = np.zeros_like(amplitudes)
        post[block] = amplitudes[block] / np.sqrt(probability)
        results.append((outcome, probability, PureState(n, post.reshape(-1))))
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
    ``tr(X rho)`` for the density operator the ensemble represents, with
    the terms added in member order by :func:`sum_in_order`.
    """
    if isinstance(source, PureState):
        source = Ensemble(((1.0, source),))
    if source.num_qubits != obs.num_qubits:
        raise ValueError(
            f"observable acts on {obs.num_qubits} qubits, "
            f"ensemble has {source.num_qubits}"
        )
    return sum_in_order(
        p * float(obs.weights @ state.probabilities) for p, state in source.members
    )


def sum_in_order(values: Iterable[float | np.ndarray]) -> float | np.ndarray:
    """Add floats, or numpy arrays elementwise, left to right from 0.0.

    Builtin ``sum()`` compensates its float additions on Python 3.12 and
    later, so its last bits would depend on the Python version.
    """
    total = 0.0
    for value in values:
        total = total + value
    return total
