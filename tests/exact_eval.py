"""Exact rational evaluation of payoff tables, for checking float paths.

Every float is a dyadic rational, and ``Fraction(x)`` holds its value
exactly.  Given the Born weights and payoffs a float path starts from,
these helpers give the exact value that path rounds, so a test can
measure each path's rounding error instead of comparing two float paths
with each other.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

import numpy as np


def exact_flip_table(
    probabilities: np.ndarray, qubits: Sequence[int], weights: np.ndarray
) -> np.ndarray:
    """``qstate.flip_table`` in exact arithmetic.

    Args:
        probabilities: the register's ``2**n`` Born weights, first qubit
            most significant (``PureState.probabilities``).
        qubits: the distinct 1-based qubits the observable reads.
        weights: floats whose last axis has ``2**len(qubits)`` entries,
            one per bit pattern of ``qubits``, first listed most
            significant.

    Returns:
        Object array of ``Fraction`` shaped like ``weights``: entry ``f``
        is ``sum_z weights[..., z ^ f] * marginal[z]`` with the marginal
        on ``qubits`` summed exactly.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    n = probabilities.size.bit_length() - 1
    size = 2 ** len(qubits)
    marginal = [Fraction(0)] * size
    for index, probability in enumerate(probabilities.tolist()):
        pattern = 0
        for qubit in qubits:
            pattern = 2 * pattern + ((index >> (n - qubit)) & 1)
        marginal[pattern] += Fraction(probability)
    weights = np.asarray(weights, dtype=float)
    rows = weights.reshape(-1, size).tolist()
    table = np.empty((len(rows), size), dtype=object)
    for r, row in enumerate(rows):
        exact_row = [Fraction(value) for value in row]
        for f in range(size):
            table[r, f] = sum(
                (exact_row[z ^ f] * marginal[z] for z in range(size)), Fraction(0)
            )
    return table.reshape(weights.shape)
