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


def _exact_marginal(probabilities: np.ndarray, qubits: Sequence[int]) -> list[Fraction]:
    """The exact Born distribution on ``qubits``, first listed most significant."""
    probabilities = np.asarray(probabilities, dtype=float)
    n = probabilities.size.bit_length() - 1
    marginal = [Fraction(0)] * 2 ** len(qubits)
    for index, probability in enumerate(probabilities.tolist()):
        pattern = 0
        for qubit in qubits:
            pattern = 2 * pattern + ((index >> (n - qubit)) & 1)
        marginal[pattern] += Fraction(probability)
    return marginal


def _exact_flips(weights: np.ndarray, marginal: Sequence[Fraction]) -> np.ndarray:
    """``sum_z weights[..., z ^ f] * marginal[z]`` for every f, exactly."""
    size = len(marginal)
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
    return _exact_flips(weights, _exact_marginal(probabilities, qubits))


def exact_start_tables(
    probabilities: np.ndarray, weights: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray, dict[tuple[int, int], np.ndarray]]:
    """``repeated10.start_tables`` in exact arithmetic, on a ten-qubit start.

    Args:
        probabilities: the start's 1024 Born weights.
        weights: ``stage_weights(stage)``, both players' payoffs over the
            four patterns of a qubit pair.
        floor: block weights at or below it count as 0, as ``PROB_FLOOR``
            prunes; a start whose float and exact block sums straddle it
            is not a fair input.

    Returns:
        ``(chance, stage1, continuations)``: the 4x4 ``chance[k, o]``
        (block ``k ^ o``'s exact weight), the (player, k) stage-1 table,
        and per (outcome o, kept block b) the (player, a) continuation:
        the joint marginal of block b and o's pair over b's weight, under
        the weights at every flip a.  All entries are ``Fraction``.
    """
    floor = Fraction(floor)
    blocks = [
        b if b > floor else Fraction(0) for b in _exact_marginal(probabilities, (1, 2))
    ]
    chance = np.array([[blocks[k ^ o] for o in range(4)] for k in range(4)])
    continuations = {}
    for o in range(4):
        joint = _exact_marginal(probabilities, (1, 2, 2 * o + 3, 2 * o + 4))
        for b, weight in enumerate(blocks):
            if weight:
                conditional = [p / weight for p in joint[4 * b : 4 * b + 4]]
                continuations[o, b] = _exact_flips(weights, conditional)
    return chance, _exact_flips(weights, blocks), continuations


# Unit roundoff of a double, Higham's u.
UNIT_ROUNDOFF = 2.0**-53
# Rounding steps on each value's path through ``start_tables``, added up
# along the path as Higham's Lemma 3.3 allows: a block weight sums 256
# Born weights (255 additions), a joint-marginal entry sums 64 (63), a
# conditional weight is one division, and a 4-term dot rounds 4 times (a
# product each, and 3 additions; an FMA only rounds less).
CHANCE_STEPS = 255
STAGE1_STEPS = CHANCE_STEPS + 4
CONTINUATION_STEPS = CHANCE_STEPS + 63 + 1 + 4


def gamma(n: int) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)`` (Accuracy and Stability of
    Numerical Algorithms, 2nd ed., §3.1): a value computed in n rounding
    steps from exact inputs is off by at most this fraction of the sum of
    its terms' magnitudes."""
    return n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)


def assert_start_tables_within_rounding(tables, probabilities, weights, floor) -> None:
    """Hold a ``StartTables`` to :func:`exact_start_tables` of its start.

    A chance entry may be off by ``gamma(CHANCE_STEPS)`` times its exact
    value, a stage-1 entry by ``gamma(STAGE1_STEPS) * max|u|`` times the
    exact total weight, and a continuation entry by
    ``gamma(CONTINUATION_STEPS) * max|u|`` (its conditional weights sum to
    exactly 1).  Pruned blocks must be pruned in both.  A continuation is
    the exact one of the block it is read from: block ``k ^ o`` where it
    is reached, and the first kept block where the outcome heads a
    subgame.  Elsewhere it must be None.
    """
    chance, stage1, continuations = exact_start_tables(probabilities, weights, floor)
    top = Fraction(float(np.abs(weights).max()))
    for got, want in zip(tables.chance.ravel().tolist(), chance.ravel().tolist()):
        assert (got == 0.0) == (want == 0)
        assert abs(Fraction(got) - want) <= Fraction(gamma(CHANCE_STEPS)) * want
    total = sum(chance[0].tolist(), Fraction(0))
    stage1_bound = Fraction(gamma(STAGE1_STEPS)) * top * total
    for got, want in zip(tables.stage1.ravel().tolist(), stage1.ravel().tolist()):
        assert abs(Fraction(got) - want) <= stage1_bound
    continuation_bound = Fraction(gamma(CONTINUATION_STEPS)) * top
    for k, row in enumerate(tables.stage2):
        for o, table in enumerate(row):
            kept = sorted(b for outcome, b in continuations if outcome == o)
            block = kept[0] if tables.subgames[o] else k ^ o
            if (o, block) not in continuations:
                assert table is None
                continue
            want = continuations[o, block].ravel().tolist()
            for got, exact in zip(table.ravel().tolist(), want):
                assert abs(Fraction(got) - exact) <= continuation_bound
