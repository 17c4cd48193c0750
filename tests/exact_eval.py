"""Exact rational evaluation of payoff tables, for checking float paths.

Every float is a dyadic rational, and ``Fraction(x)`` holds its value
exactly.  Given the Born weights and payoffs a float path starts from,
these helpers give the exact value that path rounds, so a test can
measure each path's rounding error instead of comparing two float paths
with each other.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from qrgames.qstate import OUTCOMES
from qrgames.stagegames import RepStrategy


def _exact_marginal(probabilities: np.ndarray, qubits: Sequence[int]) -> list[Fraction]:
    """The exact Born distribution on ``qubits``, first listed most significant.

    ``probabilities`` holds floats or ``Fraction``s; either is read exactly.
    """
    probabilities = np.asarray(probabilities)
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


def exact_pair_tables(probabilities: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The 2x2, 4x4 or 32x32 per-stage tables of a start, exactly.

    Args:
        probabilities: the start's Born weights on 2, 4 or 10 qubits.
        weights: ``stage_weights(stage)``, both players' payoffs over the
            four patterns of a qubit pair.

    Returns:
        Object array of ``Fraction`` indexed ``[player - 1, stage - 1, row,
        col]``.  On two qubits it holds the one stage of ``mw_bimatrix``
        (row and column the flips of qubits 1 and 2).  On four qubits it
        holds the two stages of ``it_pure_bimatrix`` (row ``2*k1 + k3``,
        column ``2*k2 + k4``), and on ten the tables of
        ``rep_component_tables``, rows and columns in the five-bit
        encoding, spelled here from ``RepStrategy``.  Every entry is
        ``sum_z weights[player, z ^ f] * marginal[z]`` on the pair a stage
        reads, with the marginal summed exactly; after outcome o the
        marginal is the joint one of o's pair and the block the stage-1
        flips k move to o, block ``o ^ k``.
    """
    n = np.asarray(probabilities).size.bit_length() - 1
    stage1 = _exact_flips(weights, _exact_marginal(probabilities, (1, 2)))
    if n == 2:
        return stage1.reshape(2, 1, 2, 2)
    if n == 4:
        stage2 = _exact_flips(weights, _exact_marginal(probabilities, (3, 4)))
        table = np.empty((2, 2, 4, 4), dtype=object)
        for row, col in np.ndindex(4, 4):
            (k1, k3), (k2, k4) = divmod(row, 2), divmod(col, 2)
            table[:, 0, row, col] = stage1[:, 2 * k1 + k2]
            table[:, 1, row, col] = stage2[:, 2 * k3 + k4]
        return table
    if n != 10:
        raise ValueError(f"no protocol runs on {n} qubits")
    # continued[o][b]: the (player, a) table of outcome o on block b.
    continued = []
    for o in range(4):
        joint = _exact_marginal(probabilities, (1, 2, 2 * o + 3, 2 * o + 4))
        continued.append(
            [_exact_flips(weights, joint[4 * b : 4 * b + 4]) for b in range(4)]
        )
    strategies = [RepStrategy.from_index(index) for index in range(32)]
    table = np.empty((2, 2, 32, 32), dtype=object)
    for (row, t1), (col, t2) in itertools.product(enumerate(strategies), repeat=2):
        k = 2 * t1.stage1 + t2.stage1
        a = [2 * t1.after(outcome) + t2.after(outcome) for outcome in OUTCOMES]
        table[:, 0, row, col] = stage1[:, k]
        for player in range(2):
            table[player, 1, row, col] = sum(
                (continued[o][o ^ k][player, a[o]] for o in range(4)), Fraction(0)
            )
    return table


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


def exact_totals(
    probabilities: np.ndarray, weights: np.ndarray
) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Both players' tables of two-stage totals, ``[row][col]``, exactly:
    the stages of :func:`exact_pair_tables` added (one stage on two
    qubits)."""
    tables = exact_pair_tables(probabilities, weights)
    return tuple(tables[player].sum(axis=0).tolist() for player in range(2))


def exact_nash(
    u1: Sequence[Sequence[Fraction]],
    u2: Sequence[Sequence[Fraction]],
    bound: Fraction = Fraction(0),
) -> list[tuple[int, int, bool]]:
    """``(row, col, strict)`` of every pure Nash equilibrium, in order.

    A profile is an equilibrium when no deviation gains more than
    ``bound`` (read exactly; 0 asks for no gain at all), and strict when
    every deviation loses, with no tolerance.
    """
    rows, cols = range(len(u1)), range(len(u1[0]))
    best1 = [max(u1[r][c] for r in rows) for c in cols]
    best2 = [max(u2[r]) for r in rows]
    found = []
    for r, c in itertools.product(rows, cols):
        if best1[c] - u1[r][c] <= bound and best2[r] - u2[r][c] <= bound:
            # Strict: the profile is each player's one best response.
            column = [u1[i][c] for i in rows]
            strict1 = u1[r][c] == best1[c] and column.count(best1[c]) == 1
            strict2 = u2[r][c] == best2[r] and list(u2[r]).count(best2[r]) == 1
            found.append((r, c, strict1 and strict2))
    return found


def exact_dominated(own_by_row: Sequence[Sequence[Fraction]]) -> list[tuple[int, int]]:
    """Pairs (a, b), in order: the player's strategy b pays strictly more
    than a against every opponent strategy.  ``own_by_row[a]`` lists the
    player's payoffs of strategy a."""
    strategies = range(len(own_by_row))
    return [
        (a, b)
        for a, b in itertools.product(strategies, repeat=2)
        if a != b and all(x > y for x, y in zip(own_by_row[b], own_by_row[a]))
    ]


# Unit roundoff of a double, Higham's u.
UNIT_ROUNDOFF = 2.0**-53
# Rounding steps on each value's path through the table builders, added
# up along the path as Higham's Lemma 3.3 allows: a block weight sums 256
# Born weights (255 additions), a joint-marginal entry sums 64 (63), a
# conditional weight is one division, and a 4-term dot rounds 4 times (a
# product each, and 3 additions; an FMA only rounds less).
CHANCE_STEPS = 255
STAGE1_STEPS = CHANCE_STEPS + 4
CONTINUATION_STEPS = CHANCE_STEPS + 63 + 1 + 4
# Steps on the paths of ``exact_pair_tables``' float twins: a 2x2 cell
# dots the Born weights themselves; a 4x4 stage entry dots four-entry
# sums, and a cell adds the two stages; a 32x32 second-stage cell adds
# four outcomes' dots on 64-entry joint sums (stage 1 is STAGE1_STEPS).
MW_STEPS = 4
IT_STEPS = 3 + 4 + 1
SECOND_STAGE_STEPS = 63 + 4 + 3


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
