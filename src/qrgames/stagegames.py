"""2x2 stage games, repeated-game strategies, and payoff tables.

The repeated game studied here plays one 2x2 stage game twice.  A pure
strategy for the whole game picks a first-stage action plus one action
per possible first-stage outcome, giving 2**5 = 32 strategies per
player.  This module holds the game definitions, the purely classical
twice-repeated oracle used to cross-check the quantum protocols, and
the bimatrix container every protocol reports into.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from json.encoder import encode_basestring_ascii
import numpy as np

Payoffs = tuple[float, float]


@dataclass(frozen=True)
class StageGame:
    """A 2x2 game given by its four outcome payoff pairs.

    ``outcomes[a1][a2]`` is the payoff pair when player 1 picks action
    ``a1`` and player 2 picks ``a2``; actions are numbers only, so games
    with equal payoffs are equal.  Ties between payoffs are allowed;
    only the classification properties below insist on strictness.
    ``array`` holds the same payoffs as a read-only ``(2, 2, 2)`` float
    array indexed ``[a1, a2, player - 1]``, built once here, signed zeros
    kept; it takes no part in ``repr``, equality or hashing.
    """

    outcomes: tuple[tuple[Payoffs, Payoffs], tuple[Payoffs, Payoffs]]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = tuple(
            tuple((float(u1), float(u2)) for u1, u2 in row) for row in self.outcomes
        )
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValueError("a stage game needs a 2x2 outcome table")
        for row in rows:
            for pair in row:
                if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
                    raise ValueError(f"payoffs must be finite, got {pair}")
        array = np.array(rows)
        array.setflags(write=False)
        object.__setattr__(self, "outcomes", rows)
        object.__setattr__(self, "array", array)

    def pair(self, a1: int, a2: int) -> Payoffs:
        return self.outcomes[a1][a2]

    def payoff(self, player: int, a1: int, a2: int) -> float:
        return self.outcomes[a1][a2][player - 1]

    def payoff_table(self, player: int) -> np.ndarray:
        """2x2 read-only view of one player's payoffs, indexed [a1, a2]."""
        return self.array[..., player - 1]

    @property
    def pd_values(self) -> tuple[float, float, float, float] | None:
        """(T, R, P, S) if the table has the symmetric dilemma shape."""
        (o00, o01), (o10, o11) = self.outcomes
        if o00[0] != o00[1] or o11[0] != o11[1]:
            return None
        if o01 != (o10[1], o10[0]):
            return None
        return (o10[0], o00[0], o11[0], o01[0])

    @property
    def is_pd(self) -> bool:
        """True for a strict Prisoner's Dilemma: T > R > P > S, 2R > T + S."""
        values = self.pd_values
        if values is None:
            return False
        t, r, p, s = values
        return t > r > p > s and 2 * r > t + s


# Default payoff tolerance, in units of payoff_scale.
PAYOFF_TOL = 1e-9


def payoff_scale(stage: StageGame) -> float:
    """``2*max|u|``, the most a two-stage total reaches: the unit of payoff
    tolerances.  A zero game has scale 0.0, so its compares are exact."""
    return 2.0 * float(np.abs(stage.array).max())


def payoff_bound(stage: StageGame, tol: float = PAYOFF_TOL) -> float:
    """``tol * payoff_scale(stage)``: the largest payoff difference every
    equilibrium decision reads as none.

    A table cell's rounding error is at most a small multiple of the unit
    roundoff times ``max|u|`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, §3.1), so the bound comes from the stage game,
    not from the cells searched.  Payoffs times ``2**k`` scale every cell
    and this bound exactly, so no decision depends on the payoffs' unit.
    """
    return tol * payoff_scale(stage)


def make_pd(t: float, r: float, p: float, s: float) -> StageGame:
    """Prisoner's Dilemma payoff table.

    Action 0 is cooperation and 1 defection, so the table is
    ((R,R),(S,T)) / ((T,S),(P,P)).  Orderings that break the dilemma
    are not an error; the result simply has ``is_pd == False``.
    """
    return StageGame(outcomes=(((r, r), (s, t)), ((t, s), (p, p))))


def make_bos(alpha: float, beta: float, gamma: float) -> StageGame:
    """Battle of the Sexes table: both prefer to meet, at different spots."""
    return StageGame(
        outcomes=(
            ((alpha, beta), (gamma, gamma)),
            ((gamma, gamma), (beta, alpha)),
        )
    )


@dataclass(frozen=True, order=True)
class RepStrategy:
    """Pure strategy for the twice-repeated game.

    Five binary operator choices: one for the first stage and one per
    first-stage outcome.  Encoded as the 5-bit string
    ``stage1 after_00 after_01 after_10 after_11``, whose value is the
    strategy's fixed index in every 32x32 table this package emits.
    """

    stage1: int
    after_00: int
    after_01: int
    after_10: int
    after_11: int

    def __post_init__(self) -> None:
        for name, value in self.fields().items():
            # 1.0 == 1, but a float bit would make ``bits`` fail to format.
            if not isinstance(value, (int, np.integer)) or value not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {value!r}")

    def fields(self) -> dict[str, int]:
        return {
            "stage1": self.stage1,
            "after_00": self.after_00,
            "after_01": self.after_01,
            "after_10": self.after_10,
            "after_11": self.after_11,
        }

    @property
    def index(self) -> int:
        return (
            self.stage1 * 16
            + self.after_00 * 8
            + self.after_01 * 4
            + self.after_10 * 2
            + self.after_11
        )

    @property
    def bits(self) -> str:
        return format(self.index, "05b")

    @classmethod
    def from_index(cls, index: int) -> "RepStrategy":
        if not isinstance(index, (int, np.integer)) or not 0 <= index < 32:
            raise ValueError(f"strategy index out of range: {index}")
        bits = format(index, "05b")
        return cls(*(int(b) for b in bits))

    def after(self, outcome: tuple[int, int]) -> int:
        """Second-stage choice at a first-stage outcome."""
        return (self.after_00, self.after_01, self.after_10, self.after_11)[
            outcome[0] * 2 + outcome[1]
        ]

    def __str__(self) -> str:
        return self.bits


@lru_cache(maxsize=1)
def all_strategies() -> tuple[RepStrategy, ...]:
    """All 32 pure strategies in index order."""
    return tuple(RepStrategy.from_index(i) for i in range(32))


# ``RepStrategy.bits`` in index order: the labels of every 32x32 table.
STRATEGY_LABELS: tuple[str, ...] = tuple(format(i, "05b") for i in range(32))


@dataclass(frozen=True)
class ExpectedPayoffs:
    """Per-player, per-stage expected payoffs of one strategy profile."""

    p1_stage1: float
    p1_stage2: float
    p2_stage1: float
    p2_stage2: float

    @property
    def totals(self) -> Payoffs:
        return (self.p1_stage1 + self.p1_stage2, self.p2_stage1 + self.p2_stage2)

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.p1_stage1, self.p1_stage2, self.p2_stage1, self.p2_stage2]
        )


def json_array(items: list[str], depth: int) -> str:
    """What ``json.dumps(..., indent=2)`` writes for a list nested
    ``depth`` levels deep whose items encode to ``items``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# One payoff pair three levels deep, and the document around the table.
_JSON_CELL = "[\n        %s,\n        %s\n      ]"
_BIMATRIX_JSON = (
    '{\n  "rows": %d,\n  "cols": %d,\n  "row_labels": %s,\n'
    '  "col_labels": %s,\n  "cells": %s\n}'
)


@dataclass(frozen=True, eq=False)
class Bimatrix:
    """Rectangular table of payoff pairs for two players.

    Serializes to CSV (cells formatted ``u1;u2`` under the column
    strategy labels) and to JSON.
    """

    payoffs1: np.ndarray
    payoffs2: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        u1 = np.asarray(self.payoffs1, dtype=float)
        u2 = np.asarray(self.payoffs2, dtype=float)
        if u1.shape != u2.shape or u1.ndim != 2:
            raise ValueError("payoff tables must share a 2-d shape")
        if u1.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError("labels do not match table dimensions")
        u1.setflags(write=False)
        u2.setflags(write=False)
        object.__setattr__(self, "payoffs1", u1)
        object.__setattr__(self, "payoffs2", u2)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))

    @property
    def rows(self) -> int:
        return self.payoffs1.shape[0]

    @property
    def cols(self) -> int:
        return self.payoffs1.shape[1]

    def cell(self, row: int, col: int) -> Payoffs:
        return (float(self.payoffs1[row, col]), float(self.payoffs2[row, col]))

    def to_csv(self) -> str:
        """CSV text: header row of column labels, cells as ``u1;u2``."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        header_end = writer.writerow([""] + list(self.col_labels))
        if not self.cols:
            writer.writerows([label] for label in self.row_labels)
            return buffer.getvalue()
        # csv writes each row label before an empty field, quoted as it
        # quotes the label of a row, and ends it in ",\n".  The cells never
        # need quoting, so one template formats a row after that comma;
        # "%.12g" on Python floats writes what format(x, ".12g") writes,
        # signed zeros, NaN and infinities included.
        ends = list(
            accumulate(
                (writer.writerow((label, "")) for label in self.row_labels),
                initial=header_end,
            )
        )
        text = buffer.getvalue()
        template = "%s" + ",".join(["%.12g;%.12g"] * self.cols) + "\n"
        cells = np.stack([self.payoffs1, self.payoffs2], -1)
        return text[:header_end] + "".join(
            template % (text[start : end - 1], *values)
            for start, end, values in zip(
                ends, ends[1:], cells.reshape(self.rows, 2 * self.cols).tolist()
            )
        )

    def to_json(self) -> str:
        """JSON text of ``{"rows", "cols", "row_labels", "col_labels",
        "cells"}`` with ``cells[r][c] = [u1, u2]``: exactly what
        ``json.dumps(document, indent=2)`` writes for it."""
        cells = np.stack([self.payoffs1, self.payoffs2], -1).reshape(-1)
        # json writes a finite float as float.__repr__ does and spells
        # the others NaN, Infinity and -Infinity.
        texts = list(map(float.__repr__, cells.tolist()))
        for i in np.flatnonzero(~np.isfinite(cells)).tolist():
            texts[i] = _JSON_NON_FINITE[texts[i]]
        labels = [
            json_array(list(map(encode_basestring_ascii, names)), 1)
            for names in (self.row_labels, self.col_labels)
        ]
        row = json_array([_JSON_CELL] * self.cols, 2)
        table = json_array([row] * self.rows, 1) % tuple(texts)
        return _BIMATRIX_JSON % (self.rows, self.cols, *labels, table)


def _classical_picks() -> tuple[np.ndarray, np.ndarray]:
    """Per cell (i, j) of the classical 32x32 table, the outcome
    ``2*a1 + a2`` whose payoffs each stage adds, as read-only arrays.

    Stage 1 plays the actions a = (i >> 4, j >> 4); stage 2 plays bits
    (i >> slot) & 1 and (j >> slot) & 1 at the slot ``3 - (2*a1 + a2)``
    of the realized outcome.
    """
    i, j = np.arange(32)[:, None], np.arange(32)[None, :]
    a1, a2 = i >> 4, j >> 4
    slot = 3 - (2 * a1 + a2)
    b1, b2 = (i >> slot) & 1, (j >> slot) & 1
    picks = (2 * a1 + a2, 2 * b1 + b2)
    for pick in picks:
        pick.setflags(write=False)
    return picks


_CLASSICAL_STAGE1, _CLASSICAL_STAGE2 = _classical_picks()


def classical_twice_repeated(stage: StageGame) -> Bimatrix:
    """Normal form of the classical twice-repeated game.

    Each cell sums the stage-1 outcome payoffs and the stage-2 payoffs
    at the contingency the realized first-stage outcome selects.  No
    quantum state is involved; this is the oracle the all-zeros register
    embedding must reproduce.  Index bit 4 is the stage-1 action and
    bit ``3 - (2*a1 + a2)`` the action after outcome (a1, a2).
    """
    # weights[player - 1, 2*a1 + a2]: the payoff at outcome (a1, a2).
    weights = stage.array.reshape(4, 2).T
    u1, u2 = np.take(weights, _CLASSICAL_STAGE1, axis=1) + np.take(
        weights, _CLASSICAL_STAGE2, axis=1
    )
    return Bimatrix(u1, u2, STRATEGY_LABELS, STRATEGY_LABELS)


def qubit_count(n_stages: int) -> int:
    """Register size needed to play a 2x2 game for ``n_stages`` stages.

    Stage j must encode an action per possible history, which takes
    ``2**(2j - 1)`` qubits, so the total grows exponentially: 2, 10, 42,
    and so on.
    """
    if int(n_stages) != n_stages or n_stages < 1:
        raise ValueError(f"number of stages must be a positive integer: {n_stages!r}")
    return sum(2 ** (2 * j - 1) for j in range(1, int(n_stages) + 1))
