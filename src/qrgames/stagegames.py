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
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

Payoffs = tuple[float, float]


@dataclass(frozen=True)
class StageGame:
    """A 2x2 game given by its four outcome payoff pairs.

    ``outcomes[a1][a2]`` is the payoff pair when player 1 picks action
    ``a1`` and player 2 picks ``a2``.  Ties between payoffs are allowed;
    only the classification properties below insist on strictness.
    """

    outcomes: tuple[tuple[Payoffs, Payoffs], tuple[Payoffs, Payoffs]]
    labels: tuple[tuple[str, str], tuple[str, str]] = (("0", "1"), ("0", "1"))

    def __post_init__(self) -> None:
        rows = tuple(
            tuple((float(u1), float(u2)) for u1, u2 in row) for row in self.outcomes
        )
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValueError("a stage game needs a 2x2 outcome table")
        for row in rows:
            for pair in row:
                if not all(np.isfinite(u) for u in pair):
                    raise ValueError(f"payoffs must be finite, got {pair}")
        object.__setattr__(self, "outcomes", rows)
        object.__setattr__(
            self, "labels", tuple(tuple(side) for side in self.labels)
        )

    def pair(self, a1: int, a2: int) -> Payoffs:
        return self.outcomes[a1][a2]

    def payoff(self, player: int, a1: int, a2: int) -> float:
        return self.outcomes[a1][a2][player - 1]

    def payoff_table(self, player: int) -> np.ndarray:
        """2x2 array of one player's payoffs, indexed [a1, a2]."""
        return np.array(
            [[self.outcomes[a1][a2][player - 1] for a2 in (0, 1)] for a1 in (0, 1)]
        )

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

    def stage_bimatrix(self) -> "Bimatrix":
        """The one-shot game as a 2x2 bimatrix."""
        return Bimatrix.from_cells(
            [[self.pair(a1, a2) for a2 in (0, 1)] for a1 in (0, 1)],
            row_labels=self.labels[0],
            col_labels=self.labels[1],
        )


def payoff_scale(stage: StageGame) -> float:
    """``2*max|u|``, the most a two-stage total reaches: the unit of payoff
    tolerances.  A zero game has scale 0.0, so its compares are exact."""
    return 2.0 * float(np.abs(stage.outcomes).max())


def make_pd(t: float, r: float, p: float, s: float) -> StageGame:
    """Prisoner's Dilemma payoff table.

    Action 0 is cooperation and 1 defection, so the table is
    ((R,R),(S,T)) / ((T,S),(P,P)).  Orderings that break the dilemma
    are not an error; the result simply has ``is_pd == False``.
    """
    return StageGame(
        outcomes=(((r, r), (s, t)), ((t, s), (p, p))),
        labels=(("C", "D"), ("C", "D")),
    )


def make_bos(alpha: float, beta: float, gamma: float) -> StageGame:
    """Battle of the Sexes table: both prefer to meet, at different spots."""
    return StageGame(
        outcomes=(
            ((alpha, beta), (gamma, gamma)),
            ((gamma, gamma), (beta, alpha)),
        ),
        labels=(("O", "F"), ("O", "F")),
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

    @classmethod
    def from_cells(
        cls,
        cells: Sequence[Sequence[Payoffs]],
        row_labels: Iterable[str],
        col_labels: Iterable[str],
    ) -> "Bimatrix":
        u1 = [[cell[0] for cell in row] for row in cells]
        u2 = [[cell[1] for cell in row] for row in cells]
        return cls(
            np.array(u1), np.array(u2), tuple(row_labels), tuple(col_labels)
        )

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
        header = [[""] + list(self.col_labels)]
        # "%.12g" on Python floats writes what format(x, ".12g") writes,
        # signed zeros, NaN and infinities included.
        body = (
            [label] + ["%.12g;%.12g" % cell for cell in zip(row1, row2)]
            for label, row1, row2 in zip(
                self.row_labels, self.payoffs1.tolist(), self.payoffs2.tolist()
            )
        )
        csv.writer(buffer, lineterminator="\n").writerows(chain(header, body))
        return buffer.getvalue()

    def to_json(self) -> str:
        document = {
            "rows": self.rows,
            "cols": self.cols,
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "cells": [
                [[self.payoffs1[r, c], self.payoffs2[r, c]] for c in range(self.cols)]
                for r in range(self.rows)
            ],
        }
        return json.dumps(document, indent=2)


def classical_twice_repeated(stage: StageGame) -> Bimatrix:
    """Normal form of the classical twice-repeated game.

    Each cell sums the stage-1 outcome payoffs and the stage-2 payoffs
    at the contingency the realized first-stage outcome selects.  No
    quantum state is involved; this is the oracle the all-zeros register
    embedding must reproduce.  Index bit 4 is the stage-1 action and
    bit ``3 - (2*a1 + a2)`` the action after outcome (a1, a2).
    """
    i, j = np.arange(32)[:, None], np.arange(32)[None, :]
    a1, a2 = i >> 4, j >> 4
    slot = 3 - (2 * a1 + a2)
    b1, b2 = (i >> slot) & 1, (j >> slot) & 1
    u1, u2 = (
        table[a1, a2] + table[b1, b2]
        for table in (stage.payoff_table(1), stage.payoff_table(2))
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
