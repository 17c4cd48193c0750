"""Equilibrium search over bimatrices and the twice-played protocol.

Pure Nash enumeration and strict-dominance checks work on any
:class:`~.stagegames.Bimatrix`.  Subgame-perfect search is provided for
the ten-qubit game whenever each measurement outcome heads one
self-contained subgame, the same after every stage-1 flip (as on a pair
product), which backward induction can solve: a decision on the tables.
The cooperation analysis quantifies when an entangled first pair makes
mutual identity the unique stage equilibrium of a dilemma, which is
what lets the repeated game sustain cooperation on the path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .mw import pair_table
from .qstate import OUTCOMES, sum_in_order
from .repeated10 import RepGame, start_tables
from .stagegames import PAYOFF_TOL, Bimatrix, Payoffs, StageGame, payoff_bound


@dataclass(frozen=True)
class Equilibrium:
    """One equilibrium profile: table indices, payoffs, strictness."""

    row: int
    col: int
    payoffs: Payoffs
    strict: bool


@dataclass(frozen=True)
class EquilibriumReport:
    """Result of an equilibrium search, ordered by (row, col)."""

    kind: str
    tolerance: float
    equilibria: tuple[Equilibrium, ...]

    def to_json(
        self, row_labels: tuple[str, ...], col_labels: tuple[str, ...]
    ) -> str:
        entries = [
            {
                "row": eq.row,
                "col": eq.col,
                "payoffs": [eq.payoffs[0], eq.payoffs[1]],
                "strict": eq.strict,
                "row_label": row_labels[eq.row],
                "col_label": col_labels[eq.col],
            }
            for eq in self.equilibria
        ]
        document = {
            "kind": self.kind,
            "tolerance": self.tolerance,
            "equilibria": entries,
        }
        return json.dumps(document, indent=2)


def _nash_masks(
    u1: np.ndarray, u2: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Equilibrium and strict masks of a stack of bimatrices.

    ``u1`` and ``u2`` are indexed ``[..., row, col]``.  A cell is an
    equilibrium when neither player gains more than ``tol`` by deviating
    within its game, and strict when it is each player's only best
    response, with no tolerance.  Callers pass ``tol`` in payoff units:
    ``payoff_bound(stage, tol)``, the tolerance times the stage's payoff
    scale.  The strict compares are exact, and stay unchanged when the
    payoffs are multiplied by ``2**k``, which scales every cell exactly.
    """
    best1 = u1.max(axis=-2, keepdims=True)
    best2 = u2.max(axis=-1, keepdims=True)
    at_equilibrium = (u1 >= best1 - tol) & (u2 >= best2 - tol)
    top1, top2 = u1 == best1, u2 == best2
    lone1 = top1.sum(axis=-2, keepdims=True) == 1
    lone2 = top2.sum(axis=-1, keepdims=True) == 1
    return at_equilibrium, top1 & top2 & lone1 & lone2


def _check_tolerance(tol: float) -> None:
    if not tol >= 0:
        raise ValueError("tolerance must be nonnegative")


def pure_nash(
    bm: Bimatrix, tol: float = PAYOFF_TOL, scale: float = 1.0
) -> EquilibriumReport:
    """All pure Nash equilibria of a bimatrix.

    A profile is listed when neither player can gain more than
    ``tol * scale`` by a unilateral deviation.  A bare table has no
    stage game, so ``scale`` is given by a caller that holds one, as
    ``payoff_scale(stage)``; the default 1.0 reads ``tol`` in the table's
    own units.  The strict flag additionally demands that every deviation
    strictly loses, with no tolerance: profiles that tie an alternative
    best response are equilibria but not strict.  The report records the
    raw ``tol``.
    """
    _check_tolerance(tol)
    if not 0.0 <= scale < math.inf:
        raise ValueError(f"payoff scale must be finite and nonnegative: {scale!r}")
    if bm.rows == 0 or bm.cols == 0:
        raise ValueError("cannot search an empty bimatrix")
    at_equilibrium, strict = _nash_masks(bm.payoffs1, bm.payoffs2, tol * scale)
    found = tuple(
        Equilibrium(int(r), int(c), bm.cell(int(r), int(c)), bool(strict[r, c]))
        for r, c in np.argwhere(at_equilibrium)
    )
    return EquilibriumReport(kind="nash", tolerance=float(tol), equilibria=found)


def strictly_dominated(bm: Bimatrix, player: int) -> list[tuple[int, int]]:
    """Pairs (a, b): the player's strategy b beats a against everything.

    Returned in lexicographic order; an empty list means nothing is
    strictly dominated.  The compare is exact, with no tolerance, so
    payoffs times ``2**k`` give the same pairs; an exact tie that
    rounding breaks reads as a win.
    """
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    own_by_row = bm.payoffs1 if player == 1 else bm.payoffs2.T
    # beats[a, b]: row b pays more than row a in every column.
    beats = (own_by_row[None, :, :] > own_by_row[:, None, :]).all(axis=2)
    np.fill_diagonal(beats, False)
    return list(map(tuple, np.argwhere(beats).tolist()))


# The outcomes o as a (4, 1) column that indexes per-outcome rows, and the
# bit ``3 - o`` of a five-bit strategy that holds the flip after o.
_OUTCOME_ROWS = np.arange(4)[:, None]
_AFTER_SHIFTS = 3 - _OUTCOME_ROWS


def spe_pair_product(game: RepGame, tol: float = PAYOFF_TOL) -> EquilibriumReport:
    """Subgame perfect equilibria of a twice-played game whose outcomes
    each head a self-contained subgame.

    Backward induction: solve the one-stage game of each outcome's qubit
    pair, then, for every way of selecting one second-stage equilibrium
    per outcome, fold the selected continuation values into a 2x2 game
    over the stage-1 flips and keep its equilibria.  The inputs are the
    tables the extensive form reads (:func:`~.repeated10.start_tables`):
    the chance ``chance[k, o]``, the stage-1 table and each outcome's
    subgame.  The cell at flips k is the stage-1 payoff there plus
    ``chance[k, o]`` times the selected value of outcome o, summed over
    the outcomes in order.  Each hit is emitted as a full pair of
    five-bit strategies, indexed like :func:`~.repeated10.rep_bimatrix`
    rows and columns; payoffs are the two-stage totals.  An equilibrium
    is flagged strict when its stage-1 equilibrium and all four selected
    continuations are strict.  Both the subgames and the induced stage-1
    games admit gains up to ``payoff_bound(game.stage, tol)``, ``tol``
    times the stage's payoff scale; the strict flags are exact compares.

    All four subgames are solved in one :func:`_nash_masks` call, and so
    are the induced games of every selection, stacked in the order of
    ``itertools.product`` over the subgames' equilibria.

    Raises ``ValueError`` after the first outcome that heads no subgame
    (its gap and the bound named), or after the first whose subgame has
    no pure equilibrium.
    """
    tables = start_tables(game)
    for (o1, o2), heads, gap in zip(OUTCOMES, tables.subgames, tables.gaps):
        if not heads:
            raise ValueError(
                f"no self-contained subgame after outcome {o1}{o2}: its "
                f"continuations differ by {gap!r} across the stage-1 flips, "
                f"above the bound {tables.bound!r}"
            )
    _check_tolerance(tol)
    bound = payoff_bound(game.stage, tol)
    # Row k holds both players' stage-1 payoffs at flips k.
    base = tables.stage1.T
    # values[o, player, a]: outcome o's subgame at its flips a = 2*a1 + a2.
    values = np.stack(tables.stage2[0])
    sub_eq, sub_strict = _nash_masks(
        values[:, 0].reshape(4, 2, 2), values[:, 1].reshape(4, 2, 2), bound
    )
    hits = [
        [a for a, hit in enumerate(row) if hit] for row in sub_eq.reshape(4, 4).tolist()
    ]
    for (o1, o2), found in zip(OUTCOMES, hits):
        if not found:
            raise ValueError(
                f"no pure second-stage equilibrium after outcome {o1}{o2}"
            )
    # selected[o, s]: the flips a that selection s picks after outcome o.
    selected = np.array(list(product(*hits))).T
    # terms[o, s, k, player]: chance[k, o] times the value selection s picks
    # after outcome o, summed over o from 0.0 in order.
    picked = values[_OUTCOME_ROWS, :, selected]
    terms = tables.chance.T[:, None, :, None] * picked[:, :, None, :]
    cells = base + sum_in_order(terms)
    # cells[s, k, player]; the induced game of selection s is u[s, k1, k2].
    u1, u2 = cells.transpose(2, 0, 1).reshape(2, -1, 2, 2)
    at_equilibrium, strict = _nash_masks(u1, u2, bound)
    # Per selection: each player's contingent strategy bits (the flip after
    # outcome o is bit 3 - o) and whether all four picks are strict.
    after1 = ((selected >> 1) << _AFTER_SHIFTS).sum(axis=0)
    after2 = ((selected & 1) << _AFTER_SHIFTS).sum(axis=0)
    strict_picks = sub_strict.reshape(4, 4)[_OUTCOME_ROWS, selected].all(axis=0)
    s, k1, k2 = np.nonzero(at_equilibrium)
    found = sorted(
        (
            Equilibrium(row, col, (p1, p2), flag)
            for row, col, p1, p2, flag in zip(
                ((k1 << 4) + after1[s]).tolist(),
                ((k2 << 4) + after2[s]).tolist(),
                u1[s, k1, k2].tolist(),
                u2[s, k1, k2].tolist(),
                (strict[s, k1, k2] & strict_picks[s]).tolist(),
            )
        ),
        key=lambda eq: (eq.row, eq.col),
    )
    return EquilibriumReport(
        kind="subgame-perfect", tolerance=float(tol), equilibria=tuple(found)
    )


def cooperation_bound(stage: StageGame) -> float:
    """Entanglement threshold below which mutual identity is the lone NE.

    For a dilemma with values T > R > P > S the bound on the weight
    x = |amplitude of 00|^2 of the shared pair state is
    min(T - R, P - S) / (T - R + P - S).
    """
    if not stage.is_pd:
        raise ValueError("cooperation threshold is defined for dilemma payoffs only")
    t, r, p, s = stage.pd_values
    return min(t - r, p - s) / ((t - r) + (p - s))


@dataclass(frozen=True)
class CooperationAnalysis:
    """Closed-form threshold cross-checked against a grid scan."""

    closed_form_bound: float
    empirical_bound: float


def cooperation_scan(stage: StageGame, grid_step: float) -> CooperationAnalysis:
    """Sweep the pair-state weight x and test where cooperation locks in.

    For each grid point x in (0, 1) the shared pair state
    sqrt(x)|00> + sqrt(1-x)|11> induces a 2x2 game over the flip
    choices; the point is flagged when (identity, identity) is its
    unique pure equilibrium.  The empirical bound is the largest flagged
    x (0.0 if none), and the closed form must agree within one grid
    step or the scan fails loudly.  Every flagged point must also beat
    mutual defection: x*R + (1-x)*P > P.

    All grid points are read at once, as :func:`~.mw.mw_bimatrix` reads
    one: ``pair_table(stage) @ marginal`` on each point's Born marginal
    (rounded as :class:`~.qstate.PureState` rounds it), with equilibria
    by the rule :func:`pure_nash` reads (:func:`_nash_masks`), at
    ``tol=0``.
    """
    if not stage.is_pd:
        raise ValueError("cooperation scan is defined for dilemma payoffs only")
    if not 0.0 < grid_step < 0.5:
        raise ValueError("grid step must lie in (0, 0.5)")
    _, r, p, _ = stage.pd_values
    closed_form = cooperation_bound(stage)
    grid = np.arange(1, math.ceil(1.0 / grid_step) + 2) * grid_step
    xs = grid[grid < 1.0]
    marginals = np.zeros((xs.size, 4))
    marginals[:, 0] = np.abs(np.sqrt(xs)) ** 2
    marginals[:, 3] = np.abs(np.sqrt(1.0 - xs)) ** 2
    # cells[point, player, f]: the induced game at flips f = 2*k1 + k2.
    cells = (pair_table(stage) @ marginals[:, None, :, None])[..., 0]
    u1, u2 = cells.reshape(-1, 2, 2, 2).swapaxes(0, 1)
    at_equilibrium, _ = _nash_masks(u1, u2, 0.0)
    only_identity = np.array([[True, False], [False, False]])
    flagged = xs[(at_equilibrium == only_identity).all(axis=(1, 2))]
    stage_payoffs = flagged * r + (1.0 - flagged) * p
    beaten = stage_payoffs > p
    if not beaten.all():
        k = int(beaten.argmin())
        raise AssertionError(
            f"stage payoff {float(stage_payoffs[k])} fails to beat mutual "
            f"defection at x={float(flagged[k])}"
        )
    empirical = float(flagged[-1]) if flagged.size else 0.0
    # The slack forgives rounding only: a bound on a grid point is a tie
    # there, so the last flagged point sits one step below it.
    if abs(closed_form - empirical) > grid_step * (1 + 1e-9):
        raise AssertionError(
            f"scan bound {empirical} disagrees with closed form {closed_form}"
        )
    return CooperationAnalysis(closed_form_bound=closed_form, empirical_bound=empirical)
