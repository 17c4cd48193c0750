"""Equilibrium search over bimatrices and the twice-played protocol.

Pure Nash enumeration and strict-dominance checks work on any
:class:`~.stagegames.Bimatrix`.  Subgame-perfect search is provided for
the ten-qubit game whenever the initial state factors across the five
qubit pairs, because only then does each measurement outcome head a
self-contained one-stage subgame that backward induction can solve.
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

from .mw import stage_weights
from .qstate import NORM_ATOL, OUTCOMES, flip_table
from .repeated10 import _ACTION_LABELS, RepGame, _product_tables, factor_pairs
from .stagegames import Bimatrix, Payoffs, RepStrategy, StageGame


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
        self,
        row_labels: tuple[str, ...] | None = None,
        col_labels: tuple[str, ...] | None = None,
    ) -> str:
        entries = []
        for eq in self.equilibria:
            entry: dict = {
                "row": eq.row,
                "col": eq.col,
                "payoffs": [eq.payoffs[0], eq.payoffs[1]],
                "strict": eq.strict,
            }
            if row_labels is not None:
                entry["row_label"] = row_labels[eq.row]
            if col_labels is not None:
                entry["col_label"] = col_labels[eq.col]
            entries.append(entry)
        document = {
            "kind": self.kind,
            "tolerance": self.tolerance,
            "equilibria": entries,
        }
        return json.dumps(document, indent=2)


def pure_nash(bm: Bimatrix, tol: float = 1e-9) -> EquilibriumReport:
    """All pure Nash equilibria of a bimatrix.

    A profile is listed when neither player can gain more than ``tol``
    by a unilateral deviation.  The strict flag additionally demands
    that every deviation strictly loses, with no tolerance: profiles
    that tie an alternative best response are equilibria but not strict.
    """
    if not tol >= 0:
        raise ValueError("tolerance must be nonnegative")
    if bm.rows == 0 or bm.cols == 0:
        raise ValueError("cannot search an empty bimatrix")
    u1, u2 = bm.payoffs1, bm.payoffs2
    best1 = u1.max(axis=0)
    best2 = u2.max(axis=1)
    at_equilibrium = (u1 >= best1[None, :] - tol) & (u2 >= best2[:, None] - tol)
    lone_best1 = (u1 == best1[None, :]).sum(axis=0) == 1
    lone_best2 = (u2 == best2[:, None]).sum(axis=1) == 1
    strict = (
        (u1 == best1[None, :])
        & (u2 == best2[:, None])
        & lone_best1[None, :]
        & lone_best2[:, None]
    )
    found = tuple(
        Equilibrium(int(r), int(c), bm.cell(int(r), int(c)), bool(strict[r, c]))
        for r, c in np.argwhere(at_equilibrium)
    )
    return EquilibriumReport(kind="nash", tolerance=float(tol), equilibria=found)


def strictly_dominated(bm: Bimatrix, player: int) -> list[tuple[int, int]]:
    """Pairs (a, b): the player's strategy b beats a against everything.

    Returned in lexicographic order; an empty list means nothing is
    strictly dominated.
    """
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    own_by_row = bm.payoffs1 if player == 1 else bm.payoffs2.T
    # beats[a, b]: row b pays more than row a in every column.
    beats = (own_by_row[None, :, :] > own_by_row[:, None, :]).all(axis=2)
    np.fill_diagonal(beats, False)
    return [(int(a), int(b)) for a, b in np.argwhere(beats)]


def spe_pair_product(game: RepGame, tol: float = 1e-9) -> EquilibriumReport:
    """Subgame perfect equilibria of a pair-product twice-played game.

    Backward induction: solve the one-stage game of each outcome's qubit
    pair, then, for every way of selecting one second-stage equilibrium
    per outcome, fold the selected continuation values into a 2x2 game
    over the stage-1 flips and keep its equilibria.  The inputs are the
    tables the extensive form reads: the stage-1 chance ``chance[k, o]``
    and one continuation table per outcome, both off the pair factors.
    The cell at flips k is the stage-1 payoff there plus
    ``chance[k, o]`` times the selected value of outcome o, summed over
    the outcomes in order.  Each hit is emitted as a full pair of
    five-bit strategies, indexed like :func:`~.repeated10.rep_bimatrix`
    rows and columns; payoffs are the two-stage totals.  An equilibrium
    is flagged strict when its stage-1 equilibrium and all four selected
    continuations are strict.

    Raises ``ValueError`` if the initial state is not a pair product, or
    if some outcome's subgame has no pure equilibrium (reporting which).
    """
    factors = factor_pairs(game.initial)
    if factors is None:
        raise ValueError(
            "subgame search needs an initial state that factors across "
            "the five qubit pairs"
        )
    chance, continuations = _product_tables(game.stage, factors)
    # Row k holds both players' stage-1 payoffs at flips k.
    base = flip_table(factors[0], (1, 2), stage_weights(game.stage)).T
    subgame_ne = []
    for (o1, o2), values in zip(OUTCOMES, continuations):
        subgame = Bimatrix(*values.reshape(2, 2, 2), _ACTION_LABELS, _ACTION_LABELS)
        report = pure_nash(subgame, tol=tol)
        if not report.equilibria:
            raise ValueError(
                f"no pure second-stage equilibrium after outcome {o1}{o2}"
            )
        subgame_ne.append(report.equilibria)

    found = []
    for selection in product(*subgame_ne):
        extra = 0.0
        for o, chosen in enumerate(selection):
            extra = extra + chance[:, o, None] * np.array(chosen.payoffs)
        u1, u2 = (base + extra).T.reshape(2, 2, 2)
        induced = Bimatrix(u1, u2, _ACTION_LABELS, _ACTION_LABELS)
        for eq in pure_nash(induced, tol=tol).equilibria:
            t1 = RepStrategy(eq.row, *(c.row for c in selection))
            t2 = RepStrategy(eq.col, *(c.col for c in selection))
            strict = eq.strict and all(c.strict for c in selection)
            found.append(Equilibrium(t1.index, t2.index, eq.payoffs, strict))
    found.sort(key=lambda eq: (eq.row, eq.col))
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
class ScanSample:
    """One grid point of a cooperation scan.

    ``unique_cooperative_ne`` records whether the mutual-identity
    profile was the only pure equilibrium of the induced 2x2 game at
    this x; ``stage_payoff`` is its per-stage value x*R + (1-x)*P.
    """

    x: float
    unique_cooperative_ne: bool
    stage_payoff: float


@dataclass(frozen=True)
class CooperationAnalysis:
    """Closed-form threshold cross-checked against a grid scan."""

    payoffs: tuple[float, float, float, float]
    closed_form_bound: float
    empirical_bound: float
    grid_step: float
    samples: tuple[ScanSample, ...]


def cooperation_scan(stage: StageGame, grid_step: float) -> CooperationAnalysis:
    """Sweep the pair-state weight x and test where cooperation locks in.

    For each grid point x in (0, 1) the shared pair state
    sqrt(x)|00> + sqrt(1-x)|11> induces a 2x2 game over the flip
    choices; the sample is flagged when (identity, identity) is its
    unique pure equilibrium.  The empirical bound is the largest flagged
    x (0.0 if none), and the closed form must agree within one grid
    step or the scan fails loudly.  Every flagged sample must also beat
    mutual defection: x*R + (1-x)*P > P.

    All grid points are evaluated at once: the induced cell at flip
    pattern f is W[f]*p00 + W[f^3]*p11, with the Born weights rounded as
    :class:`~.qstate.PureState` rounds them and equilibria as
    :func:`pure_nash` finds them at ``tol=0``.
    """
    if not stage.is_pd:
        raise ValueError("cooperation scan is defined for dilemma payoffs only")
    if not 0.0 < grid_step < 0.5:
        raise ValueError("grid step must lie in (0, 0.5)")
    t, r, p, s = stage.pd_values
    closed_form = cooperation_bound(stage)
    grid = np.arange(1, math.ceil(1.0 / grid_step) + 2) * grid_step
    xs = grid[grid < 1.0]
    p00, p11 = np.abs(np.sqrt(xs)) ** 2, np.abs(np.sqrt(1.0 - xs)) ** 2
    unnormalized = (p00 + p11)[~(np.abs(p00 + p11 - 1.0) <= NORM_ATOL)]
    if unnormalized.size:
        total = float(unnormalized[0])
        raise ValueError(f"state is not normalized: sum |amp|^2 = {total!r}")
    weights = stage_weights(stage)[:, None, :]
    cells = weights * p00[:, None] + weights[..., ::-1] * p11[:, None]
    u1, u2 = cells.reshape(2, -1, 2, 2)
    best1, best2 = u1.max(axis=1, keepdims=True), u2.max(axis=2, keepdims=True)
    at_equilibrium = (u1 >= best1) & (u2 >= best2)
    only_identity = np.array([[True, False], [False, False]])
    flags = (at_equilibrium == only_identity).all(axis=(1, 2))
    samples = []
    empirical = 0.0
    for x, unique in zip(xs.tolist(), flags.tolist()):
        q = x * r + (1.0 - x) * p
        if unique:
            empirical = x
            if not q > p:
                raise AssertionError(
                    f"stage payoff {q} fails to beat mutual defection at x={x}"
                )
        samples.append(ScanSample(x=x, unique_cooperative_ne=unique, stage_payoff=q))
    # The slack forgives rounding only: a bound on a grid point is a tie
    # there, so the last flagged point sits one step below it.
    if abs(closed_form - empirical) > grid_step * (1 + 1e-9):
        raise AssertionError(
            f"scan bound {empirical} disagrees with closed form {closed_form}"
        )
    return CooperationAnalysis(
        payoffs=(t, r, p, s),
        closed_form_bound=closed_form,
        empirical_bound=empirical,
        grid_step=float(grid_step),
        samples=tuple(samples),
    )
