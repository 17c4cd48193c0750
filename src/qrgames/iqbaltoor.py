"""Four-qubit protocol that writes both stages before measuring.

Player 1 controls qubits 1 and 3, player 2 qubits 2 and 4; qubits 1-2
carry the first stage and qubits 3-4 the second.  Strategies mix the
identity and the flip independently per qubit.  Because one pair of
qubits must hold the whole second stage, a player cannot condition the
second-stage move on the first-stage outcome, and this module's
analysis routines quantify what that costs: whenever the first-stage
payoff pattern is a genuine dilemma, flipping at stage 1 strictly
dominates and no pure equilibrium cooperates there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibria import pure_nash
from .qstate import (
    Ensemble,
    FlipLayer,
    PureState,
    apply_flips,
    expectation,
    flip_table,
)
from .stagegames import Bimatrix, ExpectedPayoffs, StageGame
from .mw import payoff_observable, stage_weights

# Largest payoff difference read as equality by the stage-1 pattern's
# symmetry test and by the no-cooperation check's margins and equilibria.
PATTERN_TOL = 1e-9
# Rejection-sampling budget of sample_dilemma_state.
DILEMMA_DRAWS = 200


@dataclass(frozen=True)
class ITStrategy:
    """Per-qubit flip probabilities for one player.

    ``stage1_flip_prob`` mixes the operator on the player's first-stage
    qubit, ``stage2_flip_prob`` on the second-stage qubit, and the two
    draws are independent.  A pure strategy has both probabilities in
    {0, 1}; each player has exactly four of those.
    """

    stage1_flip_prob: float
    stage2_flip_prob: float

    def __post_init__(self) -> None:
        for name in ("stage1_flip_prob", "stage2_flip_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    @classmethod
    def pure(cls, stage1_bit: int, stage2_bit: int) -> "ITStrategy":
        return cls(float(stage1_bit), float(stage2_bit))


IT_PURE_STRATEGIES: tuple[ITStrategy, ...] = tuple(
    ITStrategy.pure(k1, k2) for k1, k2 in ((0, 0), (0, 1), (1, 0), (1, 1))
)
IT_STRATEGY_LABELS: tuple[str, ...] = ("00", "01", "10", "11")


@dataclass(frozen=True)
class ITGame:
    """Four-qubit game: shared initial state plus the stage payoffs."""

    initial: PureState
    stage: StageGame

    def __post_init__(self) -> None:
        if self.initial.num_qubits != 4:
            raise ValueError("this protocol runs on exactly 4 qubits")


def _expected_from(source: Ensemble | PureState, stage: StageGame) -> ExpectedPayoffs:
    """Payoffs per player and stage: stage 1 reads qubits 1-2, stage 2 qubits 3-4."""
    return ExpectedPayoffs(
        *(
            expectation(source, payoff_observable(stage, player, 4, pair))
            for player in (1, 2)
            for pair in ((1, 2), (3, 4))
        )
    )


def _mix(flip_prob: float) -> list[tuple[float, int]]:
    options = [(1.0 - flip_prob, 0), (flip_prob, 1)]
    return [(p, bit) for p, bit in options if p > 0.0]


def it_expected(game: ITGame, s1: ITStrategy, s2: ITStrategy) -> ExpectedPayoffs:
    """Expected payoffs per player and stage under (possibly mixed) strategies.

    The final density operator is represented as the ensemble of the up
    to 16 flip-layer images of the initial state, weighted by the four
    independent per-qubit mixing probabilities; stage-1 mixing is applied
    first and stage-2 mixing on top of it.  Expectations of the diagonal
    payoff observables are exact on that ensemble.
    """
    stage1_members = [
        (p1 * p2, FlipLayer({1: k1, 2: k2}))
        for p1, k1 in _mix(s1.stage1_flip_prob)
        for p2, k2 in _mix(s2.stage1_flip_prob)
    ]
    members = []
    for weight, first_layer in stage1_members:
        mid = apply_flips(game.initial, first_layer)
        for p3, k3 in _mix(s1.stage2_flip_prob):
            for p4, k4 in _mix(s2.stage2_flip_prob):
                final = apply_flips(mid, FlipLayer({3: k3, 4: k4}))
                members.append((weight * p3 * p4, final))
    return _expected_from(Ensemble(tuple(members)), game.stage)


def it_batch_expected(
    game: ITGame, k1: int, k2: int, k3: int, k4: int
) -> ExpectedPayoffs:
    """Pure-profile payoffs computed the short way: one combined flip layer.

    For pure strategies the sequential mixing above collapses to a
    single flip mask, so this must agree with :func:`it_expected`
    exactly; keeping both paths makes that equivalence testable.
    """
    final = apply_flips(game.initial, FlipLayer({1: k1, 2: k2, 3: k3, 4: k4}))
    return _expected_from(final, game.stage)


def it_pure_bimatrix(game: ITGame) -> Bimatrix:
    """4x4 bimatrix of total payoffs over both players' pure strategies.

    Rows and columns are labeled ``stage1_bit stage2_bit``; the cell
    holds (E11 + E12, E21 + E22).  Each stage's payoffs read one qubit
    pair, so both stage tables come from the marginals of qubits 1-2
    and 3-4 (:func:`~.qstate.flip_table`), indexed by the flips there.
    """
    weights = stage_weights(game.stage)
    stage1 = flip_table(game.initial, (1, 2), weights).reshape(2, 2, 1, 2, 1)
    stage2 = flip_table(game.initial, (3, 4), weights).reshape(2, 1, 2, 1, 2)
    # Axes: player, then k1, k3 (player 1's bits) and k2, k4 (player 2's),
    # so the row index is 2*k1 + k3 and the column index 2*k2 + k4.
    totals = (stage1 + stage2).reshape(2, 4, 4)
    return Bimatrix(totals[0], totals[1], IT_STRATEGY_LABELS, IT_STRATEGY_LABELS)


@dataclass(frozen=True)
class Stage1Pattern:
    """First-stage payoff pattern induced by the initial state.

    ``r``, ``s``, ``t``, ``p`` are player 1's first-stage expectations
    at stage-1 choices (0,0), (0,1), (1,0), (1,1).  ``symmetric`` says
    player 2's first-stage expectations form the mirrored table
    (t at (0,1), s at (1,0), same diagonal), which makes the induced
    interaction a symmetric 2x2 game.  ``pd_consistent`` requires both
    the symmetry and the strict dilemma ordering t > r > p > s with
    2r > t + s; only then do the no-cooperation gap identities below
    apply to both players.
    """

    r: float
    s: float
    t: float
    p: float
    symmetric: bool
    pd_consistent: bool


def it_stage1_pattern(game: ITGame) -> Stage1Pattern:
    """Classify the first-stage payoff pattern of an initial state.

    Stage-2 choices are irrelevant here because the stage-1 observables
    act as the identity on qubits 3 and 4.
    """
    e1, e2 = flip_table(game.initial, (1, 2), stage_weights(game.stage)).tolist()
    r, s, t, p = e1
    symmetric = (
        abs(e2[0] - r) <= PATTERN_TOL
        and abs(e2[1] - t) <= PATTERN_TOL
        and abs(e2[2] - s) <= PATTERN_TOL
        and abs(e2[3] - p) <= PATTERN_TOL
    )
    ordered = t > r > p > s and 2 * r > t + s
    return Stage1Pattern(
        r=r, s=s, t=t, p=p, symmetric=symmetric, pd_consistent=symmetric and ordered
    )


@dataclass(frozen=True)
class NoCooperationVerdict:
    """Outcome of the exhaustive cooperation check on the 4x4 game.

    ``player1_gaps``/``player2_gaps`` hold the strict-dominance margins
    gained by flipping at stage 1, keyed by the opponent's stage-1 bit;
    they equal (t - r, p - s) of the stage-1 pattern.  ``equilibria``
    lists the pure equilibria of the 4x4 bimatrix (as row/col indices
    into the pure-strategy order 00, 01, 10, 11), and
    ``cooperation_excluded`` says none of them keeps a stage-1 identity.
    """

    pattern: Stage1Pattern
    player1_gaps: tuple[float, float]
    player2_gaps: tuple[float, float]
    equilibria: tuple[tuple[int, int], ...]
    equilibrium_payoffs: tuple[tuple[float, float], ...]
    cooperation_excluded: bool


def it_no_cooperation_check(game: ITGame) -> NoCooperationVerdict:
    """Verify that flipping at stage 1 strictly dominates staying put.

    Requires a dilemma-consistent first-stage pattern (see
    :func:`it_stage1_pattern`); raises ``ValueError`` otherwise, since
    the dominance argument has nothing to say in that case.

    Checks, by exhaustive comparison over the 4x4 pure bimatrix, that
    switching one's stage-1 operator from identity to flip strictly
    raises the total payoff against every opponent strategy, that the
    margin depends only on the opponent's stage-1 bit, and that no pure
    equilibrium of the bimatrix contains a stage-1 identity choice.
    """
    pattern = it_stage1_pattern(game)
    if not pattern.pd_consistent:
        raise ValueError(
            "first-stage pattern is not dilemma-consistent; "
            "the no-cooperation argument does not apply"
        )
    bm = it_pure_bimatrix(game)

    def gaps_for(player: int) -> tuple[float, float]:
        # Rows are the player's strategies (stage1_bit * 2 + stage2_bit) and
        # columns the opponent's, so margins[stage2_bit, opponent] is the gain
        # of flipping at stage 1; one block per opponent stage-1 bit.
        own = bm.payoffs1 if player == 1 else bm.payoffs2.T
        margins = own[2:] - own[:2]
        if (margins <= 0).any():
            raise AssertionError(
                f"stage-1 flip fails to dominate for player {player}"
            )
        gaps = []
        for block, expected in (
            (margins[:, :2], pattern.t - pattern.r),
            (margins[:, 2:], pattern.p - pattern.s),
        ):
            spread = block.max() - block.min()
            if spread > PATTERN_TOL or abs(block[0, 0] - expected) > PATTERN_TOL:
                raise AssertionError(
                    "dominance margin does not match the stage-1 pattern"
                )
            gaps.append(float(block[0, 0]))
        return (gaps[0], gaps[1])

    report = pure_nash(bm, tol=PATTERN_TOL)
    profiles = tuple((eq.row, eq.col) for eq in report.equilibria)
    payoffs = tuple(eq.payoffs for eq in report.equilibria)
    no_stage1_identity = all(row >= 2 and col >= 2 for row, col in profiles)
    return NoCooperationVerdict(
        pattern=pattern,
        player1_gaps=gaps_for(1),
        player2_gaps=gaps_for(2),
        equilibria=profiles,
        equilibrium_payoffs=payoffs,
        cooperation_excluded=no_stage1_identity,
    )


def sample_dilemma_state(stage: StageGame, rng: np.random.Generator) -> PureState:
    """Random 4-qubit initial state with a dilemma-consistent pattern.

    The first-stage pattern depends only on the marginal distribution of
    qubits 1-2, so the sampler draws that marginal directly: equal mass
    on the 01 and 10 blocks (the symmetry the pattern requires) and a
    strong bias toward 00 (which keeps the strict ordering t > r > p > s
    likely).  Each block gets an independent random two-qubit tail, so
    the returned states are generically entangled.  Draws that still
    miss the ordering are rejected and retried.
    """
    if not stage.is_pd:
        raise ValueError("dilemma-consistent sampling needs dilemma payoffs")
    for _ in range(DILEMMA_DRAWS):
        w00, anti, w11 = rng.dirichlet((8.0, 1.0, 1.0))
        weights = (w00, anti / 2.0, anti / 2.0, w11)
        amps = np.zeros(16, dtype=complex)
        for block, weight in enumerate(weights):
            tail = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            tail *= np.sqrt(weight) / np.linalg.norm(tail)
            amps[4 * block : 4 * block + 4] = tail
        state = PureState(4, amps / np.linalg.norm(amps))
        if it_stage1_pattern(ITGame(state, stage)).pd_consistent:
            return state
    raise RuntimeError(
        f"no dilemma-consistent state found in {DILEMMA_DRAWS} draws"
    )
