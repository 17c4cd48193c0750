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
from .qstate import PureState
from .stagegames import Bimatrix, ExpectedPayoffs, StageGame, payoff_bound, payoff_scale
from .mw import pair_table

# Rejection-sampling budget of sample_dilemma_state.
DILEMMA_DRAWS = 200
# Per stage, the axis of the (qubits 1-2, qubits 3-4) Born weights that its
# marginal sums away: stage 1 reads qubits 1-2, stage 2 qubits 3-4.
_SUMMED_AXES = (1, 0)


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


def _stage_tables(game: ITGame) -> tuple[np.ndarray, np.ndarray]:
    """Both stages' (player, flip) tables: :func:`~.mw.pair_table` on the
    marginals of qubits 1-2 (the Born weights, four by four, summed over
    qubits 3-4) and of qubits 3-4 (summed over qubits 1-2), the axes of
    ``_SUMMED_AXES``.
    """
    born = game.initial.probabilities.reshape(4, 4)
    table = pair_table(game.stage)
    return tuple(table @ born.sum(axis=axis) for axis in _SUMMED_AXES)


def _flip_weights(a: float, b: float) -> np.ndarray:
    """Chances of a qubit pair's four flips ``2*f1 + f2`` when its qubits
    flip independently with probabilities a and b: the four products of
    ``np.kron([1 - a, a], [1 - b, b])``, written out.
    """
    return np.array([(1.0 - a) * (1.0 - b), (1.0 - a) * b, a * (1.0 - b), a * b])


def it_expected(game: ITGame, s1: ITStrategy, s2: ITStrategy) -> ExpectedPayoffs:
    """Expected payoffs per player and stage under (possibly mixed) strategies.

    Each stage reads one qubit pair, 1-2 or 3-4, and the four per-qubit
    flips are drawn independently, so a stage's expectation is the
    blend of its :func:`_stage_tables` row over the four flips of its
    pair, each weighted by the product of the two qubits' chances of
    taking it (:func:`_flip_weights`).  A pure profile puts weight 1.0 on
    one flip, so its totals are the :func:`it_pure_bimatrix` cell exactly.
    """
    stage1, stage2 = _stage_tables(game)
    e11, e21 = (
        stage1 @ _flip_weights(s1.stage1_flip_prob, s2.stage1_flip_prob)
    ).tolist()
    e12, e22 = (
        stage2 @ _flip_weights(s1.stage2_flip_prob, s2.stage2_flip_prob)
    ).tolist()
    return ExpectedPayoffs(e11, e12, e21, e22)


def it_pure_bimatrix(game: ITGame) -> Bimatrix:
    """4x4 bimatrix of total payoffs over both players' pure strategies.

    Rows and columns are labeled ``stage1_bit stage2_bit``; the cell
    holds (E11 + E12, E21 + E22).  Each stage's payoffs read one qubit
    pair, so both stage tables come from the marginals of qubits 1-2
    and 3-4 (:func:`_stage_tables`), indexed by the flips there.
    """
    stage1, stage2 = _stage_tables(game)
    stage1 = stage1.reshape(2, 2, 1, 2, 1)
    stage2 = stage2.reshape(2, 1, 2, 1, 2)
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
    act as the identity on qubits 3 and 4: the pattern is the stage-1
    table of :func:`_stage_tables`.  The symmetry test reads entries
    within ``payoff_bound(game.stage)`` as equal, the bound every
    equilibrium decision uses; the dilemma ordering is exact.
    """
    e1, e2 = _stage_tables(game)[0].tolist()
    r, s, t, p = e1
    # Player 2's entries at (0,0), (0,1), (1,0), (1,1) against the mirror.
    mismatch = max(abs(a - b) for a, b in zip(e2, (r, t, s, p)))
    symmetric = mismatch <= payoff_bound(game.stage)
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
    equilibrium of the bimatrix contains a stage-1 identity choice.  The
    margins' spread and their match with the pattern, and the equilibria,
    read ``payoff_bound(game.stage)``; the dominance test is exact.
    """
    pattern = it_stage1_pattern(game)
    if not pattern.pd_consistent:
        raise ValueError(
            "first-stage pattern is not dilemma-consistent; "
            "the no-cooperation argument does not apply"
        )
    bm = it_pure_bimatrix(game)
    bound = payoff_bound(game.stage)

    def gaps_for(player: int) -> tuple[float, float]:
        # Rows are the player's strategies (stage1_bit * 2 + stage2_bit) and
        # columns the opponent's, so the margin rows ``first`` and ``second``
        # (stage2_bit 0 and 1) hold the gain of flipping at stage 1 against
        # each opponent; one block per opponent stage-1 bit.  Read as Python
        # floats, the same values, compared without a numpy call each.
        own = bm.payoffs1 if player == 1 else bm.payoffs2.T
        first, second = (own[2:] - own[:2]).tolist()
        if min(first + second) <= 0:
            raise AssertionError(
                f"stage-1 flip fails to dominate for player {player}"
            )
        gaps = []
        for cols, expected in (
            (slice(0, 2), pattern.t - pattern.r),
            (slice(2, 4), pattern.p - pattern.s),
        ):
            block = first[cols] + second[cols]
            spread = max(block) - min(block)
            if spread > bound or abs(block[0] - expected) > bound:
                raise AssertionError(
                    "dominance margin does not match the stage-1 pattern"
                )
            gaps.append(block[0])
        return (gaps[0], gaps[1])

    report = pure_nash(bm, scale=payoff_scale(game.stage))
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
