"""Dense paths that build flipped and measured states, against which the
pair-marginal tables of :mod:`.mw`, :mod:`.iqbaltoor` and :mod:`.repeated10`
are checked.  A game is read by ``.initial`` and ``.stage`` alone, so none
of those modules is imported.  ``it_batch_expected`` reads four qubits.

Two ten-qubit paths are provided.  The batch path applies all ten flips
up front and dots the final state's Born weights with one payoff weight
vector per player and stage.  The sequential path plays the game in real
time: flip the first pair, measure it, then flip only the pair matching
the observed outcome.  Both yield identical expected payoffs on every
initial state, entangled or not, and the tests exercise that
equivalence heavily.  The sequential path has a per-profile form
(``play_sequential``, with its transcript) and a whole-table form
(``sequential_component_tables``) that shares each stage-1 measurement
across all profiles using it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qstate import (
    OUTCOMES,
    Ensemble,
    PureState,
    apply_flips,
    expectation,
    measure_pair,
    sum_in_order,
)
from .stagegames import ExpectedPayoffs, Payoffs, RepStrategy, StageGame, all_strategies

NUM_QUBITS = 10
# Basis states per value of qubits 1-2: the block a stage-1 outcome keeps.
_BLOCK = 2 ** (NUM_QUBITS - 2)


def payoff_observable(
    stage: StageGame, player: int, num_qubits: int, qubit_pair: tuple[int, int]
) -> np.ndarray:
    """Weight vector of the diagonal observable reading one player's stage
    payoff off two qubits.

    The weight at basis index x is the player's payoff at the actions
    spelled by the two qubits, and every other qubit is ignored (the
    operator is the identity elsewhere).
    """
    qubit_a, qubit_b = qubit_pair
    indices = np.arange(2 ** num_qubits)
    bits_a = (indices >> (num_qubits - qubit_a)) & 1
    bits_b = (indices >> (num_qubits - qubit_b)) & 1
    return stage.payoff_table(player)[bits_a, bits_b]


def _expected_from(source: Ensemble | PureState, rows: np.ndarray) -> ExpectedPayoffs:
    """Expectations of four weight vectors, the rows in ExpectedPayoffs order."""
    return ExpectedPayoffs(*(expectation(source, weights) for weights in rows))


def _it_observables(stage: StageGame) -> np.ndarray:
    """Four-qubit weight vectors, (4, 16) rows in ExpectedPayoffs order;
    stages read qubits 1-2, 3-4."""
    return np.array(
        [
            payoff_observable(stage, player, 4, pair)
            for player in (1, 2)
            for pair in ((1, 2), (3, 4))
        ]
    )


def it_batch_expected(game, k1: int, k2: int, k3: int, k4: int) -> ExpectedPayoffs:
    """Pure-profile payoffs of a four-qubit game read densely: one
    flip map over all four qubits, then the four payoff observables.

    This path builds the flipped state and never reads a marginal, so it
    is the independent check on :func:`~.iqbaltoor.it_pure_bimatrix` and
    :func:`~.iqbaltoor.it_expected` (see :func:`~.claims.it_deviation`).
    """
    final = apply_flips(game.initial, {1: k1, 2: k2, 3: k3, 4: k4})
    return _expected_from(final, _it_observables(game.stage))


def outcome_qubit_pair(outcome: tuple[int, int]) -> tuple[int, int]:
    """The second-stage qubit pair reserved for a first-stage outcome.

    Outcome (i1, i2) read as the binary number o = 2*i1 + i2 owns the
    pair (2o+3, 2o+4): (0,0) -> (3,4) up to (1,1) -> (9,10).
    """
    o = 2 * outcome[0] + outcome[1]
    return (2 * o + 3, 2 * o + 4)


def strategy_qubit_map(player: int, strat: RepStrategy) -> dict[int, int]:
    """Spread a five-bit strategy over the player's five qubits.

    Player 1 writes (stage1, after_00, after_01, after_10, after_11) to
    qubits (1, 3, 5, 7, 9); player 2 writes to (2, 4, 6, 8, 10).  The
    result is the ``{qubit: bit}`` map :func:`~.qstate.apply_flips` reads.
    """
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    side = 0 if player == 1 else 1
    flips = {1 + side: strat.stage1}
    for outcome in OUTCOMES:
        pair = outcome_qubit_pair(outcome)
        flips[pair[side]] = strat.after(outcome)
    return flips


def _observables(stage: StageGame) -> np.ndarray:
    """The weight vectors of a stage's four ten-qubit payoff observables,
    as the rows of one read-only (4, 1024) array in ExpectedPayoffs order.

    The stage-1 row reads qubits 1-2.  The stage-2 row reads the pair
    reserved for the outcome that qubits 1-2 spell: at basis index x that
    is outcome ``x >> 8``, read as a 2-bit number.  Read-only, since the
    cache hands the same array to every caller.
    """
    # -0.0 == 0.0, so a cache keyed on the StageGame would hand a stage
    # the weights of an equal one cached first, with other signed zeros.
    return _observables_of(stage.array.tobytes())


# Each entry holds 32 KB of dense weights.  Sixteen games cover the
# four stage games of a benchmark pool, so those never evict.
@lru_cache(maxsize=16)
def _observables_of(payoffs: bytes) -> np.ndarray:
    """``_observables`` of the stage whose ``array`` has these bytes."""
    stage = StageGame(np.frombuffer(payoffs).reshape(2, 2, 2).tolist())
    outcome = np.arange(2 ** NUM_QUBITS) >> (NUM_QUBITS - 2)
    rows = []
    for player in (1, 2):
        rows.append(payoff_observable(stage, player, NUM_QUBITS, (1, 2)))
        pieces = [
            payoff_observable(stage, player, NUM_QUBITS, outcome_qubit_pair(o))
            for o in OUTCOMES
        ]
        rows.append(np.choose(outcome, pieces))
    observables = np.stack(rows)
    observables.setflags(write=False)
    return observables


def play_batch(game, t1: RepStrategy, t2: RepStrategy) -> ExpectedPayoffs:
    """Expected payoffs with all ten flips applied before any readout."""
    # Player 1 owns the odd qubits and player 2 the even ones.
    flips = {**strategy_qubit_map(1, t1), **strategy_qubit_map(2, t2)}
    return _expected_from(apply_flips(game.initial, flips), _observables(game.stage))


@dataclass(frozen=True)
class OutcomeBranch:
    """One measurement branch of a sequential play.

    ``stage1_payoffs`` is the payoff pair the outcome itself awards;
    ``stage2_payoffs`` holds the second-stage expectations on the
    branch, or None when the branch has probability zero and no
    post-measurement state exists.
    """

    outcome: tuple[int, int]
    probability: float
    stage2_choices: tuple[int, int]
    stage1_payoffs: Payoffs
    stage2_payoffs: Payoffs | None
    post_state: PureState | None

    @property
    def reachable(self) -> bool:
        return self.post_state is not None


def _check_branch_total(total: float) -> None:
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"branch probabilities sum to {total!r}, not 1")


def _measure_stage1(
    game, k1: int, k2: int
) -> list[tuple[tuple[int, int], float, PureState]]:
    """Flip qubits 1-2 by (k1, k2) and measure them.

    Returns the ``measure_pair`` branches: outcomes at or below
    ``PROB_FLOOR`` are pruned, the rest carry their post states.
    """
    after_first = apply_flips(game.initial, {1: k1, 2: k2})
    return measure_pair(after_first, 1, 2)


def _continue(
    post: PureState, outcome: tuple[int, int], a1: int, a2: int
) -> PureState:
    """Apply the stage-2 flips (a1, a2) to the pair reserved for ``outcome``."""
    qubit_a, qubit_b = outcome_qubit_pair(outcome)
    return apply_flips(post, {qubit_a: a1, qubit_b: a2})


def _stage1_chance(game) -> tuple[np.ndarray, list[PureState | None]]:
    """``_measure_stage1`` for all four stage-1 flips k, from one measurement.

    Flipping qubits 1-2 by k moves block b of the start (where they spell
    b) to outcome b XOR k, low bits in order: the same probability summed
    in the same order, the same pruning.  So ``chance[k, o]`` is block
    ``k ^ o``'s measured weight, 0.0 where the block was pruned, and
    ``posts[b]`` is block b's unflipped post state, None where pruned.
    """
    block_weights = [0.0] * 4
    posts: list[PureState | None] = [None] * 4
    for (b1, b2), probability, post in measure_pair(game.initial, 1, 2):
        block_weights[2 * b1 + b2] = probability
        posts[2 * b1 + b2] = post
    chance = np.array([[block_weights[k ^ o] for o in range(4)] for k in range(4)])
    return chance, posts


@lru_cache(maxsize=1)
def _continuation_rows() -> np.ndarray:
    """Per outcome o and profile, the row ``16*o + 4*k + a`` of the
    sequential continuation values it reads (``_sequential_gather``'s
    layout), with k the stage-1 flips and a the flips after o.

    Spelled from ``RepStrategy.stage1`` and ``.after`` over
    :func:`~.stagegames.all_strategies`, as :func:`play_sequential` reads
    a profile, so the sequential table shares no index with the
    production encoding.  Built on first use and read-only, since the
    cache hands the same array to every caller.
    """
    strategies = all_strategies()
    stage1 = np.array([strat.stage1 for strat in strategies])
    after = np.array([[strat.after(o) for strat in strategies] for o in OUTCOMES])
    k = 2 * stage1[:, None] + stage1
    a = 2 * after[:, :, None] + after[:, None, :]
    rows = 16 * np.arange(4)[:, None, None] + 4 * k + a
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=1)
def _sequential_gather() -> np.ndarray:
    """Gather of every continuation's nonzero block, from the measured blocks.

    Row ``16*o + 4*k + a`` serves outcome o after the stage-1 flips k and
    the stage-2 flips a (each a 2-bit number).  The outcome's branch is
    block ``o XOR k`` of the unflipped start, which the flips k move to
    block o with its low 8 bits in order; the flips a then move low bits
    ``x`` to ``x XOR (a << (6 - 2*o))``, outcome o's pair.  So the
    continuation is zero outside block o, and block o is
    ``blocks.ravel()[row]`` when row b of ``blocks`` holds block b's 256
    Born weights: row ``16*o + 4*k + a`` reads block ``o ^ k`` at
    ``low ^ (a << (6 - 2*o))``.  The sequential table dots each row with
    block o of the observables alone, so no continuation is ever written
    into a whole register.  The array is 64x256 and read-only, since
    the cache hands the same one to every caller, and built on first use,
    so only the sequential path holds its 128 KB.
    """
    o, k, a = np.ogrid[:4, :4, :4]
    low = np.arange(_BLOCK)
    block = (o ^ k)[..., None] * _BLOCK
    gather = (block + (low ^ (a << (6 - 2 * o))[..., None])).reshape(64, _BLOCK)
    gather.setflags(write=False)
    return gather


@dataclass(frozen=True)
class PlayTranscript:
    """Full record of one sequential play of a pure profile."""

    stage1_choices: tuple[int, int]
    branches: tuple[OutcomeBranch, ...]
    expected: ExpectedPayoffs

    def __post_init__(self) -> None:
        _check_branch_total(sum_in_order(b.probability for b in self.branches))

    @property
    def outcome_distribution(self) -> tuple[tuple[tuple[int, int], float], ...]:
        return tuple(
            (branch.outcome, branch.probability)
            for branch in self.branches
            if branch.reachable
        )


def play_sequential(game, t1: RepStrategy, t2: RepStrategy) -> PlayTranscript:
    """Play a ten-qubit profile move by move: flip, measure, flip conditionally.

    Stage-1 flips land on qubits 1-2, which are then projectively
    measured.  On each observed outcome both players flip (or not) the
    qubit pair reserved for that outcome, per their contingency bits.
    Expectations are taken over the resulting ensemble with the same
    payoff observables the batch path uses.

    All four outcomes appear as branches; those the measurement assigns
    probability zero are kept, marked unreachable, with no stage-2
    payoffs.
    """
    stage1_choices = (t1.stage1, t2.stage1)
    observed = {
        outcome: (probability, post)
        for outcome, probability, post in _measure_stage1(game, *stage1_choices)
    }
    branches = []
    members = []
    for outcome in OUTCOMES:
        choices = (t1.after(outcome), t2.after(outcome))
        awarded = game.stage.pair(*outcome)
        if outcome not in observed:
            branches.append(
                OutcomeBranch(outcome, 0.0, choices, awarded, None, None)
            )
            continue
        probability, post = observed[outcome]
        final = _continue(post, outcome, *choices)
        # The post state is zero outside the outcome's block, so the whole
        # stage-2 observables read only the outcome's pair.
        stage2 = tuple(
            expectation(final, weights) for weights in _observables(game.stage)[1::2]
        )
        branches.append(
            OutcomeBranch(outcome, probability, choices, awarded, stage2, final)
        )
        members.append((probability, final))
    # Mass pruned at the measurement floor is renormalized away so the
    # ensemble stays valid; for exact-zero branches this is a no-op.
    kept = sum_in_order(p for p, _ in members)
    ensemble = Ensemble(tuple((p / kept, state) for p, state in members))
    return PlayTranscript(
        stage1_choices=stage1_choices,
        branches=tuple(branches),
        expected=_expected_from(ensemble, _observables(game.stage)),
    )


def sequential_component_tables(game) -> np.ndarray:
    """The four 32x32 per-stage tables of ``play_sequential``, in one pass.

    A sequential play depends on the profile only through the stage-1
    flip pair k and, per observed outcome o, the continuation flip pair
    a.  One measurement of the unflipped start gives every stage-1
    measurement: flipping by k sends block b to outcome b XOR k.  Flips
    only permute amplitudes, so outcome o's 16 continuations are zero
    outside block o, and their Born weights there are one gather of the
    four measured blocks' weights (:func:`_sequential_gather`; pruned
    blocks read as zeros).  Their 256 payoff values are one stacked call
    of 1-D dot products of each gathered block with the same 256 entries
    of the weight vectors ``play_sequential`` reads: block o of the rows of
    :func:`_observables`, read through a view, each block contiguous.
    Such a dot equals the dot over the whole zero-padded register bit for
    bit: the padding adds only signed zeros to a +0.0 sum, and each block
    is a whole number of the BLAS kernel's accumulator lanes.  Each value
    is scaled by its renormalized branch weight, one ``np.take`` picks
    every cell's row per outcome, and the picks are summed from 0.0 in
    ``OUTCOMES`` order: the products and the sum ``play_sequential``
    forms for its ``expected``, so cells equal it bit for bit.  A pruned
    branch adds a zero, which leaves a sum started from 0.0 unchanged.
    Returns a (4, 32, 32) array in ``ExpectedPayoffs`` order, the layout
    of :func:`~.repeated10.rep_component_tables`.
    """
    chance, posts = _stage1_chance(game)
    # renormalized[k, o]: the ensemble weight of outcome o after flips k.  A
    # pruned block adds +0.0 to its row's total, which leaves the total as is.
    renormalized = np.empty((4, 4))
    for k, row in enumerate(chance.tolist()):
        kept = sum_in_order(row)
        _check_branch_total(kept)
        renormalized[k] = chance[k] / kept
        # Every profile with these stage-1 flips ends in this ensemble;
        # building it once runs its checks once.
        members = zip(renormalized[k].tolist(), [posts[k ^ o] for o in range(4)])
        Ensemble(tuple((weight, post) for weight, post in members if post is not None))
    blocks = np.zeros((4, _BLOCK))
    for b, post in enumerate(posts):
        if post is not None:
            blocks[b] = post.probabilities[b * _BLOCK : (b + 1) * _BLOCK]
    gathered = blocks.ravel()[_sequential_gather()].reshape(4, 16, 1, _BLOCK, 1)
    # Stacked (1 x n) @ (n x 1) products go to the dot a 1-D ``w @ p`` uses;
    # (1 x n) @ (n x 4) would go to BLAS gemv, which sums in another order.
    # weights[o, c]: block o of component c's weights, 256 contiguous entries.
    weights = _observables(game.stage).reshape(4, 4, _BLOCK).swapaxes(0, 1)
    values = (weights[:, None, :, None, :] @ gathered).reshape(16, 4, 4)
    weighted = (values * renormalized.T.reshape(16, 1, 1)).reshape(64, 4)
    table = sum_in_order(np.take(weighted, _continuation_rows(), axis=0))
    return table.transpose(2, 0, 1)
