"""Ten-qubit register protocol for the twice-played 2x2 game.

Player 1 acts on the odd qubits and player 2 on the even ones.  Qubits
1-2 carry the first stage; each later pair (3,4), (5,6), (7,8), (9,10)
is reserved for the second stage following one particular first-stage
outcome, so a pure strategy is five bits: the stage-1 flip plus one
contingent flip per outcome.

Two evaluation paths are provided.  The batch path applies all ten
flips up front and reads gated payoff observables off the final state.
The sequential path plays the game in real time: flip the first pair,
measure it, then flip only the pair matching the observed outcome.
Both yield identical expected payoffs on every initial state, entangled
or not, and the tests exercise that equivalence heavily.  The
sequential path has a per-profile form (``play_sequential``, with its
transcript) and a whole-table form (``sequential_component_tables``)
that shares each stage-1 measurement across all profiles using it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mw import payoff_observable, stage_weights
from .qstate import (
    OUTCOMES,
    DiagonalObservable,
    Ensemble,
    FlipLayer,
    PureState,
    apply_flips,
    expectation,
    flip_table,
    measure_pair,
)
from .stagegames import (
    Bimatrix,
    ExpectedPayoffs,
    Payoffs,
    RepStrategy,
    StageGame,
    all_strategies,
)

NUM_QUBITS = 10
_ACTION_LABELS = ("0", "1")
_OUTCOME_LABELS = tuple(f"{o[0]}{o[1]}" for o in OUTCOMES)
# (player, stage) keys of the component tables, in ExpectedPayoffs order.
_COMPONENT_KEYS = ((1, 1), (1, 2), (2, 1), (2, 2))
# Largest singular value or amplitude read as zero when deciding whether a
# start is a pair product or a two-term superposition.
SUPPORT_TOL = 1e-9


def outcome_qubit_pair(outcome: tuple[int, int]) -> tuple[int, int]:
    """The second-stage qubit pair reserved for a first-stage outcome.

    Outcome (i1, i2) read as the binary number o = 2*i1 + i2 owns the
    pair (2o+3, 2o+4): (0,0) -> (3,4) up to (1,1) -> (9,10).
    """
    o = 2 * outcome[0] + outcome[1]
    return (2 * o + 3, 2 * o + 4)


def strategy_qubit_map(player: int, strat: RepStrategy) -> FlipLayer:
    """Spread a five-bit strategy over the player's five qubits.

    Player 1 writes (stage1, after_00, after_01, after_10, after_11) to
    qubits (1, 3, 5, 7, 9); player 2 writes to (2, 4, 6, 8, 10).
    """
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    side = 0 if player == 1 else 1
    flips = {1 + side: strat.stage1}
    for outcome in OUTCOMES:
        pair = outcome_qubit_pair(outcome)
        flips[pair[side]] = strat.after(outcome)
    return FlipLayer(flips)


@dataclass(frozen=True)
class RepGame:
    """Two repetitions of a 2x2 stage game on a shared 10-qubit state."""

    initial: PureState
    stage: StageGame

    def __post_init__(self) -> None:
        if self.initial.num_qubits != NUM_QUBITS:
            raise ValueError("the twice-played protocol runs on exactly 10 qubits")


def example_state() -> PureState:
    """The ``example_4_5`` start: |00> on every pair but qubits 3-4, which
    hold sqrt(0.6)|00> + sqrt(0.4)|11>, the continuation after outcome 00.
    """
    return PureState.from_terms(
        NUM_QUBITS, {"0" * 10: math.sqrt(0.6), "0011" + "0" * 6: math.sqrt(0.4)}
    )


# Each entry holds about 96 KB of dense weights.  Sixteen games cover the
# four stage games of a benchmark pool, so those never evict.
@lru_cache(maxsize=16)
def _observables(stage: StageGame) -> dict[tuple, DiagonalObservable]:
    """Payoff observables for one stage game, keyed by (player, stage).

    The stage-1 observable reads qubits 1-2 unconditionally.  Each
    stage-2 observable for outcome (i1, i2), keyed (player, 2, outcome),
    reads that outcome's qubit pair but weighs zero unless qubits 1-2
    actually spell the outcome; the plain (player, 2) entry is the sum
    of the four gated pieces.
    """
    indices = np.arange(2 ** NUM_QUBITS)
    first = (indices >> (NUM_QUBITS - 1)) & 1
    second = (indices >> (NUM_QUBITS - 2)) & 1
    table: dict[tuple, DiagonalObservable] = {}
    for player in (1, 2):
        table[(player, 1)] = payoff_observable(stage, player, NUM_QUBITS, (1, 2))
        total = np.zeros(indices.shape[0])
        for outcome in OUTCOMES:
            ungated = payoff_observable(
                stage, player, NUM_QUBITS, outcome_qubit_pair(outcome)
            )
            gate = (first == outcome[0]) & (second == outcome[1])
            gated = np.where(gate, ungated.weights, 0.0)
            table[(player, 2, outcome)] = DiagonalObservable(NUM_QUBITS, gated)
            total += gated
        table[(player, 2)] = DiagonalObservable(NUM_QUBITS, total)
    return table


def _expected_from(source: Ensemble | PureState, stage: StageGame) -> ExpectedPayoffs:
    obs = _observables(stage)
    return ExpectedPayoffs(
        p1_stage1=expectation(source, obs[(1, 1)]),
        p1_stage2=expectation(source, obs[(1, 2)]),
        p2_stage1=expectation(source, obs[(2, 1)]),
        p2_stage2=expectation(source, obs[(2, 2)]),
    )


def play_batch(game: RepGame, t1: RepStrategy, t2: RepStrategy) -> ExpectedPayoffs:
    """Expected payoffs with all ten flips applied before any readout."""
    layer = strategy_qubit_map(1, t1).merge(strategy_qubit_map(2, t2))
    return _expected_from(apply_flips(game.initial, layer), game.stage)


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


def stage1_distributions(first_factor: PureState) -> np.ndarray:
    """Stage-1 chance of a two-qubit factor, as ``chance[k, o]``.

    ``chance[k, o]`` is the weight of outcome o after the stage-1 flips k,
    both read as 2-bit numbers (``2*k1 + k2``, ``2*o1 + o2``).  Flipping
    by k moves the factor's pattern o XOR k to o, so row k is a gather of
    its Born weights.
    """
    patterns = np.arange(4)
    return first_factor.probabilities[patterns[:, None] ^ patterns]


def _measure_stage1(
    game: RepGame, k1: int, k2: int
) -> list[tuple[tuple[int, int], float, PureState]]:
    """Flip qubits 1-2 by (k1, k2) and measure them.

    Returns the ``measure_pair`` branches: outcomes at or below
    ``PROB_FLOOR`` are pruned, the rest carry their post states.
    """
    after_first = apply_flips(game.initial, FlipLayer({1: k1, 2: k2}))
    return measure_pair(after_first, 1, 2)


def _continue(
    post: PureState, outcome: tuple[int, int], a1: int, a2: int
) -> PureState:
    """Apply the stage-2 flips (a1, a2) to the pair reserved for ``outcome``."""
    qubit_a, qubit_b = outcome_qubit_pair(outcome)
    return apply_flips(post, FlipLayer({qubit_a: a1, qubit_b: a2}))


def _stage1_branches(game: RepGame) -> dict[tuple[int, int], list]:
    """``_measure_stage1`` for all four stage-1 flips k, from one measurement.

    Flipping qubits 1-2 by k moves block b of the start (where they spell
    b) to outcome b XOR k, low bits in order: the same probability summed
    in the same order, the same pruning.  So per k the measured branches
    come relabelled, in ``OUTCOMES`` order, with their unflipped post states.
    """
    measured = measure_pair(game.initial, 1, 2)
    return {
        (k1, k2): sorted(
            ((b1 ^ k1, b2 ^ k2), p, post) for (b1, b2), p, post in measured
        )
        for k1 in (0, 1)
        for k2 in (0, 1)
    }


@lru_cache(maxsize=4)
def _continuation_gather(outcome: tuple[int, int]) -> np.ndarray:
    """Basis gather of the four continuations ``_continue`` makes for ``outcome``.

    Row ``2*a1 + a2`` holds ``x XOR m`` at entry ``x``, where ``m`` is the
    mask of the flips (a1, a2), so ``probs[gather]`` are the four flipped
    states' Born weights.  The array is 4x1024 and read-only, since the
    cache hands the same one to every caller.
    """
    qubit_a, qubit_b = outcome_qubit_pair(outcome)
    masks = np.array(
        [
            FlipLayer({qubit_a: a1, qubit_b: a2}).mask(NUM_QUBITS)
            for a1 in (0, 1)
            for a2 in (0, 1)
        ]
    )
    gather = np.arange(2 ** NUM_QUBITS) ^ masks[:, None]
    gather.setflags(write=False)
    return gather


@dataclass(frozen=True)
class PlayTranscript:
    """Full record of one sequential play of a pure profile."""

    stage1_choices: tuple[int, int]
    branches: tuple[OutcomeBranch, ...]
    expected: ExpectedPayoffs

    def __post_init__(self) -> None:
        _check_branch_total(sum(branch.probability for branch in self.branches))

    @property
    def outcome_distribution(self) -> tuple[tuple[tuple[int, int], float], ...]:
        return tuple(
            (branch.outcome, branch.probability)
            for branch in self.branches
            if branch.reachable
        )


def play_sequential(game: RepGame, t1: RepStrategy, t2: RepStrategy) -> PlayTranscript:
    """Play the profile move by move: flip, measure, flip conditionally.

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
        obs = _observables(game.stage)
        stage2 = tuple(
            expectation(final, obs[(player, 2, outcome)]) for player in (1, 2)
        )
        branches.append(
            OutcomeBranch(outcome, probability, choices, awarded, stage2, final)
        )
        members.append((probability, final))
    # Mass pruned at the measurement floor is renormalized away so the
    # ensemble stays valid; for exact-zero branches this is a no-op.
    kept = sum(p for p, _ in members)
    ensemble = Ensemble(tuple((p / kept, state) for p, state in members))
    return PlayTranscript(
        stage1_choices=stage1_choices,
        branches=tuple(branches),
        expected=_expected_from(ensemble, game.stage),
    )


@lru_cache(maxsize=1)
def _strategy_bits() -> tuple[np.ndarray, dict[tuple[int, int], np.ndarray]]:
    """Each strategy's stage-1 bit and its contingency bit per outcome.

    Arrays are indexed like the rows of every 32x32 table and read-only,
    since the cache hands the same ones to every caller.
    """
    strategies = all_strategies()
    stage1 = np.array([t.stage1 for t in strategies])
    after = {
        outcome: np.array([t.after(outcome) for t in strategies])
        for outcome in OUTCOMES
    }
    for bits in (stage1, *after.values()):
        bits.setflags(write=False)
    return stage1, after


@lru_cache(maxsize=1)
def _profile_indices() -> tuple[np.ndarray, dict[tuple[int, int], np.ndarray]]:
    """Per profile, the flip pattern of the qubits each observable reads.

    The stage-1 observable reads qubits 1-2, where profile (row, col)
    flips by the two stage-1 bits: pattern ``2*k1 + k2``.  The stage-2
    piece of outcome o reads qubits 1-2 and o's pair, flipped by the
    stage-1 bits and both players' contingency bits for o: pattern
    ``8*k1 + 4*k2 + 2*a1 + a2``.  Each array is 32x32 and read-only.
    """
    stage1, after = _strategy_bits()
    rows, cols = stage1[:, None], stage1[None, :]
    first = 2 * rows + cols
    second = {
        outcome: 8 * rows + 4 * cols + 2 * bits[:, None] + bits[None, :]
        for outcome, bits in after.items()
    }
    for index in (first, *second.values()):
        index.setflags(write=False)
    return first, second


def rep_component_tables(game: RepGame) -> dict[tuple[int, int], np.ndarray]:
    """All four 32x32 per-stage payoff tables, computed in one sweep.

    Every payoff observable reads few qubits: stage 1 reads qubits 1-2,
    and the stage-2 piece of outcome o reads qubits 1-2 (the gate) and
    the pair reserved for o.  One :func:`~.qstate.flip_table` call per
    observable gives its value under every flip pattern of its qubits,
    from the state's marginal there: a 4-entry stage-1 table and one
    16-entry table per outcome.  A cell is the stage-1 entry its
    profile's pattern picks, plus the stage-2 entries its patterns pick,
    summed over the outcomes in ``OUTCOMES`` order.
    """
    first_index, second_index = _profile_indices()
    weights = stage_weights(game.stage)
    first = flip_table(game.initial, (1, 2), weights)[:, first_index]
    second = 0.0
    for position, outcome in enumerate(OUTCOMES):
        # Zero weight unless qubits 1-2 spell the outcome.
        gated = np.zeros((2, 4, 4))
        gated[:, position] = weights
        piece = flip_table(
            game.initial, (1, 2) + outcome_qubit_pair(outcome), gated.reshape(2, 16)
        )
        second = second + piece[:, second_index[outcome]]
    by_stage = {1: first, 2: second}
    return {
        (player, stage): by_stage[stage][player - 1]
        for player, stage in _COMPONENT_KEYS
    }


def sequential_component_tables(game: RepGame) -> dict[tuple[int, int], np.ndarray]:
    """The four 32x32 per-stage tables of ``play_sequential``, in one pass.

    A sequential play depends on the profile only through the stage-1
    flip pair and, per observed outcome, the continuation flip pair.  So
    one measurement of the start, relabelled per stage-1 flip, and the (at
    most 64) continuations it leads to cover all 1024 profiles.  Flips
    only permute amplitudes, so a continuation's Born weights are the
    measured branch's, gathered; each of its four payoff expectations is
    a 1-D dot product of those weights with the observable
    ``play_sequential`` reads.  A cell is the renormalized branch weights
    times the values its continuation bits pick, summed over the outcomes
    in the order ``play_sequential`` sums its ensemble, so cells equal its
    ``expected`` bit for bit.  Keys and layout match :func:`rep_component_tables`.
    """
    stage1, after = _strategy_bits()
    obs = _observables(game.stage)
    # Stacked (1 x n) @ (n x 1) products go to the dot a 1-D ``w @ p`` uses;
    # (1 x n) @ (n x 4) would go to BLAS gemv, which sums in another order.
    weights = np.stack([obs[key].weights for key in _COMPONENT_KEYS])[None, :, None]
    table = np.empty((32, 32, 4))
    for (k1, k2), branches in _stage1_branches(game).items():
        kept = sum(probability for _, probability, _ in branches)
        _check_branch_total(kept)
        # Every profile with these stage-1 flips ends in this ensemble;
        # building it once runs its checks once.
        ensemble = Ensemble(
            tuple((probability / kept, post) for _, probability, post in branches)
        )
        mask = FlipLayer({1: k1, 2: k2}).mask(NUM_QUBITS)
        rows = np.flatnonzero(stage1 == k1)
        cols = np.flatnonzero(stage1 == k2)
        cells = 0.0
        for (weight, _), (outcome, _, post) in zip(ensemble.members, branches):
            continued = post.probabilities[_continuation_gather(outcome) ^ mask]
            values = (weights @ continued[:, None, :, None]).reshape(2, 2, 4)
            picked = values[after[outcome][rows][:, None], after[outcome][cols]]
            cells = cells + weight * picked
        table[np.ix_(rows, cols)] = cells
    return {key: table[:, :, position] for position, key in enumerate(_COMPONENT_KEYS)}


def rep_bimatrix(game: RepGame) -> Bimatrix:
    """32x32 bimatrix of total payoffs over all pure strategy profiles.

    Rows index player 1's strategies and columns player 2's, both in
    the five-bit encoding order; labels are the bit strings.
    """
    tables = rep_component_tables(game)
    labels = tuple(strat.bits for strat in all_strategies())
    return Bimatrix(
        tables[(1, 1)] + tables[(1, 2)],
        tables[(2, 1)] + tables[(2, 2)],
        labels,
        labels,
    )


def factor_pairs(state: PureState) -> tuple[PureState, ...] | None:
    """Split a register into two-qubit factors, if it is such a product.

    Peels two qubits at a time with a singular value decomposition; the
    state factors at a cut exactly when the second singular value
    vanishes.  Returns the tuple of two-qubit states whose tensor
    product reconstructs the input, or None if any cut is entangled
    beyond ``SUPPORT_TOL``.
    """
    if state.num_qubits % 2 != 0:
        raise ValueError("pair factoring needs an even number of qubits")
    factors = []
    remaining = state.amplitudes
    qubits_left = state.num_qubits
    while qubits_left > 2:
        matrix = remaining.reshape(4, -1)
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
        if s[1] > SUPPORT_TOL:
            return None
        factors.append(PureState(2, u[:, 0]))
        remaining = vh[0, :]
        qubits_left -= 2
    factors.append(PureState(2, remaining))
    return tuple(factors)


def _is_two_term(state: PureState) -> bool:
    """True if only the all-zeros and all-ones basis terms are present."""
    return bool(np.abs(state.amplitudes[1:-1]).max() <= SUPPORT_TOL)


@dataclass(frozen=True)
class TreeNode:
    """One node of the extensive form.

    ``kind`` is "decision", "chance", or "terminal".  Decision nodes
    carry the acting player and an information-set identifier; chance
    nodes carry a probability per child; terminals carry the total
    payoff pair, or None on branches that cannot occur and have no
    defined continuation.  ``reachable`` is False exactly on nodes below
    a probability-zero chance edge.
    """

    node_id: int
    kind: str
    owner: int | None
    info_set: str | None
    actions: tuple[str, ...]
    children: tuple[int, ...]
    probabilities: tuple[float, ...] | None
    payoffs: Payoffs | None
    reachable: bool = True


@dataclass(frozen=True)
class ExtensiveTree:
    """Extensive form of one twice-played game, rooted at ``root``."""

    nodes: tuple[TreeNode, ...]
    root: int

    def __post_init__(self) -> None:
        for node in self.nodes:
            if node.kind == "chance":
                total = sum(node.probabilities)
                if not abs(total - 1.0) <= 1e-9:
                    raise ValueError(
                        f"chance node {node.node_id} probabilities sum to {total!r}"
                    )

    def to_json(self) -> str:
        document = {
            "root": self.root,
            "nodes": [
                {
                    "id": node.node_id,
                    "kind": node.kind,
                    "owner": node.owner,
                    "info_set": node.info_set,
                    "actions": list(node.actions),
                    "children": list(node.children),
                    "probabilities": (
                        None
                        if node.probabilities is None
                        else list(node.probabilities)
                    ),
                    "payoffs": (
                        None if node.payoffs is None else list(node.payoffs)
                    ),
                    "reachable": node.reachable,
                }
                for node in self.nodes
            ],
        }
        return json.dumps(document, indent=2)


def _assemble_tree(stage: StageGame, chance: np.ndarray, stage2) -> ExtensiveTree:
    """Build the fixed-shape tree from a chance table and continuation tables.

    ``chance[k, o]`` is the weight of outcome o after stage-1 flips k, both
    read as 2-bit numbers.  ``stage2[k][o]`` is the continuation after
    them: a (player, ``2*a1 + a2``) table of second-stage payoffs, which
    terminals add to the outcome's own, or None where no continuation is
    defined.  Nodes below a zero chance weight are unreachable.
    Information sets follow what the players observe: stage-1 nodes per
    player form one set each (moves are simultaneous), and second-stage
    nodes group by measurement outcome alone, since the protocol reveals
    the outcome bits and nothing else.
    """
    nodes: list[TreeNode | None] = []

    def reserve() -> int:
        nodes.append(None)
        return len(nodes) - 1

    def decision(
        node_id: int, owner: int, info_set: str, children: list[int], live: bool = True
    ) -> None:
        nodes[node_id] = TreeNode(
            node_id,
            "decision",
            owner,
            info_set,
            _ACTION_LABELS,
            tuple(children),
            None,
            None,
            live,
        )

    root_id = reserve()
    root_children = []
    for k1 in (0, 1):
        second_id = reserve()
        chance_children = []
        for k2 in (0, 1):
            chance_id = reserve()
            weights = chance[2 * k1 + k2].tolist()
            outcome_children = []
            for outcome, weight, table in zip(OUTCOMES, weights, stage2[2 * k1 + k2]):
                base = stage.pair(*outcome)
                live = weight > 0.0
                values = None if table is None else table.T.tolist()
                after = f"after-{outcome[0]}{outcome[1]}"
                first_id = reserve()
                first_children = []
                for a1 in (0, 1):
                    reply_id = reserve()
                    leaves = []
                    for a2 in (0, 1):
                        leaf_id = reserve()
                        payoffs = None
                        if values is not None:
                            second = values[2 * a1 + a2]
                            payoffs = (base[0] + second[0], base[1] + second[1])
                        nodes[leaf_id] = TreeNode(
                            leaf_id, "terminal", None, None, (), (), None, payoffs, live
                        )
                        leaves.append(leaf_id)
                    decision(reply_id, 2, "2:" + after, leaves, live)
                    first_children.append(reply_id)
                decision(first_id, 1, "1:" + after, first_children, live)
                outcome_children.append(first_id)
            nodes[chance_id] = TreeNode(
                chance_id,
                "chance",
                None,
                None,
                _OUTCOME_LABELS,
                tuple(outcome_children),
                tuple(weights),
                None,
            )
            chance_children.append(chance_id)
        decision(second_id, 2, "2:stage1", chance_children)
        root_children.append(second_id)
    decision(root_id, 1, "1:stage1", root_children)
    return ExtensiveTree(tuple(nodes), root_id)  # type: ignore[arg-type]


def _product_tables(
    stage: StageGame, factors: tuple[PureState, ...]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Chance and per-outcome continuation tables of a pair-product start.

    Outcome o's continuation is the one-stage game on its own pair
    factor, so one table serves after every stage-1 flip and is defined
    even where o has weight zero.
    """
    weights = stage_weights(stage)
    continuations = [flip_table(f, (1, 2), weights) for f in factors[1:]]
    return stage1_distributions(factors[0]), continuations


def build_extensive(game: RepGame) -> ExtensiveTree:
    """Extensive form with chance nodes for the measurement.

    Supported initial states are products across the five qubit pairs
    (each outcome then heads a well-defined subgame, present in the tree
    even off the equilibrium path) and two-term superpositions of
    all-zeros with all-ones (whose trees have genuinely random chance
    nodes; outcomes ruled out by the superposition are kept as
    unreachable branches without payoffs).  Anything else is rejected:
    entanglement across qubit pairs gives the second stage no
    self-contained continuation to put at a node.

    Both kinds fill the chance table and continuation tables that
    :func:`_assemble_tree` reads.  A pair product reads them off its
    factors.  A two-term start reads them off its measured branches: each
    post state lives where qubits 1-2 spell its outcome, so one
    ``flip_table`` call on the outcome's pair gives its stage-2 payoffs
    under all four flips (stage-1 flips leave that marginal alone), and
    pruned outcomes keep weight 0.0 and no continuation.
    """
    factors = factor_pairs(game.initial)
    if factors is not None:
        chance, continuations = _product_tables(game.stage, factors)
        return _assemble_tree(game.stage, chance, [continuations] * 4)
    if not _is_two_term(game.initial):
        raise ValueError(
            "extensive form is defined only for pair-product initial states "
            "or two-term all-zeros/all-ones superpositions"
        )
    weights = stage_weights(game.stage)
    chance = np.zeros((4, 4))
    stage2: list[list[np.ndarray | None]] = [[None] * 4 for _ in range(4)]
    for (k1, k2), branches in _stage1_branches(game).items():
        for outcome, probability, post in branches:
            k, o = 2 * k1 + k2, 2 * outcome[0] + outcome[1]
            chance[k, o] = probability
            stage2[k][o] = flip_table(post, outcome_qubit_pair(outcome), weights)
    return _assemble_tree(game.stage, chance, stage2)
