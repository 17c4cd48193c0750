"""Ten-qubit register protocol for the twice-played 2x2 game.

Player 1 acts on the odd qubits and player 2 on the even ones.  Qubits
1-2 carry the first stage; each later pair (3,4), (5,6), (7,8), (9,10)
is reserved for the second stage following one particular first-stage
outcome, so a pure strategy is five bits: the stage-1 flip plus one
contingent flip per outcome.

Two evaluation paths are provided.  The batch path applies all ten
flips up front and reads one dense payoff observable per player and
stage off the final state.  The sequential path plays the game in real
time: flip the first pair, measure it, then flip only the pair matching
the observed outcome.  Both yield identical expected payoffs on every
initial state, entangled or not, and the tests exercise that
equivalence heavily.  The sequential path has a per-profile form
(``play_sequential``, with its transcript) and a whole-table form
(``sequential_component_tables``) that shares each stage-1 measurement
across all profiles using it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mw import _expected_from, payoff_observable, stage_weights
from .qstate import (
    OUTCOMES,
    PROB_FLOOR,
    DiagonalObservable,
    Ensemble,
    FlipLayer,
    PureState,
    _xor_patterns,
    apply_flips,
    expectation,
    flip_table,
    measure_pair,
    sum_in_order,
)
from .stagegames import (
    STRATEGY_LABELS,
    Bimatrix,
    ExpectedPayoffs,
    Payoffs,
    RepStrategy,
    StageGame,
    payoff_scale,
)

NUM_QUBITS = 10
# Basis states per value of qubits 1-2: the block a stage-1 outcome keeps.
_BLOCK = 2 ** (NUM_QUBITS - 2)
_ACTION_LABELS = ("0", "1")
_OUTCOME_LABELS = tuple(f"{o[0]}{o[1]}" for o in OUTCOMES)
# (player, stage) keys of the component tables, in ExpectedPayoffs order.
_COMPONENT_KEYS = ((1, 1), (1, 2), (2, 1), (2, 2))
# The five-bit strategy encoding, indexed like the rows of every 32x32
# table: bit 4 is the stage-1 flip, bit ``3 - o`` the flip after outcome o.
_STAGE1_BITS = np.arange(32) >> 4
_AFTER_BITS = (np.arange(32) >> (3 - np.arange(4))[:, None]) & 1
# Per profile, the flip pattern of the qubits a payoff reads: ``2*k1 + k2``
# on qubits 1-2, and ``4*(2*k1 + k2) + 2*a1 + a2`` with outcome o's pair.
_FIRST_PATTERN = 2 * _STAGE1_BITS[:, None] + _STAGE1_BITS
_SECOND_PATTERN = 4 * _FIRST_PATTERN + 2 * _AFTER_BITS[..., None] + _AFTER_BITS[:, None]
# Per outcome o and profile, the row ``16*o + 4*k + a`` of the sequential
# continuation values it reads (the layout of ``_sequential_gather``).
_CONTINUATION_ROW = 16 * np.arange(4)[:, None, None] + _SECOND_PATTERN
for _bits in (
    _STAGE1_BITS, _AFTER_BITS, _FIRST_PATTERN, _SECOND_PATTERN, _CONTINUATION_ROW
):
    _bits.setflags(write=False)
# Second singular value read as zero when ``factor_pairs`` peels a cut.
SUPPORT_TOL = 1e-9
# Largest spread of an outcome's continuations, in units of payoff_scale,
# read as one subgame; rounding leaves spreads near 1e-15 on products.
SUBGAME_TOL = 1e-9
# Per outcome o, the pair axes its joint marginal with qubits 1-2 sums away.
_OTHER_PAIRS = tuple(tuple(a for a in range(1, 5) if a != o + 1) for o in range(4))


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


def _observables(stage: StageGame) -> tuple[DiagonalObservable, ...]:
    """The four payoff observables of one stage game, in ExpectedPayoffs order.

    The stage-1 observable reads qubits 1-2.  The stage-2 observable reads
    the pair reserved for the outcome that qubits 1-2 spell: at basis
    index x that is outcome ``x >> 8``, read as a 2-bit number.
    """
    # -0.0 == 0.0, so a cache keyed on the StageGame would hand a stage
    # the weights of an equal one cached first, with other signed zeros.
    return _observables_of(np.array(stage.outcomes).tobytes())


# Each entry holds 32 KB of dense weights.  Sixteen games cover the
# four stage games of a benchmark pool, so those never evict.
@lru_cache(maxsize=16)
def _observables_of(payoffs: bytes) -> tuple[DiagonalObservable, ...]:
    """``_observables`` of the stage whose ``outcomes`` array has these bytes."""
    stage = StageGame(np.frombuffer(payoffs).reshape(2, 2, 2).tolist())
    outcome = np.arange(2 ** NUM_QUBITS) >> (NUM_QUBITS - 2)
    observables = []
    for player in (1, 2):
        observables.append(payoff_observable(stage, player, NUM_QUBITS, (1, 2)))
        pieces = [
            payoff_observable(stage, player, NUM_QUBITS, outcome_qubit_pair(o)).weights
            for o in OUTCOMES
        ]
        observables.append(DiagonalObservable(NUM_QUBITS, np.choose(outcome, pieces)))
    return tuple(observables)


def play_batch(game: RepGame, t1: RepStrategy, t2: RepStrategy) -> ExpectedPayoffs:
    """Expected payoffs with all ten flips applied before any readout."""
    layer = strategy_qubit_map(1, t1).merge(strategy_qubit_map(2, t2))
    return _expected_from(apply_flips(game.initial, layer), _observables(game.stage))


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


def _stage1_chance(game: RepGame) -> tuple[np.ndarray, list[PureState | None]]:
    """``_measure_stage1`` for all four stage-1 flips k, from one measurement.

    Flipping qubits 1-2 by k moves block b of the start (where they spell
    b) to outcome b XOR k, low bits in order: the same probability summed
    in the same order, the same pruning.  So ``chance[k, o]`` is block
    ``k ^ o``'s measured weight, 0.0 where the block was pruned, and
    ``posts[b]`` is block b's unflipped post state, None where pruned.
    """
    block_weights = np.zeros(4)
    posts: list[PureState | None] = [None] * 4
    for (b1, b2), probability, post in measure_pair(game.initial, 1, 2):
        block_weights[2 * b1 + b2] = probability
        posts[2 * b1 + b2] = post
    return block_weights[_xor_patterns(4)], posts


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
    ``low ^ (a << (6 - 2*o))``.  The array is 64x256 and read-only, since
    the cache hands the same one to every caller, and built on first use,
    so only the sequential path holds its 128 KB.
    """
    o, k, a = np.ogrid[:4, :4, :4]
    low = np.arange(_BLOCK)
    block = (o ^ k)[..., None] * _BLOCK
    gather = (block + (low ^ (a << (6 - 2 * o))[..., None])).reshape(64, _BLOCK)
    gather.setflags(write=False)
    return gather


def _continuations(posts: list[PureState | None]) -> np.ndarray:
    """The Born weights of all 64 continuations, in ``_sequential_gather`` rows.

    ``posts[b]`` is block b's measured post state, None where pruned (its
    block reads as zeros).  The 16 rows of outcome o are zero outside
    block o and hold the gathered block there.
    """
    blocks = np.zeros((4, _BLOCK))
    for b, post in enumerate(posts):
        if post is not None:
            blocks[b] = post.probabilities[b * _BLOCK : (b + 1) * _BLOCK]
    gathered = blocks.ravel()[_sequential_gather()].reshape(4, 16, _BLOCK)
    continued = np.zeros((4, 16, 4, _BLOCK))
    for o in range(4):
        continued[o, :, o] = gathered[o]
    return continued.reshape(64, 2 ** NUM_QUBITS)


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
        # The post state is zero outside the outcome's block, so the whole
        # stage-2 observables read only the outcome's pair.
        stage2 = tuple(
            expectation(final, obs) for obs in _observables(game.stage)[1::2]
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


def rep_component_tables(game: RepGame) -> dict[tuple[int, int], np.ndarray]:
    """All four 32x32 per-stage payoff tables, computed in one sweep.

    Every payoff observable reads few qubits: stage 1 reads qubits 1-2,
    and the stage-2 piece of outcome o reads qubits 1-2 (the gate) and
    the pair reserved for o.  One :func:`~.qstate.flip_table` call per
    observable gives its value under every flip pattern of its qubits,
    from the state's marginal there: a 4-entry stage-1 table and one
    16-entry table per outcome.  A cell is the stage-1 entry its
    profile's pattern picks, plus the stage-2 entries its patterns pick,
    summed over the outcomes in ``OUTCOMES`` order.  Each pick is one
    ``np.take`` of a (player, pattern) table through a 32x32 pattern
    index, which copies the same entries as a fancy index, faster.
    """
    weights = stage_weights(game.stage)
    first = np.take(flip_table(game.initial, (1, 2), weights), _FIRST_PATTERN, axis=1)
    second = 0.0
    for position, outcome in enumerate(OUTCOMES):
        # Zero weight unless qubits 1-2 spell the outcome.
        gated = np.zeros((2, 4, 4))
        gated[:, position] = weights
        piece = flip_table(
            game.initial, (1, 2) + outcome_qubit_pair(outcome), gated.reshape(2, 16)
        )
        second = second + np.take(piece, _SECOND_PATTERN[position], axis=1)
    by_stage = {1: first, 2: second}
    return {
        (player, stage): by_stage[stage][player - 1]
        for player, stage in _COMPONENT_KEYS
    }


def sequential_component_tables(game: RepGame) -> dict[tuple[int, int], np.ndarray]:
    """The four 32x32 per-stage tables of ``play_sequential``, in one pass.

    A sequential play depends on the profile only through the stage-1
    flip pair k and, per observed outcome o, the continuation flip pair
    a.  One measurement of the unflipped start gives every stage-1
    measurement: flipping by k sends block b to outcome b XOR k.  Flips
    only permute amplitudes, so the 64 continuations' Born weights are
    one gather of the four measured blocks' weights (pruned blocks read
    as zeros) into zero registers (:func:`_continuations`), and their
    256 payoff values are one stacked call of 1-D dot products over all
    1024 entries with the observables ``play_sequential`` reads.  Each
    value is scaled by its renormalized branch weight, one ``np.take``
    picks every cell's row per outcome, and the picks are summed from 0.0
    in ``OUTCOMES`` order: the products and the sum ``play_sequential``
    forms for its ``expected``, so cells equal it bit for bit.  A pruned
    branch adds a zero, which leaves a sum started from 0.0 unchanged.
    Keys and layout match :func:`rep_component_tables`.
    """
    # Stacked (1 x n) @ (n x 1) products go to the dot a 1-D ``w @ p`` uses;
    # (1 x n) @ (n x 4) would go to BLAS gemv, which sums in another order.
    weights = np.stack([obs.weights for obs in _observables(game.stage)])[None, :, None]
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
    continued = _continuations(posts)
    values = (weights @ continued[:, None, :, None]).reshape(16, 4, 4)
    weighted = (values * renormalized.T.reshape(16, 1, 1)).reshape(64, 4)
    picked = np.take(weighted, _CONTINUATION_ROW, axis=0)
    table = 0.0
    for outcome_picks in picked:
        table = table + outcome_picks
    return {key: table[:, :, position] for position, key in enumerate(_COMPONENT_KEYS)}


def rep_bimatrix(game: RepGame) -> Bimatrix:
    """32x32 bimatrix of total payoffs over all pure strategy profiles.

    Rows index player 1's strategies and columns player 2's, both in
    the five-bit encoding order; labels are the bit strings.
    """
    tables = rep_component_tables(game)
    return Bimatrix(
        tables[(1, 1)] + tables[(1, 2)],
        tables[(2, 1)] + tables[(2, 2)],
        STRATEGY_LABELS,
        STRATEGY_LABELS,
    )


class NotPairProductError(ValueError):
    """A start after which some outcome heads no self-contained subgame."""


def factor_pairs(state: PureState) -> tuple[PureState, ...] | None:
    """The two-qubit factors whose tensor product reconstructs the register,
    or None if it is entangled across its qubit pairs.

    Peels two qubits at a time with a singular value decomposition; the
    state factors at a cut exactly when the second singular value
    vanishes, up to ``SUPPORT_TOL``.  No table builder reads this.
    """
    if state.num_qubits % 2 != 0:
        raise ValueError("pair factoring needs an even number of qubits")
    factors = []
    remaining = state.amplitudes
    for _ in range(state.num_qubits // 2 - 1):
        u, s, vh = np.linalg.svd(remaining.reshape(4, -1), full_matrices=False)
        if s[1] > SUPPORT_TOL:
            return None
        factors.append(PureState(2, u[:, 0]))
        remaining = vh[0, :]
    factors.append(PureState(2, remaining))
    return tuple(factors)


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


# Ids of the chance nodes after the stage-1 flips k (a 2-bit number).  Ids
# run depth first: the root is 0, and player 2's stage-1 node after player
# 1's flip k1 sits just before the chance node of k = 2*k1 (ids 1 and 60).
# Each chance node is followed by the seven-node subtrees of its outcomes,
# outcome o's from ``_CHANCE_IDS[k] + 1 + 7*o``: player 1's decision, then
# per a1 player 2's reply and its two terminals.
_CHANCE_IDS = (2, 31, 61, 90)
# Offsets of the terminals in a subtree, in ``2*a1 + a2`` order.
_LEAF_OFFSETS = (2, 3, 5, 6)


@lru_cache(maxsize=1)
def _tree_skeleton() -> tuple[tuple[TreeNode | None, ...], ...]:
    """The fixed tree shape, built on first use and shared by every tree.

    Two tuples of the 119 nodes by id, indexed by ``reachable``: both hold
    the same three stage-1 decision nodes and None at the chance nodes,
    and below those every node has that ``reachable``, terminals without
    payoffs.  Information sets follow what the players observe: stage-1
    nodes per player form one set each (moves are simultaneous), and
    second-stage nodes group by measurement outcome alone, since the
    protocol reveals the outcome bits and nothing else.  The nodes are
    immutable, so trees hold the same objects.
    """

    def decision(
        node_id: int, owner: int, info_set: str, children, live: bool = True
    ) -> TreeNode:
        return TreeNode(
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

    seconds = (_CHANCE_IDS[0] - 1, _CHANCE_IDS[2] - 1)
    stage1 = [decision(0, 1, "1:stage1", seconds)] + [
        decision(second, 2, "2:stage1", _CHANCE_IDS[2 * k1 : 2 * k1 + 2])
        for k1, second in enumerate(seconds)
    ]
    variants = []
    for live in (False, True):
        nodes: list[TreeNode | None] = [None] * 119
        for node in stage1:
            nodes[node.node_id] = node
        for chance_id in _CHANCE_IDS:
            for o, (o1, o2) in enumerate(OUTCOMES):
                first = chance_id + 1 + 7 * o
                after = f"after-{o1}{o2}"
                replies = (first + 1, first + 4)
                nodes[first] = decision(first, 1, "1:" + after, replies, live)
                for reply in replies:
                    leaves = (reply + 1, reply + 2)
                    nodes[reply] = decision(reply, 2, "2:" + after, leaves, live)
                    for leaf in leaves:
                        nodes[leaf] = TreeNode(
                            leaf, "terminal", None, None, (), (), None, None, live
                        )
        variants.append(tuple(nodes))
    return tuple(variants)


def _assemble_tree(stage: StageGame, chance: np.ndarray, stage2) -> ExtensiveTree:
    """Fill the fixed tree shape from the ``chance`` and ``stage2`` tables
    of :func:`start_tables`; terminals add a continuation to the outcome's
    own payoffs.  Nodes below a zero chance weight are the skeleton's
    unreachable ones.  Only the four chance nodes and the terminals with
    payoffs are built here; every other node is :func:`_tree_skeleton`'s.
    """
    unreachable, reachable = _tree_skeleton()
    nodes = list(reachable)
    outcome_payoffs = np.array(stage.outcomes).reshape(4, 2, 1)
    for chance_id, weights, tables in zip(_CHANCE_IDS, chance.tolist(), stage2):
        heads = tuple(chance_id + 1 + 7 * o for o in range(4))
        nodes[chance_id] = TreeNode(
            chance_id,
            "chance",
            None,
            None,
            _OUTCOME_LABELS,
            heads,
            tuple(weights),
            None,
        )
        for first, weight, table, own in zip(heads, weights, tables, outcome_payoffs):
            live = weight > 0.0
            if not live:
                nodes[first : first + 7] = unreachable[first : first + 7]
            if table is None:
                continue
            totals = (own + table).T.tolist()
            for offset, payoffs in zip(_LEAF_OFFSETS, totals):
                leaf_id = first + offset
                nodes[leaf_id] = TreeNode(
                    leaf_id, "terminal", None, None, (), (), None, tuple(payoffs), live
                )
    return ExtensiveTree(tuple(nodes), 0)


@dataclass(frozen=True)
class StartTables:
    """The tables :func:`start_tables` reads off a start."""

    chance: np.ndarray
    stage1: np.ndarray
    stage2: tuple[tuple[np.ndarray | None, ...], ...]
    gaps: tuple[float, ...]
    subgames: tuple[bool, ...]
    bound: float


def start_tables(game: RepGame) -> StartTables:
    """What the tree and the subgame search read, from Born weights alone
    (flips permute amplitudes and payoffs are diagonal).

    Indexed ``(4,) * 5``, one axis per qubit pair, block b (qubits 1-2
    spelling b) weighs its 256-entry sum, pruned at ``PROB_FLOOR`` as
    :func:`~.qstate.measure_pair` prunes.  ``chance[k, o]`` is block
    ``k ^ o``'s weight, and ``stage1`` the (player, k) table ``flip_table``
    forms on the blocks.  Outcome o from block b continues with the joint
    marginal of block b and o's pair over b's weight: a (player, ``2*a1 +
    a2``) table under ``stage_weights[..., xor]``, four reshape-sums in
    all.  o heads a self-contained subgame (``subgames[o]``) when the
    spread ``gaps[o]`` of its continuations over the kept blocks is at
    most ``bound = SUBGAME_TOL * payoff_scale(stage)``.  ``stage2[k][o]``
    is then the first kept block's continuation for every k, on and off
    the path; otherwise block ``k ^ o``'s, or None where it is pruned.
    """
    born = game.initial.probabilities.reshape((4,) * 5)
    blocks = born.reshape(4, -1).sum(axis=1)
    blocks[blocks <= PROB_FLOOR] = 0.0
    kept = np.flatnonzero(blocks)
    table = stage_weights(game.stage)[..., _xor_patterns(4)]
    joint = np.stack([born.sum(axis=others) for others in _OTHER_PAIRS])
    conditional = joint[:, kept] / blocks[kept, None]
    # values[o, i]: the continuation of outcome o from block kept[i].
    values = (table @ conditional[..., None, :, None])[..., 0]
    gaps = (values.max(axis=1) - values.min(axis=1)).max(axis=(1, 2))
    bound = SUBGAME_TOL * payoff_scale(game.stage)
    subgames = tuple((gaps <= bound).tolist())
    reached = [dict(zip(kept.tolist(), rows)) for rows in values]
    stage2 = tuple(
        tuple(values[o, 0] if subgames[o] else reached[o].get(k ^ o) for o in range(4))
        for k in range(4)
    )
    chance, stage1 = blocks[_xor_patterns(4)], table @ blocks
    return StartTables(chance, stage1, stage2, tuple(gaps.tolist()), subgames, bound)


def build_extensive(game: RepGame) -> ExtensiveTree:
    """Extensive form with chance nodes for the measurement, for any start.

    Reads :func:`start_tables`: nodes below a pruned block's 0.0 chance
    weight are unreachable.  An outcome that heads a subgame has it after
    every stage-1 flip, so off-path terminals carry payoffs too; otherwise
    (a GHZ-like start) only the reached branches do.
    """
    tables = start_tables(game)
    return _assemble_tree(game.stage, tables.chance, tables.stage2)
