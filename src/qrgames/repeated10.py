"""Ten-qubit register protocol for the twice-played 2x2 game.

Player 1 acts on the odd qubits and player 2 on the even ones.  Qubits
1-2 carry the first stage; each later pair (3,4), (5,6), (7,8), (9,10)
is reserved for the second stage following one particular first-stage
outcome, so a pure strategy is five bits: the stage-1 flip plus one
contingent flip per outcome.  The dense checks of its tables are in :mod:`.reference`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mw import _XOR_PATTERNS, pair_table
from .qstate import OUTCOMES, PROB_FLOOR, PureState, sum_in_order
# The name perfbench/metrics.py traces; ROADMAP item 14 retargets it and drops this.
from .reference import play_sequential
from .stagegames import STRATEGY_LABELS, Bimatrix, Payoffs, StageGame, payoff_bound

NUM_QUBITS = 10
_ACTION_LABELS = ("0", "1")
_OUTCOME_LABELS = tuple(f"{o[0]}{o[1]}" for o in OUTCOMES)
# (player, stage) keys of the component tables, in ExpectedPayoffs order.
_COMPONENT_KEYS = ((1, 1), (1, 2), (2, 1), (2, 2))
# The five-bit strategy encoding, indexed like the rows of every 32x32
# table: bit 4 is the stage-1 flip, bit ``3 - o`` the flip after outcome o.
_STAGE1_SHIFT = 4
_AFTER_SHIFTS = 3 - np.arange(4)[:, None]


def strategy_index(stage1: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Five-bit strategy indices of stage-1 flips and the flips ``after[o]`` after o."""
    return (stage1 << _STAGE1_SHIFT) + (after << _AFTER_SHIFTS).sum(axis=0)


_STAGE1_BITS = np.arange(32) >> _STAGE1_SHIFT
_AFTER_BITS = (np.arange(32) >> _AFTER_SHIFTS) & 1
# Per profile, the flips of the pairs a payoff reads: ``k = 2*k1 + k2`` on
# qubits 1-2, and ``4*k + 2*a1 + a2`` with a = (a1, a2) on outcome o's pair.
_FIRST_PATTERN = 2 * _STAGE1_BITS[:, None] + _STAGE1_BITS
_SECOND_PATTERN = 4 * _FIRST_PATTERN + 2 * _AFTER_BITS[..., None] + _AFTER_BITS[:, None]
for _bits in (_STAGE1_BITS, _AFTER_BITS, _FIRST_PATTERN, _SECOND_PATTERN):
    _bits.setflags(write=False)
# Second singular value read as zero when ``factor_pairs`` peels a cut.
SUPPORT_TOL = 1e-9
# Per outcome o, the pair axes its joint marginal with qubits 1-2 sums away.
_OTHER_PAIRS = tuple(tuple(a for a in range(1, 5) if a != o + 1) for o in range(4))


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


def _pair_marginals(start: PureState) -> tuple[np.ndarray, np.ndarray]:
    """A ten-qubit start's Born weights, read with one axis per qubit pair.

    Returns ``blocks[b]``, the weight of block b (qubits 1-2 spelling b),
    and ``joint[o, b, z]``, the joint marginal of block b and pattern z
    of outcome o's pair: four reshape-sums of the ``(4,) * 5`` view.
    """
    born = start.probabilities.reshape((4,) * 5)
    blocks = born.reshape(4, -1).sum(axis=1)
    joint = np.stack([born.sum(axis=others) for others in _OTHER_PAIRS])
    return blocks, joint


def rep_component_tables(game: RepGame) -> dict[tuple[int, int], np.ndarray]:
    """All four 32x32 per-stage payoff tables, computed in one sweep.

    Every payoff reads one qubit pair: stage 1 reads qubits 1-2, and
    stage 2 after outcome o reads o's pair, on the block that the
    stage-1 flips k move to o, block ``o ^ k`` of the start.  So the
    stage-1 table is :func:`~.mw.pair_table` on the block weights, and
    outcome o's (player, ``4*k + a``) table is ``pair_table`` on the
    joint marginal of block ``o ^ k`` and o's pair (:func:`_pair_marginals`),
    with a the stage-2 flips.  A cell is the stage-1 entry its profile's
    flips pick, plus the stage-2 entries they pick, summed over the
    outcomes in ``OUTCOMES`` order.  Each pick is one ``np.take`` of a
    (player, flips) table through a 32x32 index, which copies the same
    entries as a fancy index, faster.
    """
    table = pair_table(game.stage)
    blocks, joint = _pair_marginals(game.initial)
    first = np.take(table @ blocks, _FIRST_PATTERN, axis=1)
    # continued[o, k]: the (player, a) table of outcome o after flips k,
    # read on block o ^ k.
    reached = joint[np.arange(4)[:, None], _XOR_PATTERNS]
    continued = (table @ reached[..., None, :, None])[..., 0]
    pieces = continued.transpose(0, 2, 1, 3).reshape(4, 2, 16)
    picks = zip(pieces, _SECOND_PATTERN)
    second = sum_in_order(np.take(piece, pattern, axis=1) for piece, pattern in picks)
    by_stage = {1: first, 2: second}
    return {
        (player, stage): by_stage[stage][player - 1]
        for player, stage in _COMPONENT_KEYS
    }


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

    @classmethod
    def _terminal(
        cls, node_id: int, payoffs: Payoffs | None, reachable: bool
    ) -> "TreeNode":
        """``TreeNode(node_id, "terminal", None, None, (), (), None, payoffs,
        reachable)``, filled into the instance ``__dict__`` without the frozen
        ``__init__`` and its nine ``object.__setattr__`` calls.  The class
        has no ``__post_init__``, so the shortcut skips no check; the node is
        as frozen, equal and hashable as one built the usual way.
        """
        node = object.__new__(cls)
        node.__dict__.update(
            node_id=node_id,
            kind="terminal",
            owner=None,
            info_set=None,
            actions=(),
            children=(),
            probabilities=None,
            payoffs=payoffs,
            reachable=reachable,
        )
        return node


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
# ``_HEAD_IDS[k][o]``: the id of outcome o's subtree below chance node k.
_HEAD_IDS = tuple(tuple(c + 1 + 7 * o for o in range(4)) for c in _CHANCE_IDS)
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
        for heads in _HEAD_IDS:
            for first, (o1, o2) in zip(heads, OUTCOMES):
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
    payoffs are built here, the terminals by :meth:`TreeNode._terminal`;
    every other node is :func:`_tree_skeleton`'s.
    """
    terminal = TreeNode._terminal
    unreachable, reachable = _tree_skeleton()
    nodes = list(reachable)
    # Python floats add as float64 arrays do, so the totals keep their bits.
    outcome_payoffs = [pair for row in stage.outcomes for pair in row]
    for chance_id, heads, weights, tables in zip(
        _CHANCE_IDS, _HEAD_IDS, chance.tolist(), stage2
    ):
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
        for first, weight, table, (own1, own2) in zip(
            heads, weights, tables, outcome_payoffs
        ):
            live = weight > 0.0
            if not live:
                nodes[first : first + 7] = unreachable[first : first + 7]
            if table is None:
                continue
            for offset, u1, u2 in zip(_LEAF_OFFSETS, *table.tolist()):
                leaf_id = first + offset
                nodes[leaf_id] = terminal(leaf_id, (own1 + u1, own2 + u2), live)
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
    ``k ^ o``'s weight, and ``stage1`` the (player, k) table
    :func:`~.mw.pair_table` forms on the blocks.  Outcome o from block b
    continues with the joint marginal of block b and o's pair over b's
    weight (:func:`_pair_marginals`): a (player, ``2*a1 + a2``) table
    under ``pair_table``.  o heads a self-contained subgame
    (``subgames[o]``) when the spread ``gaps[o]`` of its continuations
    over the kept blocks is at most ``bound = payoff_bound(stage)``;
    rounding leaves spreads near 1e-15 on products.  ``stage2[k][o]``
    is then the first kept block's continuation for every k, on and off
    the path; otherwise block ``k ^ o``'s, or None where it is pruned.
    """
    blocks, joint = _pair_marginals(game.initial)
    blocks[blocks <= PROB_FLOOR] = 0.0
    kept = np.flatnonzero(blocks)
    table = pair_table(game.stage)
    conditional = joint[:, kept] / blocks[kept, None]
    # values[o, i]: the continuation of outcome o from block kept[i].
    values = (table @ conditional[..., None, :, None])[..., 0]
    gaps = (values.max(axis=1) - values.min(axis=1)).max(axis=(1, 2))
    bound = payoff_bound(game.stage)
    subgames = tuple((gaps <= bound).tolist())
    reached = [dict(zip(kept.tolist(), rows)) for rows in values]
    stage2 = tuple(
        tuple(values[o, 0] if subgames[o] else reached[o].get(k ^ o) for o in range(4))
        for k in range(4)
    )
    chance, stage1 = blocks[_XOR_PATTERNS], table @ blocks
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
