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

from .mw import MWGame, mw_bimatrix, payoff_observable, stage_weights
from .qstate import (
    NORM_ATOL,
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
# (player, stage) keys of the component tables, in ExpectedPayoffs order.
_COMPONENT_KEYS = ((1, 1), (1, 2), (2, 1), (2, 2))


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
class MixedRepStrategy:
    """Probability mixture over the 32 pure repeated-game strategies."""

    support: tuple[tuple[float, RepStrategy], ...]

    def __post_init__(self) -> None:
        support = tuple((float(p), strat) for p, strat in self.support)
        if not support:
            raise ValueError("mixed strategy needs a nonempty support")
        if any(p < 0 for p, _ in support):
            raise ValueError("mixture probabilities must be nonnegative")
        total = sum(p for p, _ in support)
        if not abs(total - 1.0) <= NORM_ATOL:
            raise ValueError(f"mixture probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "support", support)

    @classmethod
    def pure(cls, strat: RepStrategy) -> "MixedRepStrategy":
        return cls(((1.0, strat),))


def mixed_payoffs(
    game: RepGame,
    m1: MixedRepStrategy | RepStrategy,
    m2: MixedRepStrategy | RepStrategy,
) -> ExpectedPayoffs:
    """Expected payoffs under independently mixed strategies.

    Payoffs are linear in each player's mixture, so the value is the
    convex combination of the pure-profile results; no ensemble state
    is materialized.
    """
    if isinstance(m1, RepStrategy):
        m1 = MixedRepStrategy.pure(m1)
    if isinstance(m2, RepStrategy):
        m2 = MixedRepStrategy.pure(m2)
    acc = np.zeros(4)
    for p, t1 in m1.support:
        for q, t2 in m2.support:
            acc += (p * q) * play_batch(game, t1, t2).as_array()
    return ExpectedPayoffs(*acc)


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


def stage1_distributions(
    first_factor: PureState,
) -> dict[tuple[int, int], dict[tuple[int, int], float]]:
    """Outcome weights of a two-qubit stage-1 factor per flip pair (k1, k2)."""
    distributions = {}
    for k1 in (0, 1):
        for k2 in (0, 1):
            flipped = apply_flips(first_factor, FlipLayer({1: k1, 2: k2}))
            weights = flipped.probabilities.tolist()
            distributions[(k1, k2)] = {o: weights[2 * o[0] + o[1]] for o in OUTCOMES}
    return distributions


def subgame_bimatrices(
    factors: tuple[PureState, ...], stage: StageGame
) -> dict[tuple[int, int], Bimatrix]:
    """Each outcome's one-stage game, on the pair factor reserved for it."""
    return {o: mw_bimatrix(MWGame(f, stage)) for o, f in zip(OUTCOMES, factors[1:])}


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
    the four stage-1 measurements and the (at most 64) continuation
    states they lead to cover all 1024 profiles: each continuation's
    four payoff expectations are read once, and a cell is the
    renormalized branch weights times the values its continuation bits
    pick, summed over the outcomes in the order ``play_sequential``
    sums its ensemble, so cells equal its ``expected`` bit for bit.
    Keys and layout match :func:`rep_component_tables`.
    """
    stage1, after = _strategy_bits()
    table = np.empty((32, 32, 4))
    for k1 in (0, 1):
        for k2 in (0, 1):
            branches = _measure_stage1(game, k1, k2)
            kept = sum(probability for _, probability, _ in branches)
            _check_branch_total(kept)
            # Every profile with these stage-1 flips ends in an ensemble
            # with these weights; building it once runs the ensemble's
            # checks once.
            ensemble = Ensemble(
                tuple((probability / kept, post) for _, probability, post in branches)
            )
            rows = np.flatnonzero(stage1 == k1)
            cols = np.flatnonzero(stage1 == k2)
            cells = 0.0
            for (weight, _), (outcome, _, post) in zip(ensemble.members, branches):
                values = np.array(
                    [
                        [
                            _expected_from(
                                _continue(post, outcome, a1, a2), game.stage
                            ).as_array()
                            for a2 in (0, 1)
                        ]
                        for a1 in (0, 1)
                    ]
                )
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


def factor_pairs(
    state: PureState, tol: float = 1e-9
) -> tuple[PureState, ...] | None:
    """Split a register into two-qubit factors, if it is such a product.

    Peels two qubits at a time with a singular value decomposition; the
    state factors at a cut exactly when the second singular value
    vanishes.  Returns the tuple of two-qubit states whose tensor
    product reconstructs the input, or None if any cut is entangled
    beyond ``tol``.
    """
    if state.num_qubits % 2 != 0:
        raise ValueError("pair factoring needs an even number of qubits")
    factors = []
    remaining = state.amplitudes
    qubits_left = state.num_qubits
    while qubits_left > 2:
        matrix = remaining.reshape(4, -1)
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
        if s[1] > tol:
            return None
        factors.append(PureState(2, u[:, 0]))
        remaining = vh[0, :]
        qubits_left -= 2
    factors.append(PureState(2, remaining))
    return tuple(factors)


def two_term_amplitudes(
    state: PureState, tol: float = 1e-9
) -> tuple[complex, complex] | None:
    """(amp_all_zero, amp_all_one) if only those basis terms are present."""
    amps = state.amplitudes
    if amps.shape[0] > 2 and np.abs(amps[1:-1]).max() > tol:
        return None
    return (complex(amps[0]), complex(amps[-1]))


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

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

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


def _assemble_tree(stage: StageGame, distributions, stage2_fn) -> ExtensiveTree:
    """Build the fixed-shape tree from chance weights and stage-2 payoffs.

    ``distributions[(k1, k2)]`` is the outcome distribution after stage-1
    flips (k1, k2); ``stage2_fn(k1, k2, outcome, a1, a2)`` gives the
    second-stage payoffs, which terminals add to the outcome's own, or
    None where no continuation is defined.
    Information sets follow what the players observe: stage-1 nodes per
    player form one set each (moves are simultaneous), and second-stage
    nodes group by measurement outcome alone, since the protocol reveals
    the outcome bits and nothing else.
    """
    nodes: list[TreeNode | None] = []

    def reserve() -> int:
        nodes.append(None)
        return len(nodes) - 1

    root_id = reserve()
    root_children = []
    for k1 in (0, 1):
        second_id = reserve()
        chance_children = []
        for k2 in (0, 1):
            chance_id = reserve()
            distribution = distributions[(k1, k2)]
            outcome_children = []
            for outcome in OUTCOMES:
                base = stage.pair(*outcome)
                probability = distribution.get(outcome, 0.0)
                live = probability > 0.0
                first_id = reserve()
                first_children = []
                for a1 in (0, 1):
                    reply_id = reserve()
                    terminal_children = []
                    for a2 in (0, 1):
                        terminal_id = reserve()
                        extra = stage2_fn(k1, k2, outcome, a1, a2)
                        nodes[terminal_id] = TreeNode(
                            terminal_id,
                            "terminal",
                            None,
                            None,
                            (),
                            (),
                            None,
                            None
                            if extra is None
                            else (base[0] + extra[0], base[1] + extra[1]),
                            live,
                        )
                        terminal_children.append(terminal_id)
                    nodes[reply_id] = TreeNode(
                        reply_id,
                        "decision",
                        2,
                        f"2:after-{outcome[0]}{outcome[1]}",
                        _ACTION_LABELS,
                        tuple(terminal_children),
                        None,
                        None,
                        live,
                    )
                    first_children.append(reply_id)
                nodes[first_id] = TreeNode(
                    first_id,
                    "decision",
                    1,
                    f"1:after-{outcome[0]}{outcome[1]}",
                    _ACTION_LABELS,
                    tuple(first_children),
                    None,
                    None,
                    live,
                )
                outcome_children.append(first_id)
            nodes[chance_id] = TreeNode(
                chance_id,
                "chance",
                None,
                None,
                tuple(f"{o[0]}{o[1]}" for o in OUTCOMES),
                tuple(outcome_children),
                tuple(distribution.get(o, 0.0) for o in OUTCOMES),
                None,
            )
            chance_children.append(chance_id)
        nodes[second_id] = TreeNode(
            second_id,
            "decision",
            2,
            "2:stage1",
            _ACTION_LABELS,
            tuple(chance_children),
            None,
            None,
        )
        root_children.append(second_id)
    nodes[root_id] = TreeNode(
        root_id,
        "decision",
        1,
        "1:stage1",
        _ACTION_LABELS,
        tuple(root_children),
        None,
        None,
    )
    return ExtensiveTree(tuple(nodes), root_id)  # type: ignore[arg-type]


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
    """
    factors = factor_pairs(game.initial)
    if factors is not None:
        return _tree_from_factors(game.stage, factors)
    if two_term_amplitudes(game.initial) is not None:
        return _tree_from_two_term(game)
    raise ValueError(
        "extensive form is defined only for pair-product initial states "
        "or two-term all-zeros/all-ones superpositions"
    )


def _tree_from_factors(
    stage: StageGame, factors: tuple[PureState, ...]
) -> ExtensiveTree:
    continuation = subgame_bimatrices(factors, stage)
    return _assemble_tree(
        stage,
        stage1_distributions(factors[0]),
        lambda k1, k2, outcome, a1, a2: continuation[outcome].cell(a1, a2),
    )


def _tree_from_two_term(game: RepGame) -> ExtensiveTree:
    """Tree of a two-term start: each measured branch's post state lives
    where qubits 1-2 spell its outcome, so one ``flip_table`` call on the
    outcome's pair gives its stage-2 payoffs under all four flips.
    """
    weights = stage_weights(game.stage)
    distributions: dict[tuple[int, int], dict[tuple[int, int], float]] = {}
    continuations = {}
    for k1 in (0, 1):
        for k2 in (0, 1):
            dist = {}
            for outcome, probability, post in _measure_stage1(game, k1, k2):
                dist[outcome] = probability
                values = flip_table(post, outcome_qubit_pair(outcome), weights)
                continuations[(k1, k2) + outcome] = values.T.tolist()
            distributions[(k1, k2)] = dist

    def stage2_fn(
        k1: int, k2: int, outcome: tuple[int, int], a1: int, a2: int
    ) -> list[float] | None:
        values = continuations.get((k1, k2) + outcome)
        return None if values is None else values[2 * a1 + a2]

    return _assemble_tree(game.stage, distributions, stage2_fn)
