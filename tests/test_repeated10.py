"""Tests for the ten-qubit twice-played protocol."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from exact_eval import assert_start_tables_within_rounding
from hypothesis import given, settings
from hypothesis import strategies as st

from qrgames.equilibria import pure_nash, spe_pair_product, strictly_dominated
from qrgames.mw import MWGame, mw_bimatrix, stage_weights
from qrgames import qstate, reference, repeated10
from qrgames.qstate import (
    OUTCOMES,
    PROB_FLOOR,
    DiagonalObservable,
    FlipLayer,
    PureState,
    apply_flips,
    expectation,
    measure_pair,
    random_state,
    tensor_all,
)
from qrgames.reference import (
    _continue,
    _measure_stage1,
    _observables,
    _observables_of,
    outcome_qubit_pair,
    payoff_observable,
    play_batch,
    play_sequential,
    sequential_component_tables,
    strategy_qubit_map,
)
from qrgames.repeated10 import (
    _ACTION_LABELS,
    _OUTCOME_LABELS,
    ExtensiveTree,
    RepGame,
    TreeNode,
    build_extensive,
    factor_pairs,
    rep_bimatrix,
    rep_component_tables,
    start_tables,
)
from qrgames.stagegames import (
    STRATEGY_LABELS,
    RepStrategy,
    StageGame,
    all_strategies,
    classical_twice_repeated,
    make_pd,
)

PD = make_pd(5, 3, 1, 0)
# Payoffs whose sums round, so only exact arithmetic keeps ties exact.
FRACTIONAL = make_pd(5.7, 3.3, 1.1, -0.4)
ALL = all_strategies()
SEEDED_BASIS_INDEX = int(np.random.default_rng(20261018).integers(1, 1024))


def pd_game(state: PureState) -> RepGame:
    return RepGame(state, PD)


def all_zero_game() -> RepGame:
    return pd_game(PureState.basis(10, 0))


def ghz_game(weight: float = 0.3) -> RepGame:
    state = PureState.from_terms(
        10, {"0" * 10: np.sqrt(weight), "1" * 10: np.sqrt(1.0 - weight)}
    )
    return pd_game(state)


def batch_oracle(game: RepGame, s1: RepStrategy, s2: RepStrategy) -> np.ndarray:
    """Direct Born-rule sweep over the final basis distribution.

    Stage 1 is read off qubits 1 and 2.  Stage 2 is read off the qubit
    pair reserved for whichever first-stage outcome the basis string
    carries, which is exactly what the gated observables add up to.
    """
    mask = strategy_qubit_map(1, s1).merge(strategy_qubit_map(2, s2)).mask(10)
    state = game.initial
    acc = np.zeros(4)
    for index, weight in enumerate(state.probabilities):
        if weight == 0.0:
            continue
        final = index ^ mask
        b1, b2 = state.bit(final, 1), state.bit(final, 2)
        qa, qb = outcome_qubit_pair((b1, b2))
        c1, c2 = state.bit(final, qa), state.bit(final, qb)
        acc += weight * np.array(
            [
                game.stage.payoff(1, b1, b2),
                game.stage.payoff(1, c1, c2),
                game.stage.payoff(2, b1, b2),
                game.stage.payoff(2, c1, c2),
            ]
        )
    return acc


def gated_stage2(stage, player: int, outcome) -> DiagonalObservable:
    """The player's stage-2 payoff on the outcome's pair, zero unless
    qubits 1-2 spell the outcome."""
    indices = np.arange(1024)
    gate = ((indices >> 9) & 1 == outcome[0]) & ((indices >> 8) & 1 == outcome[1])
    ungated = payoff_observable(stage, player, 10, outcome_qubit_pair(outcome))
    return DiagonalObservable(10, np.where(gate, ungated.weights, 0.0))


# ---------------------------------------------------------------------------
# wiring


def test_outcome_pairs_partition_the_tail_of_the_register():
    assert outcome_qubit_pair((0, 0)) == (3, 4)
    assert outcome_qubit_pair((0, 1)) == (5, 6)
    assert outcome_qubit_pair((1, 0)) == (7, 8)
    assert outcome_qubit_pair((1, 1)) == (9, 10)


def test_strategy_qubit_map_routes_bits_to_owned_qubits():
    strat = RepStrategy(stage1=1, after_00=0, after_01=1, after_10=0, after_11=1)
    assert strategy_qubit_map(1, strat).flips == {1: 1, 3: 0, 5: 1, 7: 0, 9: 1}
    assert strategy_qubit_map(2, strat).flips == {2: 1, 4: 0, 6: 1, 8: 0, 10: 1}
    with pytest.raises(ValueError, match="player must be 1 or 2"):
        strategy_qubit_map(3, strat)


def test_game_requires_ten_qubits():
    with pytest.raises(ValueError, match="exactly 10 qubits"):
        RepGame(PureState.basis(4, 0), PD)


# ---------------------------------------------------------------------------
# batch play


def test_batch_play_matches_direct_born_rule():
    rng = np.random.default_rng(21)
    profiles = [(ALL[int(i)], ALL[int(j)]) for i, j in rng.integers(0, 32, (6, 2))]
    for _ in range(3):
        game = pd_game(random_state(10, rng))
        for s1, s2 in profiles:
            got = play_batch(game, s1, s2).as_array()
            assert np.allclose(got, batch_oracle(game, s1, s2), atol=1e-12)


def test_observable_cache_stays_bounded_and_rebuilds_equal_results():
    rng = np.random.default_rng(23)
    state = random_state(10, rng)
    s1, s2 = ALL[5], ALL[26]
    stages = [
        make_pd(5 + k, 3 + k / 7, 1 - k / 11, -k / 13) for k in range(40)
    ]
    _observables_of.cache_clear()
    first = [play_batch(RepGame(state, stage), s1, s2).as_array() for stage in stages]
    assert _observables_of.cache_info().currsize <= 16
    for stage, got in zip(stages, first):
        _observables_of.cache_clear()
        fresh = play_batch(RepGame(state, stage), s1, s2).as_array()
        assert np.array_equal(got, fresh)


@pytest.mark.parametrize("first_sign", [1.0, -1.0])
def test_observables_do_not_depend_on_call_history(first_sign):
    """-0.0 == 0.0, yet each stage reads its own signed zeros, whichever of
    two such stages was cached first."""
    stages = {sign: make_pd(5, 3, 1, sign * 0.0) for sign in (1.0, -1.0)}
    fresh = {}
    for sign, stage in stages.items():
        _observables_of.cache_clear()
        fresh[sign] = [obs.weights for obs in _observables(stage)]
    assert np.signbit(fresh[-1.0][1]).any() and not np.signbit(fresh[1.0][1]).any()
    _observables_of.cache_clear()
    for sign in (first_sign, -first_sign):
        got = [obs.weights for obs in _observables(stages[sign])]
        for weights, want in zip(got, fresh[sign]):
            assert np.array_equal(weights, want)
            assert np.array_equal(np.signbit(weights), np.signbit(want))
    assert _observables_of.cache_info().currsize == 2


@pytest.mark.parametrize(
    "stage",
    [
        PD,
        FRACTIONAL,
        make_pd(1e8, 3, 1, 0),
        StageGame((((-0.0, 0.0), (-0.0, 2.0)), ((3.0, -0.0), (1.0, -0.0)))),
    ],
    ids=["pd", "fractional", "t1e8", "negative-zero"],
)
def test_dense_observables_sum_the_gated_stage_two_pieces(stage):
    """The stage-2 observable is the sum of the gated pieces, and each
    reachable branch of a sequential play reads exactly its own piece."""
    observables = _observables(stage)
    assert len(observables) == 4
    for player in (1, 2):
        first, second = observables[2 * player - 2 : 2 * player]
        want = payoff_observable(stage, player, 10, (1, 2)).weights
        assert np.array_equal(first.weights, want)
        pieces = [gated_stage2(stage, player, o).weights for o in OUTCOMES]
        assert np.array_equal(second.weights, sum(pieces))
    rng = np.random.default_rng(20261020)
    game = RepGame(random_state(10, rng), stage)
    for i, j in rng.integers(0, 32, (8, 2)):
        for branch in play_sequential(game, ALL[i], ALL[j]).branches:
            assert branch.reachable
            gated = [gated_stage2(stage, p, branch.outcome) for p in (1, 2)]
            want = [expectation(branch.post_state, obs) for obs in gated]
            assert np.array_equal(branch.stage2_payoffs, want)


def test_batch_play_on_all_zero_start_is_the_classical_path():
    game = all_zero_game()
    rng = np.random.default_rng(22)
    for i, j in rng.integers(0, 32, (40, 2)):
        s1, s2 = ALL[int(i)], ALL[int(j)]
        first = (s1.stage1, s2.stage1)
        second = (s1.after(first), s2.after(first))
        result = play_batch(game, s1, s2)
        assert result.p1_stage1 == PD.payoff(1, *first)
        assert result.p1_stage2 == PD.payoff(1, *second)
        assert result.p2_stage1 == PD.payoff(2, *first)
        assert result.p2_stage2 == PD.payoff(2, *second)


def test_stage_one_payoffs_ignore_the_contingency_bits():
    """Only the two stage-1 bits reach the first-stage observables."""
    rng = np.random.default_rng(23)
    game = pd_game(random_state(10, rng))
    base1 = RepStrategy(0, 0, 0, 0, 0)
    base2 = RepStrategy(1, 0, 0, 0, 0)
    reference = play_batch(game, base1, base2)
    for variant1 in range(16):
        s1 = RepStrategy.from_index(variant1)
        for variant2 in (0, 7, 13):
            s2 = RepStrategy.from_index(16 + variant2)
            moved = play_batch(game, s1, s2)
            assert abs(moved.p1_stage1 - reference.p1_stage1) <= 1e-12
            assert abs(moved.p2_stage1 - reference.p2_stage1) <= 1e-12


def test_component_tables_agree_with_single_runs():
    rng = np.random.default_rng(24)
    game = pd_game(random_state(10, rng))
    tables = rep_component_tables(game)
    assert set(tables) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert tables[(1, 1)].shape == (32, 32)
    for i, j in rng.integers(0, 32, (10, 2)):
        single = play_batch(game, ALL[int(i)], ALL[int(j)]).as_array()
        for position, key in enumerate(TABLE_KEYS):
            assert abs(tables[key][i, j] - single[position]) <= 1e-12


def gather_tables(game: RepGame) -> dict[tuple[int, int], np.ndarray]:
    """The four tables by the 1024x1024 XOR gather, one row at a time.

    Profile mask m gives sum_y W[y ^ m] p[y] for the dense observable W:
    stage 1 reads qubits 1-2, stage 2 sums the outcome pairs' payoffs
    gated on qubits 1-2 spelling that outcome.
    """
    indices = np.arange(1024)
    first, second = (indices >> 9) & 1, (indices >> 8) & 1
    masks1 = np.array([strategy_qubit_map(1, t).mask(10) for t in ALL])
    masks2 = np.array([strategy_qubit_map(2, t).mask(10) for t in ALL])
    probs = game.initial.probabilities
    tables = {}
    for player in (1, 2):
        dense = {
            1: payoff_observable(game.stage, player, 10, (1, 2)).weights,
            2: sum(
                np.where(
                    (first == outcome[0]) & (second == outcome[1]),
                    payoff_observable(
                        game.stage, player, 10, outcome_qubit_pair(outcome)
                    ).weights,
                    0.0,
                )
                for outcome in OUTCOMES
            ),
        }
        for stage_index, weights in dense.items():
            tables[(player, stage_index)] = np.array(
                [
                    weights[indices[None, :] ^ (m1 | masks2)[:, None]] @ probs
                    for m1 in masks1
                ]
            )
    return tables


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_component_tables_match_the_xor_gather(seed):
    game = RepGame(random_state(10, np.random.default_rng(seed)), FRACTIONAL)
    got = rep_component_tables(game)
    for key, table in gather_tables(game).items():
        assert np.abs(got[key] - table).max() <= 1e-12


@pytest.mark.parametrize("index", [0, SEEDED_BASIS_INDEX])
def test_basis_start_is_the_classical_table_with_exact_ties(index):
    """A basis start relabels the classical table, ties and all.

    Player 1's strategy bits sit on qubits 1, 3, 5, 7, 9 and player 2's
    on 2, 4, ..., 10, so the start bits there XOR the strategy indices.
    Off-path contingencies must tie exactly, so no equilibrium is strict
    and dominance is the classical one under the same relabelling.
    """
    bits = format(index, "010b")
    relabel1 = int(bits[0::2], 2)
    relabel2 = int(bits[1::2], 2)
    bm = rep_bimatrix(RepGame(PureState.basis(10, index), FRACTIONAL))
    classical = classical_twice_repeated(FRACTIONAL)
    order = np.arange(32)
    cells = np.ix_(order ^ relabel1, order ^ relabel2)
    assert np.array_equal(bm.payoffs1, classical.payoffs1[cells])
    assert np.array_equal(bm.payoffs2, classical.payoffs2[cells])

    report = pure_nash(bm)
    assert report.equilibria
    assert not any(eq.strict for eq in report.equilibria)
    for player, relabel in ((1, relabel1), (2, relabel2)):
        want = sorted(
            (a ^ relabel, b ^ relabel)
            for a, b in strictly_dominated(classical, player)
        )
        assert want
        assert strictly_dominated(bm, player) == want


def test_full_bimatrix_sums_the_component_tables():
    game = ghz_game()
    bm = rep_bimatrix(game)
    tables = rep_component_tables(game)
    assert bm.rows == 32 and bm.cols == 32
    assert bm.row_labels == tuple(s.bits for s in ALL)
    assert np.allclose(bm.payoffs1, tables[(1, 1)] + tables[(1, 2)], atol=1e-12)
    assert np.allclose(bm.payoffs2, tables[(2, 1)] + tables[(2, 2)], atol=1e-12)


# ---------------------------------------------------------------------------
# sequential play


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_sequential_play_reproduces_batch_payoffs(seed):
    rng = np.random.default_rng(seed)
    game = pd_game(random_state(10, rng))
    for i, j in rng.integers(0, 32, (25, 2)):
        s1, s2 = ALL[int(i)], ALL[int(j)]
        batch = play_batch(game, s1, s2).as_array()
        transcript = play_sequential(game, s1, s2)
        assert np.allclose(batch, transcript.expected.as_array(), atol=1e-9)


def test_transcript_structure_is_consistent():
    rng = np.random.default_rng(34)
    game = pd_game(random_state(10, rng))
    s1, s2 = ALL[9], ALL[22]
    transcript = play_sequential(game, s1, s2)

    assert transcript.stage1_choices == (s1.stage1, s2.stage1)
    assert tuple(branch.outcome for branch in transcript.branches) == OUTCOMES
    assert abs(sum(b.probability for b in transcript.branches) - 1.0) <= 1e-9

    stage1_expected = np.zeros(2)
    stage2_expected = np.zeros(2)
    for branch in transcript.branches:
        assert branch.stage2_choices == (s1.after(branch.outcome), s2.after(branch.outcome))
        assert branch.stage1_payoffs == PD.pair(*branch.outcome)
        assert branch.reachable == (branch.probability > 0.0)
        if branch.reachable:
            assert branch.post_state is not None
            stage2_expected += branch.probability * np.array(branch.stage2_payoffs)
        else:
            assert branch.stage2_payoffs is None
            assert branch.post_state is None
        stage1_expected += branch.probability * np.array(branch.stage1_payoffs)

    expected = transcript.expected
    assert abs(expected.p1_stage1 - stage1_expected[0]) <= 1e-12
    assert abs(expected.p2_stage1 - stage1_expected[1]) <= 1e-12
    assert abs(expected.p1_stage2 - stage2_expected[0]) <= 1e-12
    assert abs(expected.p2_stage2 - stage2_expected[1]) <= 1e-12

    distribution = dict(transcript.outcome_distribution)
    for branch in transcript.branches:
        if branch.reachable:
            assert distribution[branch.outcome] == branch.probability
        else:
            assert branch.outcome not in distribution


def test_transcript_refuses_branches_that_do_not_sum_to_one():
    transcript = play_sequential(all_zero_game(), ALL[0], ALL[0])
    halved = tuple(
        dataclasses.replace(branch, probability=branch.probability / 2)
        for branch in transcript.branches
    )
    with pytest.raises(ValueError, match="branch probabilities sum to 0.5, not 1"):
        dataclasses.replace(transcript, branches=halved)


def test_sequential_play_on_basis_start_has_one_branch():
    transcript = play_sequential(all_zero_game(), ALL[16], ALL[0])
    reachable = [b for b in transcript.branches if b.reachable]
    assert len(reachable) == 1
    assert reachable[0].outcome == (1, 0)
    assert reachable[0].probability == 1.0


# ---------------------------------------------------------------------------
# sequential table

TABLE_KEYS = ((1, 1), (1, 2), (2, 1), (2, 2))


def assert_table_matches_sequential_play(
    game: RepGame, seed: int, count: int = 64
) -> None:
    """``count`` seeded profiles' cells equal ``play_sequential``, bit for bit."""
    tables = sequential_component_tables(game)
    rng = np.random.default_rng(seed)
    for profile in rng.choice(1024, size=count, replace=False):
        i, j = divmod(int(profile), 32)
        expected = play_sequential(game, ALL[i], ALL[j]).expected.as_array()
        cell = np.array([tables[key][i, j] for key in TABLE_KEYS])
        assert np.array_equal(cell, expected), (i, j, cell - expected)
        assert np.array_equal(np.signbit(cell), np.signbit(expected)), (i, j)


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_sequential_table_matches_play_sequential(seed):
    game = pd_game(random_state(10, np.random.default_rng(seed)))
    assert_table_matches_sequential_play(game, seed)


@pytest.mark.parametrize(
    "stage",
    [
        pytest.param(FRACTIONAL, id="fractional"),
        pytest.param(make_pd(1e8, 3, 1, 0), id="T=1e8"),
    ],
)
def test_sequential_table_is_play_sequential_on_every_profile(stage):
    game = RepGame(random_state(10, np.random.default_rng(56)), stage)
    assert_table_matches_sequential_play(game, 56, count=1024)


@pytest.mark.parametrize("make_game", [all_zero_game, ghz_game])
def test_sequential_table_skips_pruned_outcomes(make_game):
    game = make_game()
    transcript = play_sequential(game, ALL[0], ALL[0])
    assert not all(branch.reachable for branch in transcript.branches)
    assert_table_matches_sequential_play(game, 54)


@pytest.mark.parametrize("block", [0, 1, 2, 3])
def test_sequential_table_relabels_each_block_to_each_outcome(block):
    """A basis start in block b sends every stage-1 flip k to outcome b XOR k."""
    game = RepGame(PureState.basis(10, block << 8), FRACTIONAL)
    assert_table_matches_sequential_play(game, 57 + block, count=256)


def test_sequential_table_relabels_a_start_with_one_empty_block():
    amplitudes = random_state(10, np.random.default_rng(61)).amplitudes.copy()
    amplitudes[2 << 8 : 3 << 8] = 0.0
    state = PureState(10, amplitudes / np.linalg.norm(amplitudes))
    game = RepGame(state, FRACTIONAL)
    # Outcome 10 XOR k is pruned after each stage-1 flip pair k.
    for k1 in (0, 1):
        for k2 in (0, 1):
            transcript = play_sequential(game, ALL[16 * k1], ALL[16 * k2])
            unreachable = [b.outcome for b in transcript.branches if not b.reachable]
            assert unreachable == [(1 ^ k1, 0 ^ k2)]
    assert_table_matches_sequential_play(game, 61, count=256)


def start_with_a_light_block(block: int, mass: float, seed: int) -> PureState:
    """A random start whose block ``block`` (qubits 1-2 spelling it) holds ``mass``."""
    amplitudes = random_state(10, np.random.default_rng(seed)).amplitudes.copy()
    rows = amplitudes.reshape(4, 256)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows *= np.sqrt(np.where(np.arange(4) == block, mass, (1.0 - mass) / 3))[:, None]
    return PureState(10, amplitudes)


def test_sequential_table_is_play_sequential_with_a_block_at_the_floor():
    """A block of mass 1e-13 is pruned, so every kept total differs from 1."""
    game = RepGame(start_with_a_light_block(1, 1e-13, 65), FRACTIONAL)
    for k in range(4):
        transcript = play_sequential(game, ALL[16 * (k >> 1)], ALL[16 * (k & 1)])
        reachable = [b for b in transcript.branches if b.reachable]
        assert [b.outcome for b in transcript.branches if not b.reachable] == [
            (0 ^ (k >> 1), 1 ^ (k & 1))
        ]
        assert sum(b.probability for b in reachable) != 1.0
    assert_table_matches_sequential_play(game, 65, count=1024)


# Player 1's payoffs are -0.0 and the negative subnormal -5e-324, whose
# product with a branch weight below 1/2 rounds to -0.0.  Every stage-1
# and stage-2 term of such a cell is then -0.0, and only a sum started
# from 0.0, as ``play_sequential``'s is, ends in +0.0.
NEGATIVE_ZEROS = StageGame(
    outcomes=(((-0.0, 2.5), (-5e-324, -0.0)), ((-5e-324, 1.25), (-0.0, -3.5)))
)


def one_point_per_block() -> PureState:
    """Equal amplitude on one seeded basis index in each of the four blocks."""
    low = np.random.default_rng(66).integers(0, 256, size=4)
    return PureState.from_terms(10, {(b << 8) | int(x): 0.5 for b, x in enumerate(low)})


@pytest.mark.parametrize(
    "state",
    [
        pytest.param(one_point_per_block(), id="one-point-per-block"),
        pytest.param(start_with_a_light_block(2, 1e-13, 66), id="light-block"),
    ],
)
def test_sequential_table_keeps_the_sign_of_zero_on_negative_zero_payoffs(state):
    game = RepGame(state, NEGATIVE_ZEROS)
    assert_table_matches_sequential_play(game, 66, count=1024)


def test_sequential_gather_is_one_read_only_array_per_process():
    gather = reference._sequential_gather()
    sequential_component_tables(ghz_game())
    sequential_component_tables(pd_game(random_state(10, np.random.default_rng(67))))
    assert reference._sequential_gather() is gather
    assert reference._sequential_gather.cache_info().misses == 1
    assert gather.shape == (64, 256)
    assert not gather.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        gather[0, 0] = 0


def full_register_gather() -> np.ndarray:
    """The (64, 1024) index of every continuation over whole registers.

    Row ``16*o + 4*k + a`` holds, at basis index x, the index into the
    stacked (4, 1024) post-state Born weights that the flips of a
    sequential play read: block ``o XOR k`` at ``x`` under the mask of
    the stage-1 flips k and outcome o's stage-2 flips a.
    """
    x = np.arange(1024)
    rows = []
    for o, outcome in enumerate(OUTCOMES):
        qubit_a, qubit_b = outcome_qubit_pair(outcome)
        for k in range(4):
            for a in range(4):
                flips = {1: k >> 1, 2: k & 1, qubit_a: a >> 1, qubit_b: a & 1}
                rows.append(1024 * (o ^ k) + (x ^ FlipLayer(flips).mask(10)))
    return np.array(rows)


def test_sequential_gather_rows_are_the_flips_of_a_sequential_play():
    """Row ``16*o + 4*k + a`` reads block ``o XOR k`` at ``low ^ (a << (6 -
    2*o))``, and outcome o's gathered rows, padded here into block o of
    zero registers, are the whole-register gather of the flips a
    sequential play applies."""
    gather = reference._sequential_gather()
    low = np.arange(256)
    for o in range(4):
        for k in range(4):
            for a in range(4):
                want = 256 * (o ^ k) + (low ^ (a << (6 - 2 * o)))
                assert np.array_equal(gather[16 * o + 4 * k + a], want)
    old_gather = full_register_gather()
    starts = [
        random_state(10, np.random.default_rng(69)),
        start_with_a_light_block(1, 1e-13, 70),
        one_point_per_block(),
        ghz_game().initial,
    ]
    for start in starts:
        _, posts = reference._stage1_chance(pd_game(start))
        born = np.stack(
            [np.zeros(1024) if post is None else post.probabilities for post in posts]
        )
        gathered = np.stack(
            [born[b, 256 * b : 256 * (b + 1)] for b in range(4)]
        ).ravel()[gather]
        continued = np.zeros((4, 16, 4, 256))
        for o in range(4):
            continued[o, :, o] = gathered[16 * o : 16 * (o + 1)]
        assert continued.tobytes() == born.ravel()[old_gather].tobytes()


def test_only_the_sequential_table_builds_the_sequential_gather():
    """The batch table leaves the 128 KB gather and the 32 KB observable
    blocks unbuilt in a fresh process."""
    script = (
        "import numpy as np\n"
        "from qrgames import reference as ref, repeated10 as r\n"
        "from qrgames.qstate import random_state\n"
        "from qrgames.stagegames import make_pd\n"
        "state = random_state(10, np.random.default_rng(68))\n"
        "game = r.RepGame(state, make_pd(5, 3, 1, 0))\n"
        "r.rep_component_tables(game)\n"
        "print(ref._sequential_gather.cache_info().misses)\n"
        "print(ref._block_weights_of.cache_info().misses)\n"
        "ref.sequential_component_tables(game)\n"
        "print(ref._sequential_gather.cache_info().misses)\n"
        "print(ref._block_weights_of.cache_info().misses)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["0", "0", "1", "1"]


@pytest.fixture
def measure_pair_calls(monkeypatch):
    """Count the ``measure_pair`` calls made through ``reference``."""
    calls = []

    def counted(*args):
        calls.append(args)
        return measure_pair(*args)

    monkeypatch.setattr(reference, "measure_pair", counted)
    return calls


def test_sequential_table_measures_the_start_once(measure_pair_calls):
    sequential_component_tables(pd_game(random_state(10, np.random.default_rng(62))))
    assert len(measure_pair_calls) == 1


@pytest.mark.parametrize(
    "make_game",
    [
        ghz_game,
        all_zero_game,
        lambda: pd_game(tensor_all([random_state(2, np.random.default_rng(65))] * 5)),
        lambda: pd_game(random_state(10, np.random.default_rng(66))),
    ],
    ids=["ghz", "basis", "pair-product", "dense"],
)
def test_trees_read_the_start_without_svd_or_measurement(
    make_game, measure_pair_calls, monkeypatch
):
    """The tree reads Born weights only: no SVD peel, no measured posts."""
    game = make_game()
    svd_calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: svd_calls.append(args))
    monkeypatch.setattr(qstate, "measure_pair", measure_pair_calls.append)
    build_extensive(game)
    assert svd_calls == [] and measure_pair_calls == []


def test_play_sequential_measures_once_per_profile(measure_pair_calls):
    game = pd_game(random_state(10, np.random.default_rng(63)))
    for i, j in [(0, 0), (5, 17), (31, 2)]:
        play_sequential(game, ALL[i], ALL[j])
    assert len(measure_pair_calls) == 3


@pytest.mark.parametrize("scale", [1.0, 0.37, 1e8])
def test_stacked_row_column_products_are_the_one_dimensional_dots(scale):
    """The sequential table's values rest on this numpy property.

    numpy's matmul loop hands each (1 x n) @ (n x 1) core product to
    the type's ``dot`` function (``DOUBLE_dot``), the one a 1-D
    ``w @ p`` uses, so the stacked products equal the separate dots bit
    for bit whatever the BLAS.  A numpy that changes that loop fails here.
    The table stacks (1 x 256) @ (256 x 1) block products; that they are
    also the whole-register dots is the BLAS property of
    :func:`test_a_block_dot_is_the_zero_padded_register_dot`.
    """
    rng = np.random.default_rng(64)
    weights = scale * rng.standard_normal((4, 1024))
    probs = rng.random((4, 1024)) * (rng.random((4, 1024)) < 0.25)
    probs /= probs.sum(axis=1, keepdims=True)
    stacked = (weights[None, :, None] @ probs[:, None, :, None]).reshape(4, 4)
    separate = np.array([[w @ p for w in weights] for p in probs])
    assert np.array_equal(stacked, separate)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    o=st.integers(0, 3),
    scale=st.sampled_from([1.0, 0.37, 1e8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_block_dot_is_the_zero_padded_register_dot(o, scale, seed):
    """The sequential table dots outcome o's continuations on block o alone.

    That equals the dot over the whole register, zero outside block o,
    bit for bit with the sign of zero, in the 1-D form and in the stacked
    (1 x n) @ (n x 1) form.  This rests on the BLAS, not on numpy: the
    padding adds only signed zeros to a +0.0 sum, and 256 entries, at a
    2048-byte offset, are a whole number of the accumulator lanes (16 or
    32 doubles) of OpenBLAS's ddot kernels.  A BLAS that sums otherwise
    fails here.
    """
    rng = np.random.default_rng(seed)
    block = slice(256 * o, 256 * (o + 1))
    weights = scale * rng.standard_normal((4, 1024))
    signed = rng.random((4, 1024)) < 0.1
    weights[signed] = rng.choice([-0.0, 0.0, -5e-324, 5e-324], size=signed.sum())
    # A component of -0.0 and -5e-324 alone: every product is -0.0 or
    # -5e-324, and its dots sum signed zeros and subnormals.
    weights[3] = rng.choice([-0.0, -5e-324], size=1024)
    probs = np.zeros((16, 1024))
    probs[1:, block] = rng.random((15, 256)) * (rng.random((15, 256)) < 0.5)
    full = np.array([[w @ p for w in weights] for p in probs])
    one_d = np.array([[w[block] @ p[block] for w in weights] for p in probs])
    stacked = (weights[None, :, None, block] @ probs[:, None, block, None]).reshape(
        16, 4
    )
    assert one_d.tobytes() == full.tobytes()
    assert stacked.tobytes() == full.tobytes()


def test_one_sequential_table_allocates_no_whole_register_per_continuation():
    """64 continuations over 1024 entries would take 512 KB alone."""
    game = pd_game(random_state(10, np.random.default_rng(71)))
    # The first call builds the cached gathers and observables.
    sequential_component_tables(game)
    tracemalloc.start()
    try:
        sequential_component_tables(game)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_block_weight_cache_stays_bounded_and_rebuilds_equal_results():
    state = random_state(10, np.random.default_rng(72))
    stages = [
        make_pd(5 + k, 3 + k / 7, 1 - k / 11, -k / 13) for k in range(40)
    ]
    reference._block_weights_of.cache_clear()
    first = [sequential_component_tables(RepGame(state, stage)) for stage in stages]
    assert reference._block_weights_of.cache_info().currsize <= 16
    for stage, got in zip(stages, first):
        reference._block_weights_of.cache_clear()
        fresh = sequential_component_tables(RepGame(state, stage))
        for key in TABLE_KEYS:
            assert fresh[key].tobytes() == got[key].tobytes()


@pytest.mark.parametrize("first_sign", [1.0, -1.0])
def test_block_weights_are_the_observables_own_blocks(first_sign):
    """Read-only, and each stage keeps its own signed zeros, whichever of
    two stages equal up to the sign of zero was cached first."""
    stages = {sign: make_pd(5, 3, 1, sign * 0.0) for sign in (first_sign, -first_sign)}
    reference._block_weights_of.cache_clear()
    for sign, stage in stages.items():
        blocks = reference._block_weights_of(np.array(stage.outcomes).tobytes())
        assert blocks.shape == (4, 4, 256)
        assert not blocks.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            blocks[0, 0, 0] = 1.0
        dense = [obs.weights for obs in _observables(stage)]
        for o in range(4):
            for component, weights in enumerate(dense):
                want = weights[256 * o : 256 * (o + 1)]
                assert blocks[o, component].tobytes() == want.tobytes()
        assert np.signbit(blocks).any() == (sign < 0)
    assert reference._block_weights_of.cache_info().currsize == 2


@pytest.mark.parametrize(
    "make_game",
    [
        all_zero_game,
        ghz_game,
        lambda: pd_game(random_state(10, np.random.default_rng(55))),
    ],
)
def test_sequential_table_matches_the_batch_tables(make_game):
    game = make_game()
    batch = rep_component_tables(game)
    sequential = sequential_component_tables(game)
    assert sequential.keys() == batch.keys()
    for key in TABLE_KEYS:
        assert sequential[key].shape == (32, 32)
        assert np.abs(sequential[key] - batch[key]).max() <= 1e-9


# ---------------------------------------------------------------------------
# factoring helpers


def test_factor_pairs_recovers_a_product_of_pairs():
    rng = np.random.default_rng(51)
    factors = [random_state(2, rng) for _ in range(5)]
    state = tensor_all(factors)
    recovered = factor_pairs(state)
    assert recovered is not None
    assert len(recovered) == 5
    rebuilt = tensor_all(recovered)
    overlap = abs(np.vdot(rebuilt.amplitudes, state.amplitudes))
    assert abs(overlap - 1.0) <= 1e-9


def test_factor_pairs_rejects_cross_pair_entanglement():
    state = PureState.from_terms(
        10, {"0" * 10: np.sqrt(0.5), "0110000000": np.sqrt(0.5)}
    )
    assert factor_pairs(state) is None
    assert factor_pairs(ghz_game().initial) is None


# ---------------------------------------------------------------------------
# extensive form


def decision_info_sets(tree):
    groups = {}
    for node in tree.nodes:
        if node.kind == "decision":
            groups.setdefault(node.info_set, []).append(node)
    return groups


def test_tree_shape_and_info_set_grouping():
    tree = build_extensive(all_zero_game())
    kinds = {}
    for node in tree.nodes:
        kinds[node.kind] = kinds.get(node.kind, 0) + 1
    assert kinds == {"decision": 51, "chance": 4, "terminal": 64}
    assert tree.root == 0
    assert [node.node_id for node in tree.nodes] == list(range(119))

    groups = decision_info_sets(tree)
    assert len(groups["1:stage1"]) == 1
    assert len(groups["2:stage1"]) == 2
    for i1 in (0, 1):
        for i2 in (0, 1):
            assert len(groups[f"1:after-{i1}{i2}"]) == 4
            assert len(groups[f"2:after-{i1}{i2}"]) == 8
    # Players never learn each other's operator choices, only outcomes.
    assert set(groups) == {"1:stage1", "2:stage1"} | {
        f"{player}:after-{i1}{i2}"
        for player in (1, 2)
        for i1 in (0, 1)
        for i2 in (0, 1)
    }


def walk_terminals(tree):
    """Yield (a1, a2, outcome, b1, b2, terminal node) for every path."""
    root = tree.nodes[tree.root]
    for a1, second_id in zip((0, 1), root.children):
        second = tree.nodes[second_id]
        for a2, chance_id in zip((0, 1), second.children):
            chance = tree.nodes[chance_id]
            for outcome, kid_id in zip(OUTCOMES, chance.children):
                p1_node = tree.nodes[kid_id]
                for b1, p2_id in zip((0, 1), p1_node.children):
                    p2_node = tree.nodes[p2_id]
                    for b2, term_id in zip((0, 1), p2_node.children):
                        yield a1, a2, outcome, b1, b2, tree.nodes[term_id]


def test_classical_tree_chance_and_payoffs():
    tree = build_extensive(all_zero_game())
    root = tree.nodes[tree.root]
    assert root.owner == 1 and root.info_set == "1:stage1"
    for _, _, outcome, b1, b2, terminal in walk_terminals(tree):
        first = np.array(PD.pair(*outcome))
        second = np.array(PD.pair(b1, b2))
        assert terminal.kind == "terminal"
        assert np.allclose(terminal.payoffs, first + second, atol=1e-12)


def test_classical_tree_chance_probabilities_are_degenerate():
    tree = build_extensive(all_zero_game())
    root = tree.nodes[tree.root]
    for a1, second_id in zip((0, 1), root.children):
        second = tree.nodes[second_id]
        for a2, chance_id in zip((0, 1), second.children):
            chance = tree.nodes[chance_id]
            assert chance.kind == "chance"
            assert chance.actions == ("00", "01", "10", "11")
            want = [1.0 if o == (a1, a2) else 0.0 for o in OUTCOMES]
            assert list(chance.probabilities) == want


def test_two_term_tree_marks_unreachable_branches():
    tree = build_extensive(ghz_game(0.3))
    terminals = [n for n in tree.nodes if n.kind == "terminal"]
    assert sum(1 for n in terminals if n.payoffs is None) == 32
    assert sum(1 for n in tree.nodes if not n.reachable) == 56

    for a1, a2, outcome, b1, b2, terminal in walk_terminals(tree):
        on_weight_0 = outcome == (a1, a2)
        on_weight_1 = outcome == (1 - a1, 1 - a2)
        if on_weight_0 or on_weight_1:
            assert terminal.reachable
            start = (0, 0) if on_weight_0 else (1, 1)
            first = np.array(PD.pair(*outcome))
            second = np.array(PD.pair(start[0] ^ b1, start[1] ^ b2))
            assert np.allclose(terminal.payoffs, first + second, atol=1e-12)
        else:
            assert not terminal.reachable
            assert terminal.payoffs is None


def test_two_term_tree_chance_weights():
    tree = build_extensive(ghz_game(0.3))
    root = tree.nodes[tree.root]
    for a1, second_id in zip((0, 1), root.children):
        second = tree.nodes[second_id]
        for a2, chance_id in zip((0, 1), second.children):
            probs = dict(zip(OUTCOMES, tree.nodes[chance_id].probabilities))
            assert abs(probs[(a1, a2)] - 0.3) <= 1e-12
            assert abs(probs[(1 - a1, 1 - a2)] - 0.7) <= 1e-12


def callback_tree(stage, distributions, stage2_fn) -> ExtensiveTree:
    """The extensive form built from a dict of chance weights per stage-1
    flip pair and a ``stage2_fn(k1, k2, outcome, a1, a2)`` callback giving
    the second-stage payoffs (None where undefined): the assembly the
    chance and continuation tables replaced, node for node."""
    nodes = []

    def node(kind, owner=None, info_set=None, actions=(), **fields):
        fields = {"probabilities": None, "payoffs": None, **fields}
        nodes.append(TreeNode(len(nodes), kind, owner, info_set, actions, (), **fields))
        return len(nodes) - 1

    def adopt(parent, children):
        nodes[parent] = dataclasses.replace(nodes[parent], children=tuple(children))

    root = node("decision", 1, "1:stage1", _ACTION_LABELS)
    seconds = []
    for k1 in (0, 1):
        second = node("decision", 2, "2:stage1", _ACTION_LABELS)
        chances = []
        for k2 in (0, 1):
            distribution = distributions[(k1, k2)]
            weights = tuple(distribution.get(o, 0.0) for o in OUTCOMES)
            chance = node("chance", actions=_OUTCOME_LABELS, probabilities=weights)
            firsts = []
            for outcome, weight in zip(OUTCOMES, weights):
                live = weight > 0.0
                after = f"after-{outcome[0]}{outcome[1]}"
                base = stage.pair(*outcome)
                first = node(
                    "decision", 1, "1:" + after, _ACTION_LABELS, reachable=live
                )
                replies = []
                for a1 in (0, 1):
                    reply = node(
                        "decision", 2, "2:" + after, _ACTION_LABELS, reachable=live
                    )
                    leaves = []
                    for a2 in (0, 1):
                        payoffs = stage2_fn(k1, k2, outcome, a1, a2)
                        if payoffs is not None:
                            payoffs = (base[0] + payoffs[0], base[1] + payoffs[1])
                        leaves.append(node("terminal", payoffs=payoffs, reachable=live))
                    adopt(reply, leaves)
                    replies.append(reply)
                adopt(first, replies)
                firsts.append(first)
            adopt(chance, firsts)
            chances.append(chance)
        adopt(second, chances)
        seconds.append(second)
    adopt(root, seconds)
    return ExtensiveTree(tuple(nodes), root)


def two_term_tree_oracle(game: RepGame):
    """Flip the branch's pair, then a dense 1024-entry expectation per
    terminal: the path the one-table-per-branch tree replaced."""
    post_states = {}
    distributions = {}
    for k1 in (0, 1):
        for k2 in (0, 1):
            dist = {}
            for outcome, probability, post in _measure_stage1(game, k1, k2):
                dist[outcome] = probability
                post_states[(k1, k2) + outcome] = post
            distributions[(k1, k2)] = dist

    def stage2_fn(k1, k2, outcome, a1, a2):
        post = post_states.get((k1, k2) + outcome)
        if post is None:
            return None
        final = _continue(post, outcome, a1, a2)
        return [
            expectation(final, gated_stage2(game.stage, player, outcome))
            for player in (1, 2)
        ]

    return callback_tree(game.stage, distributions, stage2_fn)


def product_tree_oracle(game: RepGame):
    """Chance weights of the flipped first factor per stage-1 flip pair,
    and each outcome's ``mw_bimatrix`` on its own factor, flip for flip."""
    factors = factor_pairs(game.initial)
    distributions = {}
    for k1 in (0, 1):
        for k2 in (0, 1):
            flipped = apply_flips(factors[0], FlipLayer({1: k1, 2: k2}))
            weights = flipped.probabilities.tolist()
            distributions[(k1, k2)] = {o: weights[2 * o[0] + o[1]] for o in OUTCOMES}
    subgames = {
        o: mw_bimatrix(MWGame(f, game.stage)) for o, f in zip(OUTCOMES, factors[1:])
    }
    return callback_tree(
        game.stage,
        distributions,
        lambda k1, k2, outcome, a1, a2: subgames[outcome].cell(a1, a2),
    )


def start_table_tree(game: RepGame) -> ExtensiveTree:
    """``callback_tree`` fed with ``start_tables(game)``: the assembly the
    tree must equal bit for bit, apart from how the tables are read."""
    tables = start_tables(game)
    distributions = {
        (k >> 1, k & 1): dict(zip(OUTCOMES, row))
        for k, row in enumerate(tables.chance.tolist())
    }

    def stage2_fn(k1, k2, outcome, a1, a2):
        table = tables.stage2[2 * k1 + k2][2 * outcome[0] + outcome[1]]
        return None if table is None else table[:, 2 * a1 + a2].tolist()

    return callback_tree(game.stage, distributions, stage2_fn)


def assert_tables_within_rounding(game: RepGame) -> None:
    """``start_tables(game)`` against the exact tables of its Born weights."""
    assert_start_tables_within_rounding(
        start_tables(game),
        game.initial.probabilities,
        stage_weights(game.stage),
        PROB_FLOOR,
    )


def assert_oracle_structure(tree, oracle, subgames) -> None:
    """The tree has the oracle's shape, where the oracle reads the start on
    another path.

    Node ids, kinds, owners, information sets, actions and children are
    the oracle's.  A subtree is reachable where the oracle's chance weight
    above it exceeds ``PROB_FLOOR`` (the tree prunes as the measurement
    does).  A terminal has payoffs where the oracle's has, and also where
    its outcome heads a subgame (``subgames[o]``), which serves off the
    path too.  Zero payoffs in both carry the oracle's sign.
    """
    shape = ("node_id", "kind", "owner", "info_set", "actions", "children")
    assert [[getattr(n, f) for f in shape] for n in tree.nodes] == [
        [getattr(n, f) for f in shape] for n in oracle.nodes
    ]
    for chance in (node for node in oracle.nodes if node.kind == "chance"):
        for o, (head, weight) in enumerate(zip(chance.children, chance.probabilities)):
            subtree = slice(head, head + 7)
            for got, want in zip(tree.nodes[subtree], oracle.nodes[subtree]):
                assert got.reachable == (weight > PROB_FLOOR)
                if got.kind != "terminal":
                    continue
                undefined = want.payoffs is None and not subgames[o]
                assert (got.payoffs is None) == undefined
                if got.payoffs is not None and want.payoffs is not None:
                    for mine, theirs in zip(got.payoffs, want.payoffs):
                        if mine == theirs == 0.0:
                            assert np.signbit(mine) == np.signbit(theirs)


@pytest.mark.parametrize("phases", [(0.0, 0.0), (0.4, 2.9)])
@pytest.mark.parametrize("weight", [0.3, 0.05, 0.95, 1e-14, 1.0 - 1e-14])
@pytest.mark.parametrize("stage", [PD, FRACTIONAL, make_pd(4.2, 2.5, -0.3, -1.7)])
def test_two_term_tree_equals_the_dense_expectation_tree(stage, weight, phases):
    state = PureState.from_terms(
        10,
        {
            "0" * 10: np.sqrt(weight) * np.exp(1j * phases[0]),
            "1" * 10: np.sqrt(1.0 - weight) * np.exp(1j * phases[1]),
        },
    )
    game = RepGame(state, stage)
    assert factor_pairs(state) is None
    tree = build_extensive(game)
    assert tree.to_json() == start_table_tree(game).to_json()
    assert_tables_within_rounding(game)
    pruned = min(weight, 1.0 - weight) <= PROB_FLOOR
    # One kept block heads every subgame; two disagree after every outcome.
    subgames = start_tables(game).subgames
    assert subgames == (pruned,) * 4
    assert_oracle_structure(tree, two_term_tree_oracle(game), subgames)
    probabilities = [
        p for node in tree.nodes if node.kind == "chance" for p in node.probabilities
    ]
    assert probabilities.count(0.0) == (12 if pruned else 8)


def pair_product_starts():
    """Twenty seeded random pair products, then products of
    sqrt(w)|00> + sqrt(1-w)|11> whose small weight is below PROB_FLOOR."""
    rng = np.random.default_rng(20261019)
    starts = [tensor_all([random_state(2, rng) for _ in range(5)]) for _ in range(20)]
    for weight in (1e-13, 1.0 - 1e-13):
        pair = PureState.from_terms(
            2, {"00": np.sqrt(weight), "11": np.sqrt(1.0 - weight)}
        )
        zero = PureState.basis(2, 0)
        starts += [tensor_all([pair] * 5), tensor_all([pair, zero, pair, zero, pair])]
    return starts


@pytest.mark.parametrize(
    "stage",
    [
        PD,
        FRACTIONAL,
        make_pd(4.2, 2.5, -0.3, -1.7),
        make_pd(1e8, 3, 1, 0),
        make_pd(2.5, -0.0, -1.2, -3.1),
    ],
    ids=["pd", "fractional", "negative", "t1e8", "signed-zero"],
)
def test_pair_product_tree_equals_the_per_factor_tree(stage):
    """Assembly bit for bit from the tables, the tables within rounding of
    exact arithmetic, and the per-factor tree's shape: every outcome heads
    a subgame, whose payoffs serve off the path too."""
    for index, state in enumerate(pair_product_starts()):
        game = RepGame(state, stage)
        tree = build_extensive(game)
        assert tree.to_json() == start_table_tree(game).to_json(), index
        assert_tables_within_rounding(game)
        assert start_tables(game).subgames == (True,) * 4, index
        assert_oracle_structure(tree, product_tree_oracle(game), (True,) * 4)


def test_pair_product_tree_differs_only_after_the_entangled_outcome():
    pair = PureState.from_terms(2, {"00": np.sqrt(0.6), "11": np.sqrt(0.4)})
    zero = PureState.basis(2, 0)
    stage = make_pd(5, 4, 1, 0)
    entangled_after_00 = RepGame(
        tensor_all([zero, pair, zero, zero, zero]), stage
    )
    classical = RepGame(PureState.basis(10, 0), stage)
    tree_q = build_extensive(entangled_after_00)
    tree_c = build_extensive(classical)
    for path_q, path_c in zip(walk_terminals(tree_q), walk_terminals(tree_c)):
        *_, outcome, b1, b2, terminal_q = path_q
        terminal_c = path_c[-1]
        if outcome == (0, 0):
            want = np.array(stage.pair(0, 0)) + 0.6 * np.array(
                stage.pair(b1, b2)
            ) + 0.4 * np.array(stage.pair(1 - b1, 1 - b2))
            assert np.allclose(terminal_q.payoffs, want, atol=1e-12)
        else:
            assert terminal_q.payoffs == terminal_c.payoffs


def test_start_tables_prune_blocks_as_the_measurement_does():
    """The block weights are the measured outcome probabilities bit for
    bit, 0.0 where ``measure_pair`` prunes (blocks scaled to 0 and 1e-7
    fall below ``PROB_FLOOR``, 1e-5 stays above it)."""
    for seed, scale in enumerate((1.0, 0.0, 1e-7, 1e-5)):
        rng = np.random.default_rng(70 + seed)
        amplitudes = random_state(10, rng).amplitudes.copy()
        amplitudes[256 * seed : 256 * (seed + 1)] *= scale
        game = pd_game(PureState(10, amplitudes / np.linalg.norm(amplitudes)))
        chance, _ = reference._stage1_chance(game)
        assert np.array_equal(start_tables(game).chance, chance)
        assert np.count_nonzero(chance) == (12 if scale in (0.0, 1e-7) else 16)


def seeded_start(kind: str, seed: int) -> PureState:
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return random_state(10, rng)
    if kind == "pair-product":
        return tensor_all([random_state(2, rng) for _ in range(5)])
    if kind == "two-term":
        weight = rng.uniform(0.01, 0.99)
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2))
        return PureState.from_terms(
            10,
            {
                "0" * 10: np.sqrt(weight) * phases[0],
                "1" * 10: np.sqrt(1.0 - weight) * phases[1],
            },
        )
    return PureState.basis(10, int(rng.integers(1024)))


_STARTS = st.tuples(
    st.sampled_from(["dense", "pair-product", "two-term", "basis"]),
    st.integers(0, 2**32 - 1),
)
BATTLE = StageGame((((3, 2), (0, 0)), ((0, 0), (2, 3))))
_STAGES = st.sampled_from([PD, FRACTIONAL, BATTLE])


def spe_or_refusal(game: RepGame) -> str:
    try:
        return spe_pair_product(game).to_json(STRATEGY_LABELS, STRATEGY_LABELS)
    except ValueError as err:
        return f"refused: {err}"


def tree_shape(tree: ExtensiveTree) -> list:
    return [
        (node.node_id, node.kind, node.children, node.reachable, node.payoffs is None)
        for node in tree.nodes
    ]


def every_output(game: RepGame) -> list:
    """Every table, tree, Nash set and SPE report of a game, as bytes or text."""
    tables = start_tables(game)
    stage2 = [None if t is None else t.tobytes() for row in tables.stage2 for t in row]
    batch = rep_component_tables(game)
    sequential = sequential_component_tables(game)
    return [
        tables.chance.tobytes(),
        tables.stage1.tobytes(),
        stage2,
        tables.gaps,
        [batch[key].tobytes() for key in TABLE_KEYS],
        [sequential[key].tobytes() for key in TABLE_KEYS],
        build_extensive(game).to_json(),
        pure_nash(rep_bimatrix(game)).to_json(STRATEGY_LABELS, STRATEGY_LABELS),
        spe_or_refusal(game),
    ]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(start=_STARTS, stage=_STAGES, seed=st.integers(0, 2**32 - 1))
def test_a_sign_pattern_leaves_every_output_bit_identical(start, stage, seed):
    """Flipping the sign of any amplitudes keeps every Born weight, and
    every output reads only those."""
    state = seeded_start(*start)
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=1024)
    signed = PureState(10, state.amplitudes * signs)
    assert every_output(RepGame(signed, stage)) == every_output(RepGame(state, stage))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(start=_STARTS, stage=_STAGES, seed=st.integers(0, 2**32 - 1))
def test_a_phase_pattern_leaves_every_decision_unchanged(start, stage, seed):
    """Phases move Born weights by rounding only: the same subgame
    decision, SPE profiles and strict flags (or the same refused outcome),
    and the same tree shape."""
    state = seeded_start(*start)
    phases = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2 * np.pi, 1024))
    phased = PureState(10, state.amplitudes * phases)
    games = [RepGame(start, stage) for start in (state, phased)]
    tables = [start_tables(game) for game in games]
    assert tables[0].subgames == tables[1].subgames
    if all(tables[0].subgames):
        first, second = (spe_pair_product(game).equilibria for game in games)
        assert [(e.row, e.col, e.strict) for e in first] == [
            (e.row, e.col, e.strict) for e in second
        ]
    else:
        refused = [spe_or_refusal(game).split(": its")[0] for game in games]
        assert refused[0] == refused[1]
    first_tree, second_tree = (build_extensive(game) for game in games)
    assert tree_shape(first_tree) == tree_shape(second_tree)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(start=_STARTS, stage=_STAGES, k=st.integers(-40, 40))
def test_payoffs_times_a_power_of_two_leave_the_subgame_decision(start, stage, k):
    """A power of two scales every table entry, gap and the bound exactly,
    so the subgame decision and the tree's shape do not move."""
    state = seeded_start(*start)
    factor = 2.0**k
    scaled = StageGame((np.array(stage.outcomes) * factor).tolist())
    plain, times = (start_tables(RepGame(state, s)) for s in (stage, scaled))
    assert times.subgames == plain.subgames
    assert times.gaps == tuple(gap * factor for gap in plain.gaps)
    assert times.bound == plain.bound * factor
    assert np.array_equal(times.stage1, plain.stage1 * factor)
    for row, plain_row in zip(times.stage2, plain.stage2):
        for table, plain_table in zip(row, plain_row):
            assert (table is None) == (plain_table is None)
            if table is not None:
                assert np.array_equal(table, plain_table * factor)
    trees = (build_extensive(RepGame(state, s)) for s in (stage, scaled))
    assert tree_shape(next(trees)) == tree_shape(next(trees))


def test_tree_serialization_round_trips():
    tree = build_extensive(ghz_game())
    doc = json.loads(tree.to_json())
    assert doc["root"] == 0
    assert len(doc["nodes"]) == 119
    by_id = {entry["id"]: entry for entry in doc["nodes"]}
    assert by_id[0]["kind"] == "decision"
    assert by_id[0]["info_set"] == "1:stage1"
    chance_entries = [e for e in doc["nodes"] if e["kind"] == "chance"]
    assert len(chance_entries) == 4
    for entry in chance_entries:
        assert abs(sum(entry["probabilities"]) - 1.0) <= 1e-9


def test_tree_refuses_a_chance_node_that_does_not_sum_to_one():
    tree = build_extensive(all_zero_game())
    nodes = list(tree.nodes)
    chance_id = nodes[tree.nodes[tree.root].children[0]].children[0]
    assert nodes[chance_id].probabilities == (1.0, 0.0, 0.0, 0.0)
    nodes[chance_id] = dataclasses.replace(
        nodes[chance_id], probabilities=(0.5, 0.0, 0.0, 0.0)
    )
    message = f"chance node {chance_id} probabilities sum to 0.5"
    with pytest.raises(ValueError, match=message):
        ExtensiveTree(tuple(nodes), tree.root)


def test_tree_skeleton_is_built_once_per_process():
    script = (
        "import numpy as np\n"
        "from qrgames import repeated10 as r\n"
        "from qrgames.qstate import PureState\n"
        "from qrgames.stagegames import make_pd\n"
        "stage = make_pd(5, 3, 1, 0)\n"
        "print(r._tree_skeleton.cache_info().misses)\n"
        "r.build_extensive(r.RepGame(PureState.basis(10, 0), stage))\n"
        "ghz = {'0' * 10: np.sqrt(0.3), '1' * 10: np.sqrt(0.7)}\n"
        "r.build_extensive(r.RepGame(PureState.from_terms(10, ghz), stage))\n"
        "print(r._tree_skeleton.cache_info().misses)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["0", "1"]


def test_trees_share_their_decision_nodes():
    rng = np.random.default_rng(69)
    trees = [
        build_extensive(pd_game(tensor_all([random_state(2, rng) for _ in range(5)])))
        for _ in range(2)
    ]
    first, second = trees
    decisions = [i for i, node in enumerate(first.nodes) if node.kind == "decision"]
    assert len(decisions) == 51
    assert all(first.nodes[i] is second.nodes[i] for i in decisions)
    assert all(
        first.nodes[i] is not second.nodes[i]
        for i, node in enumerate(first.nodes)
        if node.kind != "decision"
    )


@pytest.mark.parametrize(
    "payoffs, live",
    [((3.5, -0.0), True), (None, False), ((-5e-324, 1e300), False), (None, True)],
)
def test_the_terminal_shortcut_builds_the_constructors_node(payoffs, live):
    fast = TreeNode._terminal(17, payoffs, live)
    slow = TreeNode(17, "terminal", None, None, (), (), None, payoffs, live)
    assert type(fast) is TreeNode
    assert fast == slow and hash(fast) == hash(slow) and repr(fast) == repr(slow)
    assert list(vars(fast).items()) == list(vars(slow).items())
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.payoffs = (0.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del fast.kind
    moved = dataclasses.replace(fast, payoffs=(1.0, 2.0), reachable=True)
    assert moved == dataclasses.replace(slow, payoffs=(1.0, 2.0), reachable=True)
    assert dataclasses.replace(fast) == slow


def test_tree_nodes_have_nothing_the_terminal_shortcut_would_skip():
    """``TreeNode._terminal`` bypasses ``__init__``: a ``__post_init__``
    check or a tenth field would be silently skipped on every terminal."""
    assert not hasattr(TreeNode, "__post_init__")
    assert [f.name for f in dataclasses.fields(TreeNode)] == [
        "node_id",
        "kind",
        "owner",
        "info_set",
        "actions",
        "children",
        "probabilities",
        "payoffs",
        "reachable",
    ]


def test_a_pruned_two_term_start_uses_the_unreachable_variants():
    """At weight 1e-14 the pruning keeps one outcome per stage-1 flip
    pair: the decisions below the others are the skeleton's unreachable
    ones and the rest its reachable ones.  The one kept block makes every
    outcome head a subgame, so every terminal carries payoffs."""
    tree = build_extensive(ghz_game(1e-14))
    unreachable_nodes, reachable_nodes = repeated10._tree_skeleton()
    unreachable = 0
    for chance_id in repeated10._CHANCE_IDS:
        chance = tree.nodes[chance_id]
        weights = chance.probabilities
        assert sum(weight > 0.0 for weight in weights) == 1
        for o, (first, weight) in enumerate(zip(chance.children, weights)):
            assert first == chance_id + 1 + 7 * o
            block = tree.nodes[first : first + 7]
            variant = (reachable_nodes if weight > 0.0 else unreachable_nodes)[
                first : first + 7
            ]
            assert all(block[i] is variant[i] for i in (0, 1, 4))
            assert all(block[i].payoffs is not None for i in (2, 3, 5, 6))
            assert all(node.reachable == (weight > 0.0) for node in block)
            unreachable += 7 * (weight == 0.0)
    assert unreachable == sum(not node.reachable for node in tree.nodes) == 84


def test_tree_accepts_a_start_entangled_across_pairs():
    """Blocks 00 and 01 hold different patterns of pair 3-4, so outcome 00
    heads no subgame: its reached branches carry their own continuations,
    and the terminals below a pruned block have no payoffs.  Pairs 5-10
    are |00> in both blocks, so the other outcomes head subgames."""
    state = PureState.from_terms(
        10, {"0" * 10: np.sqrt(0.5), "0110000000": np.sqrt(0.5)}
    )
    game = pd_game(state)
    tree = build_extensive(game)
    assert start_tables(game).subgames == (False, True, True, True)
    for a1, a2, outcome, b1, b2, terminal in walk_terminals(tree):
        block = (2 * a1 + a2) ^ (2 * outcome[0] + outcome[1])
        if outcome != (0, 0):
            assert terminal.payoffs == tuple(np.add(PD.pair(*outcome), PD.pair(b1, b2)))
        elif block in (0, 1):
            # Block 01 holds pair 3-4 at 10, which the stage-2 flips move.
            held = (block, 0)
            second = PD.pair(held[0] ^ b1, held[1] ^ b2)
            assert terminal.payoffs == tuple(np.add(PD.pair(0, 0), second))
        else:
            assert terminal.payoffs is None and not terminal.reachable
    assert_tables_within_rounding(game)
    with pytest.raises(ValueError, match="no self-contained subgame after outcome 00"):
        spe_pair_product(game)
