"""Acceptance battery: the nine headline claims of this package.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` and in
failure reports) and then asserts.  Tolerances are stated inline; exact
comparisons are used where the computation is a pure index permutation
and no rounding can occur.

1. classical embedding          max cell deviation <= 1e-9
2. batch/sequential agreement   20 states x 1024 profiles, <= 1e-9
3. fixed second-stage table     5/3, 10/3, 7/3 values, <= 1e-9
4. no cooperation on 4 qubits   51 states, dominance gaps <= 1e-9
5. all-one start relabeling     exact table equality
6. cooperation threshold        scan bound within 0.01 of 1/3
7. entangled pair, two profiles exactly two, payoffs <= 1e-9
8. register size formula        exact
9. randomized invariants        1000 cases per property
"""

from __future__ import annotations

import numpy as np
import pytest

from qrgames import (
    DiagonalObservable,
    Ensemble,
    FlipLayer,
    ITGame,
    MWGame,
    PureState,
    RepGame,
    apply_flips,
    classical_twice_repeated,
    cooperation_scan,
    expectation,
    it_batch_expected,
    it_no_cooperation_check,
    make_pd,
    measure_pair,
    mw_bimatrix,
    pure_nash,
    qubit_count,
    random_state,
    rep_bimatrix,
    rep_component_tables,
    sample_dilemma_state,
    sequential_component_tables,
    spe_pair_product,
    tensor_all,
)
from qrgames.stagegames import Bimatrix

PD = make_pd(5, 3, 1, 0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")


def test_classical_embedding():
    """All-zero start makes the 10-qubit game the classical repeated game."""
    quantum = rep_bimatrix(RepGame(PureState.basis(10, 0), PD))
    classical = classical_twice_repeated(PD)
    deviation = max(
        float(np.abs(quantum.payoffs1 - classical.payoffs1).max()),
        float(np.abs(quantum.payoffs2 - classical.payoffs2).max()),
    )
    ok = deviation <= 1e-9
    report("classical embedding", ok, f"max deviation {deviation:.3e}")
    assert ok


def test_batch_sequential_equivalence():
    """The measure-then-continue procedure pays the same as one-shot play.

    Twenty seeded random 10-qubit states, all 1024 pure profiles, all
    four per-player per-stage components, tolerance 1e-9.  The
    sequential side is the measure-then-flip table, which shares each
    stage-1 measurement across the profiles that use it; tests in
    test_repeated10 pin it to ``play_sequential`` cell by cell.
    """
    rng = np.random.default_rng(20260501)
    worst = 0.0
    checked = 0
    for _ in range(20):
        game = RepGame(random_state(10, rng), PD)
        batch = rep_component_tables(game)
        sequential = sequential_component_tables(game)
        for key, table in batch.items():
            worst = max(worst, float(np.abs(table - sequential[key]).max()))
        checked += batch[(1, 1)].size
    ok = worst <= 1e-9
    report(
        "batch/sequential equivalence",
        ok,
        f"max deviation {worst:.3e} over {checked} profiles",
    )
    assert ok


def family_member(w0000: float, w0011: float, phase: float) -> PureState:
    """Four-term 4-qubit state whose stage-2 pair carries 1/3 on |00>."""
    w1100 = 1.0 / 3.0 - w0000
    w1111 = 2.0 / 3.0 - w0011
    return PureState.from_terms(
        4,
        {
            "0000": np.sqrt(w0000),
            "1100": np.sqrt(w1100),
            "0011": np.sqrt(w0011) * np.exp(1j * phase),
            "1111": np.sqrt(w1111),
        },
    )


def test_entangled_second_stage_values():
    """Any split of the 1/3 weight gives the same second-stage table.

    Expected per-player values are 5/3, 10/3 and 7/3 in the usual
    pattern; the induced 2x2 then has several equilibria, including
    both anti-symmetric profiles.  Tolerance 1e-9.
    """
    want1 = np.array([[5.0, 10.0], [5.0, 7.0]]) / 3.0
    want2 = np.array([[5.0, 5.0], [10.0, 7.0]]) / 3.0
    members = [
        family_member(0.2, 0.3, 0.0),
        family_member(0.05, 0.5, 0.0),
        family_member(1.0 / 3.0, 0.1, np.pi / 3.0),
    ]
    worst = 0.0
    profiles = None
    for state in members:
        game = ITGame(state, PD)
        table1 = np.empty((2, 2))
        table2 = np.empty((2, 2))
        for k3 in (0, 1):
            for k4 in (0, 1):
                outcome = it_batch_expected(game, 0, 0, k3, k4)
                table1[k3, k4] = outcome.p1_stage2
                table2[k3, k4] = outcome.p2_stage2
        worst = max(
            worst,
            float(np.abs(table1 - want1).max()),
            float(np.abs(table2 - want2).max()),
        )
        bm = Bimatrix(table1, table2, ("0", "1"), ("0", "1"))
        found = {(eq.row, eq.col) for eq in pure_nash(bm, tol=1e-9).equilibria}
        if profiles is None:
            profiles = found
        assert found == profiles
    ok = worst <= 1e-9 and len(profiles) >= 2 and {(0, 1), (1, 0)} <= profiles
    report(
        "entangled second-stage values",
        ok,
        f"max deviation {worst:.3e}, equilibria {sorted(profiles)}",
    )
    assert ok


def test_no_cooperation_four_qubit():
    """Stage-1 flips strictly dominate on every dilemma-consistent state.

    |0000> plus fifty sampled states: dominance gaps match the pattern
    values T'-R' and P'-S' within 1e-9, and every pure equilibrium of
    the 4x4 game has both players flipping in stage 1.
    """
    rng = np.random.default_rng(20260502)
    states = [PureState.basis(4, 0)] + [
        sample_dilemma_state(PD, rng) for _ in range(50)
    ]
    worst = 0.0
    excluded_everywhere = True
    for state in states:
        verdict = it_no_cooperation_check(ITGame(state, PD))
        excluded_everywhere &= verdict.cooperation_excluded
        pattern = verdict.pattern
        wanted = (pattern.t - pattern.r, pattern.p - pattern.s)
        for gaps in (verdict.player1_gaps, verdict.player2_gaps):
            worst = max(
                worst, abs(gaps[0] - wanted[0]), abs(gaps[1] - wanted[1])
            )
    ok = worst <= 1e-9 and excluded_everywhere
    report(
        "no cooperation on 4 qubits",
        ok,
        f"max gap deviation {worst:.3e} over {len(states)} states",
    )
    assert ok


def test_basis11_relabeling():
    """Starting from |11> permutes the table without changing outcomes."""
    t, r, p, s = 5.0, 3.0, 1.0, 0.0
    bm = mw_bimatrix(MWGame(PureState.basis(2, "11"), PD))
    want = {
        (0, 0): (p, p),
        (0, 1): (t, s),
        (1, 0): (s, t),
        (1, 1): (r, r),
    }
    ok = all(bm.cell(*key) == value for key, value in want.items())
    report("all-one start relabeling", ok, "exact table comparison")
    assert ok


def test_cooperation_threshold_and_spe():
    """Mutual identity survives while the |00> weight stays under 1/3.

    The 0.01-grid scan lands within one step of the closed form, and at
    weight 0.2 the unique subgame perfect profile is all-identity with
    total payoffs (2.8, 2.8), tolerance 1e-9.
    """
    analysis = cooperation_scan(PD, 0.01)
    bound_gap = abs(analysis.empirical_bound - 1.0 / 3.0)

    pair = PureState.from_terms(2, {"00": np.sqrt(0.2), "11": np.sqrt(0.8)})
    game = RepGame(tensor_all([pair] * 5), PD)
    spe = spe_pair_product(game).equilibria
    spe_ok = (
        len(spe) == 1
        and (spe[0].row, spe[0].col) == (0, 0)
        and abs(spe[0].payoffs[0] - 2.8) <= 1e-9
        and abs(spe[0].payoffs[1] - 2.8) <= 1e-9
    )
    ok = bound_gap <= 0.01 and spe_ok
    report(
        "cooperation threshold",
        ok,
        f"empirical bound {analysis.empirical_bound:.4f}, "
        f"{len(spe)} profile(s) at x=0.2",
    )
    assert ok


def test_two_spe_with_entangled_pair():
    """Entangling one outcome's pair doubles the subgame perfect set.

    The start |00> x (sqrt(0.6)|00> + sqrt(0.4)|11>) x |00>^3 with
    payoffs (5, 4, 1, 0) has exactly two profiles, paying (6.2, 6.2)
    and (2.0, 2.0), tolerance 1e-9.
    """
    pair = PureState.from_terms(2, {"00": np.sqrt(0.6), "11": np.sqrt(0.4)})
    zero = PureState.basis(2, 0)
    game = RepGame(
        tensor_all([zero, pair, zero, zero, zero]), make_pd(5, 4, 1, 0)
    )
    equilibria = spe_pair_product(game).equilibria
    profiles = [(eq.row, eq.col) for eq in equilibria]
    ok = (
        profiles == [(15, 15), (31, 31)]
        and abs(equilibria[0].payoffs[0] - 6.2) <= 1e-9
        and abs(equilibria[0].payoffs[1] - 6.2) <= 1e-9
        and abs(equilibria[1].payoffs[0] - 2.0) <= 1e-9
        and abs(equilibria[1].payoffs[1] - 2.0) <= 1e-9
    )
    payoffs = [tuple(round(v, 6) for v in eq.payoffs) for eq in equilibria]
    report(
        "entangled pair, two profiles", ok, f"profiles {profiles}, payoffs {payoffs}"
    )
    assert ok


def test_register_size():
    """Two qubits per player per reachable history: 2, 10, 42, ..."""
    got = tuple(qubit_count(n) for n in (1, 2, 3))
    ok = got == (2, 10, 42)
    report("register size formula", ok, f"qubit_count(1..3) = {got}")
    assert ok


def test_randomized_invariants():
    """Four structural properties, 1000 randomized cases each.

    Norm preservation under flips (1e-12), exact flip involution,
    measurement-probability normalization (1e-9) and expectation
    multilinearity (1e-9).
    """
    cases = 1000

    rng = np.random.default_rng(101)
    for _ in range(cases):
        n = int(rng.integers(1, 6))
        state = random_state(n, rng)
        layer = FlipLayer({q: int(rng.integers(0, 2)) for q in range(1, n + 1)})
        flipped = apply_flips(state, layer)
        assert abs(float(flipped.probabilities.sum()) - 1.0) <= 1e-12
        assert np.array_equal(
            apply_flips(flipped, layer).amplitudes, state.amplitudes
        )

    rng = np.random.default_rng(102)
    for _ in range(cases):
        n = int(rng.integers(2, 6))
        state = random_state(n, rng)
        qubits = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        branches = measure_pair(state, int(qubits[0]), int(qubits[1]))
        assert abs(sum(p for _, p, _ in branches) - 1.0) <= 1e-9
        for _, _, post in branches:
            assert abs(float(post.probabilities.sum()) - 1.0) <= 1e-9

    rng = np.random.default_rng(103)
    for _ in range(cases):
        n = int(rng.integers(1, 5))
        first = random_state(n, rng)
        second = random_state(n, rng)
        weights_a = rng.standard_normal(2**n)
        weights_b = rng.standard_normal(2**n)
        alpha = float(rng.uniform())
        beta = float(rng.uniform(-2, 2))
        obs_a = DiagonalObservable(n, weights_a)
        obs_b = DiagonalObservable(n, weights_b)
        combined = DiagonalObservable(n, weights_a + beta * weights_b)
        mixed = Ensemble(((alpha, first), (1.0 - alpha, second)))
        mixture_gap = expectation(mixed, obs_a) - (
            alpha * expectation(first, obs_a)
            + (1.0 - alpha) * expectation(second, obs_a)
        )
        observable_gap = expectation(first, combined) - (
            expectation(first, obs_a) + beta * expectation(first, obs_b)
        )
        assert abs(mixture_gap) <= 1e-9
        assert abs(observable_gap) <= 1e-9

    report("randomized invariants", True, f"{cases} cases per property")
