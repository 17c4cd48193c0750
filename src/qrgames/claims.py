"""The package's nine headline claims, each stated once, and the two
deviation checks ``qrgames compare-protocols`` runs.

``qrgames paper-repro`` runs the claims with seed 271828 and the acceptance
tests with seed 20260501.  Every claim check takes ``(seed, perturb)``
and returns ``(ok, detail)``: the seed draws the claim's random inputs,
and ``perturb`` (added to the dilemma's T) is read by the second-stage
table only.
Exact comparisons are used where the computation is a pure index
permutation and no rounding can occur.

1. classical embedding          max cell deviation <= 1e-9
2. batch/sequential agreement   20 states x 1024 profiles, <= 1e-9
3. fixed second-stage table     5/3, 10/3, 7/3 on 3 states, <= 1e-9
4. no cooperation on 4 qubits   51 states, dominance gaps <= 1e-9
5. all-one start relabeling     exact table equality
6. cooperation threshold        scan bound within one step of 1/3
7. entangled pair, two profiles exactly two, payoffs <= 1e-9
8. register size formula        exact
9. randomized invariants        1000 cases

Each deviation check sets a protocol's production tables against an
independent path on random starts.  ``mw10_deviation`` compares the
one-shot ten-qubit table (read from marginals) with the sequential one
(measure, then flip).  ``it_deviation`` compares the four-qubit table
and mixed payoffs (read from the marginals of qubits 1-2 and 3-4) with
dense evaluation of every pure flip mask on the whole register.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .equilibria import cooperation_scan, pure_nash, spe_pair_product
from .iqbaltoor import (
    ITGame,
    ITStrategy,
    it_expected,
    it_no_cooperation_check,
    it_pure_bimatrix,
    sample_dilemma_state,
)
from .mw import MWGame, mw_bimatrix
from .qstate import (
    Ensemble,
    PureState,
    apply_flips,
    expectation,
    measure_pair,
    random_state,
    sum_in_order,
    tensor_all,
)
from .reference import it_batch_expected, sequential_component_tables
from .repeated10 import RepGame, example_state, rep_bimatrix, rep_component_tables
from .stagegames import (
    Bimatrix,
    StageGame,
    classical_twice_repeated,
    make_pd,
    payoff_scale,
    qubit_count,
)

Verdict = tuple[bool, str]
Check = Callable[[int, float], Verdict]
# The grid step of the cooperation-threshold claim's scan.
_SCAN_STEP = 0.01


def mw10_deviation(stage: StageGame, samples: int, seed: int) -> tuple[float, int]:
    """Max |batch - sequential| over random states and all pure profiles."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for _ in range(samples):
        game = RepGame(random_state(10, rng), stage)
        batch = rep_component_tables(game)
        sequential = sequential_component_tables(game)
        worst = max(worst, float(np.abs(batch - sequential).max()))
        checked += batch[0].size
    return worst, checked


def it_deviation(stage: StageGame, samples: int, seed: int) -> tuple[float, int]:
    """Max |marginal path - dense path| on the four-qubit protocol.

    Per random state, the 16 cells of ``it_pure_bimatrix`` are compared
    with the totals of ``it_batch_expected`` at the same flips, and one
    random mixed ``it_expected`` with the blend of those 16 dense corners
    under the product of the four flip probabilities.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for _ in range(samples):
        game = ITGame(random_state(4, rng), stage)
        a1, b1, a2, b2 = (float(rng.uniform()) for _ in range(4))
        # Axes k1, k2, k3, k4 (flips of qubits 1-4), then ExpectedPayoffs order.
        corners = np.array(
            [
                it_batch_expected(game, *bits).as_array()
                for bits in np.ndindex(2, 2, 2, 2)
            ]
        ).reshape(2, 2, 2, 2, 4)
        # A cell's row is player 1's bits 2*k1 + k3, its column 2*k2 + k4.
        cells = corners.transpose(0, 2, 1, 3, 4).reshape(4, 4, 4)
        bm = it_pure_bimatrix(game)
        for table, stage1, stage2 in ((bm.payoffs1, 0, 1), (bm.payoffs2, 2, 3)):
            dense = cells[..., stage1] + cells[..., stage2]
            worst = max(worst, float(np.abs(table - dense).max()))
        flips = [[1.0 - a1, a1], [1.0 - a2, a2], [1.0 - b1, b1], [1.0 - b2, b2]]
        blend = np.einsum("i,j,k,l,ijklm->m", *flips, corners)
        mixed = it_expected(game, ITStrategy(a1, b1), ITStrategy(a2, b2))
        worst = max(worst, float(np.abs(blend - mixed.as_array()).max()))
        checked += bm.payoffs1.size + 1
    return worst, checked


def classical_embedding(seed: int, perturb: float) -> Verdict:
    """The all-zero start makes the 10-qubit game the classical repeated game."""
    stage = make_pd(5, 3, 1, 0)
    quantum = rep_bimatrix(RepGame(PureState.basis(10, 0), stage))
    classical = classical_twice_repeated(stage)
    deviation = max(
        float(np.abs(quantum.payoffs1 - classical.payoffs1).max()),
        float(np.abs(quantum.payoffs2 - classical.payoffs2).max()),
    )
    return deviation <= 1e-9, f"max deviation {deviation:.3e}"


def batch_sequential_equivalence(seed: int, perturb: float) -> Verdict:
    """Measuring in the middle pays what one-shot play pays."""
    worst, checked = mw10_deviation(make_pd(5, 3, 1, 0), samples=20, seed=seed)
    return worst <= 1e-9, f"max deviation {worst:.3e} over {checked} profiles"


def _family_member(w0000: float, w0011: float, phase: float) -> PureState:
    """Four-term 4-qubit state whose stage-2 pair carries 1/3 on |00>."""
    return PureState.from_terms(
        4,
        {
            "0000": math.sqrt(w0000),
            "1100": math.sqrt(1.0 / 3.0 - w0000),
            "0011": math.sqrt(w0011) * np.exp(1j * phase),
            "1111": math.sqrt(2.0 / 3.0 - w0011),
        },
    )


def entangled_second_stage_table(seed: int, perturb: float) -> Verdict:
    """Any split of the 1/3 weight gives one second-stage table, and one
    equilibrium set holding both anti-symmetric profiles.
    """
    stage = make_pd(5 + perturb, 3, 1, 0)
    want1 = np.array([[5.0, 10.0], [5.0, 7.0]]) / 3.0
    want2 = np.array([[5.0, 5.0], [10.0, 7.0]]) / 3.0
    deviation = 0.0
    sets = set()
    family = ((0.2, 0.3, 0.0), (0.05, 0.5, 0.0), (1.0 / 3.0, 0.1, math.pi / 3.0))
    for w0000, w0011, phase in family:
        game = ITGame(_family_member(w0000, w0011, phase), stage)
        cells = [[it_batch_expected(game, 0, 0, a, b) for b in (0, 1)] for a in (0, 1)]
        table1 = np.array([[cell.p1_stage2 for cell in row] for row in cells])
        table2 = np.array([[cell.p2_stage2 for cell in row] for row in cells])
        deviation = max(
            deviation,
            float(np.abs(table1 - want1).max()),
            float(np.abs(table2 - want2).max()),
        )
        bm = Bimatrix(table1, table2, ("0", "1"), ("0", "1"))
        equilibria = pure_nash(bm, scale=payoff_scale(stage)).equilibria
        sets.add(frozenset((eq.row, eq.col) for eq in equilibria))
    profiles = set().union(*sets)
    ok = (
        deviation <= 1e-9
        and len(sets) == 1
        and len(profiles) >= 2
        and {(0, 1), (1, 0)} <= profiles
    )
    shared = "" if len(sets) == 1 else " (not shared by the family)"
    return ok, f"max deviation {deviation:.3e}, equilibria {sorted(profiles)}{shared}"


def four_qubit_no_cooperation(seed: int, perturb: float) -> Verdict:
    """Stage-1 flips strictly dominate on every dilemma-consistent state,
    by the pattern's gaps T'-R' and P'-S'.
    """
    stage = make_pd(5, 3, 1, 0)
    rng = np.random.default_rng(seed)
    states = [PureState.basis(4, 0)] + [
        sample_dilemma_state(stage, rng) for _ in range(50)
    ]
    worst = 0.0
    for state in states:
        verdict = it_no_cooperation_check(ITGame(state, stage))
        if not verdict.cooperation_excluded:
            return False, "an equilibrium kept a stage-1 identity"
        pattern = verdict.pattern
        wanted = (pattern.t - pattern.r, pattern.p - pattern.s)
        for gaps in (verdict.player1_gaps, verdict.player2_gaps):
            worst = max(worst, abs(gaps[0] - wanted[0]), abs(gaps[1] - wanted[1]))
    return worst <= 1e-9, f"max gap deviation {worst:.3e} over {len(states)} states"


def basis_11_relabeling(seed: int, perturb: float) -> Verdict:
    """Starting from |11> permutes the table without changing outcomes."""
    t, r, p, s = 5.0, 3.0, 1.0, 0.0
    bm = mw_bimatrix(MWGame(PureState.basis(2, "11"), make_pd(t, r, p, s)))
    want = {(0, 0): (p, p), (0, 1): (t, s), (1, 0): (s, t), (1, 1): (r, r)}
    exact = all(bm.cell(*key) == value for key, value in want.items())
    return exact, "table mismatch" if not exact else ""


def cooperation_threshold(seed: int, perturb: float) -> Verdict:
    """Mutual identity survives while the |00> weight stays under 1/3.

    At weight 0.2 the lone subgame perfect profile is all-identity,
    paying (2.8, 2.8).
    """
    stage = make_pd(5, 3, 1, 0)
    analysis = cooperation_scan(stage, _SCAN_STEP)
    bound_ok = abs(analysis.empirical_bound - 1.0 / 3.0) <= _SCAN_STEP
    pair = PureState.from_terms(2, {"00": math.sqrt(0.2), "11": math.sqrt(0.8)})
    report = spe_pair_product(RepGame(tensor_all([pair] * 5), stage))
    eqs = report.equilibria
    spe_ok = (
        len(eqs) == 1
        and (eqs[0].row, eqs[0].col) == (0, 0)
        and max(abs(value - 2.8) for value in eqs[0].payoffs) <= 1e-9
    )
    return (
        bound_ok and spe_ok,
        f"empirical bound {analysis.empirical_bound:.4f}, "
        f"{len(eqs)} equilibria at x=0.2",
    )


def pair_product_two_spe(seed: int, perturb: float) -> Verdict:
    """On the example_4_5 start two profiles are subgame perfect, not one."""
    report = spe_pair_product(RepGame(example_state(), make_pd(5, 4, 1, 0)))
    profiles = [(eq.row, eq.col) for eq in report.equilibria]
    payoffs = [eq.payoffs for eq in report.equilibria]
    ok = (
        profiles == [(15, 15), (31, 31)]
        and max(abs(payoffs[0][0] - 6.2), abs(payoffs[0][1] - 6.2)) <= 1e-9
        and max(abs(payoffs[1][0] - 2.0), abs(payoffs[1][1] - 2.0)) <= 1e-9
    )
    return ok, f"profiles {profiles}, payoffs {payoffs}"


def register_size_formula(seed: int, perturb: float) -> Verdict:
    """Two qubits per player per reachable history: 2, 10, 42, ..."""
    got = tuple(qubit_count(n) for n in (1, 2, 3))
    return got == (2, 10, 42), f"got {got}"


def randomized_invariants(seed: int, perturb: float) -> Verdict:
    """Flips keep the norm and undo themselves, measurement branches are
    normalized, and expectations are linear in the state and observable.
    """
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        state = random_state(n, rng)
        flips = {q: int(rng.integers(0, 2)) for q in range(1, n + 1)}
        flipped = apply_flips(state, flips)
        if abs(float(flipped.probabilities.sum()) - 1.0) > 1e-12:
            return False, "flip broke normalization"
        if not np.array_equal(apply_flips(flipped, flips).amplitudes, state.amplitudes):
            return False, "flip applied twice is not the identity"
        if n >= 2:
            qubits = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            branches = measure_pair(state, int(qubits[0]), int(qubits[1]))
            totals = [float(post.probabilities.sum()) for _, _, post in branches]
            totals.append(sum_in_order(probability for _, probability, _ in branches))
            if max(abs(total - 1.0) for total in totals) > 1e-9:
                return False, "measurement branches are not normalized"
        other = random_state(n, rng)
        weights_a = rng.standard_normal(2 ** n)
        weights_b = rng.standard_normal(2 ** n)
        alpha, beta = rng.uniform(), float(rng.uniform(-2, 2))
        mixed = Ensemble(((alpha, state), (1.0 - alpha, other)))
        mix_linear = expectation(mixed, weights_a) - (
            alpha * expectation(state, weights_a)
            + (1.0 - alpha) * expectation(other, weights_a)
        )
        obs_linear = expectation(state, weights_a + beta * weights_b) - (
            expectation(state, weights_a) + beta * expectation(state, weights_b)
        )
        if abs(mix_linear) > 1e-9 or abs(obs_linear) > 1e-9:
            return False, "expectation is not multilinear"
    return True, ""


CLAIMS: tuple[tuple[str, Check], ...] = (
    ("classical-embedding", classical_embedding),
    ("batch-sequential-equivalence", batch_sequential_equivalence),
    ("entangled-second-stage-table", entangled_second_stage_table),
    ("four-qubit-no-cooperation", four_qubit_no_cooperation),
    ("basis-11-relabeling", basis_11_relabeling),
    ("cooperation-threshold", cooperation_threshold),
    ("pair-product-two-spe", pair_product_two_spe),
    ("register-size-formula", register_size_formula),
    ("randomized-invariants", randomized_invariants),
)


def run_claims(seed: int, perturb: float = 0.0) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) per claim; a check that raises fails with its error."""
    results = []
    for name, check in CLAIMS:
        try:
            ok, detail = check(seed, perturb)
        except Exception as err:
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        results.append((name, ok, detail))
    return results
