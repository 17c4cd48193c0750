"""Acceptance battery: the nine headline claims of :mod:`qrgames.claims`.

Each case prints one PASS/FAIL line (visible with ``pytest -s`` and in
failure reports) and then asserts.  The claims draw their random inputs
from seed 20260501 here and from 271828 in ``qrgames paper-repro``.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

from qrgames import claims, iqbaltoor, reference, repeated10
from qrgames.claims import CLAIMS, run_claims
from qrgames.cli import main
from qrgames.mw import pair_table, stage_weights
from qrgames.qstate import PureState
from qrgames.stagegames import make_pd, payoff_scale

SEED = 20260501


@pytest.mark.parametrize("name, check", CLAIMS, ids=[name for name, _ in CLAIMS])
def test_claim(name, check):
    ok, detail = check(SEED, 0.0)
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, detail


def _after(original, alter):
    return lambda *args: alter(original(*args))


def _shift_gap(verdict):
    gap_c, gap_d = verdict.player1_gaps
    return replace(verdict, player1_gaps=(gap_c + 1e-6, gap_d))


# Per claim: the name in qrgames.claims to wrap, and how to break its result.
BREAKS = [
    ("classical-embedding", "classical_twice_repeated",
     lambda bm: replace(bm, payoffs1=bm.payoffs1 + 1e-6)),
    ("batch-sequential-equivalence", "sequential_component_tables",
     lambda tables: tables + np.array([1e-6, 0.0, 0.0, 0.0])[:, None, None]),
    ("entangled-second-stage-table", "it_batch_expected",
     lambda payoffs: replace(payoffs, p1_stage2=payoffs.p1_stage2 + 1e-6)),
    ("four-qubit-no-cooperation", "it_no_cooperation_check", _shift_gap),
    ("basis-11-relabeling", "mw_bimatrix",
     lambda bm: replace(bm, payoffs1=bm.payoffs2, payoffs2=bm.payoffs1)),
    ("cooperation-threshold", "cooperation_scan",
     lambda scan: replace(scan, empirical_bound=scan.empirical_bound - 0.02)),
    ("pair-product-two-spe", "spe_pair_product",
     lambda report: replace(report, equilibria=report.equilibria[:1])),
    ("register-size-formula", "qubit_count", lambda count: count + 1),
    ("randomized-invariants", "apply_flips",
     lambda state: PureState(state.num_qubits, 1j * state.amplitudes)),
]


@pytest.mark.parametrize("name, attribute, alter", BREAKS, ids=[b[0] for b in BREAKS])
def test_each_claim_fails_when_its_result_is_broken(
    monkeypatch, name, attribute, alter
):
    monkeypatch.setattr(claims, attribute, _after(getattr(claims, attribute), alter))
    assert [claim for claim, ok, _ in run_claims(SEED) if not ok] == [name]


def test_a_family_member_with_its_own_equilibrium_set_fails_the_shared_claim(
    monkeypatch,
):
    original = claims.pure_nash
    calls = []

    def second_report_drops_its_first(bimatrix, **keywords):
        report = original(bimatrix, **keywords)
        calls.append(report)
        if len(calls) == 2:
            return replace(report, equilibria=report.equilibria[1:])
        return report

    monkeypatch.setattr(claims, "pure_nash", second_report_drops_its_first)
    results = run_claims(SEED)
    assert [name for name, ok, _ in results if not ok] == [
        "entangled-second-stage-table"
    ]
    details = {name: detail for name, _, detail in results}
    assert details["entangled-second-stage-table"].endswith(
        "(not shared by the family)"
    )


def test_a_raising_check_fails_its_claim_with_the_message(monkeypatch):
    def broken(seed, perturb):
        raise np.linalg.LinAlgError("no convergence")

    registry = (("broken", broken), claims.CLAIMS[7])
    monkeypatch.setattr(claims, "CLAIMS", registry)
    assert run_claims(SEED) == [
        ("broken", False, "raised LinAlgError: no convergence"),
        ("register-size-formula", True, "got (2, 10, 42)"),
    ]


# ---------------------------------------------------------------------------
# the deviation checks share nothing with the tables they check

PD = make_pd(5, 3, 1, 0)
# compare-protocols' bound at its default --tol.
BOUND = 1e-9 * max(1.0, payoff_scale(PD))


def _reversed_contingency():
    after = (np.arange(32) >> np.arange(4)[:, None]) & 1
    second = 4 * repeated10._FIRST_PATTERN + 2 * after[..., None] + after[:, None]
    return {"_AFTER_BITS": after, "_SECOND_PATTERN": second}


# Wrong but well-formed values of the ten-qubit encoding pieces.
WRONG_ENCODINGS = {
    "reversed-contingency": _reversed_contingency,
    "players-swapped-at-stage-1": lambda: {
        "_FIRST_PATTERN": repeated10._FIRST_PATTERN.T
    },
    "outcome-reads-the-next-pair": lambda: {
        "_OTHER_PAIRS": repeated10._OTHER_PAIRS[1:] + repeated10._OTHER_PAIRS[:1]
    },
}


@pytest.mark.parametrize("wrong", WRONG_ENCODINGS.values(), ids=WRONG_ENCODINGS)
def test_a_wrong_encoding_fails_the_ten_qubit_check(monkeypatch, wrong):
    """The sequential table reads a profile through ``RepStrategy`` and
    its continuations through its own gather, so a production encoding
    piece set wrong disagrees with it."""
    for name, value in wrong().items():
        monkeypatch.setattr(repeated10, name, value)
    reference._continuation_rows.cache_clear()
    worst, _ = claims.mw10_deviation(PD, samples=2, seed=3)
    assert worst > BOUND


# Wrong but well-formed (player, flip, pattern) tables.
WRONG_PAIR_TABLES = {
    "no-xor": lambda stage: np.repeat(stage_weights(stage)[:, None, :], 4, axis=1),
    "players-swapped": lambda stage: pair_table(stage)[::-1],
}


@pytest.mark.parametrize("wrong", WRONG_PAIR_TABLES.values(), ids=WRONG_PAIR_TABLES)
@pytest.mark.parametrize(
    "module, deviation",
    [(repeated10, claims.mw10_deviation), (iqbaltoor, claims.it_deviation)],
    ids=["mw10", "iqbal-toor"],
)
def test_a_wrong_pair_table_fails_the_deviation_check(
    monkeypatch, module, deviation, wrong
):
    monkeypatch.setattr(module, "pair_table", wrong)
    worst, _ = deviation(PD, samples=2, seed=3)
    assert worst > BOUND


def test_swapped_marginal_axes_fail_the_four_qubit_check(monkeypatch, tmp_path):
    """Stage 1 reading qubits 3-4 and stage 2 qubits 1-2 is caught by the
    deviation check and by ``compare-protocols --protocol iqbal-toor``."""
    monkeypatch.setattr(iqbaltoor, "_SUMMED_AXES", iqbaltoor._SUMMED_AXES[::-1])
    worst, _ = claims.it_deviation(PD, samples=2, seed=3)
    assert worst > BOUND
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "protocol": "iqbal-toor",
                "payoffs": {"T": 5, "R": 3, "P": 1, "S": 0},
                "initial_state": "all_zero",
            }
        )
    )
    with redirect_stdout(io.StringIO()) as out:
        code = main(["compare-protocols", "--config", str(config), "--samples", "2"])
    assert code == 1
    assert json.loads(out.getvalue())["pass"] is False
