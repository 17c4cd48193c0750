"""Acceptance battery: the nine headline claims of :mod:`qrgames.claims`.

Each case prints one PASS/FAIL line (visible with ``pytest -s`` and in
failure reports) and then asserts.  The claims draw their random inputs
from seed 20260501 here and from 271828 in ``qrgames paper-repro``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from qrgames import claims
from qrgames.claims import CLAIMS, run_claims
from qrgames.qstate import PureState

SEED = 20260501


@pytest.mark.parametrize("name, check", CLAIMS, ids=[name for name, _ in CLAIMS])
def test_claim(name, check):
    ok, detail = check(SEED, 0.01, 0.0)
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
     lambda tables: {**tables, (1, 1): tables[(1, 1)] + 1e-6}),
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


def test_a_raising_check_fails_its_claim_with_the_message(monkeypatch):
    def broken(seed, grid_step, perturb):
        raise np.linalg.LinAlgError("no convergence")

    registry = (("broken", broken), claims.CLAIMS[7])
    monkeypatch.setattr(claims, "CLAIMS", registry)
    assert run_claims(SEED) == [
        ("broken", False, "raised LinAlgError: no convergence"),
        ("register-size-formula", True, "got (2, 10, 42)"),
    ]
