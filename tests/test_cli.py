"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections.abc import Mapping, Sequence

import numpy as np
import pytest

from qrgames.cli import ConfigError, _number, _parse_terms, main, parse_config
from qrgames.qstate import PureState, tensor_all
from qrgames.stagegames import classical_twice_repeated, make_pd


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def mw10_document(initial_state="all_zero", payoffs=None):
    return {
        "protocol": "mw10",
        "payoffs": payoffs or {"T": 5, "R": 3, "P": 1, "S": 0},
        "initial_state": initial_state,
    }


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# configuration parsing


def test_config_round_trips_through_its_document_form():
    original = parse_config(mw10_document("ghz(0.3)"))
    clone = parse_config(original.to_document())
    assert clone.protocol == original.protocol
    assert np.allclose(
        clone.initial.amplitudes, original.initial.amplitudes, atol=1e-12
    )
    assert clone.stage.payoff_table(1).tolist() == original.stage.payoff_table(1).tolist()


def test_payoffs_accept_an_explicit_table():
    config = parse_config(
        {
            "protocol": "mw10",
            "payoffs": [[[3, 3], [0, 5]], [[5, 0], [1, 1]]],
            "initial_state": "all_zero",
        }
    )
    assert config.stage.pair(0, 1) == (0.0, 5.0)


def test_term_lists_build_custom_states():
    terms = [
        {"basis": "0" * 10, "re": 0.6**0.5},
        {"basis": "1" * 10, "prob": 0.4},
    ]
    config = parse_config(mw10_document(terms))
    probs = config.initial.probabilities
    assert probs[0] == pytest.approx(0.6, abs=1e-12)
    assert probs[-1] == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize(
    "document, message",
    [
        ({"protocol": "warp"}, "unknown protocol 'warp'"),
        (
            {"protocol": "mw10", "payoffs": {"T": 5, "R": 3, "P": 1}},
            "missing S",
        ),
        (mw10_document("warp_core"), "unknown initial_state preset"),
        (
            mw10_document([{"basis": "000", "re": 1.0}]),
            "term 0: basis must be a 10-bit string",
        ),
        (
            mw10_document([{"basis": "0" * 10, "prob": 0.5, "re": 0.1}]),
            "either prob or re/im, not both",
        ),
        (
            mw10_document([{"basis": "0" * 10, "prob": 0.25}]),
            "total probability 0.25",
        ),
        (
            {
                "protocol": "iqbal-toor",
                "payoffs": {"T": 5, "R": 3, "P": 1, "S": 0},
                "initial_state": "example_4_5",
            },
            "10-qubit state",
        ),
    ],
)
def test_config_errors_name_the_problem(document, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(document)


@pytest.mark.parametrize(
    "initial_state, message",
    [
        ({"ghz": "abc"}, "ghz weight must be a number, got 'abc'"),
        (
            [{"basis": "0" * 10, "prob": "x"}],
            "term 0: prob must be a number, got 'x'",
        ),
        (
            [{"basis": "0" * 10, "re": "x"}],
            "term 0: re must be a number, got 'x'",
        ),
        (
            [{"basis": "0" * 10, "prob": float("nan")}],
            "total probability nan, not 1",
        ),
        (
            {"pair_product": [1, 2, 3, 4, 5]},
            "pair_product[0] must be a list of terms, got int",
        ),
        (
            {"pair_product": [[{"basis": "00", "prob": 1}], "00"] + [[]] * 3},
            "pair_product[1] must be a list of terms, got str",
        ),
        (
            {
                "pair_product": [[{"basis": "00", "prob": 1}]] * 2
                + [{"basis": "00"}] * 3
            },
            "pair_product[2] must be a list of terms, got dict",
        ),
    ],
)
def test_malformed_numbers_exit_with_two(tmp_path, capsys, initial_state, message):
    path = write_config(tmp_path, mw10_document(initial_state))
    code, out, err = run_cli(capsys, "bimatrix", "--config", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def parse_terms_oracle(raw, num_qubits, where):
    """The term-list parser as first written: one numpy add per term."""
    if not isinstance(raw, Sequence) or isinstance(raw, str):
        raise ConfigError(
            f"{where} must be a list of terms, got {type(raw).__name__}"
        )
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    for position, term in enumerate(raw):
        name = f"{where} term {position}"
        if not isinstance(term, Mapping):
            raise ConfigError(f"{name} must be an object")
        basis = term.get("basis")
        if (
            not isinstance(basis, str)
            or len(basis) != num_qubits
            or set(basis) - {"0", "1"}
        ):
            raise ConfigError(
                f"{name}: basis must be a {num_qubits}-bit string, got {basis!r}"
            )
        if "prob" in term:
            if "re" in term or "im" in term:
                raise ConfigError(f"{name}: give either prob or re/im, not both")
            probability = _number(term["prob"], f"{name}: prob")
            if probability < 0:
                raise ConfigError(f"{name}: prob must be nonnegative")
            amplitude = complex(math.sqrt(probability))
        else:
            amplitude = complex(
                _number(term.get("re", 0.0), f"{name}: re"),
                _number(term.get("im", 0.0), f"{name}: im"),
            )
        amps[int(basis, 2)] += amplitude
    total = float(np.sum(np.abs(amps) ** 2))
    if not abs(total - 1.0) <= 1e-9:
        raise ConfigError(
            f"{where}: amplitudes give total probability {total!r}, not 1"
        )
    return PureState(num_qubits, amps / math.sqrt(total))


def seeded_terms(rng, num_qubits):
    """A shuffled term list with every form of term and repeated bases.

    Each amplitude of a random state is split into one to three pieces;
    a piece of a nonnegative real amplitude may be written as ``prob``.
    """
    size = 2 ** num_qubits
    support = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
    amps = rng.normal(size=support.size) + 1j * rng.normal(size=support.size)
    real = rng.random(support.size) < 0.3
    amps[real] = np.abs(amps[real])
    amps /= np.linalg.norm(amps)
    terms = []
    for index, amp in zip(support.tolist(), amps.tolist()):
        basis = format(index, f"0{num_qubits}b")
        weights = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        for piece in (amp * w for w in weights.tolist()):
            form = int(rng.integers(4))
            if piece.imag == 0 and form == 0:
                terms.append({"basis": basis, "prob": piece.real**2})
            elif form == 1 and piece.imag == 0:
                terms.append({"basis": basis, "re": piece.real})
            else:
                terms.append({"basis": basis, "re": piece.real, "im": piece.imag})
        if rng.random() < 0.2:
            terms.append({"basis": basis})
        if rng.random() < 0.1:
            terms.append({"basis": basis, "prob": 0})
    return [terms[i] for i in rng.permutation(len(terms)).tolist()]


@pytest.mark.parametrize("num_qubits", [2, 4, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_term_parser_matches_the_per_term_oracle(num_qubits, seed):
    rng = np.random.default_rng(1000 * num_qubits + seed)
    terms = seeded_terms(rng, num_qubits)
    got = _parse_terms(terms, num_qubits, "initial_state")
    want = parse_terms_oracle(terms, num_qubits, "initial_state")
    assert np.array_equal(got.amplitudes, want.amplitudes)


@pytest.mark.parametrize("protocol, pairs", [("mw10", 5), ("iqbal-toor", 2)])
def test_pair_product_matches_the_per_term_oracle(protocol, pairs):
    rng = np.random.default_rng(77 + pairs)
    factors = [seeded_terms(rng, 2) for _ in range(pairs)]
    document = {
        "protocol": protocol,
        "payoffs": {"T": 5, "R": 3, "P": 1, "S": 0},
        "initial_state": {"pair_product": factors},
    }
    want = tensor_all(
        [
            parse_terms_oracle(pair, 2, f"pair_product[{i}]")
            for i, pair in enumerate(factors)
        ]
    )
    assert np.array_equal(parse_config(document).initial.amplitudes, want.amplitudes)


GOOD_TERM = {"basis": "0" * 10, "prob": 1.0}


@pytest.mark.parametrize(
    "raw",
    [
        "0000000000",
        {"basis": "0" * 10},
        7,
        [5],
        ["0" * 10],
        [None],
        [[GOOD_TERM]],
        [{"re": 1.0}],
        [{"basis": None, "re": 1.0}],
        [{"basis": 0, "re": 1.0}],
        [{"basis": "0", "re": 1.0}],
        [{"basis": "0" * 11, "re": 1.0}],
        [{"basis": ["0"] * 10, "re": 1.0}],
        [{"basis": "0" * 9 + "2", "re": 1.0}],
        [{"basis": "0" * 9 + "a", "re": 1.0}],
        [{"basis": "0" * 9 + " ", "re": 1.0}],
        [{"basis": "0" * 10, "prob": 0.5, "re": 0.1}],
        [{"basis": "0" * 10, "prob": 0.5, "im": 0.1}],
        [{"basis": "0" * 10, "prob": -0.5}],
        [{"basis": "0" * 10, "prob": "x"}],
        [{"basis": "0" * 10, "prob": None}],
        [{"basis": "0" * 10, "re": "x"}],
        [{"basis": "0" * 10, "re": [1.0]}],
        [{"basis": "0" * 10, "re": 1.0, "im": "x"}],
        [{"basis": "0" * 10, "re": "x", "im": {}}],
        [{"basis": "0" * 10, "prob": 0.25}],
        [{"basis": "0" * 10, "prob": float("nan")}],
        [{"basis": "0" * 10, "re": float("inf")}],
        [GOOD_TERM, GOOD_TERM, {"basis": "1" * 10, "im": "?"}],
        [GOOD_TERM, {"basis": "01" * 5, "prob": 0.5}, "term"],
        [],
    ],
)
def test_malformed_terms_give_the_oracle_message(raw):
    with pytest.raises(ConfigError) as want:
        parse_terms_oracle(raw, 10, "initial_state")
    with pytest.raises(ConfigError) as got:
        _parse_terms(raw, 10, "initial_state")
    assert str(got.value) == str(want.value)


def test_numbers_too_large_for_a_float_exit_with_two(tmp_path, capsys):
    huge = 10**400
    documents = [
        mw10_document([{"basis": "0" * 10, "re": huge}]),
        mw10_document([{"basis": "0" * 10, "prob": huge}]),
        mw10_document({"ghz": huge}),
        mw10_document(payoffs={"T": huge, "R": 3, "P": 1, "S": 0}),
        mw10_document(payoffs=[[[3, 3], [0, huge]], [[5, 0], [1, 1]]]),
    ]
    for document in documents:
        path = write_config(tmp_path, document)
        code, out, err = run_cli(capsys, "bimatrix", "--config", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "payoffs",
    [
        {"T": 1e308, "R": 1e308, "P": 1, "S": 0},
        {"T": 5, "R": 3, "P": 1, "S": -2e300},
        [[[3, 3], [0, 5]], [[5, 0], [1, 1e301]]],
    ],
)
def test_overflowing_payoffs_exit_with_two_on_every_command(tmp_path, capsys, payoffs):
    path = write_config(tmp_path, mw10_document(payoffs=payoffs))
    for command in ("bimatrix", "nash", "spe", "dominance", "compare-protocols"):
        code, out, err = run_cli(capsys, command, "--config", path)
        assert (code, out) == (2, ""), command
        assert err.startswith("error: payoffs must not exceed 1e300 in magnitude")


def test_payoffs_at_the_magnitude_bound_give_finite_tables(tmp_path, capsys):
    payoffs = {"T": 1e300, "R": -1e300, "P": -1e300, "S": 1e300}
    path = write_config(tmp_path, mw10_document("ghz(0.3)", payoffs=payoffs))
    code, out, _ = run_cli(capsys, "bimatrix", "--config", path, "--format", "json")
    assert code == 0
    assert np.isfinite(json.loads(out)["cells"]).all()
    for command in ("nash", "dominance"):
        code, out, _ = run_cli(capsys, command, "--config", path)
        assert code == 0 and "Infinity" not in out and "NaN" not in out


def test_protocol_override_beats_the_document():
    config = parse_config(mw10_document(), protocol="classical")
    assert config.protocol == "classical"
    assert config.initial is None


# ---------------------------------------------------------------------------
# bimatrix, nash, spe, dominance


def test_bimatrix_csv_equals_the_classical_table_on_all_zero(tmp_path, capsys):
    config = write_config(tmp_path, mw10_document())
    code, out, err = run_cli(capsys, "bimatrix", "--config", config)
    assert code == 0 and err == ""
    want = classical_twice_repeated(make_pd(5, 3, 1, 0)).to_csv()
    assert out.rstrip("\n") == want.rstrip("\n")


def test_bimatrix_json_format(tmp_path, capsys):
    config = write_config(tmp_path, mw10_document("ghz(0.3)"))
    code, out, _ = run_cli(
        capsys, "bimatrix", "--config", config, "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == 32 and doc["cols"] == 32
    assert doc["row_labels"][:2] == ["00000", "00001"]


def test_out_flag_writes_the_file_instead_of_stdout(tmp_path, capsys):
    config = write_config(tmp_path, mw10_document())
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "bimatrix", "--config", config, "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith(",00000,")


def test_nash_on_the_classical_embedding(tmp_path, capsys):
    config = write_config(tmp_path, mw10_document())
    code, out, _ = run_cli(capsys, "nash", "--config", config)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "nash"
    assert len(doc["equilibria"]) == 16
    for entry in doc["equilibria"]:
        assert entry["payoffs"] == [2.0, 2.0]
        assert entry["row_label"][0] == "1"
        assert entry["col_label"][0] == "1"


def test_spe_reports_both_profiles_of_the_entangled_example(tmp_path, capsys):
    document = {
        "protocol": "mw10",
        "payoffs": {"T": 5, "R": 4, "P": 1, "S": 0},
        "initial_state": "example_4_5",
    }
    config = write_config(tmp_path, document)
    code, out, _ = run_cli(capsys, "spe", "--config", config)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "subgame-perfect"
    got = [(e["row"], e["col"], e["row_label"]) for e in doc["equilibria"]]
    assert got == [(15, 15, "01111"), (31, 31, "11111")]
    assert doc["equilibria"][0]["payoffs"] == pytest.approx([6.2, 6.2], abs=1e-9)
    assert doc["equilibria"][1]["payoffs"] == pytest.approx([2.0, 2.0], abs=1e-9)


def test_spe_rejects_cross_pair_entanglement(tmp_path, capsys):
    config = write_config(tmp_path, mw10_document("ghz(0.3)"))
    code, _, err = run_cli(capsys, "spe", "--config", config)
    assert code == 2
    assert "SPE undefined for cross-pair entanglement" in err


def test_spe_rejects_the_four_qubit_protocol(tmp_path, capsys):
    document = {
        "protocol": "iqbal-toor",
        "payoffs": {"T": 5, "R": 3, "P": 1, "S": 0},
        "initial_state": "all_zero",
    }
    config = write_config(tmp_path, document)
    code, _, err = run_cli(capsys, "spe", "--config", config)
    assert code == 2
    assert "not defined for the 4-qubit protocol" in err


def test_dominance_lists_every_dominated_pair(tmp_path, capsys):
    document = {
        "protocol": "iqbal-toor",
        "payoffs": {"T": 5, "R": 3, "P": 1, "S": 0},
        "initial_state": "all_zero",
    }
    config = write_config(tmp_path, document)
    code, out, _ = run_cli(capsys, "dominance", "--config", config)
    assert code == 0
    doc = json.loads(out)
    got = [
        (entry["dominated_label"], entry["dominating_label"])
        for entry in doc["player1"]
    ]
    assert got == [
        ("00", "01"),
        ("00", "10"),
        ("00", "11"),
        ("01", "11"),
        ("10", "11"),
    ]


# ---------------------------------------------------------------------------
# protocol comparison


def test_compare_protocols_passes_on_the_ten_qubit_game(tmp_path, capsys):
    config = write_config(tmp_path, mw10_document())
    code, out, _ = run_cli(
        capsys,
        "compare-protocols",
        "--config",
        config,
        "--samples",
        "2",
        "--seed",
        "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["profiles_checked"] == 2 * 1024
    assert doc["max_deviation"] <= 1e-9


def test_compare_protocols_with_no_samples_is_a_trivial_pass(tmp_path, capsys):
    config = write_config(tmp_path, mw10_document())
    code, out, _ = run_cli(
        capsys, "compare-protocols", "--config", config, "--samples", "0"
    )
    assert code == 0
    assert json.loads(out)["profiles_checked"] == 0


def test_compare_protocols_scales_the_tolerance_with_the_payoffs(tmp_path, capsys):
    payoffs = {"T": 1e8, "R": 3, "P": 1, "S": 0}
    config = write_config(tmp_path, mw10_document(payoffs=payoffs))
    code, out, _ = run_cli(
        capsys, "compare-protocols", "--config", config, "--samples", "3"
    )
    doc = json.loads(out)
    # Agreeing paths round in proportion to the payoffs, past the raw --tol.
    assert doc["max_deviation"] > doc["tolerance"] == 1e-9
    assert doc["scale"] == 2e8
    assert doc["max_deviation"] <= doc["tolerance"] * doc["scale"]
    assert doc["pass"] is True and code == 0


@pytest.mark.parametrize(
    "payoffs",
    [{"T": 0.5, "R": 0.3, "P": 0.1, "S": -0.5}, {"T": 0.4, "R": 0.3, "P": 0.1, "S": 0}],
)
def test_compare_protocols_keeps_the_raw_tolerance_at_unit_scale(
    tmp_path, capsys, payoffs
):
    config = write_config(tmp_path, mw10_document(payoffs=payoffs))
    code, out, _ = run_cli(
        capsys, "compare-protocols", "--config", config, "--samples", "1"
    )
    doc = json.loads(out)
    assert doc["scale"] == 1.0 and doc["tolerance"] == 1e-9
    assert doc["pass"] is True and code == 0


@pytest.mark.parametrize("protocol", ["mw10", "iqbal-toor"])
def test_compare_protocols_fails_a_deviation_beyond_the_scaled_bound(
    tmp_path, capsys, protocol
):
    config = write_config(tmp_path, mw10_document())
    code, out, _ = run_cli(
        capsys,
        "compare-protocols",
        "--config",
        config,
        "--protocol",
        protocol,
        "--samples",
        "1",
        "--tol",
        "1e-20",
    )
    doc = json.loads(out)
    assert doc["scale"] == 10.0
    assert doc["max_deviation"] > 1e-20 * 10.0
    assert doc["pass"] is False and code == 1


def test_compare_protocols_rejects_bad_requests(tmp_path, capsys):
    config = write_config(tmp_path, mw10_document())
    code, _, err = run_cli(
        capsys, "compare-protocols", "--config", config, "--protocol", "classical"
    )
    assert code == 2 and "needs a quantum protocol" in err
    code, _, err = run_cli(
        capsys, "compare-protocols", "--config", config, "--samples", "-1"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# reproduction battery


def test_paper_repro_passes_and_is_deterministic(tmp_path, capsys):
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    code1, _, _ = run_cli(
        capsys, "paper-repro", "--grid-step", "0.1", "--out", str(first)
    )
    code2, _, _ = run_cli(
        capsys, "paper-repro", "--grid-step", "0.1", "--out", str(second)
    )
    assert code1 == 0 and code2 == 0
    assert first.read_bytes() == second.read_bytes()

    lines = first.read_text().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS ") for line in lines[:9])
    assert lines[-1] == "9 passed, 0 failed"


def test_paper_repro_detects_an_injected_value_drift(capsys):
    code, out, _ = run_cli(
        capsys, "paper-repro", "--grid-step", "0.1", "--selftest-perturb"
    )
    assert code == 1
    lines = out.splitlines()
    failing = [line for line in lines if line.startswith("FAIL")]
    assert len(failing) == 1
    assert failing[0].startswith("FAIL entangled-second-stage-table")
    assert lines[-1] == "8 passed, 1 failed"


# ---------------------------------------------------------------------------
# process-level behavior


def test_one_process_serves_many_calls_without_carrying_state(tmp_path, capsys):
    config = write_config(tmp_path, mw10_document("ghz(0.3)"))
    _, loose, _ = run_cli(capsys, "nash", "--config", config, "--tol", "0.5")
    _, plain, _ = run_cli(capsys, "nash", "--config", config)
    assert json.loads(loose)["tolerance"] == 0.5
    assert json.loads(plain)["tolerance"] == 1e-09

    commands = ("bimatrix", "dominance")
    in_process = [run_cli(capsys, name, "--config", config)[1] for name in commands]
    separate = [
        subprocess.run(
            [sys.executable, "-m", "qrgames.cli", name, "--config", config],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for name in commands
    ]
    assert in_process == separate


def test_missing_config_file_exits_with_two(capsys):
    code, _, err = run_cli(capsys, "nash", "--config", "/nonexistent/config.json")
    assert code == 2
    assert "cannot read config" in err


def test_module_entry_point_prints_usage():
    result = subprocess.run(
        [sys.executable, "-m", "qrgames.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    for name in ("bimatrix", "nash", "spe", "dominance", "compare-protocols"):
        assert name in result.stdout
