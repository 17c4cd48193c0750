"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from qrgames.cli import ConfigError, main, parse_config
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
