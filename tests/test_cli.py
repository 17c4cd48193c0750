"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import collections
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import operator
import subprocess
import sys
import types
from collections.abc import Mapping, Sequence
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_stagegames import csv_oracle

from qrgames import claims, qstate, reference
from qrgames.cli import (
    ConfigError,
    _basis_indices,
    _bimatrix_for,
    _number,
    _parse_terms,
    _plain_terms,
    load_config,
    main,
    parse_config,
)
from qrgames.equilibria import strictly_dominated
from qrgames.qstate import PureState, tensor_all
from qrgames.repeated10 import RepGame, rep_bimatrix
from qrgames.stagegames import Bimatrix, classical_twice_repeated, make_pd


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


_PAIR_TERMS = [{"basis": "00", "prob": 0.2}, {"basis": "11", "prob": 0.8}]
# A misspelled or extra key would be dropped unread, and another game read.
_UNKNOWN_KEYS = [
    pytest.param(
        {"protocol": "mw10", "payoffs": {"T": 5, "R": 3, "P": 1, "S": 0},
         "intial_state": "ghz(0.3)"},
        "config: unknown key 'intial_state'; expected protocol, payoffs, "
        "initial_state",
        id="misspelled-initial-state",
    ),
    pytest.param(
        mw10_document({"ghz": 0.5, "pair_product": [_PAIR_TERMS] * 5}),
        "initial_state object must contain one key, 'ghz' or 'pair_product'; "
        "got 'ghz', 'pair_product'",
        id="ghz-and-pair-product",
    ),
    pytest.param(
        {"protocol": "iqbal-toor", "payoffs": {"T": 5, "R": 3, "P": 1, "S": 0},
         "initial_state": [{"basis": "0000", "re": 1, "phase": 3}]},
        "initial_state term 0: unknown key 'phase'; expected basis, prob, re, im",
        id="term-phase",
    ),
    pytest.param(
        mw10_document(payoffs={"T": 5, "R": 3, "P": 1, "S": 0, "Q": 9}),
        "payoffs: unknown key 'Q'; expected T, R, P, S",
        id="payoff-q",
    ),
]


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
        (
            mw10_document(payoffs=[[[3, 3], [0, 5]], [{}, [1, 1]]]),
            "explicit payoffs must be a 2x2 nesting",
        ),
        (
            mw10_document(payoffs=[[[3, 3], [0, 5]], [{}, [1, 1]]]),
            r"; cell \[1\]\[0\] is \{\}$",
        ),
        (
            mw10_document(payoffs=[[[3, 3], [0, 5]], [[5, 0], [1, math.inf]]]),
            r"payoff cell \[1\]\[1\]\[1\] must be finite, got inf",
        ),
        (
            mw10_document(payoffs=[[[3, 3], [0, "five"]], [[5, 0], [1, 1]]]),
            r"payoff cell \[0\]\[1\]\[1\] must be a number, got 'five'",
        ),
    ]
    + _UNKNOWN_KEYS,
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


ZERO = "0" * 10
# ``float("5")`` is 5.0, so a JSON string where a number belongs is refused.
_STRINGS_AS_NUMBERS = [
    pytest.param(
        mw10_document(payoffs={"T": "5", "R": 3, "P": 1, "S": 0}),
        "payoff T must be a number, got '5'",
        id="T-string",
    ),
    pytest.param(
        mw10_document(payoffs=[[["3", "3"], [0, 5]], [[5, 0], [1, 1]]]),
        "payoff cell [0][0][0] must be a number, got '3'",
        id="explicit-cell-string",
    ),
    pytest.param(
        mw10_document([{"basis": ZERO, "prob": "1"}]),
        "initial_state term 0: prob must be a number, got '1'",
        id="prob-string",
    ),
    pytest.param(
        mw10_document([{"basis": ZERO, "re": "1", "im": 0.0}]),
        "initial_state term 0: re must be a number, got '1'",
        id="re-string",
    ),
    pytest.param(
        mw10_document({"ghz": "0.5"}),
        "ghz weight must be a number, got '0.5'",
        id="ghz-string",
    ),
]


@pytest.mark.parametrize(
    "document, message",
    [
        pytest.param(
            mw10_document(payoffs={"T": True, "R": 3, "P": 1, "S": 0}),
            "payoff T must be a number, got True",
            id="T",
        ),
        pytest.param(
            mw10_document(payoffs={"T": 5, "R": 3, "P": 1, "S": False}),
            "payoff S must be a number, got False",
            id="S",
        ),
        pytest.param(
            mw10_document(payoffs=[[[3, 3], [0, 5]], [[5, 0], [1, True]]]),
            "payoff cell [1][1][1] must be a number, got True",
            id="explicit-cell",
        ),
        pytest.param(
            mw10_document([{"basis": ZERO, "prob": True}]),
            "initial_state term 0: prob must be a number, got True",
            id="prob",
        ),
        pytest.param(
            mw10_document([{"basis": ZERO, "re": 1.0}, {"basis": ZERO, "re": False}]),
            "initial_state term 1: re must be a number, got False",
            id="re",
        ),
        pytest.param(
            mw10_document([{"basis": ZERO, "re": 0.0, "im": True}]),
            "initial_state term 0: im must be a number, got True",
            id="im",
        ),
        pytest.param(
            mw10_document({"pair_product": [[{"basis": "00", "prob": True}]] * 5}),
            "pair_product[0] term 0: prob must be a number, got True",
            id="pair-product-prob",
        ),
        pytest.param(
            mw10_document({"ghz": True}),
            "ghz weight must be a number, got True",
            id="ghz",
        ),
    ]
    + _STRINGS_AS_NUMBERS,
)
def test_json_booleans_are_not_numbers(tmp_path, capsys, document, message):
    """``float(True)`` is 1.0, so each field refuses a bool (and a string)
    by name."""
    path = write_config(tmp_path, document)
    code, out, err = run_cli(capsys, "bimatrix", "--config", path)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# Explicit cells that are not arrays of exactly two numbers: a pair with
# entries past the second, and strings, which are sequences of digits.
_EXTRA_ENTRIES = mw10_document(payoffs=[[[3, 3, 99], [0, 5, "junk"]], [[5, 0], [1, 1]]])
_STRING_CELLS = mw10_document(payoffs=[["35", "05"], ["50", "11"]])


@pytest.mark.parametrize(
    "document, cell",
    [(_EXTRA_ENTRIES, "[3, 3, 99]"), (_STRING_CELLS, "'35'")],
    ids=["extra-entries", "strings"],
)
def test_explicit_cells_must_be_pairs_of_two_numbers(tmp_path, capsys, document, cell):
    path = write_config(tmp_path, document)
    code, out, err = run_cli(capsys, "bimatrix", "--config", path)
    assert (code, out) == (2, "")
    assert err == (
        "error: explicit payoffs must be a 2x2 nesting of [u1, u2] pairs; "
        f"cell [0][0] is {cell}\n"
    )


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
        if "prob" in term and ("re" in term or "im" in term):
            raise ConfigError(f"{name}: give either prob or re/im, not both")
        unknown = set(term) - {"basis", "prob", "re", "im"}
        if unknown:
            first = next(key for key in term if key in unknown)
            raise ConfigError(
                f"{name}: unknown key {first!r}; expected basis, prob, re, im"
            )
        if "prob" in term:
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
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


def seeded_plain_terms(rng, num_qubits, count):
    """``count`` float ``{basis, re, im}`` terms of one normalized state,
    with repeated bases and signed zeros: the list the bulk reader takes."""
    bases = rng.integers(2 ** num_qubits, size=count)
    bases[: count // 4] = bases[count // 4 : 2 * (count // 4)]
    pieces = rng.normal(size=(count, 2))
    pieces[rng.random((count, 2)) < 0.2] = -0.0
    pieces[rng.random((count, 2)) < 0.1] = 0.0
    pieces[-1] = -0.0
    summed = np.zeros(2 ** num_qubits, dtype=complex)
    np.add.at(summed, bases, pieces[:, 0] + 1j * pieces[:, 1])
    pieces /= np.linalg.norm(summed)
    return [
        {"basis": format(index, f"0{num_qubits}b"), "re": re, "im": im}
        for index, (re, im) in zip(bases.tolist(), pieces.tolist())
    ]


def assert_same_outcome_as_the_oracle(raw, num_qubits):
    """The same amplitude bits, or the same refusal."""
    try:
        want = parse_terms_oracle(raw, num_qubits, "initial_state")
    except ConfigError as refusal:
        with pytest.raises(ConfigError) as got:
            _parse_terms(raw, num_qubits, "initial_state")
        assert str(got.value) == str(refusal)
    else:
        got = _parse_terms(raw, num_qubits, "initial_state")
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


@pytest.mark.parametrize("num_qubits, count", [(2, 4), (4, 16), (10, 1024)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bulk_term_reader_matches_the_per_term_oracle(num_qubits, count, seed):
    terms = seeded_plain_terms(np.random.default_rng(seed), num_qubits, count)
    assert any(math.copysign(1.0, t["re"]) < 0 and t["re"] == 0 for t in terms)
    assert _plain_terms(terms, _basis_indices(num_qubits)) is not None
    assert_same_outcome_as_the_oracle(terms, num_qubits)


_LAST_BASIS = "1" * 10


@pytest.mark.parametrize(
    "last",
    [
        {"basis": _LAST_BASIS, "re": 1, "im": 0.0},
        {"basis": _LAST_BASIS, "re": 0.0, "im": 0},
        {"basis": _LAST_BASIS, "re": True, "im": 0.0},
        {"basis": _LAST_BASIS, "re": 0.0, "im": False},
        {"basis": _LAST_BASIS, "re": 0.0, "phase": 0.0},
        {"basis": "2" * 10, "re": 0.0, "im": 0.0},
        {"basis": "1" * 9, "re": 0.0, "im": 0.0},
        {"basis": ["1"] * 10, "re": 0.0, "im": 0.0},
        {"basis": _LAST_BASIS, "re": "0", "im": 0.0},
        types.MappingProxyType({"basis": _LAST_BASIS, "re": 0.0, "im": 0.0}),
        types.MappingProxyType({"basis": _LAST_BASIS, "re": 0.0, "im": "0"}),
        collections.OrderedDict(basis=_LAST_BASIS, re=0.0, im=-0.0),
        [_LAST_BASIS, 0.0, 0.0],
    ],
    ids=[
        "int-re", "int-im", "bool-re", "bool-im", "phase", "digit-2",
        "short-basis", "list-basis", "string-re", "mapping-proxy",
        "mapping-proxy-string-im", "ordered-dict", "list-term",
    ],
)
def test_a_last_term_off_the_bulk_path_gives_the_oracle_outcome(last):
    terms = seeded_plain_terms(np.random.default_rng(5), 10, 1023)
    assert_same_outcome_as_the_oracle(terms + [last], 10)


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
        [{"basis": "0" * 10, "re": 1, "phase": 3}],
        [{"basis": "0" * 10, "re": 1.0, "im": 0.0, "phase": 3}],
        [{"basis": "0" * 10, "Re": 1.0, "im": 0.0}],
        [{"basis": "0" * 10, "prob": 1.0, "p": 1}],
        [{"basis": "0" * 10, "prob": 0.5, "re": 0.1, "phase": 3}],
        [{"phase": 3, "basis": "0" * 10}],
        [{"basis": "0" * 10, "prob": "1"}],
        [{"basis": "0" * 10, "re": "1"}],
        [{"basis": "0" * 10, "re": 1.0, "im": "0"}],
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
    # The classical protocol reads no state, so none is parsed.
    unread = mw10_document({"no": "such state"})
    assert parse_config(unread, protocol="classical").initial is None


# ---------------------------------------------------------------------------
# bimatrix, nash, spe, dominance


def test_bimatrix_csv_equals_the_classical_table_on_all_zero(tmp_path, capsys):
    config = write_config(tmp_path, mw10_document())
    code, out, err = run_cli(capsys, "bimatrix", "--config", config)
    assert code == 0 and err == ""
    want = classical_twice_repeated(make_pd(5, 3, 1, 0)).to_csv()
    assert out.rstrip("\n") == want.rstrip("\n")


def test_bimatrix_csv_on_a_dense_term_list_equals_the_per_cell_writer(
    tmp_path, capsys
):
    rng = np.random.default_rng(29)
    amps = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    amps /= np.linalg.norm(amps)
    terms = [
        {"basis": format(k, "010b"), "re": a.real, "im": a.imag}
        for k, a in enumerate(amps.tolist())
    ]
    document = mw10_document(terms, {"T": 5.5, "R": 3.25, "P": 1, "S": -0.5})
    code, out, err = run_cli(
        capsys, "bimatrix", "--config", write_config(tmp_path, document),
        "--format", "csv",
    )
    assert (code, err) == (0, "")
    state = parse_terms_oracle(terms, 10, "initial_state")
    want = rep_bimatrix(RepGame(state, parse_config(document).stage))
    assert out == csv_oracle(want)


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


@pytest.mark.parametrize(
    "command, target",
    [
        (("bimatrix",), "missing/x.csv"),
        (("paper-repro",), "missing/x.txt"),
        (("bimatrix",), "."),
    ],
    ids=["missing-directory", "paper-repro-missing-directory", "directory"],
)
def test_an_unwritable_out_exits_with_two(tmp_path, capsys, command, target):
    argv = [*command, "--out", str(tmp_path / target)]
    if command[0] == "bimatrix":
        argv += ["--config", write_config(tmp_path, mw10_document())]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output: ")


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


@pytest.mark.parametrize("initial_state", ["pair", "ghz(0.3)"])
def test_spe_reads_the_start_without_svd_or_measurement(
    tmp_path, capsys, monkeypatch, initial_state
):
    """The search reads the start's Born weights: no SVD peel of the
    amplitudes and no measured post states, whether it solves or refuses."""
    pair = [{"basis": "00", "prob": 0.2}, {"basis": "11", "prob": 0.8}]
    if initial_state == "pair":
        initial_state = {"pair_product": [pair] * 5}
    config = write_config(tmp_path, mw10_document(initial_state))
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append("svd"))
    for module in (reference, qstate):
        monkeypatch.setattr(module, "measure_pair", lambda *_: calls.append("measure"))
    code, _, _ = run_cli(capsys, "spe", "--config", config)
    assert code in (0, 2)
    assert calls == []


def test_spe_rejects_cross_pair_entanglement(tmp_path, capsys):
    """Blocks 00 and 11 hold pair patterns 00 and 11, so the continuations
    after outcome 00 differ by |S - T| = 5; the bound is 1e-9 * 2 * 5."""
    config = write_config(tmp_path, mw10_document("ghz(0.3)"))
    code, out, err = run_cli(capsys, "spe", "--config", config)
    assert (code, out) == (2, "")
    assert err == (
        "error: no self-contained subgame after outcome 00: its continuations "
        "differ by 5.0 across the stage-1 flips, above the bound 1e-08\n"
    )


def test_spe_on_a_phased_pair_product_prints_the_plain_products_report(
    tmp_path, capsys
):
    """0.5 (|0000> + |0011> + |1100> - |1111>) |0>^6 has a phase between
    pairs 1 and 2 and the Born weights of the product without it."""
    reports = []
    for sign in (1, -1):
        terms = [
            {"basis": bits + "0" * 6, "re": 0.5}
            for bits in ("0000", "0011", "1100")
        ] + [{"basis": "1111" + "0" * 6, "re": 0.5 * sign}]
        config = write_config(tmp_path, mw10_document(terms), name=f"s{sign}.json")
        reports.append(run_cli(capsys, "spe", "--config", config))
    plain, phased = reports
    assert plain[0] == 0 and plain[2] == ""
    assert phased == plain
    assert [e["row"] for e in json.loads(plain[1])["equilibria"]]


# T, R, P, S = 5, 3, 1, 0 in units of 1e-10.
_TINY_PAYOFFS = {"T": 5e-10, "R": 3e-10, "P": 1e-10, "S": 0}
_PENNIES_PAIR = [
    {"basis": "00", "prob": 0.1},
    {"basis": "11", "prob": 0.4},
    {"basis": "01", "prob": 0.3},
    {"basis": "10", "prob": 0.2},
]


def listed_profiles(capsys, command, config, *flags):
    """``(row, col, strict)`` of each profile a report lists."""
    code, out, err = run_cli(capsys, command, "--config", config, *flags)
    assert (code, err) == (0, "")
    return [(e["row"], e["col"], e["strict"]) for e in json.loads(out)["equilibria"]]


@pytest.mark.parametrize("command, count", [("nash", 16), ("spe", 1)])
def test_tiny_payoffs_list_the_equilibria_of_the_same_game_in_units(
    tmp_path, capsys, command, count
):
    unit = write_config(tmp_path, mw10_document(), name="unit.json")
    tiny_document = mw10_document(payoffs=_TINY_PAYOFFS)
    tiny = write_config(tmp_path, tiny_document, name="tiny.json")
    want = listed_profiles(capsys, command, unit)
    assert len(want) == count
    assert listed_profiles(capsys, command, tiny) == want


def test_tiny_payoffs_on_the_four_qubit_protocol_list_one_equilibrium(
    tmp_path, capsys
):
    config = write_config(tmp_path, mw10_document(payoffs=_TINY_PAYOFFS))
    assert listed_profiles(capsys, "nash", config, "--protocol", "iqbal-toor") == [
        (3, 3, True)
    ]


@pytest.mark.parametrize("command", ["nash", "spe"])
def test_pennies_on_a_tied_pair_product_list_every_profile(tmp_path, capsys, command):
    """Every pair weighs 00 and 11 against 01 and 10 equally, so each
    pennies payoff is 0 up to rounding: every profile ties, none strictly."""
    pennies = [[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]]
    document = mw10_document({"pair_product": [_PENNIES_PAIR] * 5}, pennies)
    profiles = listed_profiles(capsys, command, write_config(tmp_path, document))
    assert len(profiles) == 1024
    assert not any(strict for _, _, strict in profiles)


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


def dominance_oracle(protocol: str, bm: Bimatrix) -> str:
    """The dominance report as first written: one dict per pair through
    json.dumps(indent=2), and the newline the CLI adds."""
    document = {"protocol": protocol}
    for player, own_labels in ((1, bm.row_labels), (2, bm.col_labels)):
        document[f"player{player}"] = [
            {
                "dominated": a,
                "dominated_label": own_labels[a],
                "dominating": b,
                "dominating_label": own_labels[b],
            }
            for a, b in strictly_dominated(bm, player)
        ]
    return json.dumps(document, indent=2) + "\n"


# Tables up to 4x4: the first rows*cols cells are player 1's, the next
# rows*cols player 2's.  Labels: four for the rows, four for the columns.
_TIED = [1] * 32
_ONLY_PLAYER_1 = [1, 1, 0, 0] + [2] * 28
_DILEMMA = [3, 0, 5, 1, 3, 5, 0, 1] + [0] * 24


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    protocol=st.sampled_from(["mw10", "iqbal-toor", "classical"]),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    cells=st.lists(st.integers(0, 2), min_size=32, max_size=32),
    labels=st.lists(st.text(max_size=3), min_size=8, max_size=8),
)
@example(protocol="mw10", shape=(2, 2), cells=_TIED, labels=list("abcdefgh"))
@example(protocol="mw10", shape=(2, 2), cells=_ONLY_PLAYER_1, labels=list("abcdefgh"))
@example(
    protocol="classical", shape=(2, 2), cells=_DILEMMA,
    labels=['"C"', "D\\", "\x00", "\u00e9", "C", "D", "\t", "\U0001f600"],
)
def test_dominance_text_equals_json_dumps_of_the_pair_objects(
    tmp_path_factory, protocol, shape, cells, labels
):
    rows, cols = shape
    u1, u2 = np.reshape(cells[: 2 * rows * cols], (2, rows, cols)).astype(float)
    bm = Bimatrix(u1, u2, labels[:rows], labels[4 : 4 + cols])
    path = tmp_path_factory.mktemp("dominance") / "config.json"
    path.write_text(json.dumps({**mw10_document(), "protocol": protocol}))
    out = io.StringIO()
    with mock.patch("qrgames.cli._bimatrix_for", lambda config: bm):
        with redirect_stdout(out):
            code = main(["dominance", "--config", str(path)])
    assert code == 0
    assert out.getvalue() == dominance_oracle(protocol, bm)


def _dominance_documents(name: str) -> dict:
    pair = {"pair_product": [_PAIR_TERMS] * 5}
    return {
        "dense-2026": _dense_start_document(2026),
        "dense-29": _dense_start_document(29),
        "mw10": mw10_document(pair),
        "iqbal-toor": {**mw10_document("ghz(0.3)"), "protocol": "iqbal-toor"},
        "classical": {**mw10_document(), "protocol": "classical"},
    }[name]


@pytest.mark.parametrize(
    "name", ["dense-2026", "dense-29", "mw10", "iqbal-toor", "classical"]
)
def test_dominance_on_each_protocol_equals_json_dumps(tmp_path, capsys, name):
    config = write_config(tmp_path, _dominance_documents(name))
    code, out, err = run_cli(capsys, "dominance", "--config", config)
    assert (code, err) == (0, "")
    parsed = load_config(config, None)
    assert out == dominance_oracle(parsed.protocol, _bimatrix_for(parsed))
    doc = json.loads(out)
    assert doc["player1"] and doc["player2"]


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


@pytest.mark.parametrize("samples", [1, 3])
def test_compare_protocols_checks_seventeen_four_qubit_profiles_per_state(
    tmp_path, capsys, samples
):
    """The 16 table cells and one mixed profile per random state."""
    config = write_config(tmp_path, mw10_document())
    code, out, _ = run_cli(
        capsys,
        "compare-protocols",
        "--config",
        config,
        "--protocol",
        "iqbal-toor",
        "--samples",
        str(samples),
    )
    doc = json.loads(out)
    assert doc["profiles_checked"] == 17 * samples
    assert doc["max_deviation"] <= doc["tolerance"] * doc["scale"]
    assert doc["pass"] is True and code == 0


def _nudge_one_cell(table):
    def nudged(game):
        bm = table(game)
        payoffs1 = bm.payoffs1.copy()
        payoffs1[2, 1] += 1e-6
        return Bimatrix(payoffs1, bm.payoffs2, bm.row_labels, bm.col_labels)

    return nudged


def _nudge_one_payoff(expected):
    def nudged(game, s1, s2):
        payoffs = expected(game, s1, s2)
        return dataclasses.replace(payoffs, p2_stage2=payoffs.p2_stage2 + 1e-6)

    return nudged


@pytest.mark.parametrize(
    "path, nudge",
    [("it_pure_bimatrix", _nudge_one_cell), ("it_expected", _nudge_one_payoff)],
)
def test_compare_protocols_catches_a_nudged_four_qubit_path(
    tmp_path, capsys, monkeypatch, path, nudge
):
    """Negative control: each checked path, off by 1e-6, fails the check."""
    monkeypatch.setattr(claims, path, nudge(getattr(claims, path)))
    config = write_config(tmp_path, mw10_document())
    code, out, _ = run_cli(
        capsys,
        "compare-protocols",
        "--config",
        config,
        "--protocol",
        "iqbal-toor",
        "--samples",
        "2",
    )
    doc = json.loads(out)
    assert abs(doc["max_deviation"] - 1e-6) <= 1e-12
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


@pytest.mark.parametrize("protocol", ["mw10", "iqbal-toor"])
def test_compare_protocols_refuses_a_negative_seed(tmp_path, capsys, protocol):
    config = write_config(tmp_path, mw10_document())
    code, out, err = run_cli(
        capsys,
        "compare-protocols",
        "--config",
        config,
        "--protocol",
        protocol,
        "--samples",
        "1",
        "--seed",
        "-1",
    )
    assert (code, out, err) == (2, "", "error: --seed must be nonnegative, got -1\n")


MATCHING_PENNIES = [[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]]
BAD_TOLERANCES = [
    *(("nash", value) for value in ("-1", "nan", "inf", "-inf")),
    *(("spe", value) for value in ("-1", "nan")),
    *(("compare-protocols", value) for value in ("nan", "-1", "inf")),
]


@pytest.mark.parametrize(
    "argv, payoffs, message",
    [
        pytest.param(
            [command, f"--tol={value}"],
            None,
            f"--tol must be finite and nonnegative, got {float(value)!r}",
            id=f"{command} --tol {value}",
        )
        for command, value in BAD_TOLERANCES
    ]
    + [
        pytest.param(
            ["spe"],
            MATCHING_PENNIES,
            "no pure second-stage equilibrium after outcome 00",
            id="spe on matching pennies",
        )
    ],
)
def test_unusable_tolerances_and_refused_analyses_exit_with_two(
    tmp_path, capsys, argv, payoffs, message
):
    config = write_config(tmp_path, mw10_document(payoffs=payoffs))
    code, out, err = run_cli(capsys, *argv, "--config", config)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# reproduction battery


def test_paper_repro_passes_and_is_deterministic(tmp_path, capsys):
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    code1, _, _ = run_cli(capsys, "paper-repro", "--out", str(first))
    code2, _, _ = run_cli(capsys, "paper-repro", "--out", str(second))
    assert code1 == 0 and code2 == 0
    assert first.read_bytes() == second.read_bytes()

    lines = first.read_text().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS ") for line in lines[:9])
    assert lines[-1] == "9 passed, 0 failed"


def test_paper_repro_has_no_grid_step_option(capsys):
    """The claims scan at one fixed step, so argparse refuses the option."""
    with pytest.raises(SystemExit) as caught:
        main(["paper-repro", "--grid-step", "0.1"])
    assert caught.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --grid-step 0.1" in err


def test_paper_repro_detects_an_injected_value_drift(capsys):
    code, out, _ = run_cli(capsys, "paper-repro", "--selftest-perturb")
    assert code == 1
    lines = out.splitlines()
    failing = [line for line in lines if line.startswith("FAIL")]
    assert len(failing) == 1
    assert failing[0].startswith("FAIL entangled-second-stage-table")
    assert lines[-1] == "8 passed, 1 failed"


# ---------------------------------------------------------------------------
# pinned output bytes
#
# Every config below is a basis start with dyadic payoffs, so each table
# cell is an exact sum and the hashes do not depend on BLAS summation order.

_PINNED_PAYOFFS = {
    "pd": {"T": 5, "R": 3, "P": 1, "S": 0},
    "dyadic": {"T": 5.5, "R": 3.25, "P": 1, "S": -0.5},
}
_PINNED_STATES = {
    "mw10-zero": ("mw10", "all_zero"),
    "mw10-basis": ("mw10", [{"basis": "0110100101", "re": 1}]),
    "it-basis": ("iqbal-toor", [{"basis": "0110", "re": 1}]),
    "classical": ("classical", "all_zero"),
}
_PINNED_COMMANDS = {
    "csv": ("bimatrix",),
    "json": ("bimatrix", "--format", "json"),
    "nash": ("nash",),
    "nash-tol0": ("nash", "--tol", "0"),
    "dominance": ("dominance",),
    "spe": ("spe",),
}


def _pinned_cases():
    """Command line and config document (None: no config) per case."""
    cases = {
        "paper-repro": (("paper-repro",), None),
        "nash-tol-nan": (("nash", "--tol", "nan"), mw10_document()),
    }
    for state, (protocol, initial) in _PINNED_STATES.items():
        for payoffs_name, payoffs in _PINNED_PAYOFFS.items():
            document = {
                "protocol": protocol,
                "payoffs": payoffs,
                "initial_state": initial,
            }
            for name, command in _PINNED_COMMANDS.items():
                cases[f"{state}-{payoffs_name}-{name}"] = (command, document)
    return cases


_PINNED_CASES = _pinned_cases()
# (exit code, sha256 of stdout followed by stderr) per case.
_PINNED = {
    "classical-dyadic-csv": (0, "1cd2ad567d5a611b644d586ce44fd8a8cadfb7e2756a370a672707e6161c9a50"),
    "classical-dyadic-dominance": (0, "ff3fb850cede0b78bcfa999d29827ce5ba26dc35f32fc394d79639c8884deb8e"),
    "classical-dyadic-json": (0, "fd5b62f25adfbb3f41a1dd35d52188c7a530a15a3ff93bd11b583b8452d57017"),
    "classical-dyadic-nash": (0, "b490aebeabab503b6ef9ec04d949b562ac24f378ac54fd8e84deaeda36701042"),
    "classical-dyadic-nash-tol0": (0, "79bb40ad12ef03bd39098ffbc7bb45e44bb251ceb337d5ade9336559e7270a87"),
    "classical-dyadic-spe": (0, "d3a9098ba959d83abc87a464aae1fee9c3a5596c89f0916be58f6a4454c345e9"),
    "classical-pd-csv": (0, "57f9cb26812c3aa3c5afa29d00eccac139dd9276bb3fd70f1747944f92523113"),
    "classical-pd-dominance": (0, "ff3fb850cede0b78bcfa999d29827ce5ba26dc35f32fc394d79639c8884deb8e"),
    "classical-pd-json": (0, "175c37ddfb7d3535ea672b3c27f6ecbbd3fba4afaa3d398192a570d476272024"),
    "classical-pd-nash": (0, "b490aebeabab503b6ef9ec04d949b562ac24f378ac54fd8e84deaeda36701042"),
    "classical-pd-nash-tol0": (0, "79bb40ad12ef03bd39098ffbc7bb45e44bb251ceb337d5ade9336559e7270a87"),
    "classical-pd-spe": (0, "d3a9098ba959d83abc87a464aae1fee9c3a5596c89f0916be58f6a4454c345e9"),
    "it-basis-dyadic-csv": (0, "fdffcc8ca20f123d4c55a4a64a8b3a768585a441f03df27263a3cb08d4ea9b24"),
    "it-basis-dyadic-dominance": (0, "4cf531a77b49ca4b93fe71452325d69be90f80ed0e98266d3b0e922b6c1258f8"),
    "it-basis-dyadic-json": (0, "f93891f9876dc8a224079732abfdc27b9fa3882d82bd145a7d299ed396c0de8c"),
    "it-basis-dyadic-nash": (0, "1b6b9fbfa0cffd44808befeada7017196855781c4359776bcb41882cd4b6e429"),
    "it-basis-dyadic-nash-tol0": (0, "9f6d76f5fc68413d2e4a98cfdda1cd9bfcb3405fa690b27e0c93fb2627e425d5"),
    "it-basis-dyadic-spe": (2, "5e4f4469be90fbe465bed42c3bfddb38749d57b8220c09b9e348db838d927a73"),
    "it-basis-pd-csv": (0, "b546ddbc6a36aeca9527af93c86fffc5208aa7946b554875df06a56ad4664974"),
    "it-basis-pd-dominance": (0, "4cf531a77b49ca4b93fe71452325d69be90f80ed0e98266d3b0e922b6c1258f8"),
    "it-basis-pd-json": (0, "b9a986ab4c52d20a1b01eb610eab1ea8637bfff42f3c26af6037c84ab6331e6b"),
    "it-basis-pd-nash": (0, "1b6b9fbfa0cffd44808befeada7017196855781c4359776bcb41882cd4b6e429"),
    "it-basis-pd-nash-tol0": (0, "9f6d76f5fc68413d2e4a98cfdda1cd9bfcb3405fa690b27e0c93fb2627e425d5"),
    "it-basis-pd-spe": (2, "5e4f4469be90fbe465bed42c3bfddb38749d57b8220c09b9e348db838d927a73"),
    "mw10-basis-dyadic-csv": (0, "050458876df8b624735bee8814918802af2b1f1e320f57b72d8dd58854199b69"),
    "mw10-basis-dyadic-dominance": (0, "c8b612fad19412982ebe911be3a9fc289b98d6805710fc56275d5b8de97b1349"),
    "mw10-basis-dyadic-json": (0, "5022c22cffa6378dcc4f3078bb4a595e0a512a393890d8c785a7362caf1d6edb"),
    "mw10-basis-dyadic-nash": (0, "f0cde6b0f29b5818f2d69fbf2f45e3b2f3960ced3ea88eadae73f791a86f5ed9"),
    "mw10-basis-dyadic-nash-tol0": (0, "8eec2f17118813827b861ee9719c6acbca861cefb34a2ea420faf528395c5a73"),
    "mw10-basis-dyadic-spe": (0, "8e9786ca46b2bfc64ce4a079388da8f1d2967b2b697a98a9bfb655b047f830d6"),
    "mw10-basis-pd-csv": (0, "ca73e3b9655d777cf79201b734ded30fd9d4096d83f2bda96e0fe696e471ed22"),
    "mw10-basis-pd-dominance": (0, "c8b612fad19412982ebe911be3a9fc289b98d6805710fc56275d5b8de97b1349"),
    "mw10-basis-pd-json": (0, "51b5843a33c73df64ed7e29207a702f1adc900be18cc54885f008fc1092a178c"),
    "mw10-basis-pd-nash": (0, "f0cde6b0f29b5818f2d69fbf2f45e3b2f3960ced3ea88eadae73f791a86f5ed9"),
    "mw10-basis-pd-nash-tol0": (0, "8eec2f17118813827b861ee9719c6acbca861cefb34a2ea420faf528395c5a73"),
    "mw10-basis-pd-spe": (0, "8e9786ca46b2bfc64ce4a079388da8f1d2967b2b697a98a9bfb655b047f830d6"),
    "mw10-zero-dyadic-csv": (0, "1cd2ad567d5a611b644d586ce44fd8a8cadfb7e2756a370a672707e6161c9a50"),
    "mw10-zero-dyadic-dominance": (0, "4cb0233db9a47e6cc14b9788298725d10cddfa4d7d1261fdd2e87897ad00d3db"),
    "mw10-zero-dyadic-json": (0, "fd5b62f25adfbb3f41a1dd35d52188c7a530a15a3ff93bd11b583b8452d57017"),
    "mw10-zero-dyadic-nash": (0, "b490aebeabab503b6ef9ec04d949b562ac24f378ac54fd8e84deaeda36701042"),
    "mw10-zero-dyadic-nash-tol0": (0, "79bb40ad12ef03bd39098ffbc7bb45e44bb251ceb337d5ade9336559e7270a87"),
    "mw10-zero-dyadic-spe": (0, "d3a9098ba959d83abc87a464aae1fee9c3a5596c89f0916be58f6a4454c345e9"),
    "mw10-zero-pd-csv": (0, "57f9cb26812c3aa3c5afa29d00eccac139dd9276bb3fd70f1747944f92523113"),
    "mw10-zero-pd-dominance": (0, "4cb0233db9a47e6cc14b9788298725d10cddfa4d7d1261fdd2e87897ad00d3db"),
    "mw10-zero-pd-json": (0, "175c37ddfb7d3535ea672b3c27f6ecbbd3fba4afaa3d398192a570d476272024"),
    "mw10-zero-pd-nash": (0, "b490aebeabab503b6ef9ec04d949b562ac24f378ac54fd8e84deaeda36701042"),
    "mw10-zero-pd-nash-tol0": (0, "79bb40ad12ef03bd39098ffbc7bb45e44bb251ceb337d5ade9336559e7270a87"),
    "mw10-zero-pd-spe": (0, "d3a9098ba959d83abc87a464aae1fee9c3a5596c89f0916be58f6a4454c345e9"),
    "nash-tol-nan": (2, "c70bb27d201d805ef54d2aa6d1f2a63e5e99c864bef1bd56a9d8bb0144542ab2"),
    "paper-repro": (0, "1dd045778052c10b0ee97c795748c1348382043351d33850b59073b733c9e66e"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_CASES))
def test_cli_output_bytes_are_pinned(tmp_path, capsys, case):
    command, document = _PINNED_CASES[case]
    argv = list(command)
    if document is not None:
        argv += ["--config", write_config(tmp_path, document)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, hashlib.sha256((out + err).encode()).hexdigest()) == _PINNED[case]


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


def test_a_config_that_is_not_utf8_exits_with_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"protocol": "mw10", \xff}')
    code, out, err = run_cli(capsys, "nash", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read config: 'utf-8' codec can't decode")


def test_a_too_deeply_nested_config_exits_with_two(tmp_path, capsys):
    depth = 100_000
    text = json.dumps(mw10_document("@")).replace('"@"', "[" * depth + "]" * depth)
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "nash", "--config", str(path))
    assert (code, out, err) == (2, "", "error: config is nested too deeply to parse\n")


def test_module_entry_point_prints_usage():
    result = subprocess.run(
        [sys.executable, "-m", "qrgames.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    for name in ("bimatrix", "nash", "spe", "dominance", "compare-protocols"):
        assert name in result.stdout


# ---------------------------------------------------------------------------
# config fuzz

_ORDINARY = st.floats(-10, 10) | st.sampled_from(
    [0, 1, -1, 0.5, 3, 5, 1e300, -1e300, 1e-300]
)
_PAIR = st.floats(0, 1).map(
    lambda w: [{"basis": "00", "prob": w}, {"basis": "11", "prob": 1 - w}]
)
_VALID = st.fixed_dictionaries(
    {
        "protocol": st.sampled_from(["mw10", "iqbal-toor", "classical"]),
        "payoffs": st.fixed_dictionaries({key: _ORDINARY for key in "TRPS"})
        | st.lists(
            st.lists(st.lists(_ORDINARY, min_size=2, max_size=2), min_size=2, max_size=2),
            min_size=2,
            max_size=2,
        ),
        "initial_state": st.one_of(
            st.sampled_from(["all_zero", "example_4_5", "ghz(0.3)"]),
            st.fixed_dictionaries({"ghz": st.floats(0, 1)}),
            st.lists(_PAIR, min_size=5, max_size=5).map(lambda p: {"pair_product": p}),
            st.lists(_PAIR, min_size=2, max_size=2).map(lambda p: {"pair_product": p}),
            st.lists(
                st.fixed_dictionaries(
                    {"basis": st.sampled_from(["0" * 10, "1" * 10, "0000", "1111"])},
                    optional={"re": _ORDINARY, "im": _ORDINARY, "prob": _ORDINARY},
                ),
                min_size=1,
                max_size=3,
            ),
        ),
    }
)
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e301, -(10**400)]),
)
_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=8)),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


def _paths(node, prefix=()):
    """The path of every value in a JSON document, the root's first."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


@st.composite
def _configs(draw):
    """A valid config with up to three values replaced, deleted or added."""
    document = draw(_VALID)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(document))))
        if not path:
            document = draw(_JUNK)
            continue
        parent = functools.reduce(operator.getitem, path[:-1], document)
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(_JUNK)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.append(draw(_JUNK))
        else:
            parent[draw(st.text(max_size=4))] = draw(_JUNK)
    return document


def _numbers_in(command: str, out: str) -> list[float]:
    """Every number a command printed: CSV cells ``u1;u2`` or JSON values."""
    if command == "bimatrix":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        return [float(v) for row in rows for cell in row[1:] for v in cell.split(";")]
    found = []

    def walk(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, (int, float)):
            found.append(node)

    walk(json.loads(out))
    return found


def _dense_start_document(seed: int = 2026) -> dict:
    """A seeded random ten-qubit start given as all 1024 terms."""
    amplitudes = np.random.default_rng(seed).standard_normal((1024, 2))
    amplitudes /= np.linalg.norm(amplitudes)
    terms = [
        {"basis": format(index, "010b"), "re": re, "im": im}
        for index, (re, im) in enumerate(amplitudes.tolist())
    ]
    return mw10_document(terms)


_DENSE_START = _dense_start_document()
# Configs refused with exit 2 by a message that names the field: unknown
# keys, and strings where numbers belong.
_REFUSED = [case.values for case in _UNKNOWN_KEYS + _STRINGS_AS_NUMBERS]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(document=_configs())
@example(document=_DENSE_START)
@example(document=_EXTRA_ENTRIES)
@example(document=_STRING_CELLS)
@example(document=_REFUSED[0][0])
@example(document=_REFUSED[1][0])
@example(document=_REFUSED[2][0])
@example(document=_REFUSED[3][0])
@example(document=_REFUSED[4][0])
@example(document=_REFUSED[5][0])
@example(document=_REFUSED[6][0])
@example(document=_REFUSED[7][0])
@example(document=_REFUSED[8][0])
def test_any_config_ends_in_a_finite_result_or_exit_two(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(document))
    for command in ("bimatrix", "nash", "spe", "dominance"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--config", str(path)])
        assert code in (0, 2), (command, code, err.getvalue())
        if command == "spe" and document == _DENSE_START:
            # Every outcome's continuations differ across the dense blocks.
            assert code == 2
            assert err.getvalue().startswith("error: no self-contained subgame after")
        if document in (_EXTRA_ENTRIES, _STRING_CELLS):
            assert code == 2
            assert "cell [0][0] is" in err.getvalue()
        for refused, message in _REFUSED:
            if document == refused:
                assert (code, err.getvalue()) == (2, f"error: {message}\n")
        if code == 0:
            assert all(math.isfinite(v) for v in _numbers_in(command, out.getvalue()))
