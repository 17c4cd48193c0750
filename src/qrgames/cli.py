"""Command-line front end: config parsing, reports, reproduction runs.

The ``qrgames`` command reads a JSON game description (protocol, stage
payoffs, initial state) and writes bimatrices, equilibrium reports,
dominance reports, protocol-equivalence comparisons, or the full
built-in verification battery.  Exit codes: 0 on success, 1 when a
requested check fails, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .claims import it_deviation, mw10_deviation, run_claims
from .equilibria import pure_nash, spe_pair_product, strictly_dominated
from .iqbaltoor import ITGame, it_pure_bimatrix
from .qstate import PureState, tensor_all
from .repeated10 import RepGame, example_state, rep_bimatrix
from .stagegames import (
    PAYOFF_TOL,
    STRATEGY_LABELS,
    Bimatrix,
    StageGame,
    classical_twice_repeated,
    json_array,
    make_pd,
    payoff_scale,
)

PROTOCOLS = ("mw10", "iqbal-toor", "classical")
_QUBITS = {"mw10": 10, "iqbal-toor": 4}
_GHZ_PATTERN = re.compile(r"^ghz\(([^)]*)\)$")
_PAYOFF_KEYS = ("T", "R", "P", "S")
_TERM_KEYS = ("basis", "prob", "re", "im")
PAPER_REPRO_SEED = 271828


class ConfigError(Exception):
    """A game description that cannot be turned into a game."""


@dataclass(frozen=True)
class GameConfig:
    """Parsed game description: protocol name, stage game, initial state.

    ``initial`` is None exactly for the classical protocol, which has no
    register.
    """

    protocol: str
    stage: StageGame
    initial: PureState | None


def _parse_payoffs(raw: object) -> StageGame:
    if isinstance(raw, Mapping):
        missing = [key for key in _PAYOFF_KEYS if key not in raw]
        if missing:
            raise ConfigError(
                f"payoffs need keys T, R, P, S; missing {', '.join(missing)}"
            )
        _refuse_unknown_keys(raw, _PAYOFF_KEYS, "payoffs")
        return make_pd(*(_payoff(raw[key], f"payoff {key}") for key in _PAYOFF_KEYS))
    if _is_array(raw):
        if len(raw) != 2 or not all(_is_array(row) and len(row) == 2 for row in raw):
            raise ConfigError(
                "explicit payoffs must be a 2x2 nesting of [u1, u2] pairs"
            )
        return StageGame(
            tuple(
                tuple(_payoff_pair(pair, f"[{i}][{j}]") for j, pair in enumerate(row))
                for i, row in enumerate(raw)
            )
        )
    raise ConfigError("payoffs must be a {T,R,P,S} mapping or a 2x2 cell table")


def _payoff_pair(raw: object, cell: str) -> tuple[float, float]:
    """One explicit cell: a JSON array of exactly two payoffs.

    A string is a sequence too, and entries past the second would be
    dropped unread, so both are refused by the cell's name.
    """
    if not _is_array(raw) or len(raw) != 2:
        raise ConfigError(
            "explicit payoffs must be a 2x2 nesting of [u1, u2] pairs; "
            f"cell {cell} is {raw!r}"
        )
    return (
        _payoff(raw[0], f"payoff cell {cell}[0]"),
        _payoff(raw[1], f"payoff cell {cell}[1]"),
    )


def _payoff(raw: object, what: str) -> float:
    value = _number(raw, what)
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {raw!r}")
    # Keeps every two-stage sum and payoff difference finite.
    if not abs(value) <= 1e300:
        raise ConfigError(
            f"payoffs must not exceed 1e300 in magnitude, got {value!r}"
        )
    return value


def _is_array(raw: object) -> bool:
    """A JSON array: a sequence other than a string."""
    return isinstance(raw, Sequence) and not isinstance(raw, str)


def _refuse_unknown_keys(raw: Mapping, known: tuple[str, ...], where: str) -> None:
    """A misspelled key would otherwise be dropped unread."""
    for key in raw:
        if key not in known:
            raise ConfigError(
                f"{where}: unknown key {key!r}; expected {', '.join(known)}"
            )


def _number(raw: object, what: str) -> float:
    """A JSON number as a float.  ``float`` also reads JSON true and false
    (as 1.0 and 0.0) and numeric strings such as "5"; both are refused."""
    if raw.__class__ is bool or isinstance(raw, str):
        raise ConfigError(f"{what} must be a number, got {raw!r}")
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {raw!r}") from None


@lru_cache(maxsize=4)
def _basis_indices(num_qubits: int) -> dict[str, int]:
    """Index of every ``num_qubits``-bit basis string."""
    return {format(i, f"0{num_qubits}b"): i for i in range(2 ** num_qubits)}


def _plain_terms(
    raw: Sequence, indices: dict[str, int]
) -> tuple[list[int], np.ndarray] | None:
    """Rows and amplitudes of a list of plain ``{basis, re, im}`` dicts with
    float components and known bases, read a list at a time; None for any
    other list, which the per-term checks then read."""
    if not all(term.__class__ is dict and len(term) == 3 for term in raw):
        return None
    try:
        rows = [indices[term["basis"]] for term in raw]
        re = [term["re"] for term in raw]
        im = [term["im"] for term in raw]
    except (KeyError, TypeError):
        return None
    if set(map(type, re + im)) - {float}:
        return None
    components = np.empty((len(rows), 2))
    components[:, 0] = re
    components[:, 1] = im
    return rows, components.view(complex)[:, 0]


def _checked_terms(
    raw: Sequence, num_qubits: int, where: str, indices: dict[str, int]
) -> tuple[list[int], list[complex]]:
    """Rows and amplitudes of any term list, read term by term.  These
    checks are the only code that writes a term's error message."""
    rows, amplitudes = [], []
    for position, term in enumerate(raw):
        at = f"{where} term {position}"
        if not isinstance(term, dict) and not isinstance(term, Mapping):
            raise ConfigError(f"{at} must be an object")
        basis = term.get("basis")
        index = indices.get(basis) if isinstance(basis, str) else None
        if index is None:
            raise ConfigError(
                f"{at}: basis must be a {num_qubits}-bit string, got {basis!r}"
            )
        # Each branch counts the keys it reads against ``len(term)``, so a
        # misspelled key is refused without a per-term set.
        if "prob" in term:
            if len(term) != 2:
                if "re" in term or "im" in term:
                    raise ConfigError(f"{at}: give either prob or re/im, not both")
                _refuse_unknown_keys(term, _TERM_KEYS, at)
            probability = _number(term["prob"], f"{at}: prob")
            if probability < 0:
                raise ConfigError(f"{at}: prob must be nonnegative")
            amplitude = complex(math.sqrt(probability))
        else:
            if len(term) != 1 + ("re" in term) + ("im" in term):
                _refuse_unknown_keys(term, _TERM_KEYS, at)
            amplitude = complex(
                _number(term.get("re", 0), f"{at}: re"),
                _number(term.get("im", 0), f"{at}: im"),
            )
        rows.append(index)
        amplitudes.append(amplitude)
    return rows, amplitudes


def _parse_terms(raw: object, num_qubits: int, where: str) -> PureState:
    if not isinstance(raw, Sequence) or isinstance(raw, str):
        raise ConfigError(
            f"{where} must be a list of terms, got {type(raw).__name__}"
        )
    indices = _basis_indices(num_qubits)
    rows, amplitudes = _plain_terms(raw, indices) or _checked_terms(
        raw, num_qubits, where, indices
    )
    # ``add.at`` adds term by term in list order, component-wise from 0j,
    # so repeated bases and signed zeros sum to the same bits whichever
    # reader gave the terms.
    vector = np.zeros(len(indices), dtype=complex)
    np.add.at(vector, np.array(rows, dtype=np.intp), amplitudes)
    return _normalized(vector, num_qubits, where)


def _normalized(vector: np.ndarray, num_qubits: int, where: str) -> PureState:
    total = float(np.sum(np.abs(vector) ** 2))
    if not abs(total - 1.0) <= 1e-9:
        raise ConfigError(
            f"{where}: amplitudes give total probability {total!r}, not 1"
        )
    return PureState(num_qubits, vector / math.sqrt(total))


def _ghz_state(num_qubits: int, zero_weight: float) -> PureState:
    if not 0.0 <= zero_weight <= 1.0:
        raise ConfigError(f"ghz weight must lie in [0, 1], got {zero_weight!r}")
    return PureState.from_terms(
        num_qubits,
        {
            "0" * num_qubits: math.sqrt(zero_weight),
            "1" * num_qubits: math.sqrt(1.0 - zero_weight),
        },
    )


def _parse_state(raw: object, protocol: str) -> PureState:
    num_qubits = _QUBITS[protocol]
    if isinstance(raw, str):
        if raw == "all_zero":
            return PureState.basis(num_qubits, 0)
        if raw == "example_4_5":
            if protocol != "mw10":
                raise ConfigError("preset example_4_5 is a 10-qubit state")
            return example_state()
        match = _GHZ_PATTERN.match(raw)
        if match:
            text = match.group(1)
            try:
                weight = float(text)
            except ValueError:
                raise ConfigError(
                    f"ghz weight must be a number, got {text!r}"
                ) from None
            return _ghz_state(num_qubits, weight)
        raise ConfigError(f"unknown initial_state preset {raw!r}")
    if isinstance(raw, Mapping):
        keys = list(raw)
        if keys == ["ghz"]:
            return _ghz_state(num_qubits, _number(raw["ghz"], "ghz weight"))
        if keys == ["pair_product"]:
            pairs = raw["pair_product"]
            wanted = num_qubits // 2
            if not isinstance(pairs, Sequence) or len(pairs) != wanted:
                raise ConfigError(
                    f"pair_product needs {wanted} two-qubit states for {protocol}"
                )
            factors = [
                _parse_terms(pair, 2, f"pair_product[{i}]")
                for i, pair in enumerate(pairs)
            ]
            return tensor_all(factors)
        raise ConfigError(
            "initial_state object must contain one key, 'ghz' or 'pair_product'; "
            f"got {', '.join(map(repr, keys)) or 'none'}"
        )
    if isinstance(raw, Sequence):
        return _parse_terms(raw, num_qubits, "initial_state")
    raise ConfigError("initial_state must be a preset name, object, or term list")


def parse_config(document: object, protocol: str | None = None) -> GameConfig:
    """Turn a JSON document into a game, or raise :class:`ConfigError`.

    ``protocol`` (from the command line) overrides the document's field.
    The classical protocol ignores any initial state.  The example_4_5
    preset supplies its own dilemma payoffs when none are given.
    """
    if not isinstance(document, Mapping):
        raise ConfigError("config must be a JSON object")
    _refuse_unknown_keys(document, ("protocol", "payoffs", "initial_state"), "config")
    name = protocol or document.get("protocol")
    if name is None:
        raise ConfigError("no protocol given (config field or --protocol)")
    if name not in PROTOCOLS:
        raise ConfigError(
            f"unknown protocol {name!r}; expected one of {', '.join(PROTOCOLS)}"
        )
    state_raw = document.get("initial_state", "all_zero")
    payoffs_raw = document.get("payoffs")
    if payoffs_raw is None:
        if state_raw == "example_4_5":
            stage = make_pd(5.0, 4.0, 1.0, 0.0)
        else:
            raise ConfigError("config needs a payoffs field")
    else:
        stage = _parse_payoffs(payoffs_raw)
    if name == "classical":
        return GameConfig(protocol=name, stage=stage, initial=None)
    return GameConfig(
        protocol=name, stage=stage, initial=_parse_state(state_raw, name)
    )


def load_config(path: str, protocol: str | None = None) -> GameConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config: {err}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    except RecursionError:
        raise ConfigError("config is nested too deeply to parse") from None
    return parse_config(document, protocol=protocol)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        try:
            Path(out).write_text(text)
        except OSError as err:
            raise ConfigError(f"cannot write output: {err}") from None


def _bimatrix_for(config: GameConfig) -> Bimatrix:
    if config.protocol == "classical":
        return classical_twice_repeated(config.stage)
    if config.protocol == "mw10":
        return rep_bimatrix(RepGame(config.initial, config.stage))
    return it_pure_bimatrix(ITGame(config.initial, config.stage))


def cmd_bimatrix(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.protocol)
    bm = _bimatrix_for(config)
    _emit(bm.to_csv() if args.format == "csv" else bm.to_json(), args.out)
    return 0


def cmd_nash(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.protocol)
    bm = _bimatrix_for(config)
    report = pure_nash(bm, tol=args.tol, scale=payoff_scale(config.stage))
    _emit(report.to_json(bm.row_labels, bm.col_labels), args.out)
    return 0


def cmd_spe(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.protocol)
    if config.protocol == "iqbal-toor":
        raise ConfigError(
            "subgame analysis is not defined for the 4-qubit protocol: "
            "both stages are chosen before the measurement"
        )
    initial = (
        PureState.basis(10, 0) if config.protocol == "classical" else config.initial
    )
    try:
        report = spe_pair_product(RepGame(initial, config.stage), tol=args.tol)
    except ValueError as err:
        # Some outcome heads no self-contained subgame, or one with no pure
        # equilibrium to fold back.
        raise ConfigError(str(err)) from None
    _emit(report.to_json(STRATEGY_LABELS, STRATEGY_LABELS), args.out)
    return 0


# The dominance report is exactly json.dumps(document, indent=2) of
# {"protocol", "player1", "player2"}, each list holding one object per
# pair of strictly_dominated: the template of a pair two levels deep, and
# the document around both lists.
_DOMINANCE_PAIR = (
    '{\n      "dominated": %d,\n      "dominated_label": %s,\n'
    '      "dominating": %d,\n      "dominating_label": %s\n    }'
)
_DOMINANCE_JSON = '{\n  "protocol": %s,\n  "player1": %s,\n  "player2": %s\n}'


def cmd_dominance(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.protocol)
    bm = _bimatrix_for(config)
    lists = []
    for player, own_labels in ((1, bm.row_labels), (2, bm.col_labels)):
        labels = list(map(encode_basestring_ascii, own_labels))
        lists.append(
            json_array(
                [
                    _DOMINANCE_PAIR % (a, labels[a], b, labels[b])
                    for a, b in strictly_dominated(bm, player)
                ],
                1,
            )
        )
    protocol = encode_basestring_ascii(config.protocol)
    _emit(_DOMINANCE_JSON % (protocol, *lists), args.out)
    return 0


def cmd_compare_protocols(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.protocol)
    if args.samples < 0:
        raise ConfigError("samples must be nonnegative")
    if config.protocol == "classical":
        raise ConfigError(
            "comparison needs a quantum protocol (mw10 or iqbal-toor)"
        )
    if args.samples == 0:
        worst, checked = 0.0, 0
    elif config.protocol == "mw10":
        worst, checked = mw10_deviation(config.stage, args.samples, args.seed)
    else:
        worst, checked = it_deviation(config.stage, args.samples, args.seed)
    # Rounding grows with the payoffs; the floor keeps small games at --tol.
    scale = max(1.0, payoff_scale(config.stage))
    passed = worst <= args.tol * scale
    document = {
        "protocol": config.protocol,
        "samples": args.samples,
        "seed": args.seed,
        "profiles_checked": checked,
        "max_deviation": worst,
        "tolerance": args.tol,
        "scale": scale,
        "pass": passed,
    }
    _emit(json.dumps(document, indent=2), args.out)
    return 0 if passed else 1


def cmd_paper_repro(args: argparse.Namespace) -> int:
    results = run_claims(
        seed=PAPER_REPRO_SEED, perturb=1e-6 if args.selftest_perturb else 0.0
    )
    lines = [
        f"PASS {name}" if ok else f"FAIL {name}: {detail}"
        for name, ok, detail in results
    ]
    failed = sum(not ok for _, ok, _ in results)
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrgames",
        description=(
            "Simulate twice-played 2x2 games on qubit registers and "
            "analyze their equilibria."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON game description")
        p.add_argument(
            "--protocol",
            choices=PROTOCOLS,
            help="override the config's protocol field",
        )
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("bimatrix", help="full pure-strategy payoff table")
    add_config_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_bimatrix)

    p = sub.add_parser("nash", help="pure Nash equilibria of the payoff table")
    add_config_flags(p)
    p.add_argument("--tol", type=float, default=PAYOFF_TOL)
    p.set_defaults(handler=cmd_nash)

    p = sub.add_parser("spe", help="subgame perfect equilibria (a subgame after every outcome)")
    add_config_flags(p)
    p.add_argument("--tol", type=float, default=PAYOFF_TOL)
    p.set_defaults(handler=cmd_spe)

    p = sub.add_parser("dominance", help="strictly dominated strategies per player")
    add_config_flags(p)
    p.set_defaults(handler=cmd_dominance)

    p = sub.add_parser(
        "compare-protocols",
        help=(
            "check the payoff tables against an independent evaluation "
            "on random states"
        ),
    )
    add_config_flags(p)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=PAYOFF_TOL)
    p.set_defaults(handler=cmd_compare_protocols)

    p = sub.add_parser(
        "paper-repro",
        help="run the built-in verification battery and print pass/fail lines",
    )
    p.add_argument("--out", help="write the report to this file instead of stdout")
    p.add_argument(
        "--selftest-perturb", action="store_true", help=argparse.SUPPRESS
    )
    p.set_defaults(handler=cmd_paper_repro)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one serves every call in a
    # process; a fresh one per call would leave a reference cycle behind.
    return build_parser()


def _check_flags(args: argparse.Namespace) -> None:
    """Refuse a --tol or --seed no analysis can use, before any work."""
    tol = getattr(args, "tol", 0.0)
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"--tol must be finite and nonnegative, got {tol!r}")
    seed = getattr(args, "seed", 0)
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.handler(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
