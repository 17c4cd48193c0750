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
from pathlib import Path

import numpy as np

from .claims import it_deviation, mw10_deviation, run_claims
from .equilibria import pure_nash, spe_pair_product, strictly_dominated
from .iqbaltoor import ITGame, it_pure_bimatrix
from .qstate import PureState, tensor_all
from .repeated10 import RepGame, example_state, rep_bimatrix
from .stagegames import (
    STRATEGY_LABELS,
    Bimatrix,
    StageGame,
    classical_twice_repeated,
    make_pd,
    payoff_scale,
)

PROTOCOLS = ("mw10", "iqbal-toor", "classical")
_QUBITS = {"mw10": 10, "iqbal-toor": 4}
_GHZ_PATTERN = re.compile(r"^ghz\(([^)]*)\)$")
PAPER_REPRO_SEED = 271828
# The scan accepts steps in (0, 0.5); the floor bounds its time and memory,
# which grow as 1/step (a few hundred bytes per grid point).
_GRID_STEP_RANGE = (1e-4, 0.5)


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
    stage = _stage_game(raw)
    for row in stage.outcomes:
        for pair in row:
            for value in pair:
                # Keeps every two-stage sum and payoff difference finite.
                if not abs(value) <= 1e300:
                    raise ConfigError(
                        f"payoffs must not exceed 1e300 in magnitude, got {value!r}"
                    )
    return stage


def _stage_game(raw: object) -> StageGame:
    if isinstance(raw, Mapping):
        missing = [key for key in ("T", "R", "P", "S") if key not in raw]
        if missing:
            raise ConfigError(
                f"payoffs need keys T, R, P, S; missing {', '.join(missing)}"
            )
        try:
            return make_pd(
                float(raw["T"]), float(raw["R"]), float(raw["P"]), float(raw["S"])
            )
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"payoffs must be numbers: {err}") from None
    if isinstance(raw, Sequence) and not isinstance(raw, str):
        try:
            cells = tuple(
                tuple((float(pair[0]), float(pair[1])) for pair in row)
                for row in raw
            )
            if len(cells) != 2 or any(len(row) != 2 for row in cells):
                raise ValueError
            return StageGame(cells)
        except (TypeError, ValueError, OverflowError, LookupError):
            raise ConfigError(
                "explicit payoffs must be a 2x2 nesting of [u1, u2] pairs"
            ) from None
    raise ConfigError("payoffs must be a {T,R,P,S} mapping or a 2x2 cell table")


def _number(raw: object, what: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {raw!r}") from None


@lru_cache(maxsize=4)
def _basis_indices(num_qubits: int) -> dict[str, int]:
    """Index of every ``num_qubits``-bit basis string."""
    return {format(i, f"0{num_qubits}b"): i for i in range(2 ** num_qubits)}


def _parse_terms(raw: object, num_qubits: int, where: str) -> PureState:
    if not isinstance(raw, Sequence) or isinstance(raw, str):
        raise ConfigError(
            f"{where} must be a list of terms, got {type(raw).__name__}"
        )
    indices = _basis_indices(num_qubits)
    # Python complex adds component-wise like numpy's complex128, so terms
    # with the same basis sum to the same bits when the array is built last.
    amps = [0j] * len(indices)
    for position, term in enumerate(raw):
        if not isinstance(term, dict) and not isinstance(term, Mapping):
            raise ConfigError(f"{where} term {position} must be an object")
        basis = term.get("basis")
        index = indices.get(basis) if isinstance(basis, str) else None
        if index is None:
            raise ConfigError(
                f"{where} term {position}: basis must be a {num_qubits}-bit "
                f"string, got {basis!r}"
            )
        if "prob" in term:
            if "re" in term or "im" in term:
                raise ConfigError(
                    f"{where} term {position}: give either prob or re/im, not both"
                )
            try:
                probability = float(term["prob"])
            except (TypeError, ValueError, OverflowError):
                probability = _number(term["prob"], f"{where} term {position}: prob")
            if probability < 0:
                raise ConfigError(f"{where} term {position}: prob must be nonnegative")
            amplitude = complex(math.sqrt(probability))
        else:
            re, im = term.get("re", 0.0), term.get("im", 0.0)
            try:
                amplitude = complex(float(re), float(im))
            except (TypeError, ValueError, OverflowError):
                amplitude = complex(
                    _number(re, f"{where} term {position}: re"),
                    _number(im, f"{where} term {position}: im"),
                )
        amps[index] += amplitude
    vector = np.array(amps)
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
            return _ghz_state(num_qubits, _number(match.group(1), "ghz weight"))
        raise ConfigError(f"unknown initial_state preset {raw!r}")
    if isinstance(raw, Mapping):
        if "ghz" in raw:
            return _ghz_state(num_qubits, _number(raw["ghz"], "ghz weight"))
        if "pair_product" in raw:
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
            "initial_state object must contain 'ghz' or 'pair_product'"
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
    report = pure_nash(bm, tol=args.tol)
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


def cmd_dominance(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.protocol)
    bm = _bimatrix_for(config)
    document = {"protocol": config.protocol}
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
    _emit(json.dumps(document, indent=2), args.out)
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
        seed=PAPER_REPRO_SEED,
        grid_step=args.grid_step,
        perturb=1e-6 if args.selftest_perturb else 0.0,
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
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=cmd_nash)

    p = sub.add_parser("spe", help="subgame perfect equilibria (a subgame after every outcome)")
    add_config_flags(p)
    p.add_argument("--tol", type=float, default=1e-9)
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
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=cmd_compare_protocols)

    p = sub.add_parser(
        "paper-repro",
        help="run the built-in verification battery and print pass/fail lines",
    )
    p.add_argument("--out", help="write the report to this file instead of stdout")
    p.add_argument("--grid-step", type=float, default=0.01)
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
    """Refuse a --tol, --seed or --grid-step no analysis can use, before any work."""
    tol = getattr(args, "tol", 0.0)
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"--tol must be finite and nonnegative, got {tol!r}")
    seed = getattr(args, "seed", 0)
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    low, high = _GRID_STEP_RANGE
    step = getattr(args, "grid_step", low)
    if not low <= step < high:
        raise ConfigError(f"--grid-step must lie in [{low:g}, {high:g}), got {step!r}")


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
