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
from pathlib import Path

import numpy as np

from .equilibria import (
    cooperation_scan,
    pure_nash,
    spe_pair_product,
    strictly_dominated,
)
from .iqbaltoor import (
    IT_PURE_STRATEGIES,
    ITGame,
    ITStrategy,
    it_batch_expected,
    it_expected,
    it_no_cooperation_check,
    it_pure_bimatrix,
    sample_dilemma_state,
)
from .mw import MWGame, mw_bimatrix
from .qstate import (
    DiagonalObservable,
    Ensemble,
    FlipLayer,
    PureState,
    apply_flips,
    bits_of,
    expectation,
    measure_pair,
    random_state,
    tensor_all,
)
from .repeated10 import (
    RepGame,
    factor_pairs,
    rep_bimatrix,
    rep_component_tables,
    sequential_component_tables,
)
from .stagegames import (
    Bimatrix,
    StageGame,
    all_strategies,
    classical_twice_repeated,
    make_pd,
    qubit_count,
)

PROTOCOLS = ("mw10", "iqbal-toor", "classical")
_QUBITS = {"mw10": 10, "iqbal-toor": 4}
_GHZ_PATTERN = re.compile(r"^ghz\(([^)]*)\)$")


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

    def to_document(self) -> dict:
        """JSON-ready dict that parses back to an equivalent config."""
        document: dict = {
            "protocol": self.protocol,
            "payoffs": [
                [list(self.stage.pair(a1, a2)) for a2 in (0, 1)] for a1 in (0, 1)
            ],
        }
        if self.initial is not None:
            terms = []
            for index, amp in enumerate(self.initial.amplitudes):
                if amp == 0:
                    continue
                terms.append(
                    {
                        "basis": bits_of(index, self.initial.num_qubits),
                        "re": amp.real,
                        "im": amp.imag,
                    }
                )
            document["initial_state"] = terms
        return document


def _parse_payoffs(raw: object) -> StageGame:
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
        except (TypeError, ValueError) as err:
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
        except (TypeError, ValueError, IndexError):
            raise ConfigError(
                "explicit payoffs must be a 2x2 nesting of [u1, u2] pairs"
            ) from None
    raise ConfigError("payoffs must be a {T,R,P,S} mapping or a 2x2 cell table")


def _number(raw: object, what: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {raw!r}") from None


def _parse_terms(raw: Sequence, num_qubits: int, where: str) -> PureState:
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


def _example_state() -> PureState:
    return PureState.from_terms(
        10, {"0" * 10: math.sqrt(0.6), "0011" + "0" * 6: math.sqrt(0.4)}
    )


def _parse_state(raw: object, protocol: str) -> PureState:
    num_qubits = _QUBITS[protocol]
    if isinstance(raw, str):
        if raw == "all_zero":
            return PureState.basis(num_qubits, 0)
        if raw == "example_4_5":
            if protocol != "mw10":
                raise ConfigError("preset example_4_5 is a 10-qubit state")
            return _example_state()
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
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    return parse_config(document, protocol=protocol)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text)


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
    if factor_pairs(initial) is None:
        raise ConfigError("SPE undefined for cross-pair entanglement")
    report = spe_pair_product(RepGame(initial, config.stage), tol=args.tol)
    labels = tuple(strat.bits for strat in all_strategies())
    _emit(report.to_json(labels, labels), args.out)
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


def _mw10_deviation(stage: StageGame, samples: int, seed: int) -> tuple[float, int]:
    """Max |batch - sequential| over random states and all pure profiles."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for _ in range(samples):
        game = RepGame(random_state(10, rng), stage)
        batch = rep_component_tables(game)
        sequential = sequential_component_tables(game)
        for key, table in batch.items():
            worst = max(worst, float(np.abs(table - sequential[key]).max()))
        checked += batch[(1, 1)].size
    return worst, checked


def _it_deviation(stage: StageGame, samples: int, seed: int) -> tuple[float, int]:
    """Max |ensemble path - single-mask path| on the 4-qubit protocol.

    Pure profiles are compared directly; one random mixed profile per
    state is compared against the convex combination of the sixteen
    pure-corner results.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for _ in range(samples):
        game = ITGame(random_state(4, rng), stage)
        corners = {}
        for s1 in IT_PURE_STRATEGIES:
            for s2 in IT_PURE_STRATEGIES:
                bits = (
                    int(s1.stage1_flip_prob),
                    int(s2.stage1_flip_prob),
                    int(s1.stage2_flip_prob),
                    int(s2.stage2_flip_prob),
                )
                corners[bits] = it_batch_expected(game, *bits).as_array()
                ensemble_path = it_expected(game, s1, s2).as_array()
                worst = max(
                    worst, float(np.abs(corners[bits] - ensemble_path).max())
                )
                checked += 1
        mixed1 = ITStrategy(float(rng.uniform()), float(rng.uniform()))
        mixed2 = ITStrategy(float(rng.uniform()), float(rng.uniform()))
        blend = np.zeros(4)
        for (k1, k2, k3, k4), value in corners.items():
            weight = (
                (mixed1.stage1_flip_prob if k1 else 1 - mixed1.stage1_flip_prob)
                * (mixed2.stage1_flip_prob if k2 else 1 - mixed2.stage1_flip_prob)
                * (mixed1.stage2_flip_prob if k3 else 1 - mixed1.stage2_flip_prob)
                * (mixed2.stage2_flip_prob if k4 else 1 - mixed2.stage2_flip_prob)
            )
            blend += weight * value
        mixed_path = it_expected(game, mixed1, mixed2).as_array()
        worst = max(worst, float(np.abs(blend - mixed_path).max()))
        checked += 1
    return worst, checked


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
        worst, checked = _mw10_deviation(config.stage, args.samples, args.seed)
    else:
        worst, checked = _it_deviation(config.stage, args.samples, args.seed)
    passed = worst <= args.tol
    document = {
        "protocol": config.protocol,
        "samples": args.samples,
        "seed": args.seed,
        "profiles_checked": checked,
        "max_deviation": worst,
        "tolerance": args.tol,
        "pass": passed,
    }
    _emit(json.dumps(document, indent=2), args.out)
    return 0 if passed else 1


def _check_classical_embedding() -> tuple[bool, str]:
    stage = make_pd(5, 3, 1, 0)
    quantum = rep_bimatrix(RepGame(PureState.basis(10, 0), stage))
    classical = classical_twice_repeated(stage)
    deviation = max(
        float(np.abs(quantum.payoffs1 - classical.payoffs1).max()),
        float(np.abs(quantum.payoffs2 - classical.payoffs2).max()),
    )
    return deviation <= 1e-9, f"max deviation {deviation:.3e}"


def _check_batch_sequential() -> tuple[bool, str]:
    worst, checked = _mw10_deviation(make_pd(5, 3, 1, 0), samples=20, seed=271828)
    return worst <= 1e-9, f"max deviation {worst:.3e} over {checked} profiles"


def _second_stage_family_state() -> PureState:
    # Two terms on 0000/1100 and two on 0011/1111, with the 00-block
    # carrying total weight 1/3: the family whose second stage has a
    # fixed payoff table regardless of how the weight is split.
    w0000, w1100, w0011 = 0.2, 2.0 / 15.0, 0.3
    w1111 = 1.0 - w0000 - w1100 - w0011
    return PureState.from_terms(
        4,
        {
            "0000": math.sqrt(w0000),
            "1100": math.sqrt(w1100),
            "0011": math.sqrt(w0011),
            "1111": math.sqrt(w1111),
        },
    )


def _check_entangled_second_stage(perturb: float) -> tuple[bool, str]:
    stage = make_pd(5 + perturb, 3, 1, 0)
    game = ITGame(_second_stage_family_state(), stage)
    table1 = np.empty((2, 2))
    table2 = np.empty((2, 2))
    for k3 in (0, 1):
        for k4 in (0, 1):
            outcome = it_batch_expected(game, 0, 0, k3, k4)
            table1[k3, k4] = outcome.p1_stage2
            table2[k3, k4] = outcome.p2_stage2
    want1 = np.array([[5.0, 10.0], [5.0, 7.0]]) / 3.0
    want2 = np.array([[5.0, 5.0], [10.0, 7.0]]) / 3.0
    deviation = max(
        float(np.abs(table1 - want1).max()), float(np.abs(table2 - want2).max())
    )
    bm = Bimatrix(table1, table2, ("0", "1"), ("0", "1"))
    profiles = {(eq.row, eq.col) for eq in pure_nash(bm, tol=1e-9).equilibria}
    ok = (
        deviation <= 1e-9
        and len(profiles) >= 2
        and {(0, 1), (1, 0)} <= profiles
    )
    return ok, f"max deviation {deviation:.3e}, equilibria {sorted(profiles)}"


def _check_four_qubit_no_cooperation() -> tuple[bool, str]:
    stage = make_pd(5, 3, 1, 0)
    rng = np.random.default_rng(314159)
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
            worst = max(
                worst,
                abs(gaps[0] - wanted[0]),
                abs(gaps[1] - wanted[1]),
            )
    return worst <= 1e-9, f"max gap deviation {worst:.3e} over {len(states)} states"


def _check_basis11_relabeling() -> tuple[bool, str]:
    t, r, p, s = 5.0, 3.0, 1.0, 0.0
    bm = mw_bimatrix(MWGame(PureState.basis(2, "11"), make_pd(t, r, p, s)))
    want = {
        (0, 0): (p, p),
        (0, 1): (t, s),
        (1, 0): (s, t),
        (1, 1): (r, r),
    }
    exact = all(bm.cell(*key) == value for key, value in want.items())
    return exact, "table mismatch" if not exact else ""


def _check_cooperation_threshold(grid_step: float) -> tuple[bool, str]:
    stage = make_pd(5, 3, 1, 0)
    analysis = cooperation_scan(stage, grid_step)
    bound_ok = abs(analysis.empirical_bound - 1.0 / 3.0) <= grid_step
    pair = PureState.from_terms(2, {"00": math.sqrt(0.2), "11": math.sqrt(0.8)})
    report = spe_pair_product(RepGame(tensor_all([pair] * 5), stage))
    spe_ok = (
        len(report.equilibria) == 1
        and (report.equilibria[0].row, report.equilibria[0].col) == (0, 0)
        and abs(report.equilibria[0].payoffs[0] - 2.8) <= 1e-9
        and abs(report.equilibria[0].payoffs[1] - 2.8) <= 1e-9
    )
    return (
        bound_ok and spe_ok,
        f"empirical bound {analysis.empirical_bound:.4f}, "
        f"{len(report.equilibria)} equilibria at x=0.2",
    )


def _check_pair_product_two_spe() -> tuple[bool, str]:
    report = spe_pair_product(RepGame(_example_state(), make_pd(5, 4, 1, 0)))
    profiles = [(eq.row, eq.col) for eq in report.equilibria]
    payoffs = [eq.payoffs for eq in report.equilibria]
    ok = (
        profiles == [(15, 15), (31, 31)]
        and max(abs(payoffs[0][0] - 6.2), abs(payoffs[0][1] - 6.2)) <= 1e-9
        and max(abs(payoffs[1][0] - 2.0), abs(payoffs[1][1] - 2.0)) <= 1e-9
    )
    return ok, f"profiles {profiles}, payoffs {payoffs}"


def _check_register_size() -> tuple[bool, str]:
    got = tuple(qubit_count(n) for n in (1, 2, 3))
    return got == (2, 10, 42), f"got {got}"


def _check_randomized_invariants() -> tuple[bool, str]:
    rng = np.random.default_rng(602214)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        state = random_state(n, rng)
        layer = FlipLayer(
            {q: int(rng.integers(0, 2)) for q in range(1, n + 1)}
        )
        flipped = apply_flips(state, layer)
        if abs(float(flipped.probabilities.sum()) - 1.0) > 1e-12:
            return False, "flip broke normalization"
        if not np.array_equal(
            apply_flips(flipped, layer).amplitudes, state.amplitudes
        ):
            return False, "flip applied twice is not the identity"
        if n >= 2:
            qubits = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            branches = measure_pair(state, int(qubits[0]), int(qubits[1]))
            total = sum(probability for _, probability, _ in branches)
            if abs(total - 1.0) > 1e-9:
                return False, "measurement probabilities do not sum to 1"
        other = random_state(n, rng)
        weights_a = rng.standard_normal(2 ** n)
        weights_b = rng.standard_normal(2 ** n)
        alpha, beta = rng.uniform(), float(rng.uniform(-2, 2))
        mixed = Ensemble(((alpha, state), (1.0 - alpha, other)))
        obs_a = DiagonalObservable(n, weights_a)
        combined = DiagonalObservable(n, weights_a + beta * weights_b)
        mix_linear = expectation(mixed, obs_a) - (
            alpha * expectation(state, obs_a)
            + (1.0 - alpha) * expectation(other, obs_a)
        )
        obs_linear = expectation(state, combined) - (
            expectation(state, obs_a)
            + beta * expectation(state, DiagonalObservable(n, weights_b))
        )
        if abs(mix_linear) > 1e-9 or abs(obs_linear) > 1e-9:
            return False, "expectation is not multilinear"
    return True, ""


def cmd_paper_repro(args: argparse.Namespace) -> int:
    perturb = 1e-6 if args.selftest_perturb else 0.0
    checks = (
        ("classical-embedding", _check_classical_embedding),
        ("batch-sequential-equivalence", _check_batch_sequential),
        (
            "entangled-second-stage-table",
            lambda: _check_entangled_second_stage(perturb),
        ),
        ("four-qubit-no-cooperation", _check_four_qubit_no_cooperation),
        ("basis-11-relabeling", _check_basis11_relabeling),
        (
            "cooperation-threshold",
            lambda: _check_cooperation_threshold(args.grid_step),
        ),
        ("pair-product-two-spe", _check_pair_product_two_spe),
        ("register-size-formula", _check_register_size),
        ("randomized-invariants", _check_randomized_invariants),
    )
    lines = []
    failed = 0
    for slug, run in checks:
        try:
            ok, detail = run()
        except Exception as err:
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        if ok:
            lines.append(f"PASS {slug}")
        else:
            failed += 1
            lines.append(f"FAIL {slug}: {detail}")
    lines.append(f"{len(checks) - failed} passed, {failed} failed")
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

    p = sub.add_parser("spe", help="subgame perfect equilibria (pair-product states)")
    add_config_flags(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=cmd_spe)

    p = sub.add_parser("dominance", help="strictly dominated strategies per player")
    add_config_flags(p)
    p.set_defaults(handler=cmd_dominance)

    p = sub.add_parser(
        "compare-protocols",
        help="batch vs sequential evaluation on random states",
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


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
