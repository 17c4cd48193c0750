"""The three workloads: seeded inputs, one op each, and their oracles.

Every workload is a closed loop with one client.  Its inputs are a pool
generated with numpy from the run's seed and written to the work
directory before any clock starts; ops cycle over the pool in order.
Each op's output is checked by an oracle that runs outside the timed
region:

- ``analyze-mw10``: ``bimatrix --format csv``, ``nash`` and ``dominance``
  through ``qrgames.cli.main`` on a dense random 10-qubit state.  Every
  CSV cell is recomputed here by the direct sum over basis states, a
  seeded sample of cells again through ``play_batch`` (flip, then read;
  no XOR gather), and the Nash set with its strict flags and the
  dominated pairs are recomputed from the CSV by brute force.
- ``verify-mw10``: ``compare-protocols --protocol mw10 --samples 1``
  through the CLI; the report must pass with all 1024 profiles checked.
- ``small-games``: a bundle of library calls on 2-, 4- and 10-qubit
  inputs that mirrors ``demos/``, each checked against values computed
  here from the inputs.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np

import qrgames as q
import qrgames.cli

# Agreement required between the program and an oracle.
TOL = 1e-9
# Half-width of the band around a comparison threshold inside which CSV
# rounding (12 significant digits) can decide the outcome either way.
CSV_EPS = 1e-10
# play_batch cells re-derived per analyze-mw10 op.
SAMPLED_CELLS = 4

_Y = np.arange(1024)
# _QUBIT[j] holds qubit j (1-based, qubit 1 most significant) of every
# 10-qubit basis index.
_QUBIT = [None] + [(_Y >> (10 - j)) & 1 for j in range(1, 11)]


def _dilemma(rng: np.random.Generator) -> dict:
    """Seeded payoffs with T > R > P > S and 2R > T + S."""
    s = float(rng.uniform(-1.0, 0.5))
    p = s + float(rng.uniform(0.5, 1.5))
    r = p + float(rng.uniform(1.0, 2.0))
    t = r + float(rng.uniform(0.2, 0.9)) * (r - s)
    return {"T": t, "R": r, "P": p, "S": s}


def _stage(payoffs: dict) -> q.StageGame:
    return q.make_pd(payoffs["T"], payoffs["R"], payoffs["P"], payoffs["S"])


def _tables(payoffs: dict) -> tuple[np.ndarray, np.ndarray]:
    """Each player's stage payoffs indexed [a1, a2]; action 1 defects."""
    t, r, p, s = (payoffs[k] for k in "TRPS")
    return np.array([[r, s], [t, p]]), np.array([[r, t], [s, p]])


def _mw10_total_weights(payoffs: dict) -> tuple[np.ndarray, np.ndarray]:
    """Both players' two-stage payoff at every 10-qubit basis index.

    Qubits 1-2 give the stage-1 outcome o = 2*q1 + q2, and the pair
    (2o+3, 2o+4) gives the stage-2 actions.
    """
    outcome = 2 * _QUBIT[1] + _QUBIT[2]
    second_a = np.choose(outcome, [_QUBIT[3], _QUBIT[5], _QUBIT[7], _QUBIT[9]])
    second_b = np.choose(outcome, [_QUBIT[4], _QUBIT[6], _QUBIT[8], _QUBIT[10]])
    return tuple(
        table[_QUBIT[1], _QUBIT[2]] + table[second_a, second_b]
        for table in _tables(payoffs)
    )


def _strategy_masks(player: int) -> np.ndarray:
    """XOR mask of each five-bit strategy on the player's five qubits.

    Player 1 owns qubits 1, 3, 5, 7, 9 and player 2 qubits 2, 4, 6, 8,
    10, in the order stage1, after_00, after_01, after_10, after_11.
    """
    qubits = (1, 3, 5, 7, 9) if player == 1 else (2, 4, 6, 8, 10)
    masks = np.zeros(32, dtype=np.int64)
    for index in range(32):
        for position, qubit in enumerate(qubits):
            if (index >> (4 - position)) & 1:
                masks[index] |= 1 << (10 - qubit)
    return masks


_MASK1 = _strategy_masks(1)
_MASK2 = _strategy_masks(2)


def _mw10_cells(weights, probs: np.ndarray, rows, cols) -> np.ndarray:
    """Direct sum over basis states, sum_y W[y ^ mask] p[y], per cell."""
    masks = (_MASK1[np.asarray(rows)] | _MASK2[np.asarray(cols)])[:, None]
    indices = _Y[None, :] ^ masks
    return np.stack([w[indices] @ probs for w in weights], axis=-1)


def _mw10_table(weights, probs: np.ndarray) -> np.ndarray:
    """The full 32x32x2 table of totals, one row of profiles at a time."""
    cols = np.arange(32)
    return np.stack(
        [_mw10_cells(weights, probs, np.full(32, row), cols) for row in range(32)]
    )


def _stage1_pattern(probs: np.ndarray, table1: np.ndarray) -> tuple[float, ...]:
    """Player 1's stage-1 expectations (r, s, t, p) at flips 00, 01, 10, 11."""
    marginal = probs.reshape(4, -1).sum(axis=1).reshape(2, 2)
    return tuple(
        float((table1 * marginal[np.ix_([k1, 1 - k1], [k2, 1 - k2])]).sum())
        for k1 in (0, 1)
        for k2 in (0, 1)
    )


def _write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document))


def _load_json(path: Path):
    return json.loads(path.read_text())


def _random_amplitudes(rng: np.random.Generator, size: int) -> np.ndarray:
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return amps / np.linalg.norm(amps)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the ``qrgames`` command in-process and capture its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qrgames.cli.main(argv)
    return code, out.getvalue()


def _parse_csv(text: str) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    labels = [format(i, "05b") for i in range(32)]
    if rows[0] != [""] + labels or [row[0] for row in rows[1:]] != labels:
        raise ValueError("CSV labels are not the 32 strategy bit strings")
    return np.array(
        [[[float(v) for v in cell.split(";")] for cell in row[1:]] for row in rows[1:]]
    )


def _agrees(margin: np.ndarray, got: np.ndarray) -> bool:
    """``got`` is ``margin > 0`` wherever CSV rounding cannot swing it."""
    return not np.any((margin > CSV_EPS) & ~got) and not np.any((margin < -CSV_EPS) & got)


class Workload:
    """A seeded input pool, one op, and the oracle that checks each output.

    Subclasses define ``prepare`` (write the pool for a seed), ``load``
    (one pool item, ready for ``op``), ``op``, ``check`` and
    ``corruptions`` (wrong copies of a good output, each of which
    ``check`` must reject).
    """

    name: str
    pool_size = 4

    def self_check_item(self, work: Path) -> dict:
        """The pool item whose output the oracle self-check corrupts."""
        return self.load(work, 0)

    @staticmethod
    def profiles_checked(output) -> int:
        """Profiles a compare-protocols output reports as checked."""
        return 0


class AnalyzeMW10(Workload):
    """Table, Nash and dominance commands on dense random 10-qubit states."""

    name = "analyze-mw10"

    def prepare(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        for index in range(self.pool_size):
            amps = _random_amplitudes(rng, 1024)
            document = {
                "protocol": "mw10",
                "payoffs": _dilemma(rng),
                "initial_state": [
                    {"basis": format(k, "010b"), "re": a.real, "im": a.imag}
                    for k, a in enumerate(amps.tolist())
                ],
            }
            _write_json(work / f"analyze-{index}.json", document)

    def load(self, work: Path, index: int) -> dict:
        return {"config": str(work / f"analyze-{index}.json")}

    def self_check_item(self, work: Path) -> dict:
        """The all-zero start written out term by term.

        Its table is the classical repeated dilemma, which has pure
        equilibria, so dropping one of them is a possible corruption.
        """
        document = _load_json(work / "analyze-0.json")
        for term in document["initial_state"]:
            term["re"] = 1.0 if term["basis"] == "0" * 10 else 0.0
            term["im"] = 0.0
        path = work / "analyze-self-check.json"
        _write_json(path, document)
        return {"config": str(path)}

    @staticmethod
    def _oracle_data(item: dict) -> dict:
        """The config's state, game and payoff weights, read once per item."""
        if "game" not in item:
            document = _load_json(Path(item["config"]))
            amps = np.zeros(1024, dtype=complex)
            for term in document["initial_state"]:
                amps[int(term["basis"], 2)] = complex(term["re"], term["im"])
            state = q.PureState(10, amps / np.linalg.norm(amps))
            item["game"] = q.RepGame(state, _stage(document["payoffs"]))
            item["probs"] = state.probabilities
            item["weights"] = _mw10_total_weights(document["payoffs"])
        return item

    def op(self, item: dict):
        config = item["config"]
        return (
            run_cli(["bimatrix", "--config", config, "--format", "csv"]),
            run_cli(["nash", "--config", config]),
            run_cli(["dominance", "--config", config]),
        )

    def check(self, item: dict, output, rng: np.random.Generator) -> bool:
        (code_b, text_b), (code_n, text_n), (code_d, text_d) = output
        if (code_b, code_n, code_d) != (0, 0, 0):
            return False
        cells = _parse_csv(text_b)
        item = self._oracle_data(item)
        want = _mw10_table(item["weights"], item["probs"])
        if not np.abs(cells - want).max() <= TOL:
            return False
        for r, c in rng.integers(0, 32, size=(SAMPLED_CELLS, 2)).tolist():
            played = q.play_batch(
                item["game"], q.RepStrategy.from_index(r), q.RepStrategy.from_index(c)
            ).totals
            if not np.abs(np.array(played) - cells[r, c]).max() <= TOL:
                return False
        return self._check_nash(cells, json.loads(text_n)) and self._check_dominance(
            cells, json.loads(text_d)
        )

    @staticmethod
    def _check_nash(cells: np.ndarray, report: dict) -> bool:
        u1, u2 = cells[..., 0], cells[..., 1]
        if report["kind"] != "nash":
            return False
        got = np.zeros((32, 32), dtype=bool)
        for eq in report["equilibria"]:
            r, c = eq["row"], eq["col"]
            labels = (format(r, "05b"), format(c, "05b"))
            if got[r, c] or (eq["row_label"], eq["col_label"]) != labels:
                return False
            got[r, c] = True
            if not np.abs(np.array(eq["payoffs"]) - cells[r, c]).max() <= TOL:
                return False
            # Strict: every unilateral deviation loses.
            lead = min(
                u1[r, c] - np.delete(u1[:, c], r).max(),
                u2[r, c] - np.delete(u2[r, :], c).max(),
            )
            if not _agrees(np.array(lead), np.array(eq["strict"])):
                return False
        # An equilibrium: neither player gains more than TOL by deviating.
        slack = np.minimum(
            TOL - (u1.max(axis=0, keepdims=True) - u1),
            TOL - (u2.max(axis=1, keepdims=True) - u2),
        )
        return _agrees(slack, got)

    @staticmethod
    def _check_dominance(cells: np.ndarray, document: dict) -> bool:
        if document.get("protocol") != "mw10":
            return False
        for player, own_by_row in ((1, cells[..., 0]), (2, cells[..., 1].T)):
            got = np.zeros((32, 32), dtype=bool)
            for entry in document[f"player{player}"]:
                got[entry["dominated"], entry["dominating"]] = True
            # lead[a, b]: how far strategy b beats a against the worst opponent.
            lead = (own_by_row[None, :, :] - own_by_row[:, None, :]).min(axis=2)
            np.fill_diagonal(lead, -1.0)
            if not _agrees(lead, got):
                return False
        return True

    def corruptions(self, output):
        """Deliberately wrong outputs that the oracle must reject."""
        (code_b, text_b), nash, dominance = output
        lines = text_b.splitlines(keepends=True)
        cells = lines[7].split(",")
        u1, u2 = cells[12].split(";")
        cells[12] = f"{float(u1) + 1e-6!r};{u2}"
        lines[7] = ",".join(cells)
        yield "CSV cell nudged by 1e-6", ((code_b, "".join(lines)), nash, dominance)
        report = json.loads(nash[1])
        report["equilibria"].pop()
        yield "dropped equilibrium", ((code_b, text_b), (nash[0], json.dumps(report)), dominance)


class VerifyMW10(Workload):
    """Batch against sequential play on one random state per op."""

    name = "verify-mw10"

    def prepare(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        for index in range(self.pool_size):
            document = {
                "protocol": "mw10",
                "payoffs": _dilemma(rng),
                "initial_state": "all_zero",
            }
            _write_json(work / f"verify-{index}.json", document)
        seeds = rng.integers(0, 2**31, size=self.pool_size).tolist()
        _write_json(work / "verify-seeds.json", seeds)

    def load(self, work: Path, index: int) -> dict:
        return {
            "config": str(work / f"verify-{index}.json"),
            "seed": _load_json(work / "verify-seeds.json")[index],
        }

    def op(self, item: dict):
        return run_cli(
            [
                "compare-protocols",
                "--config", item["config"],
                "--protocol", "mw10",
                "--samples", "1",
                "--seed", str(item["seed"]),
            ]
        )

    def check(self, item: dict, output, rng: np.random.Generator) -> bool:
        code, text = output
        report = json.loads(text)
        return (
            code == 0
            and report["pass"] is True
            and report["protocol"] == "mw10"
            and report["samples"] == 1
            and report["seed"] == item["seed"]
            and report["profiles_checked"] == 1024
            and report["max_deviation"] <= TOL
        )

    @staticmethod
    def profiles_checked(output) -> int:
        return json.loads(output[1])["profiles_checked"]

    def corruptions(self, output):
        report = json.loads(output[1])
        report["pass"] = False
        yield '"pass": false document', (output[0], json.dumps(report))


class SmallGames(Workload):
    """Library calls on 2-, 4- and 10-qubit inputs, as in ``demos/``."""

    name = "small-games"
    grid_step = 0.05

    def prepare(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        for index in range(self.pool_size):
            payoffs = _dilemma(rng)
            document = {
                "payoffs": payoffs,
                "it_state": self._dilemma_state(rng, _tables(payoffs)),
                "mixed": rng.uniform(size=4).tolist(),
                "pair_weights": rng.uniform(0.05, 0.95, size=5).tolist(),
                "two_term_weight": float(rng.uniform(0.05, 0.95)),
            }
            _write_json(work / f"small-{index}.json", document)

    @staticmethod
    def _dilemma_state(rng: np.random.Generator, tables) -> list[list[float]]:
        """4-qubit amplitudes whose stage-1 pattern is a symmetric dilemma.

        Equal mass on the 01 and 10 blocks of qubits 1-2 and a bias
        toward 00; each block gets a random two-qubit tail.
        """
        while True:
            w00, anti, w11 = rng.dirichlet((8.0, 1.0, 1.0))
            amps = np.concatenate(
                [
                    _random_amplitudes(rng, 4) * math.sqrt(weight)
                    for weight in (w00, anti / 2.0, anti / 2.0, w11)
                ]
            )
            amps /= np.linalg.norm(amps)
            r, s, t, p = _stage1_pattern(np.abs(amps) ** 2, tables[0])
            if t > r > p > s and 2 * r > t + s:
                return [[a.real, a.imag] for a in amps.tolist()]

    def load(self, work: Path, index: int) -> dict:
        document = _load_json(work / f"small-{index}.json")
        payoffs = document["payoffs"]
        stage = _stage(payoffs)
        it_amps = np.array([complex(re, im) for re, im in document["it_state"]])
        pair_state = np.array([1.0])
        for x in document["pair_weights"]:
            pair_state = np.kron(pair_state, [math.sqrt(x), 0.0, 0.0, math.sqrt(1.0 - x)])
        w = document["two_term_weight"]
        m = document["mixed"]
        return {
            "stage": stage,
            "payoffs": payoffs,
            "it_game": q.ITGame(q.PureState(4, it_amps), stage),
            "mixed": (q.ITStrategy(m[0], m[1]), q.ITStrategy(m[2], m[3])),
            "pair_game": q.RepGame(q.PureState(10, pair_state), stage),
            "two_term_game": q.RepGame(
                q.PureState.from_terms(
                    10, {"0" * 10: math.sqrt(w), "1" * 10: math.sqrt(1.0 - w)}
                ),
                stage,
            ),
        }

    @staticmethod
    def _classical(tables) -> np.ndarray:
        """Classical twice-repeated totals, 32x32x2.

        Strategy bit 4 is the stage-1 action and bit 3 - (2*a1 + a2) the
        action after stage-1 outcome (a1, a2).
        """
        i, j = np.arange(32)[:, None], np.arange(32)[None, :]
        a1, a2 = i >> 4, j >> 4
        slot = 3 - (2 * a1 + a2)
        b1, b2 = (i >> slot) & 1, (j >> slot) & 1
        return np.stack([t[a1, a2] + t[b1, b2] for t in tables], axis=-1)

    def op(self, item: dict):
        return (
            q.it_no_cooperation_check(item["it_game"]),
            q.it_expected(item["it_game"], *item["mixed"]),
            q.cooperation_scan(item["stage"], self.grid_step),
            q.spe_pair_product(item["pair_game"]),
            q.build_extensive(item["pair_game"]),
            q.build_extensive(item["two_term_game"]),
            q.classical_twice_repeated(item["stage"]),
        )

    def check(self, item: dict, output, rng: np.random.Generator) -> bool:
        verdict, mixed, scan, spe, pair_tree, two_term_tree, classical = output
        return (
            self._check_verdict(item, verdict)
            and self._check_mixed(item, mixed)
            and self._check_scan(item, scan)
            and self._check_spe(item, spe)
            and all(self._check_tree(t) for t in (pair_tree, two_term_tree))
            and self._check_classical(item, classical)
        )

    def _check_classical(self, item: dict, bm) -> bool:
        want = self._classical(_tables(item["payoffs"]))
        return (
            np.abs(bm.payoffs1 - want[..., 0]).max() <= TOL
            and np.abs(bm.payoffs2 - want[..., 1]).max() <= TOL
        )

    @staticmethod
    def _check_verdict(item: dict, verdict) -> bool:
        r, s, t, p = _stage1_pattern(
            item["it_game"].initial.probabilities, _tables(item["payoffs"])[0]
        )
        want = np.array([t - r, p - s])
        return (
            verdict.cooperation_excluded is True
            and all(row >= 2 and col >= 2 for row, col in verdict.equilibria)
            and np.abs(np.array(verdict.player1_gaps) - want).max() <= TOL
            and np.abs(np.array(verdict.player2_gaps) - want).max() <= TOL
        )

    @staticmethod
    def _check_mixed(item: dict, mixed) -> bool:
        """Convex blend of the 16 pure corners, each read off directly."""
        probs = item["it_game"].initial.probabilities
        y = np.arange(16)
        bits = [(y >> (3 - k)) & 1 for k in range(4)]
        s1, s2 = item["mixed"]
        flip_probs = (
            s1.stage1_flip_prob,
            s2.stage1_flip_prob,
            s1.stage2_flip_prob,
            s2.stage2_flip_prob,
        )
        want = np.zeros(4)
        for mask in range(16):
            weight = 1.0
            for k in range(4):
                bit = (mask >> (3 - k)) & 1
                weight *= flip_probs[k] if bit else 1.0 - flip_probs[k]
            flipped = probs[y ^ mask]
            # Order: p1 stage1, p1 stage2, p2 stage1, p2 stage2.
            for player, table in enumerate(_tables(item["payoffs"])):
                want[2 * player] += weight * (table[bits[0], bits[1]] @ flipped)
                want[2 * player + 1] += weight * (table[bits[2], bits[3]] @ flipped)
        return np.abs(mixed.as_array() - want).max() <= TOL

    def _check_scan(self, item: dict, scan) -> bool:
        t, r, p, s = (item["payoffs"][k] for k in "TRPS")
        bound = min(t - r, p - s) / ((t - r) + (p - s))
        return (
            abs(scan.closed_form_bound - bound) <= TOL
            and abs(scan.empirical_bound - bound) <= self.grid_step
        )

    @staticmethod
    def _check_spe(item: dict, report) -> bool:
        """Every subgame perfect profile is a Nash equilibrium of the table."""
        weights = _mw10_total_weights(item["payoffs"])
        probs = item["pair_game"].initial.probabilities
        everyone = np.arange(32)
        for eq in report.equilibria:
            row_dev = _mw10_cells(weights, probs, everyone, np.full(32, eq.col))
            col_dev = _mw10_cells(weights, probs, np.full(32, eq.row), everyone)
            value = row_dev[eq.row]
            if (
                np.abs(np.array(eq.payoffs) - value).max() > TOL
                or row_dev[:, 0].max() - value[0] > TOL
                or col_dev[:, 1].max() - value[1] > TOL
            ):
                return False
        return True

    @staticmethod
    def _check_tree(tree) -> bool:
        return len(tree.nodes) == 119 and all(
            abs(sum(node.probabilities) - 1.0) <= TOL
            for node in tree.nodes
            if node.kind == "chance"
        )

    def corruptions(self, output):
        verdict, *rest = output
        wrong = dataclasses.replace(verdict, cooperation_excluded=False)
        yield "cooperation not excluded", (wrong, *rest)


WORKLOADS = {w.name: w for w in (AnalyzeMW10(), VerifyMW10(), SmallGames())}
