"""Per-layer spans recorded from outside the package.

A :class:`Tracer` wraps the public functions listed in
:data:`metrics.LAYER_FUNCTIONS` and rebinds every module-global name in
``qrgames.*`` that refers to one of them (``qrgames.cli.play_sequential``,
``qrgames.repeated10.apply_flips``, the package's re-exports, ...), so
calls between layers go through the wrappers too.  Each call becomes a span (name, start,
end, parent span, op id) kept in flat integer arrays in memory; the
benchmark's own op is the root span of each op.  A span's self time is
its duration minus the durations of its direct children, which cover
the part of its interval spent in other wrapped layers.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

from metrics import LAYER_FUNCTIONS

OP = "op"
MEASURE_PAIR = "qstate.measure_pair"


def _target(name: str):
    """(owner object, attribute) of a wrapped name like ``stagegames.Bimatrix.to_csv``."""
    module, *path = name.split(".")
    owner = sys.modules[f"qrgames.{module}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self.names = (OP,) + LAYER_FUNCTIONS
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self._stack: list[int] = []
        self._current_op = -1
        # Outcomes returned by measure_pair, out of 4 computed per call.
        self.kept_outcomes = 0
        self._originals = {name: getattr(*_target(name)) for name in LAYER_FUNCTIONS}
        self._wrappers = {
            name: self._wrap(self.names.index(name), fn)
            for name, fn in self._originals.items()
        }
        self._rebinds = self._find_rebinds()

    def _find_rebinds(self) -> list[tuple[object, str, object, object]]:
        """Every (owner, attribute, original, wrapper) binding to replace."""
        by_id = {id(fn): name for name, fn in self._originals.items()}
        found = []
        for name in LAYER_FUNCTIONS:
            owner, attr = _target(name)
            if isinstance(owner, type):
                found.append((owner, attr, self._originals[name], self._wrappers[name]))
        for module_name, module in list(sys.modules.items()):
            if module_name != "qrgames" and not module_name.startswith("qrgames."):
                continue
            for attr, value in vars(module).items():
                name = by_id.get(id(value))
                if name is not None:
                    found.append((module, attr, value, self._wrappers[name]))
        return found

    def _wrap(self, name_id: int, fn):
        record = self._record
        stack = self._stack
        is_measure = self.names[name_id] == MEASURE_PAIR

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = record(name_id, parent)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter_ns()
                self.start[index] = start
                stack.pop()
            if is_measure:
                self.kept_outcomes += len(result)
            return result

        return wrapper

    def _record(self, name_id: int, parent: int) -> int:
        self.name_id.append(name_id)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(parent)
        self.op_id.append(self._current_op)
        return len(self.name_id) - 1

    def install(self) -> None:
        for owner, attr, _, wrapper in self._rebinds:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._rebinds:
            setattr(owner, attr, original)

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one op; call right before the op starts."""
        self._current_op = op_id
        self._stack.append(self._record(0, -1))
        self.start[self._stack[-1]] = perf_counter_ns()

    def end_op(self) -> None:
        self.end[self._stack.pop()] = perf_counter_ns()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            key: np.frombuffer(getattr(self, key), dtype=np.int64)
            for key in ("name_id", "start", "end", "parent", "op_id")
        }

    def summary(self) -> dict:
        """Per-name calls and self time summed over all recorded ops."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child_time = np.bincount(
            spans["parent"][has_parent],
            weights=duration[has_parent],
            minlength=duration.shape[0],
        )
        self_ns = duration - child_time
        count = len(self.names)
        calls = np.bincount(spans["name_id"], minlength=count)
        self_total = np.bincount(spans["name_id"], weights=self_ns, minlength=count)
        return {
            "ops": int(calls[0]),
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "self_ns": {name: float(self_total[i]) for i, name in enumerate(self.names)},
            "kept_outcomes": self.kept_outcomes,
        }

    def save(self, path) -> None:
        """Write the spans out: one row per span, names as a side array."""
        np.savez(path, names=np.array(self.names), **self.arrays())
