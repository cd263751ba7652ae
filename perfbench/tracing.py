"""Spans around the public functions of each shoda module, recorded from outside.

The tracer rebinds the names that importing modules hold (for example
``shoda.completion.radical`` and ``shoda.structure.radical``), records one span
per call in memory, and restores the original bindings afterwards.  Nothing in
``src/`` is edited.  Work done inside private helpers is not wrapped, so it
counts toward the self time of the nearest public caller.

Functions called thousands of times per op (``multiply_B``, ``b_norm``) are
aggregated per parent span: one call count and one total time per
(parent, name) pair instead of one record per call.

With ``memory=True`` each non-aggregated span also records the peak
tracemalloc allocation above its entry level.  tracemalloc slows the pipeline
several-fold, so memory spans come from their own pass and their times are
not used.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Optional

import shoda.algebra
import shoda.cli
import shoda.commutators
import shoda.completion
import shoda.norms
import shoda.serialize
import shoda.structure
import shoda.tensor


def _table_bytes(tracer: "Tracer", result) -> None:
    tracer.table_bytes = max(tracer.table_bytes, int(result.table.nbytes))


def _dumps_bytes(tracer: "Tracer", result) -> None:
    tracer.bytes_out += len(result.encode("utf-8"))


# (module, attribute, span name, aggregate per parent, result observer)
SITES = [
    (shoda.completion, "complete", "completion.complete", False, None),
    (shoda.cli, "complete", "completion.complete", False, None),
    (shoda.completion, "build_B", "completion.build_B", False, _table_bytes),
    (shoda.completion, "multiply_B", "tensor.multiply_B", True, None),
    (shoda.tensor, "multiply_B", "tensor.multiply_B", True, None),
    (shoda.commutators, "multiply_B", "tensor.multiply_B", True, None),
    (shoda.norms, "multiply_B", "tensor.multiply_B", True, None),
    (shoda.completion, "radical", "structure.radical", False, None),
    (shoda.structure, "radical", "structure.radical", False, None),
    (shoda.completion, "quotient", "structure.quotient", False, None),
    (shoda.completion, "wedderburn_identify", "structure.wedderburn_identify", False, None),
    (shoda.commutators, "decompose_in_completion", "commutators.decompose_in_completion", False, None),
    (shoda.cli, "decompose_in_completion", "commutators.decompose_in_completion", False, None),
    (shoda.commutators, "commutator_decompose", "commutators.commutator_decompose", False, None),
    (shoda.cli, "commutator_decompose", "commutators.commutator_decompose", False, None),
    (shoda.cli, "is_shoda_complete", "commutators.is_shoda_complete", False, None),
    (shoda.commutators, "b_norm", "norms.b_norm", True, None),
    (shoda.norms, "b_norm", "norms.b_norm", True, None),
    (shoda.cli, "submultiplicativity_audit", "norms.submultiplicativity_audit", False, None),
    (shoda.cli, "isometry_check", "norms.isometry_check", False, None),
    (shoda.cli, "riesz_projection", "algebra.riesz_projection", False, None),
    (shoda.cli, "projection_path", "algebra.projection_path", False, None),
    (shoda.cli, "spectrum", "algebra.spectrum", False, None),
    (shoda.cli, "rank", "algebra.rank", False, None),
    (shoda.algebra, "rank", "algebra.rank", False, None),
    (shoda.serialize, "load_json_file", "serialize.load", False, None),
    (shoda.serialize, "dumps", "serialize.dumps", False, _dumps_bytes),
    (shoda.cli, "main", "cli.main", False, None),
]

_NAME, _START, _END, _PARENT, _OP, _CHILD, _PEAK = range(7)


class Tracer:
    """In-memory span recorder; install() rebinds the SITES, restore() undoes it."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []  # [name, start, end, parent, op, child_s, peak_bytes]
        self.agg: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, total_s]
        self.op: Optional[int] = None
        self.table_bytes = 0
        self.bytes_out = 0
        self._stack: list[int] = []
        self._running_peak: dict[int, int] = {}
        self._base: dict[int, int] = {}
        self._originals: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent >= 0:
                self._running_peak[parent] = max(self._running_peak[parent], peak)
            tracemalloc.reset_peak()
            self._base[idx] = current
            self._running_peak[idx] = current
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[_END] = end
        parent = span[_PARENT]
        if parent >= 0:
            self.spans[parent][_CHILD] += end - span[_START]
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            top = max(self._running_peak.pop(idx), peak)
            span[_PEAK] = top - self._base.pop(idx)
            if parent >= 0:
                self._running_peak[parent] = max(self._running_peak[parent], top)
            tracemalloc.reset_peak()

    def _wrap(self, fn: Callable, name: str, aggregate: bool, observe) -> Callable:
        if aggregate:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    parent = self._stack[-1] if self._stack else -1
                    entry = self.agg.setdefault((parent, name), [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    if parent >= 0:
                        self.spans[parent][_CHILD] += elapsed

            return leaf

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self, result)
            return result

        return spanned

    def install(self) -> None:
        for module, attr, name, aggregate, observe in SITES:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, aggregate, observe))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- summaries -------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so recursion is not double counted), self seconds, and
        the largest peak allocation in bytes."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "peak_bytes": 0}
        )
        for span in self.spans:
            row = out[span[_NAME]]
            duration = span[_END] - span[_START]
            row["calls"] += 1
            row["self_s"] += duration - span[_CHILD]
            row["peak_bytes"] = max(row["peak_bytes"], span[_PEAK])
            if not self._nested_in_same_name(span):
                row["s"] += duration
        for (_, name), (calls, total) in self.agg.items():
            row = out[name]
            row["calls"] += calls
            row["s"] += total
            row["self_s"] += total
        return dict(out)

    def _nested_in_same_name(self, span: list) -> bool:
        parent = span[_PARENT]
        while parent >= 0:
            if self.spans[parent][_NAME] == span[_NAME]:
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def write(self, path) -> None:
        """Spans as JSON lines: individual spans, then per-parent aggregates."""
        with open(path, "w", encoding="utf-8") as handle:
            for idx, span in enumerate(self.spans):
                record = {
                    "id": idx,
                    "name": span[_NAME],
                    "start": span[_START],
                    "end": span[_END],
                    "parent": span[_PARENT],
                    "op": span[_OP],
                }
                if self.memory:
                    record["peak_bytes"] = span[_PEAK]
                handle.write(json.dumps(record) + "\n")
            for (parent, name), (calls, total) in self.agg.items():
                record = {"name": name, "parent": parent, "calls": calls, "total_s": total}
                handle.write(json.dumps(record) + "\n")
