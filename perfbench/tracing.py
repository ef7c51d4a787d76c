"""Layer spans for traced runs, recorded from the benchmark's own files.

:func:`install` wraps the public functions each layer exposes (nothing
inside ``src/`` changes).  Every call becomes one span: layer name,
start, end, the id of the span that caused it (the enclosing wrapped
call on the same thread), and a row count where the layer has one.
Spans stay in memory and are written out when the run ends; layer
totals and self times are computed from them afterwards.  A layer's
total counts only its outermost spans, so a subclass override calling
``super()`` is not counted twice; its self time is its spans' durations
minus the part their child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

from repro.backends import columnar as _columnar  # noqa: F401 (registers subclasses)
from repro.backends import sharded as _sharded  # noqa: F401
from repro.backends import sqlite as _sqlite  # noqa: F401
from repro.backends.base import Backend
from repro.core import derivation, maintenance
from repro.core.joingraph import ExtendedJoinGraph
from repro.core.maintenance import AuxMaterialization, SelfMaintainer
from repro.engine import deltas
from repro.engine.schema import Schema
from repro.engine.undolog import UndoLog
from repro.plan.maintenance import MaintenancePlanner
from repro.serving import applyqueue
from repro.serving.server import WarehouseService
from repro.serving.snapshots import VersionedViewStore, ViewSnapshot
from repro.warehouse import persistence
from repro.warehouse.warehouse import Warehouse


class SpanRecorder:
    """Spans ``(id, parent id, layer, start, end, rows in, rows out)``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, rows=None):
        """``fn`` recording one span per call; ``rows(args, result)``
        returns ``(rows_in, rows_out)``."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            started = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = perf_counter()
                stack.pop()
                rows_in, rows_out = rows(args, result) if rows else (0, 0)
                spans.append(
                    (span_id, parent, layer, started, ended, rows_in, rows_out)
                )

        traced.__wrapped__ = fn
        return traced

    def counting(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch(self, owner, attr: str, layer: str, rows=None) -> None:
        self._patch(owner, attr, self.wrap(layer, getattr(owner, attr), rows))

    def patch_hierarchy(self, base: type, attr: str, layer: str, rows=None) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass defining it."""
        for cls in _with_subclasses(base):
            if attr in cls.__dict__:
                self.patch(cls, attr, layer, rows)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def layers(self) -> tuple[dict, dict, dict, dict]:
        """``(total seconds, self seconds, outermost span count,
        (rows in, rows out))`` per layer."""
        parents = {}
        layer_of = {}
        covered = defaultdict(float)
        for span_id, parent, layer, start, end, __, __ in self.spans:
            parents[span_id] = parent
            layer_of[span_id] = layer
            covered[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        rows = defaultdict(lambda: [0, 0])
        for span_id, parent, layer, start, end, rows_in, rows_out in self.spans:
            duration = end - start
            own[layer] += duration - covered.get(span_id, 0.0)
            ancestor = parent
            nested = False
            while ancestor:
                if layer_of.get(ancestor) == layer:
                    nested = True
                    break
                ancestor = parents.get(ancestor, 0)
            if not nested:
                total[layer] += duration
                calls[layer] += 1
                rows[layer][0] += rows_in
                rows[layer][1] += rows_out
        return total, own, calls, rows

    def child_seconds(self, layer: str, parent_layer: str) -> float:
        """Seconds of ``layer`` spans called directly under ``parent_layer``."""
        layer_of = {span[0]: span[2] for span in self.spans}
        return sum(
            end - start
            for __, parent, name, start, end, __, __ in self.spans
            if name == layer and layer_of.get(parent) == parent_layer
        )

    def write(self, path) -> None:
        """One JSON line per span, in completion order."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _with_subclasses(base: type) -> list[type]:
    seen = [base]
    for cls in seen:
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
    return seen


def _delta_rows(transaction) -> int:
    return sum(len(d.inserted) + len(d.deleted) for d in transaction)


def _coalesced_rows(args, result):
    return _delta_rows(args[0]), _delta_rows(result) if result is not None else 0


def _coalesce_rows(args, result):
    rows_in = sum(_delta_rows(t) for t in args[0])
    return rows_in, _delta_rows(result) if result is not None else 0


def _validate_rows(args, result):
    n = len(result) if result is not None else 0
    return n, n


def _aux_apply_rows(args, result):
    n = len(args[1])
    return n, n


def install() -> SpanRecorder:
    """Wrap every layer boundary the per-layer metrics read; call
    :meth:`SpanRecorder.uninstall` to restore the originals.

    ``deltas.coalesce`` is replaced where the apply queue looks it up
    (it imports the name), so the queue's micro-batch coalescing is
    recorded; callers must install before building what they measure.
    """
    recorder = SpanRecorder()
    recorder.patch(maintenance, "derive_auxiliary_views", "core.derive")
    recorder.patch(derivation, "derive_auxiliary_views", "core.derive")
    recorder.patch(ExtendedJoinGraph, "__init__", "core.derive")
    recorder.patch_hierarchy(AuxMaterialization, "load", "backends.load")
    recorder.patch(Warehouse, "apply", "warehouse.apply")
    recorder.patch(
        Warehouse, "shared_subplan_selection", "warehouse.shared_selection"
    )
    recorder.patch_hierarchy(Backend, "commit", "backends.commit")
    recorder.patch(SelfMaintainer, "apply", "core.apply")
    recorder.patch(
        deltas.Transaction, "coalesced", "engine.coalesce", _coalesced_rows
    )
    recorder.patch(deltas, "coalesce", "engine.coalesce", _coalesce_rows)
    recorder.patch(applyqueue, "coalesce", "engine.coalesce", _coalesce_rows)
    recorder.patch(Schema, "validate_rows", "engine.validate", _validate_rows)
    recorder._patch(
        UndoLog, "record", recorder.counting("engine.undo_records", UndoLog.record)
    )
    recorder.patch(MaintenancePlanner, "build", "plan.compile")
    recorder.patch_hierarchy(Backend, "run_plan", "plan.run")
    recorder.patch_hierarchy(
        AuxMaterialization, "apply", "backends.aux_apply", _aux_apply_rows
    )
    recorder.patch(persistence, "save_warehouse", "warehouse.checkpoint")
    recorder.patch(persistence, "load_warehouse", "warehouse.restore")
    recorder.patch(WarehouseService, "query", "serving.query")
    recorder.patch(VersionedViewStore, "snapshot", "serving.snapshot")
    recorder.patch(ViewSnapshot, "relation", "serving.snapshot")
    recorder.patch(WarehouseService, "apply", "serving.submit")
    recorder.patch(VersionedViewStore, "publish", "serving.publish")
    return recorder


def self_times(recorder: SpanRecorder) -> dict:
    """``{layer: {"total_s", "self_s", "calls"}}`` for the report."""
    total, own, calls, __ = recorder.layers()
    return {
        layer: {"total_s": total[layer], "self_s": own[layer], "calls": calls[layer]}
        for layer in sorted(total)
    }


#: ``maintainer.perf`` phase seconds -> per-layer metric.
PHASE_METRICS = {
    "coalesce": "core.coalesce_s",
    "validate": "core.validate_s",
    "local-reduce": "core.local_reduce_s",
    "join-reduce": "core.join_reduce_s",
    "aggregate-fold": "core.aggregate_fold_s",
    "aux-apply": "core.aux_apply_s",
    "recompute": "core.recompute_s",
}
#: ``maintainer.perf`` counters -> per-layer metric.
COUNTER_METRICS = {
    "groups_recomputed": "core.groups_recomputed",
    "rows_coalesced_away": "core.rows_coalesced_away",
    "replans": "core.replans",
    "rollbacks": "core.rollbacks",
}


def layer_metrics(recorder: SpanRecorder, warehouses) -> dict:
    """The per-layer metrics that spans and the program's own counters
    give (everything but the serving scrape, coverage and overhead)."""
    total, own, calls, rows = recorder.layers()
    metrics = {
        "core.derive_s": total["core.derive"],
        "backends.load_s": total["backends.load"],
        "warehouse.apply_s": total["warehouse.apply"],
        "warehouse.self_s": own["warehouse.apply"],
        "warehouse.shared_selection_s": total["warehouse.shared_selection"],
        "warehouse.commit_s": recorder.child_seconds(
            "backends.commit", "warehouse.apply"
        ),
        "core.apply_s": total["core.apply"],
        "engine.coalesce_s": total["engine.coalesce"],
        "engine.coalesce_rows_in": rows["engine.coalesce"][0],
        "engine.coalesce_rows_out": rows["engine.coalesce"][1],
        "engine.validate_s": total["engine.validate"],
        "engine.validate_rows": rows["engine.validate"][0],
        "engine.undo_records": recorder.counts["engine.undo_records"],
        "plan.compile_s": total["plan.compile"],
        "plan.compiles": calls["plan.compile"],
        "plan.run_s": total["plan.run"],
        "plan.runs": calls["plan.run"],
        "backends.aux_apply_s": total["backends.aux_apply"],
        "backends.aux_apply_rows": rows["backends.aux_apply"][0],
        "backends.commit_s": total["backends.commit"],
        "serving.query_s": total["serving.query"],
        "serving.snapshot_s": total["serving.snapshot"],
        "serving.submit_s": total["serving.submit"],
        "serving.publish_s": total["serving.publish"],
    }
    rows_in = metrics["engine.coalesce_rows_in"]
    metrics["engine.coalesce_kept_ratio"] = (
        metrics["engine.coalesce_rows_out"] / rows_in if rows_in else 0.0
    )
    phases = 0.0
    for name in PHASE_METRICS.values():
        metrics[name] = 0.0
    for name in COUNTER_METRICS.values():
        metrics[name] = 0
    physical = 0
    for warehouse in warehouses:
        for view in warehouse.view_names:
            perf = warehouse.maintainer(view).perf
            for phase, name in PHASE_METRICS.items():
                metrics[name] += perf.seconds.get(phase, 0.0)
                phases += perf.seconds.get(phase, 0.0)
            for counter, name in COUNTER_METRICS.items():
                metrics[name] += perf.counters.get(counter, 0)
            physical += warehouse.storage_report(view).physical_detail_bytes or 0
    metrics["backends.physical_bytes"] = physical
    metrics["core.self_s"] = max(0.0, metrics["core.apply_s"] - phases)
    return metrics


def coverage(metrics: dict, end_to_end_s: float, outer_s: float) -> float:
    """Share of the client-timed end-to-end seconds that a named layer
    accounts for.  Unattributed: the client's time outside the outermost
    program spans (``end_to_end_s - outer_s``), ``Warehouse.apply``'s own
    time outside its children, and ``SelfMaintainer.apply``'s time
    outside its named phases."""
    if end_to_end_s <= 0.0:
        return 0.0
    unattributed = (
        max(0.0, end_to_end_s - outer_s)
        + metrics["warehouse.self_s"]
        + metrics["core.self_s"]
    )
    return max(0.0, 1.0 - unattributed / end_to_end_s)
