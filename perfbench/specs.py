"""The three workloads and the metric catalogue, fixed in one place.

``BENCHMARK.json`` at the repository root lists the gated end-to-end
metrics and the per-layer metrics; ``test_perfbench.py`` checks that it
agrees with the tables below.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Environment variables that silently change which backend or planner
#: the program resolves; cleared for every workload process.
PINNED_ENV = ("REPRO_BACKEND", "REPRO_PLANNER", "REPRO_REPLAN_RATIO")

#: Server child starts per ``serve_sqlite`` run (each one is a setup).
SERVE_SETUP_REPEATS = 3
#: Closed loops: restores timed per checkpoint.  A restore allocates a
#: whole warehouse and swings with the host more than the other timings.
RESTORES_PER_CHECKPOINT = 3
#: Seconds the server child spends saving and restoring, before the
#: ladder and again after it: single saves take ~20 ms and swing with
#: the host, so each round repeats them for a while.
CHECKPOINT_BURST_S = 2.0
#: Open-loop generator lateness (ms, p99) above which a run is flagged
#: as having measured the client rather than the server: half the read
#: period, the resolution of the visibility metrics.
LATE_FLAG_MS = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: str
    views: tuple[str, ...]
    #: ``mixed`` stream batch: each transaction carries 2 x batch delta
    #: rows (batch/2 fresh inserts, batch/2 deletes, batch/2 churn pairs).
    batch: int
    #: Closed loop: ``save_warehouse`` (counted in the loop's time), then
    #: ``load_warehouse`` of that checkpoint and one more warehouse build
    #: (not counted) every this many transactions and once at the end.
    checkpoint_every: int = 0
    #: Transactions in each half of a traced run (closed loops).
    trace_txns: int = 0
    #: Open loop only: offered write rates (transactions/s), one step each.
    ladder: tuple[int, ...] = ()
    #: Open loop only: reads per second (alternating across the views).
    read_rate: int = 0
    #: Open loop only: a ladder step meets the SLO when the p99 time to
    #: visibility of its writes stays under this limit (ms) ...
    slo_visible_p99_ms: float = 0.0
    #: ... and accepted - applied grows by at most this many transactions
    #: over the step (the apply queue's default micro-batch size).
    backlog_tolerance: int = 16
    backend: str | None = None  # None: the program's default backend


WORKLOADS = {
    "bulk_ingest": Workload(
        name="bulk_ingest",
        why=(
            "per-row work dominates (join-reduce probes, aggregate fold, "
            "aux-apply), framing is spread over 128 rows, recompute and "
            "serving do nothing, and persistence runs every 1000 transactions"
        ),
        scale="large",
        views=("monthly_category_sales",),
        batch=128,
        checkpoint_every=1000,
        trace_txns=1500,
    ),
    "paper_trickle": Workload(
        name="paper_trickle",
        why=(
            "fixed per-transaction costs dominate: recompute of DISTINCT/MAX "
            "groups after deletions, three maintainers sharing each "
            "transaction, and checkpoints exercising persistence"
        ),
        scale="medium",
        views=("product_sales", "product_sales_max", "monthly_category_sales"),
        batch=8,
        checkpoint_every=100,
        trace_txns=250,
    ),
    "serve_sqlite": Workload(
        name="serve_sqlite",
        why=(
            "reads and the single apply writer compete for one server "
            "process; SQLite aux-apply and micro-batch coalescing set the "
            "rate sustainable at visible p99 < 150 ms; default backend bypassed"
        ),
        scale="medium",
        views=("monthly_category_sales", "product_sales_max"),
        batch=8,
        ladder=(10, 20, 30, 40, 60, 90, 120),
        read_rate=50,
        slo_visible_p99_ms=150.0,
        backend="sqlite",
    ),
}

#: Gated end-to-end metrics: every workload reports each of them.
END_TO_END = {
    "setup_s": "s",
    "ingest_rows_per_s": "rows/s",
    "txn_p50_ms": "ms",
    "txn_p99_ms": "ms",
    "checkpoint_s": "s",
    "recover_s": "s",
    "detail_bytes": "bytes",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics only ``serve_sqlite`` can measure, plus the error
#: rate (0 on a healthy run).  They are printed by name and unit on the
#: report line before the result line, not gated.
REPORTED_ONLY = {
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "visible_p50_ms": "ms",
    "visible_p99_ms": "ms",
    "write_rate_at_slo": "rows/s",
    "error_rate": "fraction",
}

#: Per-layer metrics of a traced run (zero where a layer does no work).
PER_LAYER = {
    "core.derive_s": "s",
    "backends.load_s": "s",
    "warehouse.apply_s": "s",
    "warehouse.self_s": "s",
    "warehouse.shared_selection_s": "s",
    "warehouse.commit_s": "s",
    "core.apply_s": "s",
    "core.self_s": "s",
    "core.coalesce_s": "s",
    "core.validate_s": "s",
    "core.local_reduce_s": "s",
    "core.join_reduce_s": "s",
    "core.aggregate_fold_s": "s",
    "core.aux_apply_s": "s",
    "core.recompute_s": "s",
    "core.groups_recomputed": "count",
    "core.rows_coalesced_away": "count",
    "core.replans": "count",
    "core.rollbacks": "count",
    "engine.coalesce_s": "s",
    "engine.coalesce_rows_in": "count",
    "engine.coalesce_rows_out": "count",
    "engine.coalesce_kept_ratio": "ratio",
    "engine.validate_s": "s",
    "engine.validate_rows": "count",
    "engine.undo_records": "count",
    "plan.compile_s": "s",
    "plan.compiles": "count",
    "plan.run_s": "s",
    "plan.runs": "count",
    "backends.aux_apply_s": "s",
    "backends.aux_apply_rows": "count",
    "backends.commit_s": "s",
    "backends.physical_bytes": "bytes",
    "warehouse.checkpoint_bytes": "bytes",
    "serving.query_s": "s",
    "serving.snapshot_s": "s",
    "serving.http_s": "s",
    "serving.submit_s": "s",
    "serving.publish_s": "s",
    "serving.batches": "count",
    "serving.txns_per_batch": "ratio",
    "serving.rows_coalesced_away": "count",
    "serving.lag_max": "count",
    "serving.rejected": "count",
    "obs.coverage": "fraction",
    "obs.trace_overhead": "fraction",
    "loadgen.late_p99_ms": "ms",
}
