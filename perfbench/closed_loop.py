"""``bulk_ingest`` and ``paper_trickle``: one client, closed loop.

The client applies the next transaction through ``Warehouse.apply`` as
soon as the previous one returns.  Transactions are generated in chunks
between timed calls, so generation never counts as warehouse time;
``ingest_rows_per_s`` divides the delta rows applied by the seconds
spent inside ``Warehouse.apply`` and ``save_warehouse``.
"""

from __future__ import annotations

import itertools
import os
from time import perf_counter

from repro.backends.base import resolve_backend_name
from repro.warehouse import persistence
from repro.warehouse.warehouse import Warehouse

import check
import inputs
import measure
import specs

CHUNK = 64


def run(spec, seed: int, seconds: float, out_dir: str,
        max_txns: int | None = None) -> dict:
    """One closed-loop run: ``seconds`` of applies (or exactly
    ``max_txns`` transactions).  Every ``spec.checkpoint_every``
    transactions, and once at the end, the run checkpoints, restores
    that checkpoint, and builds one more warehouse from scratch: those
    are the ``checkpoint_s``, ``recover_s`` and ``setup_s`` samples,
    spread over the run so that no single moment of host noise sets
    their medians.  Checks run separately, in :func:`verify`, so a
    traced run can stop tracing first."""
    database = inputs.build_database(spec.scale)
    by_name = {v.name: v for v in inputs.build_views(spec.scale, spec.views)}
    setup_s: list[float] = []

    def build() -> Warehouse:
        views = list(by_name.values())
        warehouse, elapsed = measure.timed_once(
            lambda: Warehouse(database, views, backend=spec.backend)
        )
        setup_s.append(elapsed)
        return warehouse

    warehouse = build()
    stream = inputs.mixed_stream(database, spec.batch, seed)
    checkpoint = os.path.join(out_dir, f"{spec.name}-{os.getpid()}.json")
    txn_s: list[float] = []
    checkpoint_s: list[float] = []
    checkpoint_bytes: list[int] = []
    recover_s: list[float] = []
    applied: list[int] = []
    failed = 0
    rows = 0
    busy = 0.0
    index = 0

    def checkpoint_and_recover():
        """Save (timed as ``checkpoint_s``), sample one more set-up, and
        restore the checkpoint just written a few times (``recover_s``);
        returns the last restored warehouse."""
        __, elapsed = measure.timed_once(
            lambda: persistence.save_warehouse(warehouse, checkpoint)
        )
        checkpoint_s.append(elapsed)
        checkpoint_bytes.append(os.path.getsize(checkpoint))
        build().close()
        restored = None
        for __ in range(specs.RESTORES_PER_CHECKPOINT):
            if restored is not None:
                restored.close()
            restored, elapsed = measure.timed_once(
                lambda: persistence.load_warehouse(by_name, database, checkpoint)
            )
            recover_s.append(elapsed)
        return restored

    done = False
    while not done:
        chunk = list(itertools.islice(stream, CHUNK))
        for transaction in chunk:
            started = perf_counter()
            try:
                warehouse.apply(transaction)
            except Exception:  # counted against attempts; the run goes on
                failed += 1
            else:
                applied.append(index)
                rows += inputs.delta_rows(transaction)
            elapsed = perf_counter() - started
            txn_s.append(elapsed)
            busy += elapsed
            index += 1
            if index % spec.checkpoint_every == 0:
                checkpoint_and_recover().close()
                busy += checkpoint_s[-1]
            if (max_txns is not None and index >= max_txns) or (
                max_txns is None and busy >= seconds
            ):
                done = True
                break
    # The final state is what the checks compare the restore with.
    restored = checkpoint_and_recover()
    peak_rss = measure.peak_rss_mb()
    os.remove(checkpoint)

    result = {
        "attempted": index,
        "failed": failed,
        "rows": rows,
        "busy_s": busy,
        "txn_s": txn_s,
        "metrics": {
            "setup_s": measure.median(setup_s),
            "ingest_rows_per_s": rows / busy,
            "checkpoint_s": measure.median(checkpoint_s),
            "recover_s": measure.median(recover_s),
            "detail_bytes": sum(
                warehouse.storage_report(v).detail_bytes
                for v in warehouse.view_names
            ),
            "peak_rss_mb": peak_rss,
        },
        "checkpoint_bytes": measure.median(checkpoint_bytes),
        "txn_samples": len(txn_s),
        "checkpoints": len(checkpoint_s),
        "backend": resolve_backend_name(spec.backend),
        "planner": warehouse.planner_mode.name.lower(),
        "warehouses": [warehouse],
    }
    result["metrics"].update(_txn_metrics(txn_s))
    result["restored"] = restored
    result["applied"] = applied
    return result


def verify(spec, seed: int, result: dict) -> None:
    """Compare the maintained and the restored warehouse with the oracle;
    sets ``result["problems"]`` (empty when both agree)."""
    warehouse = result["warehouses"][0]
    restored = result.pop("restored")
    transactions = list(check.replay_stream(spec, seed, result.pop("applied")))
    expected, result["full_replication_bytes"] = check.oracle(spec, transactions)
    result["problems"] = check.compare(
        "maintained", expected, check.warehouse_digests(warehouse)
    ) + check.compare("restored", expected, check.warehouse_digests(restored))
    restored.close()
    warehouse.close()


def _txn_metrics(txn_s) -> dict:
    return {
        "txn_p50_ms": measure.percentile(txn_s, 50) * 1000.0,
        "txn_p99_ms": measure.windowed_p99(txn_s) * 1000.0,
    }
