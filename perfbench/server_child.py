"""The ``serve_sqlite`` server process: one warehouse behind
``WarehouseServer``, driven by ``serve.py`` over HTTP.

Protocol (one JSON object per stdout line):

1. builds the seeded database, then the warehouse on the ``sqlite``
   backend, starts the server on an ephemeral port and prints
   ``{"event": "listening", "port": ..., "t0": ...}`` where ``t0`` is
   ``time.monotonic()`` just before the warehouse build;
2. reads command lines from stdin: ``checkpoint`` saves and restores
   the idle warehouse repeatedly and prints ``{"event":
   "checkpointed"}``; ``quit`` stops at once; ``finish`` stops the
   server (draining the apply queue), measures storage, saves and
   restores repeatedly again, and prints ``{"event": "finished", ...}``.
   Checkpoint and restore times are the medians over both rounds, each
   a few seconds long and taken the length of the run apart, so one
   moment of host noise sets neither.

``Warehouse.apply`` is timed per call by an instance wrapper installed
here, and each published micro-batch is stamped with its watermark.  With
``--trace 1`` the layer wrappers of :mod:`tracing` are installed before
anything is built and the per-layer metrics come back in the report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [SRC, HERE]
    import specs

    for var in specs.PINNED_ENV:
        os.environ.pop(var, None)

    import check
    import inputs
    import measure
    import tracing
    from repro.backends.base import resolve_backend_name
    from repro.warehouse import persistence
    from repro.warehouse.warehouse import Warehouse
    from repro.serving.server import WarehouseServer

    spec = specs.WORKLOADS["serve_sqlite"]
    recorder = tracing.install() if args.trace else None
    database = inputs.build_database(spec.scale)
    views = inputs.build_views(spec.scale, spec.views)
    t0 = time.monotonic()
    warehouse = Warehouse(database, views, backend=spec.backend)
    apply_s: list[float] = []
    apply_cpu_s: list[float] = []
    apply_errors = 0
    inner = warehouse.apply

    def timed_apply(transaction):
        nonlocal apply_errors
        started = perf_counter()
        cpu_started = time.thread_time()
        try:
            return inner(transaction)
        except Exception:
            apply_errors += 1
            raise
        finally:
            apply_cpu_s.append(time.thread_time() - cpu_started)
            apply_s.append(perf_counter() - started)

    warehouse.apply = timed_apply
    server = WarehouseServer(warehouse)
    # Per applied micro-batch: when its watermark became visible (the
    # queue publishes every view's store per batch, in registration
    # order, so at the last one), the watermark, and how long its
    # ``Warehouse.apply`` call took (the publish follows that call).
    published: list[tuple[float, int, float]] = []
    store = server.service.stores[views[-1].name]
    inner_publish = store.publish

    def timed_publish(version, watermark, changes):
        inner_publish(version, watermark, changes)
        published.append(
            (time.monotonic(), watermark, apply_s[-1], apply_cpu_s[-1])
        )

    store.publish = timed_publish
    path = os.path.join(args.out, f"serve_sqlite-{os.getpid()}.json")
    by_name = {v.name: v for v in views}
    checkpoint_s: list[float] = []
    recover_s: list[float] = []

    def sample_checkpoints():
        """Save and restore the quiescent warehouse, over and over for
        ``CHECKPOINT_BURST_S``; returns the last restored copy."""
        restored = None
        deadline = time.monotonic() + specs.CHECKPOINT_BURST_S
        while restored is None or time.monotonic() < deadline:
            if restored is not None:
                restored.close()
            checkpoint_s.append(
                measure.timed_once(
                    lambda: persistence.save_warehouse(warehouse, path)
                )[1]
            )
            restored, elapsed = measure.timed_once(
                lambda: persistence.load_warehouse(by_name, database, path)
            )
            recover_s.append(elapsed)
        return restored

    server.start()
    try:
        _emit({"event": "listening", "port": server.port, "t0": t0})
        command = sys.stdin.readline().strip()
        if command == "checkpoint":
            sample_checkpoints().close()
            _emit({"event": "checkpointed"})
            command = sys.stdin.readline().strip()
    finally:
        server.stop()  # drains the apply queue
    if command != "finish":
        warehouse.close()
        return 0

    report = {
        "event": "finished",
        "backend": resolve_backend_name(spec.backend),
        "planner": warehouse.planner_mode.name.lower(),
        "apply_s": apply_s,
        "published": published,
        "apply_errors": apply_errors,
        "peak_rss_mb": measure.peak_rss_mb(),
        "detail_bytes": sum(
            warehouse.storage_report(v).detail_bytes for v in warehouse.view_names
        ),
        "live": check.warehouse_digests(warehouse),
    }
    restored = sample_checkpoints()
    report["checkpoint_bytes"] = os.path.getsize(path)
    os.remove(path)
    report["checkpoint_s"] = measure.median(checkpoint_s)
    report["recover_s"] = measure.median(recover_s)
    if recorder is not None:
        report["layers"] = tracing.layer_metrics(recorder, [warehouse])
        report["layer_self_s"] = tracing.self_times(recorder)
        report["layers"]["warehouse.checkpoint_bytes"] = report["checkpoint_bytes"]
        recorder.uninstall()
        recorder.write(os.path.join(args.out, "spans-serve_sqlite.jsonl"))
    report["restored"] = check.warehouse_digests(restored)
    restored.close()
    warehouse.close()
    _emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
