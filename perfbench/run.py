"""End-to-end benchmark of the warehouse: three workloads, one command.

    python3 perfbench/run.py --workload bulk_ingest --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads (see ``specs.py``):

* ``bulk_ingest``   - large scale, 128-row mixed transactions, closed loop
  through ``Warehouse.apply`` on the default backend, one CSMAS view,
  a checkpoint every 1000 transactions;
* ``paper_trickle`` - medium scale, the three paper views, 8-row mixed
  transactions, closed loop with a checkpoint every 100 transactions;
  each checkpoint (``save_warehouse``) is restored (``load_warehouse``)
  right away, and the final one is checked against the oracle;
* ``serve_sqlite``  - medium scale, ``WarehouseServer`` on the ``sqlite``
  backend in a child process, an open-loop writer stepping up a rate
  ladder beside an open-loop reader.

Run from the repository root; the program is imported from ``src/``.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the gated end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a traced run).  The line before
it is a JSON report with provenance, the serving-only metrics and the
per-step ladder.  Every run checks its outputs against the
full-replication oracle outside the timed region; a mismatch prints
``"correct": false`` and exits 1.  ``--trace 1`` runs a fixed amount of
work twice, untraced then traced, and reports per-layer times from the
traced half; end-to-end metrics come only from ``--trace 0`` runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
NAMES = ("bulk_ingest", "paper_trickle", "serve_sqlite")


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _closed_loop_trace(spec, seed: int, seconds: float) -> dict:
    import closed_loop
    import tracing

    base = closed_loop.run(spec, seed, seconds, OUT, max_txns=spec.trace_txns)
    closed_loop.verify(spec, seed, base)
    recorder = tracing.install()
    try:
        traced = closed_loop.run(spec, seed, seconds, OUT, max_txns=spec.trace_txns)
    finally:
        recorder.uninstall()
    layers = tracing.layer_metrics(recorder, traced["warehouses"])
    traced["layer_self_s"] = tracing.self_times(recorder)
    recorder.write(os.path.join(OUT, f"spans-{spec.name}.jsonl"))
    applies = sum(traced["txn_s"])
    in_loop_checkpoints = traced["busy_s"] - applies
    layers.update({
        "warehouse.checkpoint_bytes": traced["checkpoint_bytes"],
        "serving.http_s": 0.0,
        "serving.batches": 0,
        "serving.txns_per_batch": 0.0,
        "serving.rows_coalesced_away": 0,
        "serving.lag_max": 0,
        "serving.rejected": 0,
        "obs.coverage": tracing.coverage(
            layers, traced["busy_s"], layers["warehouse.apply_s"] + in_loop_checkpoints
        ),
        "obs.trace_overhead": traced["metrics"]["txn_p50_ms"]
        / base["metrics"]["txn_p50_ms"] - 1.0,
        "loadgen.late_p99_ms": 0.0,
    })
    closed_loop.verify(spec, seed, traced)
    traced["problems"] = base["problems"] + traced["problems"]
    traced["attempted"] += base["attempted"]
    traced["failed"] += base["failed"]
    traced["layers"] = layers
    return traced


def _serve_trace(spec, seed: int, seconds: float) -> dict:
    import serve

    base = serve.run(spec, seed, seconds / 2, OUT, trace=False, setups=1)
    traced = serve.run(spec, seed, seconds / 2, OUT, trace=True, setups=1)
    traced["layers"]["obs.trace_overhead"] = (
        traced["metrics"]["txn_p50_ms"] / base["metrics"]["txn_p50_ms"] - 1.0
    )
    traced["problems"] = base["problems"] + traced["problems"]
    traced["attempted"] += base["attempted"]
    traced["failed"] += base["failed"]
    return traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import closed_loop
    import serve
    import specs

    spec = specs.WORKLOADS[name]
    if trace:
        if name == "serve_sqlite":
            return _serve_trace(spec, seed, seconds)
        return _closed_loop_trace(spec, seed, seconds)
    if name == "serve_sqlite":
        return serve.run(spec, seed, seconds, OUT)
    result = closed_loop.run(spec, seed, seconds, OUT)
    closed_loop.verify(spec, seed, result)
    return result


def _report(name: str, args, result: dict) -> dict:
    import inputs
    import measure
    import specs

    spec = specs.WORKLOADS[name]
    details = result.get("details", {
        "checkpoints": result.get("checkpoints"),
        "checkpoint_bytes": result.get("checkpoint_bytes"),
        "txn_samples": result.get("txn_samples"),
    })
    if "layer_self_s" in result:
        details["layer_self_s"] = result["layer_self_s"]
    config = {
        "scale": spec.scale,
        "sale_rows": inputs.SCALES[spec.scale].fact_rows(),
        "views": list(spec.views),
        "batch": spec.batch,
        "delta_rows_per_txn": 2 * spec.batch,
        "backend": details.get("backend", result.get("backend")),
        "planner": details.get("planner", result.get("planner")),
    }
    if spec.checkpoint_every:
        config["checkpoint_every"] = spec.checkpoint_every
    if spec.ladder:
        config.update(
            ladder_txn_s=list(spec.ladder),
            read_rate=spec.read_rate,
            slo_visible_p99_ms=spec.slo_visible_p99_ms,
            backlog_tolerance=spec.backlog_tolerance,
        )
    reported = dict(result.get("reported", {}))
    reported.setdefault("error_rate", result["failed"] / max(1, result["attempted"]))
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": measure.provenance(),
        "config": config,
        "reported": _metric_block(
            reported, {k: u for k, u in specs.REPORTED_ONLY.items() if k in reported}
        ),
        "full_replication_bytes": result.get("full_replication_bytes"),
        "details": details,
        "problems": result["problems"],
    }


def run_all(args) -> int:
    """Run every workload in its own process and print every metric."""
    import specs

    status = 0
    for name in NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or len(lines) < 2:
            print(f"{name}: FAILED (exit {completed.returncode})")
            status = 1
            if len(lines) < 2:
                continue
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        shown = {**result["metrics"], **report["reported"]}
        for metric, entry in shown.items():
            print(f"  {metric:<32} {entry['value']:>16.6g} {entry['unit']}")
        for problem in report["problems"]:
            print(f"  ! {problem}")
        if not result["correct"]:
            status = 1
    if not args.trace:
        missing = set(specs.REPORTED_ONLY) - {"error_rate"}
        print(f"(serving-only metrics {sorted(missing)} apply to serve_sqlite)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: the program's source is missing ({SRC}); "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [SRC, HERE]
    import measure
    import specs

    for var in specs.PINNED_ENV:
        os.environ.pop(var, None)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report = _report(args.workload, args, result)
    correct = not result["problems"]
    for problem in result["problems"]:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    details = report["details"]
    if details.get("generator_behind"):
        print(f"perfbench: generator fell behind (lateness p99 "
              f"{details['late_p99_ms']:.1f} ms); latencies include client delay",
              file=sys.stderr)
    samples = details.get("txn_samples")
    if samples is not None and not measure.tail_ok(samples):
        print(f"perfbench: txn_p99_ms rests on {details.get('txn_samples')} "
              "samples, fewer than ten beyond p99", file=sys.stderr)
    if args.trace:
        metrics = _metric_block(result["layers"], specs.PER_LAYER)
    else:
        metrics = _metric_block(result["metrics"], specs.END_TO_END)
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
