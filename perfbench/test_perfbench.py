"""Tests of the benchmark itself: its checks catch corrupted results, its
metric catalogue matches ``BENCHMARK.json``, and its layer arithmetic is
right.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import check  # noqa: E402
import closed_loop  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402
from repro.engine.deltas import Delta, Transaction  # noqa: E402
from repro.warehouse.warehouse import Warehouse  # noqa: E402

SEED = 3


@pytest.fixture
def out_dir(tmp_path):
    return str(tmp_path)


def _stray_sale() -> Transaction:
    """A valid transaction the seeded stream never contains."""
    return Transaction.of(Delta("sale", [(10_000_000, 1, 1, 1, 777)], []))


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    assert set(run.NAMES) == set(specs.WORKLOADS)
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    assert whys == {name: w.why for name, w in specs.WORKLOADS.items()}
    serving = specs.WORKLOADS["serve_sqlite"]
    assert f"< {serving.slo_visible_p99_ms:g} ms" in serving.why
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == specs.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == specs.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_clean_closed_loop_run_passes(out_dir):
    spec = specs.WORKLOADS["paper_trickle"]
    result = closed_loop.run(spec, SEED, 1.0, out_dir, max_txns=12)
    closed_loop.verify(spec, SEED, result)
    assert result["problems"] == []
    assert result["attempted"] == 12 and result["failed"] == 0


def test_verify_catches_a_corrupted_maintained_view(out_dir):
    spec = specs.WORKLOADS["paper_trickle"]
    result = closed_loop.run(spec, SEED, 1.0, out_dir, max_txns=12)
    warehouse = result["warehouses"][0]
    warehouse.apply(_stray_sale())
    closed_loop.verify(spec, SEED, result)
    assert any(p.startswith("maintained:") for p in result["problems"])
    assert not any(p.startswith("restored:") for p in result["problems"])


def test_verify_catches_a_corrupted_restore(out_dir):
    spec = specs.WORKLOADS["paper_trickle"]
    result = closed_loop.run(spec, SEED, 1.0, out_dir, max_txns=12)
    result["restored"].apply(_stray_sale())
    closed_loop.verify(spec, SEED, result)
    assert [p.split(":")[0] for p in result["problems"]] == ["restored"] * 3


def _served_run(spec, count):
    """What a served run would observe, built in process: one snapshot
    body per watermark, plus the final state."""
    database = inputs.build_database(spec.scale)
    stream = inputs.mixed_stream(database, spec.batch, SEED)
    transactions = [next(stream) for __ in range(count)]
    warehouse = Warehouse(
        inputs.build_database(spec.scale),
        inputs.build_views(spec.scale, spec.views),
        backend="memory",
    )
    load = serve._Load()
    for seq, transaction in enumerate(transactions, start=1):
        warehouse.apply(transaction)
        for view in spec.views:
            body = json.dumps({
                "view": view, "version": seq, "txn_watermark": seq,
                "rows": [list(r) for r in warehouse.summary(view).rows],
            }).encode()
            load.observe(view, seq, body)
            load.reads.append(
                (0.0, 0.0, float(seq), 200, view, seq, seq, True, 0.0)
            )
    accepted = [(0.0, 0.0, 0.0, 202, seq, seq - 1) for seq in range(1, count + 1)]
    final = {
        view: {"txn_watermark": count,
               "rows": [list(r) for r in warehouse.summary(view).rows]}
        for view in spec.views
    }
    digests = check.warehouse_digests(warehouse)
    report = {"live": digests, "restored": dict(digests)}
    warehouse.close()
    return transactions, accepted, load, final, report


def test_served_snapshots_agree_with_the_shadow_replay():
    spec = specs.WORKLOADS["serve_sqlite"]
    transactions, accepted, load, final, report = _served_run(spec, 6)
    problems, replicated = serve._verify(
        spec, SEED, transactions, accepted, load, final, report
    )
    assert problems == []
    assert replicated > 0


def test_shadow_replay_catches_a_snapshot_from_the_wrong_prefix():
    spec = specs.WORKLOADS["serve_sqlite"]
    transactions, accepted, load, final, report = _served_run(spec, 6)
    view = spec.views[-1]
    body = json.loads(load.bodies[(view, 5)])
    body["txn_watermark"] = 4  # version 5's rows claimed as watermark 4
    load.bodies[(view, 5)] = json.dumps(body).encode()
    problems, __ = serve._verify(spec, SEED, transactions, accepted, load, final, report)
    assert problems == [
        f"snapshot {view}@5 (watermark 4) differs from the shadow replay"
    ]


def test_serve_checks_catch_a_corrupted_final_state_and_restore():
    spec = specs.WORKLOADS["serve_sqlite"]
    transactions, accepted, load, final, report = _served_run(spec, 4)
    view = spec.views[0]
    final[view]["rows"][0][-1] += 1
    report["restored"][view] = "0" * 64
    problems, __ = serve._verify(spec, SEED, transactions, accepted, load, final, report)
    assert problems == [
        f"served: view {view} differs from the oracle",
        f"restored: view {view} differs from the oracle",
    ]


def test_run_prints_incorrect_and_exits_nonzero_on_a_mismatch(monkeypatch, capsys):
    def corrupted(name, seed, seconds, trace):
        values = {name: 1.0 for name in specs.END_TO_END}
        return {"attempted": 1, "failed": 0, "metrics": values,
                "problems": ["maintained: view v differs from the oracle"]}

    monkeypatch.setattr(run, "run_workload", corrupted)
    code = run.main(["--workload", "bulk_ingest", "--seed", "1", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk_ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_net_transaction_matches_sequential_application():
    spec = specs.WORKLOADS["paper_trickle"]
    database = inputs.build_database(spec.scale)
    stream = inputs.mixed_stream(database, spec.batch, SEED)
    transactions = [next(stream) for __ in range(20)]
    sequential = inputs.build_database(spec.scale)
    for transaction in transactions:
        sequential.apply(transaction)
    netted = inputs.build_database(spec.scale)
    netted.apply(check.net_transaction(transactions))
    assert check.canonical(sequential.relation("sale").rows) == check.canonical(
        netted.relation("sale").rows
    )


def test_stream_is_seeded():
    spec = specs.WORKLOADS["serve_sqlite"]
    first, second, other = (
        inputs.mixed_stream(inputs.build_database(spec.scale), spec.batch, seed)
        for seed in (SEED, SEED, SEED + 1)
    )
    a = [next(first) for __ in range(5)]
    assert a == [next(second) for __ in range(5)]
    assert a != [next(other) for __ in range(5)]
    assert all(inputs.delta_rows(t) == 2 * spec.batch for t in a)


def test_layer_totals_and_self_times():
    recorder = tracing.SpanRecorder()
    # outer [0, 10] holds child [1, 4] and a same-layer recursion [5, 9]
    # that holds a child [6, 7].
    recorder.spans[:] = [
        (2, 1, "b", 1.0, 4.0, 3, 2),
        (4, 3, "b", 6.0, 7.0, 1, 1),
        (3, 1, "a", 5.0, 9.0, 0, 0),
        (1, 0, "a", 0.0, 10.0, 0, 0),
    ]
    total, own, calls, rows = recorder.layers()
    assert total["a"] == 10.0 and calls["a"] == 1
    assert own["a"] == pytest.approx((10 - 3 - 4) + (4 - 1))
    assert total["b"] == 4.0 and calls["b"] == 2 and rows["b"] == [4, 3]
    assert recorder.child_seconds("b", "a") == 4.0


def test_install_wraps_and_uninstall_restores():
    original = Warehouse.apply
    recorder = tracing.install()
    try:
        assert Warehouse.apply is not original
        assert Warehouse.apply.__wrapped__ is original
    finally:
        recorder.uninstall()
    assert Warehouse.apply is original


def test_windowed_p99_takes_the_median_window():
    quiet = [1.0] * 980 + [2.0] * 20
    noisy = [1.0] * 900 + [9.0] * 100
    assert measure.windowed_p99(quiet + noisy + quiet) == 2.0
    short = quiet + noisy[:500]
    assert measure.windowed_p99(short) == measure.percentile(short, 99)
    assert measure.windowed_p99(quiet) == 2.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert measure.percentile(values, 50) == 500
    assert measure.percentile(values, 99) == 990
    assert measure.tail_ok(1000) and not measure.tail_ok(999)
