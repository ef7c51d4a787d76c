"""``serve_sqlite``: one writer and one reader, open loop, over HTTP.

The server runs in a child process (``server_child.py``).  The writer
(this process's main thread) posts 8-row transactions with
``POST /apply?mode=async`` on a fixed schedule that steps up the rate
ladder; the sources do not wait for the warehouse.  One reader thread
issues ``GET /query`` at a fixed rate, alternating across the views.
Each uses one persistent connection.  Every request is timed from when
it was due, so a stalled server is charged for the requests it delayed;
the generator's own lateness (how long after ``max(due, previous
reply)`` it actually sent) is reported separately.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import os
import re
import select
import subprocess
import sys
import threading
import time

import check
import inputs
import measure
import specs

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "server_child.py")
#: How long readers keep going after the ladder, waiting for the last
#: write to become visible.
TAIL_S = 5.0
CHILD_TIMEOUT_S = 60.0
_HEAD = re.compile(rb'"version": (\d+), "txn_watermark": (\d+)')


class _Child:
    """The server process and its line protocol."""

    def __init__(self, seed: int, trace: bool, out_dir: str):
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, "--seed", str(seed),
             "--trace", str(int(trace)), "--out", out_dir],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        self._buffer = b""

    def message(self, timeout: float = CHILD_TIMEOUT_S) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("server child did not answer")
            ready, __, __ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise RuntimeError(
                        f"server child exited (code {self.proc.wait()})"
                    )
                self._buffer += chunk
        line, __, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.send("quit")
                self.proc.wait(10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def _start(seed: int, trace: bool, out_dir: str) -> tuple[_Child, int, float]:
    """Start a server child; return it, its port, and the seconds from
    the start of its warehouse build to the first successful /healthz."""
    child = _Child(seed, trace, out_dir)
    try:
        hello = child.message()
        port = hello["port"]
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            try:
                status = _request(port, "GET", "/healthz", timeout=5)[0]
            except OSError:
                status = None
            if status == 200:
                return child, port, time.monotonic() - hello["t0"]
            if time.monotonic() > deadline:
                raise TimeoutError("server never reported healthy")
            time.sleep(0.001)
    except BaseException:
        child.close()
        raise


def _request(port: int, method: str, path: str, body: bytes | None = None,
             timeout: float = 30.0):
    """One request on its own connection.  A kept-alive connection
    stalls each reply ~40 ms on this server (its header and body go out
    as separate small segments, and Nagle's algorithm holds the second
    until the client's delayed ACK), which would cap one reader far
    below the read rate; closing the connection pushes the reply out."""
    headers = {"Connection": "close"}
    if body is not None:
        headers["Content-Type"] = "application/json"
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _sleep_until(deadline: float) -> None:
    delay = deadline - time.monotonic()
    if delay > 0:
        time.sleep(delay)


class _Load:
    """Everything one ladder run observed."""

    def __init__(self):
        self.writes = []  # (due, lateness, done, status, seq, stream index)
        #: (due, lateness, done, status, view, version, watermark,
        #:  due within the ladder, seconds from send to reply)
        self.reads = []
        self.bodies = {}  # (view, version) -> first body seen
        self.torn = []  # (view, version, body) whose digest differed
        self._digests = {}
        self.steps = []  # (rate, lag at step end)
        self.scrapes = []  # /metrics text at each step end (traced runs)
        self.start = 0.0  # monotonic time the ladder starts

    def observe(self, view: str, version: int, body: bytes) -> None:
        key = (view, version)
        body_digest = hashlib.sha256(body).digest()
        first = self._digests.setdefault(key, body_digest)
        if first == body_digest:
            self.bodies.setdefault(key, body)
        else:
            self.torn.append((view, version, body))


def _drive(port: int, spec, payloads, seconds: float, scrape: bool) -> _Load:
    load = _Load()
    step_s = seconds / len(spec.ladder)
    start = load.start = time.monotonic() + 0.05
    ladder_end = start + seconds
    last_seq = [None]  # set by the writer once it has posted everything
    views = spec.views

    def read_loop() -> None:
        period = 1.0 / spec.read_rate
        prev_done = start
        k = 0
        high = 0
        while True:
            due = start + k * period
            if due >= ladder_end:
                target = last_seq[0]
                if due >= ladder_end + TAIL_S or (
                    target is not None and high >= target
                ):
                    break
            view = views[k % len(views)]
            k += 1
            _sleep_until(due)
            sent = time.monotonic()
            try:
                status, body = _request(port, "GET", f"/query?view={view}")
            except (OSError, http.client.HTTPException):
                status, body = None, b""
            done = time.monotonic()
            version = watermark = None
            if status == 200:
                head = _HEAD.search(body, 0, 400)
                version, watermark = int(head.group(1)), int(head.group(2))
                high = max(high, watermark)
                load.observe(view, version, body)
            load.reads.append(
                (due, max(sent - max(due, prev_done), 0.0), done, status,
                 view, version, watermark, due < ladder_end, done - sent)
            )
            prev_done = done

    reader = threading.Thread(target=read_loop, name="perfbench-reader")
    reader.start()
    index = 0
    prev_done = start
    try:
        for step, rate in enumerate(spec.ladder):
            step_start = start + step * step_s
            for i in range(round(rate * step_s)):
                due = step_start + i / rate
                _sleep_until(due)
                sent = time.monotonic()
                try:
                    status, body = _request(
                        port, "POST", "/apply?mode=async", payloads[index]
                    )
                except (OSError, http.client.HTTPException):
                    status, body = None, b""
                done = time.monotonic()
                seq = json.loads(body)["seq"] if status == 202 else None
                load.writes.append(
                    (due, max(sent - max(due, prev_done), 0.0), done, status,
                     seq, index)
                )
                prev_done = done
                index += 1
            _sleep_until(step_start + step_s)
            # Open-loop backlog: writes due so far minus writes applied,
            # so a writer held up by a slow server counts too.
            health = json.loads(_request(port, "GET", "/healthz")[1])
            load.steps.append((rate, index - health["applied"]))
            if scrape:
                load.scrapes.append(_request(port, "GET", "/metrics")[1].decode())
        seqs = [w[4] for w in load.writes if w[4] is not None]
        last_seq[0] = max(seqs, default=0)
    finally:
        if last_seq[0] is None:
            last_seq[0] = 0
        reader.join()
    return load


def _finalize(port: int, views) -> dict:
    """Drain the apply queue, then read each view's final state."""
    status, __ = _request(port, "POST", "/refresh", b"{}", timeout=60)
    if status != 200:
        raise RuntimeError(f"/refresh answered {status}")
    final = {}
    for view in views:
        status, body = _request(port, "GET", f"/query?view={view}")
        if status != 200:
            raise RuntimeError(f"final /query answered {status}")
        final[view] = json.loads(body)
    return final


def schedule_length(spec, seconds: float) -> int:
    step_s = seconds / len(spec.ladder)
    return sum(round(rate * step_s) for rate in spec.ladder)


def run(spec, seed: int, seconds: float, out_dir: str, trace: bool = False,
        setups: int = specs.SERVE_SETUP_REPEATS) -> dict:
    database = inputs.build_database(spec.scale)
    stream = inputs.mixed_stream(database, spec.batch, seed)
    transactions = [next(stream) for __ in range(schedule_length(spec, seconds))]
    payloads = [
        json.dumps(
            {"deltas": [
                {"table": d.table, "inserted": d.inserted, "deleted": d.deleted}
                for d in transaction
            ]}
        ).encode()
        for transaction in transactions
    ]
    setup_s = []
    child = None
    try:
        for attempt in range(setups):
            child, port, elapsed = _start(seed, trace and attempt == setups - 1, out_dir)
            setup_s.append(elapsed)
            if attempt < setups - 1:
                child.close()
                child = None
        child.send("checkpoint")
        child.message()
        load = _drive(port, spec, payloads, seconds, scrape=trace)
        final = _finalize(port, spec.views)
        child.send("finish")
        report = child.message()
        child.proc.wait(CHILD_TIMEOUT_S)
    finally:
        if child is not None:
            child.close()
    return _summarize(spec, seed, seconds, transactions, load, final, report, setup_s)


def _summarize(spec, seed, seconds, transactions, load, final, report, setup_s):
    rows_per_txn = 2 * spec.batch
    accepted = sorted(
        (w for w in load.writes if w[3] == 202), key=lambda w: w[4]
    )
    reads_ok = [r for r in load.reads if r[3] == 200]
    timed_reads = [r for r in reads_ok if r[7]]
    failed = (
        sum(1 for w in load.writes if w[3] != 202)
        + sum(1 for r in load.reads if r[7] and r[3] != 200)
        + report["apply_errors"]
    )
    attempted = len(load.writes) + sum(1 for r in load.reads if r[7])

    # Visibility: first read (by completion) whose watermark covers seq.
    by_done = sorted(reads_ok, key=lambda r: r[2])
    done_times = [r[2] for r in by_done]
    high = []
    best = 0
    for r in by_done:
        best = max(best, r[6])
        high.append(best)
    visible = {}
    unobserved = 0
    for w in accepted:
        at = bisect.bisect_left(high, w[4])
        if at < len(high):
            visible[w[4]] = done_times[at] - w[0]
        else:
            unobserved += 1
            visible[w[4]] = (done_times[-1] if done_times else w[2]) - w[0]

    # The ladder: per step, visibility p99 and backlog growth.
    step_s = seconds / len(spec.ladder)
    steps = []
    prev_lag = 0
    for index, (rate, lag) in enumerate(load.steps):
        lo = index * step_s
        step_writes = [
            visible[w[4]] for w in accepted
            if lo <= w[0] - load.start < lo + step_s
        ]
        p99 = measure.percentile(step_writes, 99) * 1000.0 if step_writes else None
        grew = lag - prev_lag
        steps.append({
            "rate_txn_s": rate,
            "visible_p99_ms": p99,
            "backlog_growth": grew,
            "meets_slo": p99 is not None
            and p99 < spec.slo_visible_p99_ms
            and grew <= spec.backlog_tolerance,
        })
        prev_lag = lag
    rate_at_slo = 0
    for step in steps:
        if not step["meets_slo"]:
            break
        rate_at_slo = step["rate_txn_s"]

    # Time from due until the server published the write's watermark.
    published = report["published"]
    marks = [entry[1] for entry in published]
    applied_s = []
    for w in accepted:
        at = bisect.bisect_left(marks, w[4])
        if at < len(marks):
            applied_s.append(published[at][0] - w[0])
    ladder_end = load.start + seconds
    applied_by_end = max(
        (entry[1] for entry in published if entry[0] <= ladder_end),
        default=0,
    )
    # txn_p50_ms / txn_p99_ms: Warehouse.apply calls whose micro-batch
    # carried exactly one transaction (under load the queue coalesces
    # several into one call, whose time then depends on how many), in CPU
    # seconds of the apply thread.  Their wall time also counts waits for
    # the interpreter lock while request threads run, which swung the
    # median by +-40% between otherwise identical runs.
    singles = [
        entry for entry, prev in zip(published, [0] + marks)
        if entry[1] - prev == 1
    ]
    single_s = [entry[2] for entry in singles]
    single_cpu_s = [entry[3] for entry in singles]

    read_latency = [r[2] - r[0] for r in timed_reads]
    lateness = [w[1] for w in load.writes] + [r[1] for r in load.reads]
    late_p99_ms = measure.percentile(lateness, 99) * 1000.0
    vis = list(visible.values())
    applied_rows = applied_by_end * rows_per_txn
    metrics = {
        "setup_s": measure.median(setup_s),
        "ingest_rows_per_s": applied_rows / seconds,
        "txn_p50_ms": measure.percentile(single_cpu_s, 50) * 1000.0,
        "txn_p99_ms": measure.percentile(single_cpu_s, 99) * 1000.0,
        "checkpoint_s": report["checkpoint_s"],
        "recover_s": report["recover_s"],
        "detail_bytes": report["detail_bytes"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    reported = {
        "read_p50_ms": measure.percentile(read_latency, 50) * 1000.0,
        "read_p99_ms": measure.percentile(read_latency, 99) * 1000.0,
        "visible_p50_ms": measure.percentile(vis, 50) * 1000.0,
        "visible_p99_ms": measure.percentile(vis, 99) * 1000.0,
        "write_rate_at_slo": rate_at_slo * rows_per_txn,
        "error_rate": failed / attempted,
    }
    result = {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "reported": reported,
        "details": {
            "ladder": steps,
            "reads": len(read_latency),
            "apply_calls": len(report["apply_s"]),
            "txn_samples": len(single_s),
            "apply_call_p99_ms": measure.percentile(report["apply_s"], 99) * 1000.0,
            "single_wall_p50_ms": measure.percentile(single_s, 50) * 1000.0,
            "single_wall_p99_ms": measure.percentile(single_s, 99) * 1000.0,
            "applied_p50_ms": measure.percentile(applied_s, 50) * 1000.0,
            "applied_p99_ms": measure.percentile(applied_s, 99) * 1000.0,
            "visible_resolution_ms": 1000.0 / spec.read_rate,
            "visible_unobserved": unobserved,
            "late_p99_ms": late_p99_ms,
            "generator_behind": late_p99_ms > specs.LATE_FLAG_MS,
            "backend": report["backend"],
            "planner": report["planner"],
            "checkpoint_bytes": report["checkpoint_bytes"],
        },
    }
    if "layers" in report:
        result["layers"] = _serving_layers(report, load, timed_reads, late_p99_ms)
        result["details"]["layer_self_s"] = report["layer_self_s"]
    result["problems"], result["full_replication_bytes"] = _verify(
        spec, seed, transactions, accepted, load, final, report
    )
    return result


def _prometheus(text: str) -> dict[str, float]:
    """Sample values by metric name (summed over label sets)."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, __, value = line.rpartition(" ")
        name = name.split("{", 1)[0]
        values[name] = values.get(name, 0.0) + float(value)
    return values


def _serving_layers(report, load, timed_reads, late_p99_ms) -> dict:
    """Per-layer metrics of a traced run: the child's span totals plus
    the /metrics scrapes taken at every ladder step's end."""
    import tracing

    layers = dict(report["layers"])
    scrapes = [_prometheus(text) for text in load.scrapes]
    last = scrapes[-1]
    batches = last.get("repro_serving_batches_total", 0.0)
    read_s = sum(r[8] for r in timed_reads)
    layers.update({
        "serving.http_s": max(0.0, read_s - layers["serving.query_s"]),
        "serving.batches": int(batches),
        "serving.txns_per_batch": (
            last.get("repro_serving_txns_applied_total", 0.0) / batches
            if batches else 0.0
        ),
        "serving.rows_coalesced_away": int(
            last.get("repro_serving_coalesced_rows_total", 0.0)
        ),
        "serving.lag_max": int(max(
            s.get("repro_serving_lag_transactions", 0.0) for s in scrapes
        )),
        "serving.rejected": int(last.get("repro_serving_txns_rejected_total", 0.0))
        + sum(1 for w in load.writes if w[3] == 503),
        "loadgen.late_p99_ms": late_p99_ms,
    })
    applies = sum(report["apply_s"])
    layers["obs.coverage"] = tracing.coverage(
        layers, applies + read_s, layers["warehouse.apply_s"] + read_s
    )
    return layers


def _verify(spec, seed, transactions, accepted, load, final, report):
    """Mismatch descriptions, and the full-replication baseline's bytes."""
    problems = []
    for position, w in enumerate(accepted, start=1):
        if w[4] != position:
            problems.append(f"accepted sequence has a gap at seq {position}")
            break
    ordered = [transactions[w[5]] for w in accepted]
    shadow = check.ShadowReplay(spec, ordered)
    try:
        snapshots = sorted(
            ((json.loads(body)["txn_watermark"], view, version), body)
            for (view, version), body in load.bodies.items()
        )
        for (watermark, view, version), body in snapshots:
            rows = json.loads(body)["rows"]
            if check.digest(rows) != shadow.digest_at(view, watermark):
                problems.append(
                    f"snapshot {view}@{version} (watermark {watermark}) differs "
                    "from the shadow replay"
                )
        for view, version, body in load.torn:
            rows = json.loads(body)["rows"]
            first = json.loads(load.bodies[(view, version)])["rows"]
            if check.canonical(rows) != check.canonical(first):
                problems.append(f"torn read of {view}@{version}")
    finally:
        shadow.close()
    last = {}
    for r in sorted(load.reads, key=lambda r: r[2]):
        if r[5] is None:
            continue
        if r[5] < last.get(r[4], -1):
            problems.append(f"{r[4]} version went backwards")
            break
        last[r[4]] = r[5]
    expected, replicated = check.oracle(spec, ordered)
    served = {view: check.digest(body["rows"]) for view, body in final.items()}
    problems += check.compare("served", expected, served)
    problems += check.compare("maintained", expected, report["live"])
    problems += check.compare("restored", expected, report["restored"])
    for view, body in final.items():
        if body["txn_watermark"] != len(accepted):
            problems.append(f"{view} final watermark is not the accepted count")
    return problems, replicated
