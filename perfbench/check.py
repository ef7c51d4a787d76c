"""Correctness checks, run outside every timed region.

The oracle is :class:`~repro.warehouse.baselines.FullReplicationMaintainer`:
it replicates the base tables and recomputes each view from them.  The
checks replay the same seeded stream over a freshly generated database,
so a maintained view that drifted, a restored checkpoint that lost a
group, or a served snapshot that shows the wrong prefix of the stream
all surface as a mismatch, which fails the run.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter

from repro.engine.deltas import Delta, Transaction
from repro.warehouse.baselines import FullReplicationMaintainer
from repro.warehouse.warehouse import Warehouse

import inputs


def _normal(value):
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        return round(value, 9)
    return value


def canonical(rows) -> tuple:
    """An order-insensitive form of a row multiset (ints and integral
    floats compare equal, other floats to nine decimals)."""
    return tuple(
        sorted((tuple(_normal(v) for v in row) for row in rows), key=repr)
    )


def digest(rows) -> str:
    return hashlib.sha256(repr(canonical(rows)).encode()).hexdigest()


def net_transaction(transactions) -> Transaction:
    """The net effect of a sequence of transactions, by multiset
    arithmetic done here rather than by the program's own coalescing."""
    net: dict[str, Counter] = {}
    for transaction in transactions:
        for delta in transaction:
            counts = net.setdefault(delta.table, Counter())
            counts.subtract(delta.deleted)
            counts.update(delta.inserted)
    deltas = []
    for table, counts in net.items():
        inserted = [row for row, n in counts.items() for __ in range(n) if n > 0]
        deleted = [row for row, n in counts.items() for __ in range(-n) if n < 0]
        deltas.append(Delta(table, tuple(inserted), tuple(deleted)))
    return Transaction.of(*deltas)


def replay_stream(spec, seed: int, indexes):
    """The transactions at ``indexes`` (ascending) of the seeded stream,
    regenerated over a fresh database."""
    wanted = iter(indexes)
    target = next(wanted, None)
    stream = inputs.mixed_stream(
        inputs.build_database(spec.scale), spec.batch, seed
    )
    for index, transaction in enumerate(stream):
        if target is None:
            return
        if index == target:
            yield transaction
            target = next(wanted, None)


def oracle(spec, transactions) -> tuple[dict[str, str], int]:
    """Per-view digests of the full-replication recomputation after
    ``transactions`` over a freshly generated database, and the bytes
    that baseline holds (the base the minimal ``detail_bytes`` is
    compared with)."""
    database = inputs.build_database(spec.scale)
    net = net_transaction(transactions)
    digests = {}
    replicated = 0
    for view in inputs.build_views(spec.scale, spec.views):
        baseline = FullReplicationMaintainer(view, database)
        baseline.apply(net)
        digests[view.name] = digest(baseline.current_view().rows)
        replicated += baseline.detail_size_bytes()
    return digests, replicated


def warehouse_digests(warehouse) -> dict[str, str]:
    return {
        name: digest(warehouse.summary(name).rows)
        for name in warehouse.view_names
    }


def compare(label: str, expected: dict, actual: dict) -> list[str]:
    """Mismatch descriptions (empty when every view agrees)."""
    problems = []
    for name in sorted(set(expected) | set(actual)):
        if expected.get(name) != actual.get(name):
            problems.append(f"{label}: view {name} differs from the oracle")
    return problems


class ShadowReplay:
    """An in-process warehouse replaying the accepted stream prefix by
    prefix, for checking served snapshots at their watermarks."""

    def __init__(self, spec, transactions):
        database = inputs.build_database(spec.scale)
        self._warehouse = Warehouse(
            database, inputs.build_views(spec.scale, spec.views), backend="memory"
        )
        self._transactions = transactions
        self._applied = 0
        self._cache: dict[str, str] = {}

    def digest_at(self, view: str, watermark: int) -> str:
        if watermark < self._applied:
            raise ValueError("shadow replay only moves forward")
        if watermark > len(self._transactions):
            raise ValueError(
                f"watermark {watermark} beyond the {len(self._transactions)} "
                "accepted transactions"
            )
        for transaction in itertools.islice(
            self._transactions, self._applied, watermark
        ):
            self._warehouse.apply(transaction)
        if watermark != self._applied:
            self._applied = watermark
            self._cache.clear()
        if view not in self._cache:
            self._cache[view] = digest(self._warehouse.summary(view).rows)
        return self._cache[view]

    def close(self) -> None:
        self._warehouse.close()
