"""Seeded inputs: the retail star schema, the three views, the delta stream.

Each scale's database is generated from a fixed seed, so every run of a
workload starts from the same warehouse; the workload seed picks the
delta stream.  One seed therefore always yields the same inputs, and
different seeds vary only the stream.  The program receives only the
generated rows.  The stream generator lives here rather than being
imported from ``benchmarks/`` so that the benchmark's inputs change only
when this directory changes.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.view import JoinCondition, make_view
from repro.engine.aggregates import AggregateFunction
from repro.engine.deltas import Delta, Transaction
from repro.engine.expressions import Column, Comparison, Literal
from repro.engine.operators import AggregateItem, GroupByItem
from repro.workloads.retail import (
    RetailConfig,
    build_retail_database,
    product_sales_max_view,
    product_sales_view,
)

#: Retail scales (``sale`` rows: medium 10,800, large 36,000).
SCALES = {
    "medium": RetailConfig(
        days=90, stores=3, products=1000, products_sold_per_day=20,
        transactions_per_product=2, start_year=1997, seed=11,
    ),
    "large": RetailConfig(
        days=180, stores=4, products=3000, products_sold_per_day=25,
        transactions_per_product=2, start_year=1997, seed=11,
    ),
}


def monthly_category_sales_view(year: int = 1997):
    """The fully CSMAS view (SUM + COUNT): no recomputation ever."""
    return make_view(
        "monthly_category_sales",
        ("sale", "time", "product"),
        [
            GroupByItem(Column("month", "time")),
            GroupByItem(Column("category", "product")),
            AggregateItem(
                AggregateFunction.SUM, Column("price", "sale"), alias="TotalPrice"
            ),
            AggregateItem(AggregateFunction.COUNT, None, alias="TotalCount"),
        ],
        selection=[Comparison("=", Column("year", "time"), Literal(year))],
        joins=[
            JoinCondition("sale", "timeid", "time", "id"),
            JoinCondition("sale", "productid", "product", "id"),
        ],
    )


#: View name -> factory taking the scale's start year.
VIEWS = {
    "monthly_category_sales": monthly_category_sales_view,
    "product_sales": product_sales_view,
    "product_sales_max": lambda year: product_sales_max_view(),
}


def build_database(scale: str):
    """A fresh retail database at ``scale``."""
    return build_retail_database(SCALES[scale])


def build_views(scale: str, names) -> list:
    year = SCALES[scale].start_year
    return [VIEWS[name](year) for name in names]


def mixed_stream(database, batch: int, seed: int) -> Iterator[Transaction]:
    """An endless, integrity-valid stream of ``sale`` transactions.

    Each transaction inserts ``batch/2`` fresh rows, deletes ``batch/2``
    live rows, and deletes and re-inserts ``batch/2`` further live rows
    (churn the maintainer coalesces away): ``2 * batch`` delta rows.
    Only ``sale`` changes, so every row references live dimension keys.

    Fresh rows take their (time, product, store) from a uniformly drawn
    row of the initial table, with a new key and price.  Deletions are
    uniform over live rows, so the table keeps the shape it was
    generated with: drawing dates and products uniformly instead would
    spread the rows over ever more distinct groups, and per-transaction
    cost would keep rising with the number of transactions applied,
    making a timed run's figures depend on how far it got.
    ``database`` is read once, at the first ``next()``, and never
    mutated.
    """
    draw = random.Random(seed).random
    live = list(database.relation("sale"))
    shapes = [row[1:4] for row in live]
    next_id = max(row[0] for row in live) + 1
    half = batch // 2
    while True:
        fresh = []
        for __ in range(half):
            shape = shapes[int(draw() * len(shapes))]
            fresh.append((next_id, *shape, 50 + int(draw() * 4_951)))
            next_id += 1
        gone = [_take(live, draw) for __ in range(half)]
        churn = [_take(live, draw) for __ in range(half)]
        inserted = fresh + churn
        live.extend(inserted)
        yield Transaction.of(Delta("sale", inserted, gone + churn))


def _take(live: list, draw) -> tuple:
    """Remove and return a random live row in O(1) (swap with the last)."""
    index = int(draw() * len(live))
    row = live[index]
    live[index] = live[-1]
    live.pop()
    return row


def delta_rows(transaction: Transaction) -> int:
    return sum(len(d.inserted) + len(d.deleted) for d in transaction)
