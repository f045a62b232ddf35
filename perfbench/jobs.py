"""Job lists of the benchmark workloads and the correctness gate.

An item is one unit of the workload: one classified or searched cell,
one recorded threshold, or one recorded generator witness.  Every item
returns a plain, comparable output and carries the output it must
produce; a mismatch or an exception is a failed item, never a dropped
one.

Items call the library through module attributes looked up at call
time (``dtcodes.minimum_weight``, ...), so the layer wrappers of
``tracing`` see every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import dtcodes
from dtcodes import reference_data as rd

# Classification cells: F4 n=8 mostly merges codes into few classes
# (1344 optimal triples -> 13 classes), F2 n=14 mostly opens new ones
# (795 -> 79).
CLASSIFY_CELLS = ((4, 8), (2, 14))

# Search cells, with (optimum, attainer count, attainer digest) recorded
# from the library at the commit that introduced this benchmark.  The
# digest is over the sorted attainer literals, so it pins the attainer
# set, not the enumeration order.
SEARCH_CELLS = {
    ("DT", 2, 18): (6, 15, "f896ea813c20d003"),
    ("DT", 3, 12): (6, 12, "a2730057b6a417a5"),
    ("DC", 4, 12): (5, 1278, "ecd082edb6e29fd6"),
}

# Class representatives recorded from the same commit: a digest of the
# sorted (representative, members, structure) records per cell.
CLASSIFY_DIGESTS = {
    (4, 8): "48db32242c15c090",
    (2, 14): "979d3cc4cc6d737e",
}

# In-budget generator witnesses, as in ``dtcodes verify-tables --suite
# generators``: the half length m = n/2 may not exceed these.
GENERATOR_BUDGET = {2: 24, 3: 14, 4: 13}


@dataclass(frozen=True)
class Item:
    """One timed unit of work and the output it must produce."""

    name: str
    run: Callable[[], Any]
    expected: Any


def _digest(lines) -> str:
    text = "\n".join(sorted(lines))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _classify(q: int, n: int):
    report = dtcodes.classify(dtcodes.GF(q), n)
    records = [
        f"{r.representative.to_text()} {r.members} {r.structure}" for r in report.records
    ]
    return (report.d_opt, report.n_dt, report.n_dc, report.n_nc, _digest(records))


def search_cell(family: str, q: int, n: int):
    """Find-optimal search of one cell through the public entry point."""
    gf = dtcodes.GF(q)
    if family == "DT":
        return dtcodes.search_dt(gf, n)
    return dtcodes.search_family(gf, n, family)


def _search(family: str, q: int, n: int):
    d_opt, records = search_cell(family, q, n)
    return (d_opt, len(records), _digest(spec.to_text() for spec, _ in records))


def _threshold(q: int, d: int):
    return dtcodes.minimal_guaranteed_length(dtcodes.GF(q), d)


def _witness(q: int, spec: str):
    return dtcodes.minimum_weight(rd.build_code(q, spec))


def classify_items() -> list[Item]:
    items = []
    for q, n in CLASSIFY_CELLS:
        expected = (rd.OPTIMAL_MIN_WEIGHT[q][n],) + rd.CLASS_COUNTS[q][n]
        expected += (CLASSIFY_DIGESTS[(q, n)],)
        items.append(Item(f"classify F{q} n={n}", lambda q=q, n=n: _classify(q, n), expected))
    return items


def search_items() -> list[Item]:
    return [
        Item(
            f"search {family} F{q} n={n}",
            lambda f=family, q=q, n=n: _search(f, q, n),
            expected,
        )
        for (family, q, n), expected in SEARCH_CELLS.items()
    ]


def threshold_items() -> list[Item]:
    return [
        Item(f"threshold F{q} d={d}", lambda q=q, d=d: _threshold(q, d), expected)
        for q, table in sorted(rd.GUARANTEED_LENGTH.items())
        for d, expected in sorted(table.items())
    ]


def generator_items() -> list[Item]:
    return [
        Item(f"witness F{q} n={n} {spec}", lambda q=q, s=spec: _witness(q, s), d)
        for q, n, d, spec in rd.iter_weight_checks()
        if n // 2 <= GENERATOR_BUDGET[q]
    ]


def build(workload: str, seed: int) -> list[Item]:
    """The workload's fixed job list, in an order drawn from ``seed``."""
    if workload == "classify-dedupe":
        items = classify_items()
    elif workload == "search-scan":
        items = search_items()
    elif workload == "verify-tables":
        items = threshold_items() + generator_items()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(items)
    return items


def warm_up() -> None:
    """Touch every code path once on tiny inputs, so lazy set-up is done.

    It also frees one large, untouched block.  glibc raises its mmap
    threshold to the size of the largest mapped block freed so far;
    below that threshold, freed memory is reused instead of mapped
    afresh.  Until then every large product temporary costs fresh page
    faults: the first big search of a process pays over a million (F3
    n=12: about 11 s instead of 7 s), and the seed-drawn item order
    would decide which item pays them.  The block is never written, so
    it adds nothing to ``peak_rss_mb``.
    """
    dtcodes.classify(dtcodes.GF(2), 8)
    search_cell("DT", 3, 6)
    search_cell("DC", 4, 6)
    _threshold(2, 5)
    _witness(4, "C:(1,w,1,w,0)")
    block = np.empty(31 << 20, dtype=np.uint8)
    del block
