"""Reduced exhaustive search, checkpointing and classification."""

import hashlib
import itertools
import json
import math
import os
import re
import time
from concurrent.futures import Future
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtcodes import (
    GF,
    BudgetExceededError,
    CheckpointError,
    LinearCode,
    ToeplitzTriple,
    are_equivalent,
    circulant_matrix,
    classify,
    dedupe_into_classes,
    double_circulant_code,
    double_negacirculant_code,
    double_toeplitz_code,
    enumerate_triples,
    gf_matmul,
    minimum_weight,
    passes_reduction,
    search_dt,
    search_family,
    verify_reduction_soundness,
)
from dtcodes import equivalence, linear, search
from dtcodes.linear import _index_digits
from dtcodes.reference_data import (
    CLASS_COUNTS,
    CLASSIFY_GRID,
    CLASSIFY_SMALL_GRID,
    OPTIMAL_MIN_WEIGHT,
)
from dtcodes.gf import _f3_add
from dtcodes.search import (
    _band_words,
    _batch_min_weight_capped,
    _chunk_ranges,
    _numbered_bands,
    _row_words,
    _scan_chunk,
    _spec_of_band,
)
from dtcodes.structured import (
    BRUTE_FORCE_N,
    CirculantSpec,
    _circulant_flags,
    band_sequence,
    digits_of_index,
    index_of_digits,
    orbit_keys,
    split_bands,
    toeplitz_matrix,
    toeplitz_windows,
)


def _naive_dt_scan(gf: GF, n: int):
    """All (triple, min weight) pairs, unfiltered, by direct enumeration."""
    return [(T, minimum_weight(double_toeplitz_code(T))) for T in enumerate_triples(gf, n // 2)]


def _candidates(gf: GF, n: int, family: str, reduction: str, lo: int, hi: int) -> list:
    """The filtered candidates of prefixes [lo, hi) in scan order, by direct enumeration:
    the specs that a chunk's numbers index."""
    m = n // 2
    if family == "DT":
        span = gf.q ** (m - 1)  # triples per (t, a) prefix
        triples = itertools.islice(enumerate_triples(gf, m), lo * span, hi * span)
        return [T for T in triples if passes_reduction(T, reduction)]
    mu = 1 if family == "DC" else -1
    return [CirculantSpec(gf, digits_of_index(i, gf.q, m), mu) for i in range(lo, hi)]


def _key(T: ToeplitzTriple) -> tuple:
    return (T.t, T.a, T.b)


def _vector_rank(a) -> int:
    """Odometer rank f(a) = sum_i 2^(i-1) a_i of a binary vector: the index of its F2 digits."""
    return index_of_digits(GF(2)._check_array(a), 2)


def _triple_of_circulant(spec: CirculantSpec) -> ToeplitzTriple:
    """The (t, a, b) whose Toeplitz matrix equals the circulant matrix, split off its bands."""
    return ToeplitzTriple(spec.gf, *split_bands(band_sequence(spec)))


def _flags(T: ToeplitzTriple) -> tuple[bool, bool]:
    """Whether the triple's matrix is circulant, and whether it is negacirculant."""
    return tuple(map(bool, _circulant_flags(T.gf, band_sequence(T))))


def test_vector_rank():
    assert _vector_rank(()) == 0
    assert _vector_rank((1, 0, 0)) == 1
    assert _vector_rank((0, 0, 1)) == 4
    assert _vector_rank((1, 1, 1)) == 7
    with pytest.raises(ValueError):
        _vector_rank((0, 2))


def test_c2_filter_keeps_one_per_swap_pair():
    gf = GF(2)
    for T in enumerate_triples(gf, 3):
        swapped = ToeplitzTriple(gf, T.t, T.b, T.a)
        keep_t = passes_reduction(T, "C2")
        keep_s = passes_reduction(swapped, "C2")
        assert keep_t or keep_s
        # both survive exactly on the diagonal a = b of the swap
        assert (keep_t and keep_s) == (_vector_rank(T.a) == _vector_rank(T.b))
    with pytest.raises(ValueError):
        passes_reduction(ToeplitzTriple(GF(3), 0, (0,), (0,)), "C2")


def _filter_orbit(T: ToeplitzTriple) -> list[ToeplitzTriple]:
    """The triples the default filter treats as one: the C2 swap pair
    over F2, the nonzero scalar multiples (C3) otherwise."""
    gf = T.gf
    if gf.q == 2:
        return [T, ToeplitzTriple(gf, T.t, T.b, T.a)]
    orbit = []
    for lam in range(1, gf.q):
        scaled = ToeplitzTriple(
            gf,
            gf.mul(lam, T.t),
            tuple(gf.mul(lam, x) for x in T.a),
            tuple(gf.mul(lam, x) for x in T.b),
        )
        orbit.append(scaled)
    return orbit


@pytest.mark.parametrize("q", [3, 4])
def test_c3_filter_keeps_one_per_scalar_orbit(q):
    gf = GF(q)
    for T in enumerate_triples(gf, 2):
        survivors = sum(passes_reduction(S, "C3") for S in _filter_orbit(T))
        if any(x for x in (T.t, *T.a)):
            assert survivors == 1
        else:
            # (t, a) = 0 collapses the scalar action on the filter key
            assert survivors == q - 1
    with pytest.raises(ValueError):
        passes_reduction(ToeplitzTriple(GF(2), 0, (0,), (0,)), "C3")


@pytest.mark.parametrize("q,max_m", [(2, 5), (3, 5), (4, 4)])
def test_filter_keeps_a_circulant_triple_of_each_circulant_code(q, max_m):
    # classify labels a class by its own filtered triples; that finds
    # every optimal (nega)circulant code because each one's filter
    # orbit holds a kept triple of the same kind spanning an
    # equivalent code
    gf = GF(q)
    reduction = "C2" if q == 2 else "C3"
    for m in range(1, max_m + 1):
        for r in itertools.product(range(q), repeat=m):
            for mu in (1, -1):
                T = _triple_of_circulant(CirculantSpec(gf, r, mu))
                kind = _flags(T)
                assert kind != (False, False)
                kept = [
                    U
                    for U in _filter_orbit(T)
                    if passes_reduction(U, reduction) and _flags(U) == kind
                ]
                assert kept, (q, r, mu)
                assert are_equivalent(double_toeplitz_code(kept[0]), double_toeplitz_code(T))


@pytest.mark.parametrize("q,max_m", [(2, 4), (3, 3), (4, 3)])
def test_auto_filter_is_the_resolved_filter(q, max_m):
    gf = GF(q)
    resolved = "C2" if q == 2 else "C3"
    for m in range(1, max_m + 1):
        for T in enumerate_triples(gf, m):
            assert passes_reduction(T, "auto") == passes_reduction(T, resolved), T


def _filter_rule(T: ToeplitzTriple, reduction: str) -> bool:
    """The filters as the module docstring states them, triple by triple."""
    if reduction == "C2":
        return _vector_rank(T.a) >= _vector_rank(T.b)
    if reduction == "C3":
        return next((x for x in (T.t, *T.a) if x), 1) == 1
    return True


@pytest.mark.parametrize("q", [2, 3, 4])
def test_kept_b_counts_match_the_filtered_triples(q):
    # one batched call over every prefix against the b each filter keeps;
    # F4 stops at m = 4, since m = 5 has 4^9 triples per filter (about 10 s)
    gf = GF(q)
    for m in range(1, 6 if q < 4 else 5):
        L = m - 1
        t, ia = np.divmod(np.arange(q**m), q**L)
        A = _index_digits(ia, q, L)
        for reduction in _VALID_REDUCTIONS[q]:
            counts = search._kept_b_counts(q, reduction, t, A)
            assert counts.shape == (q**m,)
            for p in range(q**m):
                triples = [
                    ToeplitzTriple(gf, int(t[p]), A[p], digits_of_index(ib, q, L))
                    for ib in range(q**L)
                ]
                kept = [passes_reduction(T, reduction) for T in triples]
                assert kept == [_filter_rule(T, reduction) for T in triples], (m, p, reduction)
                assert kept == [ib < counts[p] for ib in range(q**L)], (m, p, reduction)


def test_unknown_reduction_rejected():
    gf = GF(2)
    with pytest.raises(ValueError):
        passes_reduction(ToeplitzTriple(gf, 0, (), ()), "C5")
    with pytest.raises(ValueError):
        search_dt(gf, 4, reduction="C9")


# the differential cells: F2 n <= 10, F3 and F4 n <= 6, for every family
_DIFFERENTIAL_CELLS = [
    (family, q, n)
    for q, max_n in ((2, 10), (3, 6), (4, 6))
    for n in range(2, max_n + 1, 2)
    for family in ("DT", "DC", "NC")
]


def _brute_force_records(family: str, q: int, n: int) -> list:
    """(spec, minimum weight) of every candidate of a cell in scan order, one
    ``minimum_weight`` each: all triples for DT, all first rows for DC and NC."""
    gf, m = GF(q), n // 2
    if family == "DT":
        return _naive_dt_scan(gf, n)
    mu = 1 if family == "DC" else -1
    specs = [CirculantSpec(gf, digits_of_index(i, q, m), mu) for i in range(q**m)]
    return [(c, minimum_weight(LinearCode.systematic(gf, circulant_matrix(c)))) for c in specs]


@pytest.mark.parametrize("family,q,n", _DIFFERENTIAL_CELLS)
def test_every_mode_matches_brute_force(family, q, n):
    # every valid reduction, and each target d from 1 to one past the optimum
    brute = _brute_force_records(family, q, n)
    gf = GF(q)
    for reduction in ("auto", *_VALID_REDUCTIONS[q]) if family == "DT" else ("none",):
        kept = [
            (spec.to_text(), mw)
            for spec, mw in brute
            if family != "DT" or _filter_rule(spec, search._resolve_reduction(q, reduction))
        ]
        opt = max(mw for _, mw in kept)

        def run(mode, d=None):
            if family == "DT":
                best, records = search_dt(gf, n, reduction, mode=mode, d=d)
            else:
                best, records = search_family(gf, n, family, mode=mode, d=d)
            return best, [(spec.to_text(), mw) for spec, mw in records]

        assert run("find-optimal") == (opt, [r for r in kept if r[1] == opt]), reduction
        for d in range(1, opt + 2):
            assert run("collect-at", d) == (d, [r for r in kept if r[1] == d]), (reduction, d)
            assert run("at-least", d) == (d, [r for r in kept if r[1] >= d]), (reduction, d)


def test_filtered_search_reaches_the_same_optimum():
    for q, n in ((2, 8), (3, 6), (4, 6)):
        gf = GF(q)
        d_plain, _ = search_dt(gf, n, reduction="none")
        d_filtered, records = search_dt(gf, n, reduction="auto")
        assert d_filtered == d_plain
        reduction = "C2" if q == 2 else "C3"
        assert all(passes_reduction(T, reduction) for T, _ in records)


@pytest.mark.parametrize("family,q,n,reduction", [
    ("DT", 2, 8, "none"), ("DT", 3, 6, "C3"), ("DC", 4, 8, "none"),
])
def test_search_is_deterministic_across_workers_and_partitions(family, q, n, reduction):
    gf = GF(q)

    def run(**kw):
        if family == "DT":
            return search_dt(gf, n, reduction=reduction, **kw)
        return search_family(gf, n, family, **kw)

    reference = run()
    # 300 partitions exceed every prefix count here, so most chunks are empty
    for partitions, workers in ((3, 1), (4, 2), (2, 4), (300, 1)):
        d, records = run(partitions=partitions, workers=workers)
        assert d == reference[0]
        assert [(spec.to_text(), mw) for spec, mw in records] == [
            (spec.to_text(), mw) for spec, mw in reference[1]
        ]

    # chunks started below the sampled floor reach different local bests;
    # those at the maximum hold exactly the optimal records, in order
    ranges = _chunk_ranges(q ** (n // 2), 300)
    chunks = [
        _scan_chunk((q, n, family, reduction, "find-optimal", 1, lo, hi)) for lo, hi in ranges
    ]
    best = max(b for b, _, _ in chunks)
    assert best == reference[0] > min(b for b, _, _ in chunks)
    merged = [
        (_candidates(gf, n, family, reduction, lo, hi)[number], mw)
        for (lo, hi), (b, numbers, weights) in zip(ranges, chunks)
        if b == best
        for number, mw in zip(numbers, weights)
    ]
    assert merged == reference[1]


def _row_bound(q: int, n: int) -> int:
    """Rows per block: the packed (rows, q-1, m, m) words fit the byte budget."""
    m = n // 2
    return max(1, search._PACKED_BYTE_BUDGET // (8 * (q - 1) * m * m))


def _numbered(gf: GF, n: int, family: str, reduction: str, lo: int, hi: int):
    """(total, bands, words) of :func:`search._numbered_bands`: the band sequences and the
    words of candidate numbers, the sum and the OR of their low and high table rows."""
    total, split, low, high = _numbered_bands(gf, n, family, reduction, lo, hi)
    low_words, high_words = _band_words(gf, low), _band_words(gf, high)

    def bands(idx):
        i, j = split(idx)
        return low[i] + high[j]

    def words(idx):
        i, j = split(idx)
        return low_words[i] | high_words[j]

    return total, bands, words


def _bands(gf: GF, n: int, family: str, reduction: str, lo: int, hi: int) -> np.ndarray:
    """The band sequences of the candidates of prefixes [lo, hi) in scan order, checked against
    the number blocks that a scan of the range packs: each within the row bound, every block
    full but the last, none empty, and together the words of these sequences in order."""
    total, bands, _ = _numbered(gf, n, family, reduction, lo, hi)
    S = bands(np.arange(total))
    blocks, row_words = [], search._row_words
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_row_words", lambda q, m, W: blocks.append(W) or row_words(q, m, W))
        _scan_chunk((gf.q, n, family, reduction, "collect-at", 1, lo, hi))
    assert all(0 < len(W) <= _row_bound(gf.q, n) for W in blocks)
    assert all(len(W) == _row_bound(gf.q, n) for W in blocks[:-1])
    words = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.uint64)
    assert S.dtype == np.int8 and S.shape == (total, n - 1)
    assert np.array_equal(words, _band_words(gf, S))
    return S


_VALID_REDUCTIONS = {2: ("none", "C2"), 3: ("none", "C3"), 4: ("none", "C3")}


@pytest.mark.parametrize("budget", [search._PACKED_BYTE_BUDGET, 8 * 3 * 9 * 5])
@pytest.mark.parametrize("q,max_n", [(2, 10), (3, 6), (4, 6)])
def test_dt_bands_match_the_filtered_triple_order(q, max_n, budget, monkeypatch):
    # the small budget cuts blocks of 5 to 7 rows at the longest n, which split prefixes
    monkeypatch.setattr(search, "_PACKED_BYTE_BUDGET", budget)
    gf = GF(q)
    for n in range(2, max_n + 1, 2):
        for reduction in _VALID_REDUCTIONS[q]:
            expect = [
                band_sequence(T).tolist()
                for T in enumerate_triples(gf, n // 2)
                if passes_reduction(T, reduction)
            ]
            got = _bands(gf, n, "DT", reduction, 0, q ** (n // 2))
            assert got.tolist() == expect, (n, reduction)
            for S in got[:: max(1, len(got) // 7)]:
                T = _spec_of_band(gf, "DT", S)
                assert (toeplitz_windows(S) == toeplitz_matrix(T)).all()


@pytest.mark.parametrize("budget", [search._PACKED_BYTE_BUDGET, 8 * 3 * 9])
@pytest.mark.parametrize("family,mu", [("DC", 1), ("NC", -1)])
@pytest.mark.parametrize("q,max_n", [(2, 10), (3, 8), (4, 6)])
def test_circulant_bands_match_first_row_order(q, max_n, family, mu, budget, monkeypatch):
    monkeypatch.setattr(search, "_PACKED_BYTE_BUDGET", budget)
    gf = GF(q)
    for n in range(2, max_n + 1, 2):
        m = n // 2
        specs = [CirculantSpec(gf, digits_of_index(i, q, m), mu) for i in range(q**m)]
        got = _bands(gf, n, family, "none", 0, q**m)
        assert got.tolist() == [band_sequence(_triple_of_circulant(c)).tolist() for c in specs]
        # the windows against the directly built (nega)circulant matrices
        assert np.array_equal(toeplitz_windows(got), np.stack([circulant_matrix(c) for c in specs]))
        assert [_spec_of_band(gf, family, S) for S in got] == specs


@pytest.mark.parametrize("budget", [search._PACKED_BYTE_BUDGET, 8 * 3 * 9 * 5])
@pytest.mark.parametrize("q,n", [(2, 8), (3, 6), (4, 6)])
def test_chunk_blocks_hold_the_candidates_of_their_prefixes(q, n, budget, monkeypatch):
    # the small budget cuts blocks of 5 to 8 rows, which split prefixes and chunks
    monkeypatch.setattr(search, "_PACKED_BYTE_BUDGET", budget)
    gf = GF(q)
    m = n // 2
    triples = list(enumerate_triples(gf, m))  # q^(m-1) per (t, a) prefix, in prefix order
    ranges = _chunk_ranges(q**m, 5) + [(3, 3)]
    for reduction in _VALID_REDUCTIONS[q]:
        for lo, hi in ranges:
            expect = [
                band_sequence(T).tolist()
                for T in triples[lo * q ** (m - 1) : hi * q ** (m - 1)]
                if passes_reduction(T, reduction)
            ]
            assert _bands(gf, n, "DT", reduction, lo, hi).tolist() == expect, (reduction, lo, hi)
    if q == 3:  # the last chunk lies wholly in t = 2, where C3 keeps no candidate
        assert ranges[-2] == (21, 27) and _numbered_bands(gf, n, "DT", "C3", 21, 27)[0] == 0
    for lo, hi in ranges:
        specs = [CirculantSpec(gf, digits_of_index(i, q, m), 1) for i in range(lo, hi)]
        assert _bands(gf, n, "DC", "none", lo, hi).tolist() == [
            band_sequence(c).tolist() for c in specs
        ]


_NUMBERED_CELLS = [
    (q, n, family, reduction)
    for q in (2, 3, 4)
    for n in range(2, BRUTE_FORCE_N[q] + 1, 2)
    for family, reduction in [("DT", r) for r in _VALID_REDUCTIONS[q]]
    + [("DC", "none"), ("NC", "none")]
]


@pytest.mark.parametrize("q,n,family,reduction", _NUMBERED_CELLS)
def test_numbered_bands_are_the_filtered_candidates_in_order(q, n, family, reduction):
    # every number of every chunk, and of an empty range, against the brute-force candidates
    gf = GF(q)
    for lo, hi in _chunk_ranges(q ** (n // 2), 5) + [(1, 1)]:
        expect = [band_sequence(c).tolist() for c in _candidates(gf, n, family, reduction, lo, hi)]
        total, bands, _ = _numbered(gf, n, family, reduction, lo, hi)
        got = bands(np.arange(total))
        assert total == len(expect) and got.dtype == np.int8
        assert got.reshape(total, n - 1).tolist() == expect, (lo, hi)


@pytest.mark.parametrize("q,n,family,reduction", _NUMBERED_CELLS)
def test_table_words_are_the_words_of_the_numbered_bands(q, n, family, reduction):
    # the OR of a low and a high table word against each candidate's own band packed whole
    gf = GF(q)
    for lo, hi in _chunk_ranges(q ** (n // 2), 5) + [(1, 1)]:
        total, bands, words = _numbered(gf, n, family, reduction, lo, hi)
        got, want = words(np.arange(total)), _band_words(gf, bands(np.arange(total)))
        assert got.dtype == np.uint64 and got.shape == (total,)
        assert np.array_equal(got, want), (lo, hi)


@pytest.mark.parametrize("q,n", [(2, 40), (2, 42), (3, 22)])
@pytest.mark.parametrize("family,mu", [("DC", 1), ("NC", -1)])
def test_long_circulant_tables_hold_half_the_digits(q, n, family, mu, monkeypatch):
    # a short range across a carry into the high digits; each table has at most q^ceil(m/2) rows
    gf, m = GF(q), n // 2
    sizes = []
    build = search.circulant_bands
    monkeypatch.setattr(
        search, "circulant_bands", lambda g, R, s: sizes.append(len(R)) or build(g, R, s)
    )
    lo = q ** ((m + 1) // 2) - 20
    total, bands, words = _numbered(gf, n, family, "none", lo, lo + 60)
    assert len(sizes) == 2 and max(sizes) <= q ** ((m + 1) // 2)
    want = build(gf, _index_digits(lo + np.arange(60), q, m), mu)
    assert total == 60 and np.array_equal(bands(np.arange(total)), want)
    assert np.array_equal(words(np.arange(total)), _band_words(gf, want))


@pytest.mark.parametrize(
    "family,q,n,partitions", [("DT", 2, 14, 1), ("DT", 3, 8, 3), ("NC", 3, 10, 2)]
)
def test_find_optimal_builds_bands_only_for_its_tables(
    family, q, n, partitions, monkeypatch, tmp_path
):
    # blocks of 8 to 30 rows: one band build per table (the probe floor's numbering, each
    # chunk's, and each chunk's at the best once more, to name its records), none per block,
    # none per kept number
    run = search_dt if family == "DT" else partial(search_family, family=family)
    path = tmp_path / "run.json"
    reference = run(GF(q), n, partitions=partitions, checkpoint_path=str(path))
    chunks = json.loads(path.read_text())["chunks"].values()
    at_best = sum(best == reference[0] for best, _, _ in chunks)
    monkeypatch.setattr(search, "_PACKED_BYTE_BUDGET", 8 * 3 * 25 * 8)
    builder = "triple_bands" if family == "DT" else "circulant_bands"
    build, built, blocks = getattr(search, builder), [], []
    monkeypatch.setattr(search, builder, lambda *args: built.append(args) or build(*args))
    rows = search._row_words
    monkeypatch.setattr(search, "_row_words", lambda *args: blocks.append(args) or rows(*args))
    assert run(GF(q), n, partitions=partitions) == reference
    scans = 2 * (1 + partitions)  # the builds of the probe and of the chunk scans
    assert len(built) == scans + 2 * at_best and len(blocks) > 3 * scans


@pytest.mark.parametrize("family,q,n,reduction", [
    ("DT", 2, 12, "C2"), ("DT", 3, 8, "C3"), ("DC", 4, 8, "none"), ("NC", 3, 8, "none"),
])
def test_scan_makes_one_kernel_call_per_block(family, q, n, reduction, monkeypatch):
    # a whole-space chunk from floor 1, in blocks of 8 to 25 rows: its best rises to the
    # optimum, and each block's weights come from one call, capped at m + 2 and cut at the
    # running best, with the records of the search
    run = search_dt if family == "DT" else partial(search_family, family=family)
    reference = run(GF(q), n)
    monkeypatch.setattr(search, "_PACKED_BYTE_BUDGET", 8 * 3 * 25 * 8)
    calls, blocks = [], []
    batch, rows = search._batch_min_weight_capped, search._row_words
    monkeypatch.setattr(
        search,
        "_batch_min_weight_capped",
        lambda P, T, q, least: calls.append((T, least)) or batch(P, T, q, least),
    )
    monkeypatch.setattr(search, "_row_words", lambda *args: blocks.append(args) or rows(*args))
    space = q ** (n // 2)
    best, numbers, weights = _scan_chunk((q, n, family, reduction, "find-optimal", 1, 0, space))
    assert len(calls) == len(blocks) > 3
    assert {T for T, _ in calls} == {n // 2 + 2}
    assert calls[0][1] == 1 < best == reference[0]
    candidates = _candidates(GF(q), n, family, reduction, 0, space)
    assert [(candidates[i], mw) for i, mw in zip(numbers, weights)] == reference[1]


@pytest.mark.parametrize("q,n", [(2, 8), (2, 12), (3, 6), (4, 6), (4, 8)])
def test_probe_floor_is_the_best_of_a_spread_sample(q, n):
    # 128 numbers spread over each family's whole filtered space, evaluated by brute force
    gf, m = GF(q), n // 2
    reduction = "C2" if q == 2 else "C3"
    spaces = {
        "DT": [T for T in enumerate_triples(gf, m) if passes_reduction(T, reduction)],
        **{
            family: [
                _triple_of_circulant(CirculantSpec(gf, digits_of_index(i, q, m), mu))
                for i in range(q**m)
            ]
            for family, mu in (("DC", 1), ("NC", -1))
        },
    }
    for family, candidates in spaces.items():
        total = len(candidates)
        sample = np.unique(np.linspace(0, total - 1, min(total, 128)).astype(np.int64))
        best = max(minimum_weight(double_toeplitz_code(candidates[i])) for i in sample)
        assert search._probe_floor(gf, n, family, reduction if family == "DT" else "none") == best


# the probe floors of the benchmark's search cells and classify cells, each at least
# the floor of the earlier 16 x 8 (DT) and 64 (DC/NC) samples: 5, 5, 2, 4 and 4
_PROBE_FLOORS = {(2, 18, "DT"): 5, (3, 12, "DT"): 5, (4, 12, "DC"): 5, (4, 8, "DT"): 4,
                 (2, 14, "DT"): 4}


@pytest.mark.parametrize("cell", list(_PROBE_FLOORS), ids=lambda c: "-".join(map(str, c)))
def test_probe_floor_keeps_the_benchmark_floors(cell):
    q, n, family = cell
    reduction = search._resolve_reduction(q, "auto") if family == "DT" else "none"
    assert search._probe_floor(GF(q), n, family, reduction) == _PROBE_FLOORS[cell]


_PROBE_CELLS = [("DT", 2, 12, "C2"), ("DT", 3, 8, "C3"), ("DC", 4, 8, "none"), ("NC", 3, 8, "none")]


@pytest.mark.parametrize("family,q,n,reduction", _PROBE_CELLS)
def test_probe_floor_makes_one_kernel_call_and_one_exact_check(
    family, q, n, reduction, monkeypatch
):
    # the whole sample's weights from one call, capped at m + 2 and cut at 0, then one code
    # built and checked by min_weight_at_least: the best sample's, at the floor
    gf, m = GF(q), n // 2
    floor = search._probe_floor(gf, n, family, reduction)
    calls, builds, checks = [], [], []
    batch, build = _batch_min_weight_capped, LinearCode.systematic
    check = linear.min_weight_at_least
    monkeypatch.setattr(
        search,
        "_batch_min_weight_capped",
        lambda P, T, q, least: calls.append((P.shape[1], T, least)) or batch(P, T, q, least),
    )
    codes = SimpleNamespace(systematic=lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(search, "LinearCode", codes)
    monkeypatch.setattr(
        search, "min_weight_at_least", lambda *args: checks.append(args) or check(*args)
    )
    assert search._probe_floor(gf, n, family, reduction) == floor
    total = len(_candidates(gf, n, family, reduction, 0, q**m))
    assert calls == [(min(total, 128), m + 2, 0)]
    assert len(builds) == 1 and len(checks) == 1
    code, d = checks[0]
    assert np.array_equal(code.G[:, m:], builds[0][1])
    assert d == floor == minimum_weight(code)


@pytest.mark.parametrize("family,q,n,reduction", _PROBE_CELLS)
def test_probe_floor_refuses_a_kernel_that_overstates_its_best_sample(
    family, q, n, reduction, monkeypatch
):
    # the exact check is the probe's only guard against the kernel that also reads the scan
    batch = _batch_min_weight_capped

    def overstated(P, T, q, least):
        out = batch(P, T, q, least)
        out[out.argmax()] += 1
        return out

    monkeypatch.setattr(search, "_batch_min_weight_capped", overstated)
    with pytest.raises(AssertionError, match="best sample does not attain the floor"):
        search._probe_floor(GF(q), n, family, reduction)
    run = search_dt if family == "DT" else partial(search_family, family=family)
    with pytest.raises(AssertionError, match="best sample does not attain the floor"):
        run(GF(q), n)


def test_search_output_does_not_depend_on_block_rows(monkeypatch):
    cells = [("DT", 2, 10), ("DT", 3, 6), ("DC", 4, 8), ("NC", 3, 8)]

    def run_all():
        return [
            search_dt(GF(q), n) if family == "DT" else search_family(GF(q), n, family)
            for family, q, n in cells
        ]

    reference = run_all()
    # blocks of 3 to 8 rows, which split prefixes
    monkeypatch.setattr(search, "_PACKED_BYTE_BUDGET", 8 * 3 * 16 * 3)
    assert run_all() == reference


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs jobs inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr(search, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    gf = GF(2)
    assert search_dt(gf, 8, partitions=2, workers=5000) == search_dt(gf, 8)
    assert _RecordingExecutor.sizes == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    search_dt(gf, 8, partitions=7, workers=5000)
    assert _RecordingExecutor.sizes == [2, 3]
    # one worker, or one chunk, runs inline without a pool
    search_dt(gf, 8, partitions=1, workers=5000)
    search_dt(gf, 8, partitions=4, workers=1)
    assert _RecordingExecutor.sizes == [2, 3]


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_must_be_positive(workers):
    gf = GF(2)
    with pytest.raises(ValueError, match="workers"):
        search_dt(gf, 6, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        search_family(gf, 6, "DC", workers=workers)
    with pytest.raises(ValueError, match="workers"):
        classify(gf, 6, workers=workers)


def test_circulant_family_search():
    gf = GF(3)
    d_nc, records = search_family(gf, 4, "NC")
    specs = [s for s, _ in records]
    assert d_nc == 3
    assert all(s.mu == -1 for s in specs)
    naive = [
        (r, minimum_weight(double_toeplitz_code(_triple_of_circulant(CirculantSpec(gf, r, -1)))))
        for r in itertools.product(range(3), repeat=2)
    ]
    assert {s.r for s in specs} == {r for r, mw in naive if mw == 3}
    d_dc, _ = search_family(gf, 4, "DC")
    assert d_dc < d_nc
    with pytest.raises(ValueError):
        search_family(gf, 4, "XX")


def test_search_argument_validation():
    gf = GF(2)
    with pytest.raises(ValueError):
        search_dt(gf, 5)
    with pytest.raises(ValueError):
        search_dt(gf, 6, reduction="C3")
    with pytest.raises(ValueError):
        search_dt(GF(3), 6, reduction="C2")
    # a target weight means nothing to a find-optimal pass
    with pytest.raises(ValueError, match="no target weight"):
        search_dt(gf, 6, d=3)
    with pytest.raises(ValueError, match="no target weight"):
        search_family(gf, 6, "DC", d=3)
    # a targeted mode needs its weight, and the mode must be a known one
    with pytest.raises(ValueError):
        search_dt(GF(3), 4, mode="collect-at")
    with pytest.raises(ValueError):
        search_dt(GF(3), 4, mode="maximize")


def test_triple_budget():
    gf = GF(2)
    with pytest.raises(BudgetExceededError):
        search_dt(gf, 12, triple_budget=100)


# MDS band sequences, of minimum weight m + 1: the F3 [4, 2, 3] and the F4
# [4, 2, 3] and [6, 3, 4] (hexacode) double Toeplitz codes
_MDS_BANDS = {3: [(2, 1, 1)], 4: [(2, 1, 1), (2, 1, 1, 2, 1)]}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_capped_batch_matches_minimum_weight(q):
    # caps up to m + 2, the exact cap of the scan and the resume check, and
    # every lower cut: exact at or above it, below it otherwise
    gf = GF(q)
    rng = np.random.default_rng(q)
    for m in range(2, 6):
        S = rng.integers(0, q, size=(12, 2 * m - 1), dtype=np.int8)
        mds = [band for band in _MDS_BANDS.get(q, []) if len(band) == 2 * m - 1]
        S = np.vstack([S, np.array(mds, dtype=np.int8).reshape(-1, 2 * m - 1)])
        exact = [minimum_weight(LinearCode.systematic(gf, Ai)) for Ai in toeplitz_windows(S)]
        assert exact[12:] == [m + 1] * len(mds)
        P = _pack(gf, S)
        for T in range(1, m + 3):
            for least in range(T + 1):
                got = _batch_min_weight_capped(P, T, q, least)
                for g, d in zip(got.tolist(), exact):
                    assert g == min(d, T) if d >= least else g < least, (m, T, least)


def _dense_layer_columns(q: int, m: int, w: int) -> np.ndarray:
    """Packed-word columns of the weight-w layer from its dense message rows,
    through ``np.nonzero``: the derivation of the former per-chunk message cache."""
    U = np.vstack(list(linear._weight_layer_blocks(q, m, w)))
    support = np.nonzero(U)[1].reshape(len(U), w)
    scalar_index = U[np.arange(len(U))[:, None], support] - 1
    return support * (q - 1) + scalar_index


@pytest.mark.parametrize("q", [2, 3, 4])
def test_packed_columns_match_the_dense_derivation(q, monkeypatch):
    for m in range(1, 8):
        seen = []

        def unsettled(q_, PT, cols):  # weight m + 1 everywhere: no code settles
            seen.append(cols)
            return np.full((len(cols), PT.shape[1]), m + 1)

        monkeypatch.setattr(search, "_message_weights", unsettled)
        S = np.zeros((3, 2 * m - 1), dtype=np.int8)
        _batch_min_weight_capped(_pack(GF(q), S), m + 2, q, 0)
        assert len(seen) == m
        for w, cols in enumerate(seen, start=1):
            assert cols.dtype == np.int64, (m, w)
            assert np.array_equal(cols, _dense_layer_columns(q, m, w)), (m, w)


def _table_product(gf: GF, U: np.ndarray, A: np.ndarray) -> np.ndarray:
    """U A over the field by mul_table/add_table lookups, one row of A at a time."""
    right = np.zeros((len(U), A.shape[1]), dtype=np.int8)
    for r in range(A.shape[0]):
        right = gf.add_table[right, gf.mul_table[U[:, r, None], A[r]]]
    return right


def _full_layer(q: int, m: int, w: int) -> np.ndarray:
    """Every weight-w message of length m, each nonzero value pattern included."""
    rows = [
        [values[support.index(i)] if i in support else 0 for i in range(m)]
        for support in itertools.combinations(range(m), w)
        for values in itertools.product(range(1, q), repeat=w)
    ]
    return np.array(rows, dtype=np.int8).reshape(-1, m)


def _capped_oracle(gf: GF, A: np.ndarray, T: int, product) -> int:
    """min(d, T) of (I | A) from the full message layers of weight below T.

    Messages of weight w or more give codewords of weight w or more, so
    the scan stops once the best weight found is at most w.
    """
    best = T
    for w in range(1, min(T, A.shape[0] + 1)):
        if best <= w:
            break
        right = product(gf, _full_layer(gf.q, len(A), w), A)
        best = min(best, w + int(np.count_nonzero(right, axis=1).min()))
    return best


# Largest full message count a drawn random block may make the oracles scan.
_ORACLE_MESSAGES = 1 << 15


# Entries in a packed plane: F2 has one 64-bit plane, F3 and F4 two of 32.
_PLANE = {2: 64, 3: 32, 4: 32}


def _pack(gf: GF, S: np.ndarray) -> np.ndarray:
    """The packed row words (m (q-1), blocks) of band sequences S (blocks, 2m-1): the scan's
    and the resume check's one pack path."""
    return _row_words(gf.q, (S.shape[-1] + 1) // 2, _band_words(gf, S))


def _gather_pack(gf: GF, A: np.ndarray) -> np.ndarray:
    """The packed words of :func:`_pack` from Toeplitz blocks A (blocks, m, m), transposed
    to (blocks, m (q-1)) and gathered entry by entry from one word table per scalar: the
    first packer, kept as its slow oracle."""
    q = gf.q
    blocks, rows, m = A.shape
    # the word of each element code at entry 0, bit 0 in plane 0 and bit 32 in
    # plane 1: F2 x; F3 [x == 1], [x == 2]; F4 the coordinates of x = x0 + w x1
    entry_word = np.array({2: (0, 1), 3: (0, 1, 1 << 32), 4: (0, 1, 1 << 32, 1 | 1 << 32)}[q],
                          dtype=np.uint64)
    # table[s-1, x, j]: the word of s x at entry j
    table = entry_word[gf.mul_table[1:]][:, :, None] << np.arange(m, dtype=np.uint64)
    scalars = np.arange(q - 1)[:, None, None, None]
    words = table[scalars, A[None], np.arange(m)].sum(axis=-1)  # distinct bits: sum is OR
    return words.transpose(1, 2, 0).reshape(blocks, rows * (q - 1))


def _draw_band(draw, q: int, m: int, kind: str) -> np.ndarray:
    """A band sequence of length 2m-1: zero, constant (every Toeplitz row
    the same), one-hot (a shifted identity; the identity at entry m-1) or random."""
    S = np.zeros(2 * m - 1, dtype=np.int8)
    if kind == "constant":
        S[:] = draw(st.integers(1, q - 1))
    elif kind == "one-hot":
        S[draw(st.integers(0, 2 * m - 2))] = draw(st.integers(1, q - 1))
    elif kind == "random":
        S[:] = draw(st.lists(st.integers(0, q - 1), min_size=2 * m - 1, max_size=2 * m - 1))
    return S


@st.composite
def _band_blocks(draw):
    """(q, bands): zero, constant, one-hot and random bands of one length up to the plane limit."""
    q = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(1, (_PLANE[q] + 1) // 2))
    kinds = draw(
        st.lists(st.sampled_from(["zero", "constant", "one-hot", "random"]), min_size=1, max_size=4)
    )
    return q, np.stack([_draw_band(draw, q, m, kind) for kind in kinds])


@settings(deadline=None, max_examples=150)
@given(drawn=_band_blocks())
@example(drawn=(2, np.ones((1, 63), np.int8)))
@example(drawn=(3, np.full((2, 31), 2, np.int8)))
@example(drawn=(4, np.eye(31, dtype=np.int8)[[0, 15, 30]] * 3))
def test_shift_packer_matches_the_gather_oracle(drawn):
    q, S = drawn
    gf = GF(q)
    got = _pack(gf, S)
    assert got.dtype == np.uint64
    assert np.array_equal(got.T, _gather_pack(gf, toeplitz_windows(S)))


@st.composite
def _capped_batches(draw):
    """(q, bands, T): zero, constant, one-hot and random band sequences."""
    q = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(1, 12))
    kinds = draw(
        st.lists(st.sampled_from(["zero", "constant", "one-hot", "random"]), min_size=1, max_size=4)
    )
    top = m + 2
    if "random" in kinds:
        # a random block can have a large minimum weight: bound the oracle's scan
        scanned = itertools.accumulate(math.comb(m, w) * (q - 1) ** w for w in range(1, m + 1))
        top = min(top, 1 + sum(1 for c in scanned if c <= _ORACLE_MESSAGES))
    return q, np.stack([_draw_band(draw, q, m, kind) for kind in kinds]), draw(st.integers(1, top))


@settings(deadline=None, max_examples=120)
@given(drawn=_capped_batches())
@example(drawn=(4, np.stack([np.zeros(23, np.int8), np.eye(23, dtype=np.int8)[11]]), 14))
@example(drawn=(3, np.ones((1, 23), np.int8), 14))
@example(drawn=(2, np.ones((1, 1), np.int8), 3))
def test_packed_capped_batch_matches_product_oracles(drawn):
    q, S, T = drawn
    gf = GF(q)
    want = [_capped_oracle(gf, Ai, T, gf_matmul) for Ai in toeplitz_windows(S)]
    assert want == [_capped_oracle(gf, Ai, T, _table_product) for Ai in toeplitz_windows(S)]
    P = _pack(gf, S)
    for least in range(T + 1):
        got = _batch_min_weight_capped(P, T, q, least)
        # min(d, T) when d >= least, some value below least otherwise
        for g, d in zip(got.tolist(), want):
            assert g == d if d >= least else g < least, least


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("row_weight", [1, 2])
def test_cut_codes_leave_at_the_first_layer(q, row_weight, monkeypatch):
    # every code has a word of weight 1 + row_weight (2 or 3) in layer 1, below
    # the cut at 4, so no later layer is read; weight 3 is above w + 1 = 2,
    # so only the cut stops it there
    m = 5
    S = np.random.default_rng(q).integers(0, q, size=(16, 2 * m - 1), dtype=np.int8)
    S[:, :row_weight] = 1
    S[:, row_weight:m] = 0  # the last Toeplitz row is S[0 : m]
    assert (np.count_nonzero(toeplitz_windows(S)[:, -1], axis=1) == row_weight).all()
    layers = []
    weights = search._message_weights
    monkeypatch.setattr(
        search,
        "_message_weights",
        lambda q_, PT, cols: layers.append(cols.shape[1]) or weights(q_, PT, cols),
    )
    got = _batch_min_weight_capped(_pack(GF(q), S), m + 2, q, 4)
    assert (got < 4).all()
    assert set(layers) == {1}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_packed_multiples_match_mul_table(q):
    # plane p holds entry j at bit 32 p + j, and the element code is
    # plane0 + 2 plane1 for every field: F3 one-hot, F4 coordinates
    gf = GF(q)
    S = np.random.default_rng(q).integers(0, q, size=(5, 13), dtype=np.int8)
    A = toeplitz_windows(S)
    P = _pack(gf, S).T  # one row per code
    assert P.shape == (5, 7 * (q - 1)) and P.dtype == np.uint64
    j = np.arange(7, dtype=np.uint64)
    plane0 = (P[..., None] >> j) & np.uint64(1)
    plane1 = (P[..., None] >> (j + np.uint64(32))) & np.uint64(1)
    if q == 3:
        assert not (plane0 & plane1).any()
    # no bit outside the 7 entries of each plane
    assert not (P & ~np.uint64(0x7F | 0x7F << 32)).any()
    decoded = (plane0 + 2 * plane1).reshape(5, 7, q - 1, 7)
    for s in range(1, q):
        assert (decoded[:, :, s - 1] == gf.mul_table[s, A]).all(), s


@pytest.mark.parametrize("q", [2, 3, 4])
def test_row_multiples_are_plane_operations_on_the_band_word(q):
    # every element, then random bands of every length a plane holds, against the
    # words of the mul_table gather s A
    gf = GF(q)
    x = np.arange(q, dtype=np.int8)[:, None]
    want = _band_words(gf, gf.mul_table[1:, x])
    assert np.array_equal(_row_words(q, 1, _band_words(gf, x)), want)
    rng = np.random.default_rng(q)
    for m in range(1, (_PLANE[q] + 1) // 2 + 1):
        S = rng.integers(0, q, size=(9, 2 * m - 1), dtype=np.int8)
        scaled = gf.mul_table[np.arange(1, q)[:, None, None, None], toeplitz_windows(S)]
        want = _band_words(gf, scaled).transpose(2, 0, 1).reshape(m * (q - 1), 9)
        assert np.array_equal(_row_words(q, m, _band_words(gf, S)), want), m


def test_f3_adder_matches_the_field_table():
    gf = GF(3)
    word = [np.uint64(0), np.uint64(1), np.uint64(1 << 32)]  # one-hot: bit 0 for 1, bit 32 for 2
    assert [_pack(gf, np.full((1, 1), x, np.int8))[0, 0] for x in range(3)] == word
    for x, y in itertools.product(range(3), repeat=2):
        z = gf.add(x, y)
        got = _f3_add(word[x], word[gf.neg(x)], word[y], word[gf.neg(y)])
        assert got == (word[z], word[gf.neg(z)]), (x, y)
        # on plane ints: the planes [x == 1], [x == 2] of each term in, the sum's out
        assert _f3_add(x == 1, x == 2, y == 1, y == 2) == (z == 1, z == 2), (x, y)


@pytest.mark.parametrize("q, m", [(2, 33), (3, 17), (4, 17)])
def test_packer_rejects_a_block_wider_than_its_planes(q, m):
    # the band of a block, 2m-1 entries, must fit a plane
    with pytest.raises(ValueError, match=f"m={m}"):
        _band_words(GF(q), np.zeros((1, 2 * m - 1), dtype=np.int8))
    identity = np.eye(2 * m - 3, dtype=np.int8)[m - 2][None]
    assert _pack(GF(q), identity).shape == ((m - 1) * (q - 1), 1)


def test_checkpoint_round_trip(tmp_path):
    gf = GF(2)
    path = str(tmp_path / "run.json")
    reference = search_dt(gf, 8, reduction="C2", partitions=4)
    d, records = search_dt(gf, 8, reduction="C2", partitions=4, checkpoint_path=path)
    assert (d, [(_key(T), mw) for T, mw in records]) == (
        reference[0],
        [(_key(T), mw) for T, mw in reference[1]],
    )
    data = json.loads(open(path).read())
    assert data["version"] == 3
    assert set(data["chunks"]) == {"0", "1", "2", "3"}

    # drop some finished chunks to simulate an interrupted run
    for cid in ("1", "2", "3"):
        del data["chunks"][cid]
    open(path, "w").write(json.dumps(data))
    d2, records2 = search_dt(gf, 8, reduction="C2", partitions=4, checkpoint_path=path)
    assert d2 == d
    assert [(_key(T), mw) for T, mw in records2] == [(_key(T), mw) for T, mw in records]


def test_checkpoint_config_mismatch(tmp_path):
    gf = GF(2)
    path = str(tmp_path / "run.json")
    search_dt(gf, 6, reduction="C2", partitions=2, checkpoint_path=path)
    with pytest.raises(CheckpointError):
        search_dt(gf, 6, reduction="none", partitions=2, checkpoint_path=path)
    with pytest.raises(CheckpointError):
        search_dt(gf, 6, reduction="C2", partitions=3, checkpoint_path=path)


# search_dt(GF(2), 6, reduction="C2", partitions=2) with both chunks done: each chunk is
# [best, numbers, weights], the numbers counting the C2 survivors of its prefix range
_RECORDED_CHECKPOINT = {
    "version": 3,
    "config": {"q": 2, "n": 6, "family": "DT", "reduction": "C2", "mode": "find-optimal",
               "d": None, "partitions": 2},
    "chunks": {"0": [3, [9], [3]], "1": [3, [2, 4, 8], [3, 3, 3]]},
}


def test_recorded_checkpoint_resumes_without_scanning(tmp_path, monkeypatch):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_RECORDED_CHECKPOINT))
    monkeypatch.setattr(search, "_scan_chunk", lambda args: pytest.fail("scanned a done chunk"))
    d, records = search_dt(GF(2), 6, reduction="C2", partitions=2, checkpoint_path=str(path))
    assert d == 3
    assert [(_key(T), mw) for T, mw in records] == [
        ((0, (1, 1), (1, 1)), 3),
        ((1, (1, 0), (1, 0)), 3),
        ((1, (0, 1), (1, 0)), 3),
        ((1, (1, 1), (0, 1)), 3),
    ]


# search_family(GF(2), 8, "DC", partitions=2) with both chunks done: a number is the
# first-row index less its chunk's first, 8 in chunk 1
_RECORDED_DC_CHECKPOINT = {
    "version": 3,
    "config": {"q": 2, "n": 8, "family": "DC", "reduction": "none", "mode": "find-optimal",
               "d": None, "partitions": 2},
    "chunks": {"0": [4, [7], [4]], "1": [4, [3, 5, 6], [4, 4, 4]]},
}

# search_family(GF(3), 4, "NC", partitions=2) with both chunks done (chunk 1 from index 4)
_RECORDED_NC_CHECKPOINT = {
    "version": 3,
    "config": {"q": 3, "n": 4, "family": "NC", "reduction": "none", "mode": "find-optimal",
               "d": None, "partitions": 2},
    "chunks": {"0": [3, [], []], "1": [3, [0, 1, 3, 4], [3, 3, 3, 3]]},
}


@pytest.mark.parametrize("recorded,expect", [
    (_RECORDED_DC_CHECKPOINT, ["C:(1,1,1,0)", "C:(1,1,0,1)", "C:(1,0,1,1)", "C:(0,1,1,1)"]),
    (_RECORDED_NC_CHECKPOINT, ["N:(1,1)", "N:(2,1)", "N:(1,2)", "N:(2,2)"]),
])
def test_recorded_circulant_checkpoint_resumes_without_scanning(tmp_path, monkeypatch, recorded, expect):
    config = recorded["config"]
    gf = GF(config["q"])
    path = tmp_path / "run.json"
    path.write_text(json.dumps(recorded))
    monkeypatch.setattr(search, "_scan_chunk", lambda args: pytest.fail("scanned a done chunk"))
    d, records = search_family(
        gf, config["n"], config["family"], partitions=2, checkpoint_path=str(path)
    )
    assert (d, [(spec.to_text(), mw) for spec, mw in records]) == (
        recorded["chunks"]["1"][0], [(text, d) for text in expect]
    )
    # a fresh scan writes the very same chunks
    monkeypatch.undo()
    fresh = tmp_path / "fresh.json"
    search_family(gf, config["n"], config["family"], partitions=2, checkpoint_path=str(fresh))
    assert json.loads(fresh.read_text()) == recorded


# (family, q, n, mode, d) -> (d_ref, record count, sha256 prefix of the
# ordered "spec min_weight" lines), recorded before candidates became
# band sequences; the five find-optimal cells after the blank line, the
# benchmark's search cells and the larger cells that the scan's lower cut
# speeds up most, were recorded before that cut
_RECORD_DIGESTS = {
    ("DT", 2, 12, "find-optimal", None): (4, 76, "a6ff43352654715c"),
    ("DT", 3, 8, "collect-at", 4): (4, 120, "d36569284754201a"),
    ("DT", 4, 6, "at-least", 3): (3, 216, "85970f0e0c129eef"),
    ("DC", 4, 8, "find-optimal", None): (4, 156, "12c10d0e346f4051"),
    ("DC", 2, 10, "collect-at", 4): (4, 15, "96a4aa93c205b787"),
    ("DC", 3, 8, "at-least", 3): (3, 56, "372d28780b477f73"),
    ("NC", 3, 8, "find-optimal", None): (4, 16, "a0bc3ba382fa9387"),
    ("NC", 3, 10, "collect-at", 4): (4, 160, "752331ba957adc4b"),
    ("NC", 4, 8, "at-least", 3): (3, 228, "755d3f6d5db810d2"),

    ("DT", 2, 18, "find-optimal", None): (6, 15, "c9bc70b108384fa4"),
    ("DT", 3, 12, "find-optimal", None): (6, 12, "d305691f6fa7f2ed"),
    ("DC", 4, 12, "find-optimal", None): (5, 1278, "670d4165455f606f"),
    ("DT", 3, 14, "find-optimal", None): (6, 42, "446597534de1bf1c"),
    ("DT", 2, 22, "find-optimal", None): (7, 23, "66f898287e4b20dc"),
}


@pytest.mark.parametrize("cell", list(_RECORD_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_ordered_records_match_recorded_digest(cell):
    family, q, n, mode, d = cell
    if family == "DT":
        best, records = search_dt(GF(q), n, mode=mode, d=d)
    else:
        best, records = search_family(GF(q), n, family, mode=mode, d=d)
    text = "\n".join(f"{spec.to_text()} {mw}" for spec, mw in records)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (best, len(records), digest) == _RECORD_DIGESTS[cell]


_C2_CONFIG = {"q": 2, "n": 6, "family": "DT", "reduction": "C2", "mode": "find-optimal",
              "d": None, "partitions": 1}


def _chunks(chunks) -> str:
    return json.dumps({"version": 3, "config": _C2_CONFIG, "chunks": chunks})


def _family_chunks(family: str, q: int, n: int, chunks) -> str:
    config = {"q": q, "n": n, "family": family, "reduction": "none", "mode": "find-optimal",
              "d": None, "partitions": 1}
    return json.dumps({"version": 3, "config": config, "chunks": chunks})


# (family, q, n, accepted chunk, its spec, rejected chunks): numbers that are
# not integers, and a number that carries a sign, as the other family's record did
_CIRCULANT_CHUNKS = [
    ("DC", 2, 8, [4, [7], [4]], "C:(1,1,1,0)", [
        [4, [7.0], [4]],
        [4, [True], [4]],
        [4, [[7, 1]], [4]],
        [4, [[7, -1]], [4]],
    ]),
    ("NC", 3, 4, [3, [7], [3]], "N:(1,2)", [
        [3, ["7"], [3]],
        [3, [7], [3.0]],
        [3, [[7, 1]], [3]],
    ]),
]


def test_checkpoint_version_guard(tmp_path):
    malformed = [
        json.dumps({"version": 99, "config": {}}),
        # a two-phase (version 1) file of the very same configuration
        json.dumps({"version": 1, "config": _C2_CONFIG, "phase1": {"0": 3}, "phase2": {}}),
        # a version 2 file of the very same configuration, its records [t, a, b, mw]
        json.dumps({"version": 2, "config": _C2_CONFIG,
                    "chunks": {"0": [3, [[0, [1, 1], [1, 1], 3]]]}}),
        "[]",
        '{"version": 3, "config": ',
        _chunks([]),
        _chunks({"0": 5}),
        _chunks({"0": [3]}),
        _chunks({"0": [3, []]}),
        _chunks({"0": ["3", [], []]}),
        _chunks({"0": [3, 5, []]}),
        _chunks({"0": [3, [], 5]}),
        _chunks({"0": [3, [9], []]}),
        _chunks({"0": [3, [9, 12], [3]]}),
        _chunks({"0": [3, [[0, [1, 1], [1, 1]]], [3]]}),
        _chunks({"1": [3, [], []]}),
        _chunks({"-1": [3, [], []]}),
        # booleans and non-integers as best or as weight
        _chunks({"0": [True, [], []]}),
        _chunks({"0": [3.0, [], []]}),
        _chunks({"0": [3, [9], [True]]}),
        _chunks({"0": [3, [9], [3.0]]}),
        _chunks({"0": [3, [9], ["3"]]}),
        # numbers that are not integers: booleans, floats, strings
        _chunks({"0": [3, [True], [3]]}),
        _chunks({"0": [3, [9.0], [3]]}),
        _chunks({"0": [3, ["9"], [3]]}),
    ]
    path = tmp_path / "run.json"
    for content in malformed:
        path.write_text(content)
        with pytest.raises(CheckpointError):
            search_dt(GF(2), 6, reduction="C2", checkpoint_path=str(path))
    # the same chunk with an integer number and weight is accepted
    path.write_text(_chunks({"0": [3, [9], [3]]}))
    assert search_dt(GF(2), 6, reduction="C2", checkpoint_path=str(path))[0] == 3
    # numbers and weights of circulant chunks, through search_family
    for family, q, n, good, text, bad in _CIRCULANT_CHUNKS:
        for chunk in bad:
            path.write_text(_family_chunks(family, q, n, {"0": chunk}))
            with pytest.raises(CheckpointError):
                search_family(GF(q), n, family, checkpoint_path=str(path))
        path.write_text(_family_chunks(family, q, n, {"0": good}))
        d, records = search_family(GF(q), n, family, checkpoint_path=str(path))
        assert (d, [(spec.to_text(), mw) for spec, mw in records]) == (good[0], [(text, good[0])])



# search runs with two chunks: (label, search call)
_TWO_CHUNK_RUNS = {
    "DT-C2": lambda path: search_dt(GF(2), 8, partitions=2, checkpoint_path=path),
    "DT-C2-collect-at": lambda path: search_dt(
        GF(2), 8, mode="collect-at", d=4, partitions=2, checkpoint_path=path
    ),
    "DT-C2-at-least": lambda path: search_dt(
        GF(2), 8, mode="at-least", d=3, partitions=2, checkpoint_path=path
    ),
    "DT-C3": lambda path: search_dt(GF(3), 6, partitions=2, checkpoint_path=path),
    "DC": lambda path: search_family(GF(2), 8, "DC", partitions=2, checkpoint_path=path),
    "NC-collect-at": lambda path: search_family(
        GF(3), 8, "NC", mode="collect-at", d=4, partitions=2, checkpoint_path=path
    ),
}


@pytest.mark.parametrize("run", list(_TWO_CHUNK_RUNS))
def test_written_checkpoints_resume_unchanged(tmp_path, monkeypatch, run):
    path = str(tmp_path / "run.json")
    fresh = _TWO_CHUNK_RUNS[run](path)
    written = open(path).read()
    monkeypatch.setattr(search, "_scan_chunk", lambda args: pytest.fail("scanned a done chunk"))
    assert _TWO_CHUNK_RUNS[run](path) == fresh
    assert open(path).read() == written


@pytest.mark.parametrize("kept,probes", [(4, 0), (2, 1), (0, 1)])
def test_probe_floor_runs_only_when_a_chunk_is_left(tmp_path, monkeypatch, kept, probes):
    # resuming a 4-chunk F4 n=10 checkpoint with all its chunks scans
    # nothing and needs no floor; a partial resume or a fresh run probes
    # once, and every run returns and writes the same
    gf, path = GF(4), tmp_path / "run.json"
    fresh = search_dt(gf, 10, partitions=4, checkpoint_path=str(path))
    written = path.read_text()
    state = json.loads(written)
    state["chunks"] = {cid: chunk for cid, chunk in state["chunks"].items() if int(cid) < kept}
    path.write_text(json.dumps(state))
    calls, cuts, checks = [], [], []
    probe, batch, check = search._probe_floor, _batch_min_weight_capped, search.min_weight_at_least
    monkeypatch.setattr(search, "_probe_floor", lambda *args: calls.append(args) or probe(*args))
    monkeypatch.setattr(
        search,
        "_batch_min_weight_capped",
        lambda P, T, q, least: cuts.append(least) or batch(P, T, q, least),
    )
    monkeypatch.setattr(search, "min_weight_at_least", lambda C, d: checks.append(d) or check(C, d))
    assert search_dt(gf, 10, partitions=4, checkpoint_path=str(path)) == fresh
    assert len(calls) == probes
    # uncut kernel calls: one per resumed chunk's check and the probe's one; the probe's
    # exact check is the search's only min_weight_at_least call
    assert cuts.count(0) == kept + probes and len(checks) == probes
    assert path.read_text() == written


def _append(chunk, number, weight):
    chunk[1].append(number)
    chunk[2].append(weight)


# (run, edit of the written chunks, the rule it breaks); the written chunks are
# DT-C2: "0" [4, [35], [4]] and "1" [4, [20, 24], [4, 4]], of 36 numbers each
_TAMPERED_CHUNKS = {
    # number 1, the weight-1 triple 0;(1,0,0);(0,0,0), recorded as the optimum
    "weight-below-best": ("DT-C2", lambda c: c.update({"0": [4, [1], [1]]}),
                          "weight 1 does not fit the chunk best 4"),
    "collect-at-weight": ("DT-C2-collect-at", lambda c: c["1"][2].__setitem__(0, 5),
                          "weight 5 does not fit the chunk best 4"),
    "at-least-weight-below-d": ("DT-C2-at-least", lambda c: c["0"][2].__setitem__(0, 2),
                                "weight 2 does not fit the chunk best 3"),
    "collect-at-best-not-d": ("DT-C2-collect-at", lambda c: c.update({"0": [5, [35], [5]]}),
                              "best 5 is not the target weight 4"),
    "at-least-best-not-d": ("DT-C2-at-least", lambda c: c["1"].__setitem__(0, 2),
                            "best 2 is not the target weight 3"),
    # one past chunk 1's last number
    "outside-range": ("DT-C2", lambda c: _append(c["1"], 36, 4), "outside \\[0, 36\\)"),
    "duplicate": ("DT-C2", lambda c: _append(c["1"], 24, 4), "out of scan order"),
    "out-of-order": ("DT-C2", lambda c: c["1"][1].reverse(), "out of scan order"),
    "mismatched-lengths": ("DT-C2", lambda c: c["1"][2].pop(), "not integer lists of one length"),
    "float-weight": ("DT-C2", lambda c: c["1"][2].__setitem__(0, 4.0),
                     "not integer lists of one length"),
    "boolean-number": ("DT-C2", lambda c: c["0"][1].__setitem__(0, True),
                       "not integer lists of one length"),
    "string-number": ("DT-C2", lambda c: c["0"][1].__setitem__(0, "35"),
                      "not integer lists of one length"),
    # codes recorded at the best but of lower minimum weight: the triple
    # has weight 1, and the first row (1,0,0,0) spans (I | I), of weight 2
    "weight-not-its-code's": (
        "DT-C2", lambda c: c.update({"0": [4, [1], [4]]}),
        "number 1's weight 4 is not 0;\\(1,0,0\\);\\(0,0,0\\)'s minimum weight 1"),
    "circulant-weight-not-its-code's": (
        "DC", lambda c: c.update({"0": [4, [1], [4]]}),
        "number 1's weight 4 is not C:\\(1,0,0,0\\)'s minimum weight 2"),
    "negacirculant-weight-not-its-code's": (
        "NC-collect-at", lambda c: c.update({"0": [4, [1], [4]]}),
        "number 1's weight 4 is not N:\\(1,0,0,0\\)'s minimum weight 2"),
    # a number before chunk 0's first, the first row of index 7 being the last
    "circulant-outside-range": ("DC", lambda c: c["0"][1].insert(0, -1) or c["0"][2].insert(0, 4),
                                "outside \\[0, 8\\)"),
    # the 13th of chunk 1's 17 records, of weight 4, labelled 3: a label the
    # target allows, which only the weight batch, aligned with the records, catches
    "later-record-weight-not-its-code's": (
        "DT-C2-at-least", lambda c: c["1"][2].__setitem__(12, 3),
        "number 24's weight 3 is not 1;\\(0,1,1\\);\\(1,1,0\\)'s minimum weight 4"),
    # a raised best with its attainers emptied, and every chunk emptied: each chunk alone
    # is one a scan could write, but a find-optimal scan keeps an attainer of its best
    "raised-best-without-records": ("DT-C2", lambda c: c.update({"1": [99, [], []]}),
                                    "no checkpoint chunk at the best 99 holds a record"),
    "every-chunk-emptied": ("DT-C2", lambda c: c.update({"0": [4, [], []], "1": [4, [], []]}),
                            "no checkpoint chunk at the best 4 holds a record"),
}


@pytest.mark.parametrize("case", list(_TAMPERED_CHUNKS))
def test_checkpoint_chunk_its_scan_cannot_write_is_rejected(tmp_path, monkeypatch, case):
    run, edit, rule = _TAMPERED_CHUNKS[case]
    path = tmp_path / "run.json"
    _TWO_CHUNK_RUNS[run](str(path))
    data = json.loads(path.read_text())
    edit(data["chunks"])
    path.write_text(json.dumps(data))
    monkeypatch.setattr(search, "_scan_chunk", lambda args: pytest.fail("scanned a chunk"))
    with pytest.raises(CheckpointError, match=rule):
        _TWO_CHUNK_RUNS[run](str(path))


@pytest.mark.parametrize("run", ["DT-C2-at-least", "NC-collect-at"])
def test_resume_checks_each_chunk_in_one_packed_call(tmp_path, monkeypatch, run):
    # 6 + 17 and 8 + 8 records, checked with no minimum_weight call
    path = str(tmp_path / "run.json")
    fresh = _TWO_CHUNK_RUNS[run](path)
    calls = []
    batch = search._batch_min_weight_capped
    monkeypatch.setattr(
        search,
        "_batch_min_weight_capped",
        lambda P, T, q, least: calls.append(P.shape[1]) or batch(P, T, q, least),
    )
    monkeypatch.setattr(search, "minimum_weight", lambda code: pytest.fail("one call per record"))
    monkeypatch.setattr(search, "_scan_chunk", lambda args: pytest.fail("scanned a done chunk"))
    assert _TWO_CHUNK_RUNS[run](path) == fresh
    chunks = json.loads(open(path).read())["chunks"]
    assert calls == [len(chunks[cid][1]) for cid in ("0", "1")]


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unusable_checkpoint_path_is_rejected_before_scanning(tmp_path, monkeypatch, where):
    path = tmp_path / "absent" / "run.json" if where == "missing-dir" else tmp_path
    monkeypatch.setattr(search, "_scan_chunk", lambda args: pytest.fail("scanned a chunk"))
    with pytest.raises(CheckpointError):
        search_dt(GF(2), 6, reduction="C2", checkpoint_path=str(path))


# Chunk jobs for the failure tests below.  They run in worker processes,
# so they are module-level functions configured through the environment:
# the chunk starting at prefix ``fail_lo`` raises ``settle`` seconds after
# ``wait_for`` other chunks have left a file in ``marks``; every other
# chunk sleeps ``sleep`` seconds, scans for real and leaves its file.
_CHUNK_TEST_ENV = "DTCODES_CHUNK_TEST"


def _scan_or_fail(args):
    cfg = json.loads(os.environ[_CHUNK_TEST_ENV])
    lo = args[-2]
    if lo == cfg["fail_lo"]:
        deadline = time.monotonic() + 30
        while len(os.listdir(cfg["marks"])) < cfg["wait_for"] and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(cfg["settle"])
        raise ValueError("injected failure")
    time.sleep(cfg["sleep"])
    result = _scan_chunk(args)
    open(os.path.join(cfg["marks"], str(lo)), "w").close()
    return result


def _chunk_test(monkeypatch, tmp_path, fail_lo, wait_for=0, settle=0.0, sleep=0.0) -> str:
    marks = tmp_path / "marks"
    marks.mkdir()
    cfg = dict(marks=str(marks), fail_lo=fail_lo, wait_for=wait_for, settle=settle, sleep=sleep)
    monkeypatch.setenv(_CHUNK_TEST_ENV, json.dumps(cfg))
    monkeypatch.setattr(search, "_scan_chunk", _scan_or_fail)
    return str(marks)


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_chunk_leaves_the_completed_chunks_checkpointed(tmp_path, monkeypatch, workers):
    gf, n, partitions = GF(2), 10, 8
    reference = search_dt(gf, n, partitions=partitions)
    ranges = _chunk_ranges(2 ** (n // 2), partitions)
    # one worker: the last chunk fails after the others; two workers:
    # chunk 0 fails once the other worker has done the other seven
    failed = partitions - 1 if workers == 1 else 0
    _chunk_test(monkeypatch, tmp_path, ranges[failed][0], wait_for=partitions - 1, settle=0.3)
    path = tmp_path / "run.json"
    with pytest.raises(ValueError, match="injected failure"):
        search_dt(gf, n, partitions=partitions, workers=workers, checkpoint_path=str(path))
    chunks = json.loads(path.read_text())["chunks"]
    assert list(chunks) == [str(cid) for cid in range(partitions) if cid != failed]
    # the resumed run scans the failed chunk only and ends where an
    # uninterrupted run does
    monkeypatch.undo()
    scanned = []
    monkeypatch.setattr(search, "_scan_chunk", lambda args: scanned.append(args[-2:]) or _scan_chunk(args))
    assert search_dt(gf, n, partitions=partitions, checkpoint_path=str(path)) == reference
    assert scanned == [ranges[failed]]


def test_failed_chunk_cancels_the_queued_chunks(tmp_path, monkeypatch):
    # chunk 0 fails at once; each of the 39 others takes 0.1 s
    marks = _chunk_test(monkeypatch, tmp_path, fail_lo=0, sleep=0.1)
    with pytest.raises(ValueError, match="injected failure"):
        search_dt(GF(2), 12, partitions=40, workers=2)
    assert len(os.listdir(marks)) < 10


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_failure_names_its_chunk_and_prefix_range(tmp_path, monkeypatch, workers):
    _chunk_test(monkeypatch, tmp_path, fail_lo=8)
    message = "chunk 2 (prefixes [8, 12)): injected failure"
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        search_dt(GF(2), 8, partitions=4, workers=workers)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (4, 4)])
def test_reduction_soundness_small(q, n):
    assert verify_reduction_soundness(GF(q), n)


def _family_oracle_labels(report) -> list[str]:
    """Each class's label by pairwise tests of its representative
    against every optimal double circulant, then negacirculant, code."""
    gf = GF(report.q)
    pools = []
    for family, build in (("DC", double_circulant_code), ("NC", double_negacirculant_code)):
        d_fam, records = search_family(gf, report.n, family)
        assert d_fam <= report.d_opt
        pools.append((family, [build(s) for s, _ in records] if d_fam == report.d_opt else []))
    labels = []
    for rec in report.records:
        C = double_toeplitz_code(rec.representative)
        assert minimum_weight(C) == report.d_opt
        hits = [family for family, pool in pools if any(are_equivalent(C, D) for D in pool)]
        labels.append(hits[0] if hits else "DT-only")
    return labels


def test_classify_small_binary():
    report = classify(GF(2), 4)
    assert report.d_opt == OPTIMAL_MIN_WEIGHT[2][4]
    assert (report.n_dt, report.n_dc, report.n_nc) == CLASS_COUNTS[2][4]
    # members count the filtered optimal triples that fell in each class
    total_members = sum(r.members for r in report.records)
    _, optimal = search_dt(GF(2), 4)
    assert total_members == len(optimal)
    # a class is "DC" when some optimal double circulant code lies in it,
    # even if its lex-minimal representative is not itself circulant
    assert [r.structure for r in report.records] == _family_oracle_labels(report)


@pytest.mark.parametrize("q,n", [(3, 4), (3, 6), (4, 6)])
def test_classify_labels_match_family_oracle(q, n):
    report = classify(GF(q), n)
    assert (report.n_dt, report.n_dc, report.n_nc) == CLASS_COUNTS[q][n]
    assert [r.structure for r in report.records] == _family_oracle_labels(report)


def _counting_enumeration(monkeypatch) -> list:
    calls = []
    original = equivalence._key_block
    monkeypatch.setattr(equivalence, "_key_block", lambda codes: calls.extend(codes) or original(codes))
    return calls


def _orbit_leaders(gf: GF, n: int, reduction: str = "auto") -> tuple[int, list]:
    """(how many optimal triples, the first of each scalar/twist/swap orbit among them)."""
    _, optimal = search_dt(gf, n, reduction=reduction)
    keys = orbit_keys(gf, [band_sequence(T) for T, _ in optimal]).tolist()
    return len(optimal), [T for i, (T, _) in enumerate(optimal) if keys.index(keys[i]) == i]


def _same_codes(keyed: list, triples: list) -> bool:
    return [C.G.tolist() for C in keyed] == [double_toeplitz_code(T).G.tolist() for T in triples]


def test_classify_enumerates_each_code_once(monkeypatch):
    # the first optimal triple of each orbit is enumerated once, in order;
    # the other members and the DC/NC labels need no code
    gf, n = GF(3), 6
    optimal, leaders = _orbit_leaders(gf, n)
    calls = _counting_enumeration(monkeypatch)
    report = classify(gf, n)
    assert report.n_dc + report.n_nc > 0
    assert (optimal, len(leaders)) == (56, 18)
    assert _same_codes(calls, leaders)
    assert sum(r.members for r in report.records) == optimal


def test_classify_semimonomial_keys_each_orbit_leader_once(monkeypatch):
    # a Frobenius pair test conjugates the representative's source, which needs no keying
    gf, n = GF(4), 8
    optimal, leaders = _orbit_leaders(gf, n)
    calls = _counting_enumeration(monkeypatch)
    report = classify(gf, n, semimonomial=True)
    assert (optimal, len(leaders), len(report.records)) == (1344, 241, 11)
    assert _same_codes(calls, leaders)


def test_classify_pair_tests_all_find_a_map(monkeypatch):
    # the signature separates every inequivalent pair of this cell, so
    # each code that opens no class costs one successful pair test
    results = []
    original = equivalence._search_map

    def counting(x, y, node_cap):
        results.append(original(x, y, node_cap))
        return results[-1]

    monkeypatch.setattr(equivalence, "_search_map", counting)
    report = classify(GF(2), 14)
    assert len(report.records) == 79
    assert len(results) == 795 - 79
    assert all(M is not None for M in results)


def test_reduction_soundness_catches_a_filter_that_drops_a_kept_b(monkeypatch):
    # C2 keeping f(b) < f(a) instead of f(b) <= f(a), so that each prefix
    # loses its last kept b, the one with b = a; at n = 4 that loses
    # every filtered member of a class
    assert verify_reduction_soundness(GF(2), 4)
    kept_b_counts = search._kept_b_counts
    monkeypatch.setattr(
        search, "_kept_b_counts", lambda q, reduction, t, A: kept_b_counts(q, reduction, t, A) - 1
    )
    assert not verify_reduction_soundness(GF(2), 4)


def test_reduction_soundness_checks_semimonomial_before_searching(monkeypatch):
    calls = []
    monkeypatch.setattr(search, "_search", lambda *a, **k: calls.append(a) or pytest.fail("searched"))
    with pytest.raises(ValueError, match="F4 only"):
        verify_reduction_soundness(GF(2), 8, semimonomial=True)
    assert calls == []


def test_reduction_soundness_enumerates_each_code_once(monkeypatch):
    # C2 keeps 3 optimal triples, each alone in its swap orbit; without
    # the filter the 4 optimal triples form 3 swap orbits
    gf, n = GF(2), 8
    filtered, unfiltered = _orbit_leaders(gf, n), _orbit_leaders(gf, n, "none")
    calls = _counting_enumeration(monkeypatch)
    assert verify_reduction_soundness(gf, n)
    assert (filtered[0], len(filtered[1]), unfiltered[0], len(unfiltered[1])) == (3, 3, 4, 3)
    assert _same_codes(calls, filtered[1] + unfiltered[1])


def test_classify_report_serialization():
    report = classify(GF(3), 4)
    blob = report.to_dict()
    assert blob["q"] == 3 and blob["n"] == 4
    assert blob["counts"] == {"dt_only": 0, "dc": 0, "nc": 1}
    rec = blob["classes"][0]
    assert rec["structure"] == "NC"
    assert set(rec) == {
        "q", "n", "d", "class_id", "representative_triple", "members", "structure",
    }


def test_classify_representatives_are_lex_minimal():
    report = classify(GF(2), 6)
    _, optimal = search_dt(GF(2), 6, reduction="none")
    def lex(T: ToeplitzTriple) -> tuple:  # the written-out triple
        return (T.t, *T.a, *T.b)

    best = min(lex(T) for T, _ in optimal)
    assert min(lex(r.representative) for r in report.records) == best


def test_classify_semimonomial_diagnostic_merges_f4_classes():
    # x -> x^2 conjugation folds two of the thirteen monomial classes
    # of the optimal [8, 4] quaternary codes into their conjugates
    plain = classify(GF(4), 8)
    assert (plain.n_dt, plain.n_dc) == (7, 6)
    merged = classify(GF(4), 8, semimonomial=True)
    assert (merged.n_dt, merged.n_dc) == (5, 6)


def _class_groups(cls: np.ndarray) -> list[list[int]]:
    """The ascending rows of each class of a class array, in class order."""
    return [np.flatnonzero(cls == c).tolist() for c in range(cls.max() + 1)]


@pytest.mark.parametrize(
    "q,n,semimonomial",
    [(q, n, False) for q, n in CLASSIFY_SMALL_GRID + ((3, 10), (4, 8))] + [(4, 8, True)],
)
def test_orbit_classes_match_a_dedupe_of_every_code(q, n, semimonomial):
    # the dedupe over every optimal code, which orbit merging replaced, is the oracle
    gf = GF(q)
    triples = [T for T, _ in search_dt(gf, n)[1]]
    codes = [double_toeplitz_code(T) for T in triples]
    every = dedupe_into_classes(codes, semimonomial=semimonomial)
    cls, leaders = search._orbit_classes(
        gf, np.stack([band_sequence(T) for T in triples]), semimonomial
    )
    assert _class_groups(cls) == every
    # each class's leader is its least row
    assert leaders.tolist() == [group[0] for group in every]


@pytest.mark.parametrize("q,n", [(3, 8), (4, 8)])
def test_orbit_classes_number_classes_whose_orbits_interleave(q, n):
    # the optimal band rows shuffled, so that np.unique's key order is not the order of the
    # orbits' leaders, and a class holds several orbits whose rows interleave
    gf = GF(q)
    S = np.stack([band_sequence(T) for T, _ in search_dt(gf, n)[1]])
    S = S[np.random.default_rng(n).permutation(len(S))]
    cls, leaders = search._orbit_classes(gf, S, False)
    every = dedupe_into_classes(LinearCode.systematic(gf, A) for A in toeplitz_windows(S))
    assert _class_groups(cls) == every
    assert leaders.tolist() == [group[0] for group in every]
    keys = orbit_keys(gf, S).tolist()
    spans = {}  # the first and last rows of each orbit
    for i, key in enumerate(keys):
        spans[key] = (spans.get(key, (i,))[0], i)
    assert any(
        spans[keys[i]][0] < spans[keys[j]][0] < spans[keys[i]][1]
        for group in every for i in group for j in group
    )


def test_classify_builds_a_triple_only_for_each_representative(monkeypatch):
    # the 1,344 optimal F4 n=8 triples stay band rows; a triple is built
    # for each of the 13 classes' representatives and for nothing else
    built = []

    class Counted(ToeplitzTriple):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(search, "ToeplitzTriple", Counted)
    report = classify(GF(4), 8)
    assert len(report.records) == len(built) == 13
    assert [r.representative for r in report.records] == built
    assert sum(r.members for r in report.records) == 1344


@pytest.mark.parametrize("q", [3, 4])
def test_orbit_classes_key_in_blocks_as_one_orbit_keys_call(q, monkeypatch):
    # random m = 3 bands past one block of rows: the q^5 sequences fall in few orbits,
    # each with rows on both sides of the block boundary
    gf, rng = GF(q), np.random.default_rng(q)
    S = rng.integers(0, q, (search._ORBIT_BLOCK_ROWS + 300, 5), dtype=np.int8)
    blocks = []
    monkeypatch.setattr(search, "orbit_keys", lambda gf, B: blocks.append(orbit_keys(gf, B)) or blocks[-1])
    cls, leader_rows = search._orbit_classes(gf, S, False)
    assert [len(block) for block in blocks] == [search._ORBIT_BLOCK_ROWS, 300]
    keys = orbit_keys(gf, S).tolist()
    assert np.concatenate(blocks).tolist() == keys
    # the classes of one call's orbits: a dedupe of each orbit's first row, which takes
    # in every row of its orbit
    orbits = {}
    for i, key in enumerate(keys):
        orbits.setdefault(key, []).append(i)
    leaders = [LinearCode.systematic(gf, toeplitz_windows(S[o[0]])) for o in orbits.values()]
    every = [sorted(i for g in group for i in list(orbits.values())[g])
             for group in dedupe_into_classes(leaders)]
    assert _class_groups(cls) == every
    # each class's leader is its least row
    assert leader_rows.tolist() == [group[0] for group in every]


# sha256 of the sorted-key JSON of classify's report per (q, n, semimonomial),
# recorded from the dedupe over every optimal code that orbit merging replaced
_CLASSIFY_REPORT_DIGESTS = {
    (2, 4, False): "97550d5d49de63c28e80198274886d4842777a722e809df01f0113b23f988521",
    (2, 6, False): "5c7033c45a848a974705aea1aa24d4b7a293e7c84e082dddd3dbdb82d7f6b0f9",
    (2, 8, False): "3f608c7adc3bc500684394f424f1bd4af5d1f6d66aac1d155a3373d43c211d28",
    (2, 10, False): "37d26033477dc8b6cbb6c84c3fed07b5dfe4c00ea28e3744d47ca2e391d53583",
    (2, 12, False): "1071ee0523a0d774e4bb82a237bdcbd4e561c0ec91efb9af9d067815380ccc36",
    (2, 14, False): "09fa39db967b5351d6e6e2a7026e39dc5db5a8abcd7d43e36f1045f978012772",
    (2, 16, False): "452ae45b2589674826652b19ca4b5ec1bb000e429f0882d02df4c661a62fd842",
    (2, 18, False): "c76880fd7382b530b2f39610795f740f304ffce2152fce94da31e6a5b29ddca2",
    (3, 4, False): "85d99ef84337418901cbfae05ceb14f8cc0cac8b2624fb41cf42c908b0cdc519",
    (3, 6, False): "4a6e65ef7fbed76d1cbfece16c3ed70a85ec80442d2a4b3aa345db0074577a25",
    (3, 8, False): "67fc294ed2e201a41446479c4246e4abd34692c7c5c6ce22c620b0fbbb270efc",
    (3, 10, False): "a2ad98930fc68a4286a61c7e68a0258f8d977e6b130057b1a3692eefe6a21e45",
    (4, 4, False): "46871eccc0ac2093f064cf4f0927780c65fba076711b623c715292ba94c0611a",
    (4, 6, False): "a13a3958bdf7a19dac33e87fb78b555a6b67cd76030646fcc204f7a7c2b0de6a",
    (4, 8, False): "bc92e12ed768a72aabfecc613f8dfe0803fc89e097dc72046a5836f9d5798d1b",
    (4, 10, False): "187b6f896dd2d96095be1b2be821ac051c8ec7145ae1986fb209a43ee5324eae",
    (4, 8, True): "a1e4a4f735e9adf06aa8b2be383f591bd43d644bccc7fec88266c2c1cc0e0b2d",
    # _CLASSIFY_LARGE_CELLS, recorded before the search's lower cut
    (3, 12, False): "38ddf96aa7d746e82703bfd0226e3d4209a413062937460be1058d196dcd993b",
    (3, 14, False): "9d2be2a644ce8fad41f13eba1d43d5637f0453de300728165f0d94b44079fab2",
    (2, 22, False): "d94638f95e17fb8057a0fdf3d1392ab64fac110ec6c71c0d96e7126b36231450",
}


# cells past CLASSIFY_GRID that the search's lower cut brings under a second each
_CLASSIFY_LARGE_CELLS = ((3, 12), (3, 14), (2, 22))


@pytest.mark.parametrize(
    "q,n,semimonomial",
    [(q, n, False) for q, n in CLASSIFY_GRID + _CLASSIFY_LARGE_CELLS] + [(4, 8, True)],
)
def test_classify_reports_match_recorded_digests(q, n, semimonomial):
    report = classify(GF(q), n, semimonomial=semimonomial).to_dict()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == _CLASSIFY_REPORT_DIGESTS[(q, n, semimonomial)]
