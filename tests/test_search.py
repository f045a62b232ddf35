"""Reduced exhaustive search, checkpointing and classification."""

import itertools
import json
import os
from concurrent.futures import Future

import numpy as np
import pytest

from dtcodes import (
    GF,
    BudgetExceededError,
    CheckpointError,
    LinearCode,
    ToeplitzTriple,
    are_equivalent,
    classify,
    classify_triple,
    double_circulant_code,
    double_negacirculant_code,
    double_toeplitz_code,
    enumerate_triples,
    minimum_weight,
    passes_reduction,
    search_dt,
    search_family,
    triple_of_circulant,
    vector_rank,
    verify_reduction_soundness,
)
from dtcodes import equivalence, search, verify
from dtcodes.reference_data import CLASS_COUNTS, OPTIMAL_MIN_WEIGHT
from dtcodes.search import (
    SearchConfig,
    _batch_min_weight_capped,
    _chunk_ranges,
    _MessageCache,
    _payload_to_triple,
    _scan_chunk,
)
from dtcodes.structured import CirculantSpec


def _naive_dt_scan(gf: GF, n: int):
    """All (triple, min weight) pairs, unfiltered, by direct enumeration."""
    return [(T, minimum_weight(double_toeplitz_code(T))) for T in enumerate_triples(gf, n // 2)]


def _key(T: ToeplitzTriple) -> tuple:
    return (T.t, T.a, T.b)


def test_vector_rank():
    assert vector_rank(()) == 0
    assert vector_rank((1, 0, 0)) == 1
    assert vector_rank((0, 0, 1)) == 4
    assert vector_rank((1, 1, 1)) == 7
    with pytest.raises(ValueError):
        vector_rank((0, 2))


def test_c2_filter_keeps_one_per_swap_pair():
    gf = GF(2)
    for T in enumerate_triples(gf, 3):
        swapped = ToeplitzTriple(gf, T.t, T.b, T.a)
        keep_t = passes_reduction(T, "C2")
        keep_s = passes_reduction(swapped, "C2")
        assert keep_t or keep_s
        # both survive exactly on the diagonal a = b of the swap
        assert (keep_t and keep_s) == (vector_rank(T.a) == vector_rank(T.b))
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
                T = triple_of_circulant(CirculantSpec(gf, r, mu))
                kind = classify_triple(T)
                assert kind != "neither"
                kept = [
                    U
                    for U in _filter_orbit(T)
                    if passes_reduction(U, reduction) and classify_triple(U) == kind
                ]
                assert kept, (q, r, mu)
                assert are_equivalent(double_toeplitz_code(kept[0]), double_toeplitz_code(T))


def test_unknown_reduction_rejected():
    gf = GF(2)
    with pytest.raises(ValueError):
        passes_reduction(ToeplitzTriple(gf, 0, (), ()), "C5")
    with pytest.raises(ValueError):
        search_dt(gf, 4, reduction="C9")


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (4, 4)])
def test_unfiltered_search_matches_naive_enumeration(q, n):
    gf = GF(q)
    naive = _naive_dt_scan(gf, n)
    d_opt = max(mw for _, mw in naive)
    expect = {_key(T) for T, mw in naive if mw == d_opt}
    got_d, records = search_dt(gf, n, reduction="none")
    assert got_d == d_opt
    assert {_key(T) for T, _ in records} == expect
    assert all(mw == d_opt for _, mw in records)


@pytest.mark.parametrize("mode,cmp", [("collect-at", int.__eq__), ("at-least", int.__ge__)])
def test_targeted_modes_match_naive_enumeration(mode, cmp):
    gf = GF(3)
    naive = _naive_dt_scan(gf, 4)
    for d in (1, 2, 3):
        _, records = search_dt(gf, 4, reduction="none", mode=mode, d=d)
        assert {_key(T) for T, _ in records} == {_key(T) for T, mw in naive if cmp(mw, d)}
        assert all(cmp(mw, d) for _, mw in records)
    with pytest.raises(ValueError):
        search_dt(gf, 4, mode="collect-at")
    with pytest.raises(ValueError):
        search_dt(gf, 4, mode="maximize")


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
    chunks = [
        _scan_chunk((q, n, family, reduction, "find-optimal", 1, lo, hi))
        for lo, hi in _chunk_ranges(q ** (n // 2), 300)
    ]
    best = max(b for b, _ in chunks)
    assert best == reference[0] > min(b for b, _ in chunks)
    merged = [_payload_to_triple(gf, p, family) for b, ps in chunks if b == best for p in ps]
    assert merged == reference[1]


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
        (r, minimum_weight(double_toeplitz_code(triple_of_circulant(CirculantSpec(gf, r, -1)))))
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


def test_triple_budget():
    gf = GF(2)
    with pytest.raises(BudgetExceededError):
        search_dt(gf, 12, triple_budget=100)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_capped_batch_matches_minimum_weight(q):
    gf = GF(q)
    rng = np.random.default_rng(q)
    for m in range(2, 6):
        cache = _MessageCache(q, m)
        A = rng.integers(0, q, size=(12, m, m), dtype=np.int8)
        exact = [minimum_weight(LinearCode.systematic(gf, Ai)) for Ai in A]
        for T in range(1, m + 2):
            got = _batch_min_weight_capped(gf, A, T, cache)
            assert got.tolist() == [min(d, T) for d in exact], (m, T)


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
    assert data["version"] == 2
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


# search_dt(GF(2), 6, reduction="C2", partitions=2) with both chunks done
_RECORDED_CHECKPOINT = {
    "version": 2,
    "config": {"q": 2, "n": 6, "family": "DT", "reduction": "C2", "mode": "find-optimal",
               "d": None, "partitions": 2},
    "chunks": {
        "0": [3, [[0, [1, 1], [1, 1], 3]]],
        "1": [3, [[1, [1, 0], [1, 0], 3], [1, [0, 1], [1, 0], 3], [1, [1, 1], [0, 1], 3]]],
    },
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


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"version": 99, "config": {}}))
    with pytest.raises(CheckpointError):
        search_dt(GF(2), 6, reduction="C2", checkpoint_path=str(path))
    # a two-phase (version 1) file of the very same configuration
    config = SearchConfig(2, 6, "DT", "C2", "find-optimal", None, 1).to_dict()
    path.write_text(json.dumps({"version": 1, "config": config, "phase1": {"0": 3}, "phase2": {}}))
    with pytest.raises(CheckpointError):
        search_dt(GF(2), 6, reduction="C2", checkpoint_path=str(path))


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
    original = equivalence._codewords_by_weight
    monkeypatch.setattr(equivalence, "_codewords_by_weight", lambda C: calls.append(C) or original(C))
    return calls


def test_classify_enumerates_each_code_once(monkeypatch):
    # every optimal triple is enumerated once, and the DC/NC labels
    # need no other code
    gf, n = GF(3), 6
    _, optimal = search_dt(gf, n)
    calls = _counting_enumeration(monkeypatch)
    report = classify(gf, n)
    assert report.n_dc + report.n_nc > 0
    assert len(calls) == len(optimal)


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


def test_reduction_soundness_checks_semimonomial_before_searching(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "search_dt", lambda *a, **k: calls.append(a) or pytest.fail("searched"))
    with pytest.raises(ValueError, match="F4 only"):
        verify_reduction_soundness(GF(2), 8, semimonomial=True)
    assert calls == []


def test_reduction_soundness_enumerates_each_code_once(monkeypatch):
    gf, n = GF(2), 8
    expected = len(search_dt(gf, n)[1]) + len(search_dt(gf, n, reduction="none")[1])
    calls = _counting_enumeration(monkeypatch)
    assert verify_reduction_soundness(gf, n)
    assert len(calls) == expected


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
    best = min(T.lex_key() for T, _ in optimal)
    assert min(r.representative.lex_key() for r in report.records) == best


def test_classify_semimonomial_diagnostic_merges_f4_classes():
    # x -> x^2 conjugation folds two of the thirteen monomial classes
    # of the optimal [8, 4] quaternary codes into their conjugates
    plain = classify(GF(4), 8)
    assert (plain.n_dt, plain.n_dc) == (7, 6)
    merged = classify(GF(4), 8, semimonomial=True)
    assert (merged.n_dt, merged.n_dc) == (5, 6)
