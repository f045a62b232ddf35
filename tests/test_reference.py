"""Internal consistency of the recorded reference tables.

The heavy end-to-end recomputations live in the acceptance module;
these tests keep the tables themselves honest: every literal parses,
row counts agree with the recorded class counts, and a cheap sample of
claimed minimum weights is recomputed exactly.
"""

import pytest

from dtcodes import GF, minimum_weight, parse_triple, parse_vector
from dtcodes.reference_data import (
    CLASS_COUNTS,
    CLASSIFY_GRID,
    CLASSIFY_SMALL_GRID,
    DC_CLASS_ROWS,
    DT_CLASS_TRIPLES,
    GUARANTEED_LENGTH,
    MIN_WEIGHT_WITNESSES,
    NC_CLASS_ROWS,
    OPTIMAL_MIN_WEIGHT,
    build_code,
    iter_weight_checks,
)
from dtcodes.structured import _circulant_flags, band_sequence


def test_threshold_table_shape():
    assert sorted(GUARANTEED_LENGTH) == [2, 3, 4]
    total = 0
    for q, table in GUARANTEED_LENGTH.items():
        assert sorted(table) == list(range(5, 51))
        values = [table[d] for d in sorted(table)]
        assert all(n % 2 == 0 for n in values)
        # a longer guarantee never needs a shorter code
        assert values == sorted(values)
        total += len(values)
    assert total == 138
    assert GUARANTEED_LENGTH[2][5] == 30
    assert GUARANTEED_LENGTH[4][10] == 42
    assert GUARANTEED_LENGTH[2][50] == 434


def test_optimal_weight_and_class_count_keys_align():
    for q, counts in CLASS_COUNTS.items():
        for n in counts:
            assert n % 2 == 0
            assert n in OPTIMAL_MIN_WEIGHT[q], (q, n)
    assert OPTIMAL_MIN_WEIGHT[2][14] == 4
    assert OPTIMAL_MIN_WEIGHT[3][12] == 6
    assert OPTIMAL_MIN_WEIGHT[4][8] == 4
    # verify-tables runs a part of the acceptance grid, on recorded cells
    assert set(CLASSIFY_SMALL_GRID) < set(CLASSIFY_GRID)
    for q, n in CLASSIFY_GRID + CLASSIFY_SMALL_GRID:
        assert n in OPTIMAL_MIN_WEIGHT[q] and n in CLASS_COUNTS[q], (q, n)


def test_class_row_counts_match_recorded_counts():
    for tables, idx in ((DT_CLASS_TRIPLES, 0), (DC_CLASS_ROWS, 1), (NC_CLASS_ROWS, 2)):
        for q, per_n in tables.items():
            for n, rows in per_n.items():
                assert len(rows) == CLASS_COUNTS[q][n][idx], (q, n)
                assert len(set(rows)) == len(rows), (q, n)


def test_circulant_rows_parse_to_the_right_length():
    for tables in (DC_CLASS_ROWS, NC_CLASS_ROWS):
        for q, per_n in tables.items():
            gf = GF(q)
            for n, rows in per_n.items():
                for text in rows:
                    assert parse_vector(gf, text).shape == (n // 2,), (q, n, text)


def test_listed_triples_are_strictly_toeplitz():
    # a listed triple that were itself (nega)circulant would sit in the
    # wrong column of the counts
    for q, per_n in DT_CLASS_TRIPLES.items():
        gf = GF(q)
        for n, rows in per_n.items():
            for text in rows:
                T = parse_triple(gf, text)
                assert T.n == n, (q, n, text)
                circ, nega = _circulant_flags(gf, band_sequence(T))
                assert not circ and not nega, (q, n, text)


def test_negacirculant_rows_only_for_f3():
    # negacirculant coincides with circulant over F2 and F4
    assert sorted(NC_CLASS_ROWS) == [3]
    for q, counts in CLASS_COUNTS.items():
        if q != 3:
            assert all(c[2] == 0 for c in counts.values())


def test_witness_entries_are_well_formed():
    assert len(MIN_WEIGHT_WITNESSES) > 100
    for q, n, d, spec in MIN_WEIGHT_WITNESSES:
        assert q in (2, 3, 4) and n % 2 == 0 and d >= 5
        C = build_code(q, spec)
        assert (C.n, C.k) == (n, n // 2), (q, n, spec)


def test_weight_check_stream_is_deduplicated():
    checks = list(iter_weight_checks())
    assert len(checks) == len(set(checks))
    assert len(checks) > 400
    # class tables contribute rows claiming the recorded optimum
    assert any(q == 2 and n == 12 and d == 4 for q, n, d, _ in checks)


def test_build_code_dispatch():
    assert build_code(2, "C:(1,1,0)").n == 6
    assert build_code(3, "N:(1,2)").n == 4
    assert build_code(4, "1;(w,0);(v,1)").n == 6
    with pytest.raises(ValueError):
        build_code(2, "Q:(1)")


@pytest.mark.parametrize(
    "q,n,d,spec",
    [
        (3, 12, 6, "N:(1,2,1,1,1,0)"),
        (2, 26, 7, None),
        (2, 32, 8, None),
        (3, 22, 8, None),
        (4, 10, 5, None),
    ],
)
def test_spot_minimum_weights(q, n, d, spec):
    if spec is None:
        spec = DT_CLASS_TRIPLES[q][n][0]
    assert minimum_weight(build_code(q, spec)) == d
