"""Monomial equivalence testing: maps, signatures, deduplication."""

import gc
import itertools
import random
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from dtcodes import (
    GF,
    LinearCode,
    MonomialMap,
    ToeplitzTriple,
    UndecidedError,
    apply_monomial,
    are_equivalent,
    dedupe_into_classes,
    double_toeplitz_code,
    enumerate_triples,
    equivalence,
    find_monomial_map,
    frobenius_image,
    linear,
    search_dt,
    signature,
    weight_enumerator,
)
from dtcodes.gf import gf_matmul
from dtcodes.linear import _BLOCK_ROWS, _check_budget, _index_digits


def _codeword_set(C: LinearCode) -> frozenset:
    msgs = itertools.product(range(C.gf.q), repeat=C.k)
    return frozenset(tuple(int(x) for x in C.encode(m)) for m in msgs)


def _random_map(rng: random.Random, q: int, n: int) -> MonomialMap:
    perm = list(range(n))
    rng.shuffle(perm)
    return MonomialMap(tuple(perm), tuple(rng.randrange(1, q) for _ in range(n)))


def _random_code(rng: random.Random, gf: GF, n: int, k: int) -> LinearCode:
    A = [[rng.randrange(gf.q) for _ in range(n - k)] for _ in range(k)]
    G = np.hstack([np.eye(k, dtype=np.int8), np.array(A, dtype=np.int8)])
    return LinearCode(gf, G)


def test_monomial_map_validation():
    with pytest.raises(ValueError):
        MonomialMap((0, 0), (1, 1))
    with pytest.raises(ValueError):
        MonomialMap((1, 0), (1,))
    with pytest.raises(ValueError):
        MonomialMap((1, 0), (1, 0))


def test_apply_monomial_hand_example():
    gf = GF(3)
    C = LinearCode(gf, [[1, 2, 0]])
    # send column 0 -> 2 scaled by 2, column 1 -> 0 scaled by 1, 2 -> 1
    M = MonomialMap((2, 0, 1), (2, 1, 1))
    assert apply_monomial(C, M).G.tolist() == [[2, 0, 2]]
    with pytest.raises(ValueError):
        apply_monomial(C, MonomialMap((0, 1), (1, 1)))


def test_monomial_images_are_equivalent():
    rng = random.Random(5)
    for q in (2, 3, 4):
        gf = GF(q)
        for _ in range(10):
            n = rng.choice((4, 6, 8))
            C = _random_code(rng, gf, n, n // 2)
            M = _random_map(rng, q, n)
            D = apply_monomial(C, M)
            assert signature(C) == signature(D)
            found = find_monomial_map(C, D)
            assert found is not None
            assert _codeword_set(apply_monomial(C, found)) == _codeword_set(D)


def test_equivalence_is_reflexive_and_symmetric():
    rng = random.Random(11)
    for q in (2, 3, 4):
        gf = GF(q)
        C = _random_code(rng, gf, 8, 4)
        D = apply_monomial(C, _random_map(rng, q, 8))
        assert are_equivalent(C, C)
        assert are_equivalent(C, D) and are_equivalent(D, C)


def test_inequivalent_codes_detected():
    gf = GF(2)
    C1 = LinearCode(gf, [[1, 0, 1, 1], [0, 1, 1, 0]])
    C2 = LinearCode(gf, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert weight_enumerator(C1) != weight_enumerator(C2)
    assert find_monomial_map(C1, C2) is None
    assert not are_equivalent(C1, C2)


def test_same_enumerator_but_inequivalent():
    # two [6, 3] binary codes sharing W but with different column
    # profiles among their weight-2 words
    gf = GF(2)
    C1 = LinearCode(gf, [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]])
    C2 = LinearCode(gf, [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 1, 0], [0, 0, 1, 0, 0, 1]])
    if weight_enumerator(C1) == weight_enumerator(C2):
        assert not are_equivalent(C1, C2)


def test_shape_mismatch_rejected():
    gf = GF(2)
    C1 = LinearCode(gf, [[1, 0]])
    C2 = LinearCode(gf, [[1, 0, 0]])
    with pytest.raises(ValueError):
        find_monomial_map(C1, C2)


def _random_full_rank_code(rng: random.Random, gf: GF, n: int, k: int) -> LinearCode:
    """A code from a random k x n generator matrix, systematic or not."""
    while True:
        G = [[rng.randrange(gf.q) for _ in range(n)] for _ in range(k)]
        try:
            return LinearCode(gf, G)
        except ValueError:  # dependent rows
            continue


@pytest.mark.parametrize("q", [2, 3, 4])
def test_weight_layers_are_closed_under_scalars(q):
    # the fact that lets the search drop value counts and fix the first
    # column's scale: checked here codeword by codeword
    rng = random.Random(59 + q)
    gf = GF(q)
    codes = [double_toeplitz_code(T) for T in rng.sample(list(enumerate_triples(gf, 3)), 6)]
    for _ in range(6):
        n = rng.choice((4, 6, 8))
        k = rng.randrange(1, min(n, 8 // q + 3))
        codes.append(_random_code(rng, gf, n, k))
        codes.append(_random_full_rank_code(rng, gf, n, k))
    for C in codes:
        B, perm = C.systematic_right_block()
        # back to the code's own column order
        enumerated = np.vstack(list(linear._codeword_blocks(gf, B)))[:, np.argsort(perm)]
        weights = np.count_nonzero(enumerated, axis=1)
        for w in range(1, C.n + 1):
            layer = enumerated[weights == w]
            words = {tuple(int(x) for x in row) for row in layer}
            assert len(words) == len(layer)
            for s in range(1, q):
                assert {tuple(gf.mul(s, x) for x in word) for word in words} == words
            for j in range(C.n):
                column = [word[j] for word in words]
                nz = sum(x != 0 for x in column)
                assert nz % (q - 1) == 0
                for v in range(1, q):
                    assert column.count(v) == nz // (q - 1), (w, j, v)


# (q, source triple, image triple or a map applied to the source, the
# map find_monomial_map returns)
_GOLDEN_MAPS = [
    (3, (0, (1, 1, 1), (1, 1, 1)), (0, (1, 1, 1), (2, 2, 1)), None,
     ((2, 3, 6, 0, 1, 4, 5, 7), (1, 1, 1, 2, 1, 2, 2, 1))),
    (4, (1, (2, 1), (1, 2)), (1, (3, 1), (1, 3)), None,
     ((0, 1, 2, 3, 5, 4), (1, 1, 3, 1, 3, 3))),
    (3, (1, (0, 1, 1), (1, 1, 0)), None,
     ((3, 0, 5, 2, 7, 4, 1, 6), (2, 1, 2, 1, 2, 1, 2, 1)),
     ((3, 5, 2, 0, 1, 4, 6, 7), (1, 1, 2, 2, 1, 2, 2, 1))),
    (4, (1, (0, 3, 1), (1, 1, 2)), None,
     ((3, 0, 5, 2, 7, 4, 1, 6), (2, 1, 3, 2, 1, 3, 2, 1)),
     ((5, 0, 3, 1, 6, 4, 2, 7), (2, 1, 3, 2, 3, 3, 2, 2))),
]


@pytest.mark.parametrize("q,source,image,applied,expected", _GOLDEN_MAPS)
def test_find_monomial_map_golden(q, source, image, applied, expected):
    gf = GF(q)
    C = double_toeplitz_code(ToeplitzTriple(gf, *source))
    if image is None:
        D = apply_monomial(C, MonomialMap(*applied))
    else:
        D = double_toeplitz_code(ToeplitzTriple(gf, *image))
    M = find_monomial_map(C, D)
    assert (M.perm, M.scales) == expected
    assert _codeword_set(apply_monomial(C, M)) == _codeword_set(D)


def test_search_node_count_without_a_map(monkeypatch):
    # Frobenius conjugates with equal signatures and no monomial map; the
    # search fixes the first column's scale, so it decides in 109 nodes
    gf = GF(4)
    C1 = double_toeplitz_code(ToeplitzTriple(gf, 0, (1, 1, 1), (1, 1, 2)))
    C2 = double_toeplitz_code(ToeplitzTriple(gf, 0, (1, 1, 1), (1, 1, 3)))
    assert signature(C1) == signature(C2)
    monkeypatch.setattr(equivalence, "DEFAULT_NODE_CAP", 109)
    assert find_monomial_map(C1, C2) is None
    monkeypatch.setattr(equivalence, "DEFAULT_NODE_CAP", 108)
    with pytest.raises(UndecidedError):
        find_monomial_map(C1, C2)


def test_signature_invariance():
    rng = random.Random(23)
    for q in (2, 3, 4):
        gf = GF(q)
        for _ in range(8):
            n = rng.choice((6, 8))
            for C in (_random_code(rng, gf, n, n // 2), _random_full_rank_code(rng, gf, n, n // 2)):
                M = _random_map(rng, q, n)
                assert signature(apply_monomial(C, M)) == signature(C)
                # the scalings alone
                scaled = MonomialMap(tuple(range(n)), M.scales)
                assert signature(apply_monomial(C, scaled)) == signature(C)
                if q == 4:
                    assert signature(frobenius_image(C)) == signature(C)


def test_frobenius_image():
    gf = GF(4)
    C = LinearCode(gf, [[1, 2, 3, 0]])
    F = frobenius_image(C)
    assert F.G.tolist() == [[1, 3, 2, 0]]
    assert frobenius_image(F).G.tolist() == C.G.tolist()
    with pytest.raises(ValueError):
        frobenius_image(LinearCode(GF(2), [[1, 0]]))


def test_semimonomial_switch():
    gf = GF(4)
    rng = random.Random(31)
    for _ in range(5):
        C = _random_code(rng, gf, 8, 4)
        # x -> x^2 composed with itself is the identity, so the pair
        # (C, Frobenius(C)) is always semimonomially equivalent
        assert are_equivalent(C, frobenius_image(C), semimonomial=True)
    C1 = LinearCode(GF(3), [[1, 0, 1, 1], [0, 1, 2, 0]])
    C2 = LinearCode(GF(3), [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(ValueError):
        are_equivalent(C1, C2, semimonomial=True)
    # the field is checked before any pair test, so an equivalent pair
    # or a single code raises as well
    with pytest.raises(ValueError):
        are_equivalent(C1, C1, semimonomial=True)
    with pytest.raises(ValueError):
        dedupe_into_classes([C1], semimonomial=True)


def test_node_cap_raises_undecided(monkeypatch):
    gf = GF(2)
    T = ToeplitzTriple(gf, 1, (1, 0, 1), (0, 1, 1))
    C = double_toeplitz_code(T)
    monkeypatch.setattr(equivalence, "DEFAULT_NODE_CAP", 0)
    with pytest.raises(UndecidedError):
        are_equivalent(C, C)


def test_dedupe_names_the_undecided_pair(monkeypatch):
    gf = GF(2)
    C = double_toeplitz_code(ToeplitzTriple(gf, 1, (0,), (1,)))
    D = apply_monomial(C, MonomialMap((1, 0, 3, 2), (1, 1, 1, 1)))
    E = LinearCode(gf, [[1, 0, 0, 0], [0, 1, 0, 0]])
    # E opens class 1 without a pair test; D is tested against class 0
    monkeypatch.setattr(equivalence, "DEFAULT_NODE_CAP", 0)
    with pytest.raises(UndecidedError, match="^code 2 against class 0: .*node budget of 0") as info:
        dedupe_into_classes([C, E, D])
    assert isinstance(info.value.__cause__, UndecidedError)


def test_dedupe_peak_memory_stays_small():
    # the keyer's blocks are bounded, and only the representatives'
    # records outlive their block
    codes = [double_toeplitz_code(T) for T, _ in search_dt(GF(4), 8)[1]]
    assert len(codes) == 1344
    tracemalloc.start()
    try:
        groups = dedupe_into_classes(codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(groups) == 13
    assert peak < 2 * 2**20


def test_representatives_hold_only_what_the_pair_search_reads(monkeypatch):
    # the bytes a dedupe of the 795 optimal F2 n=14 codes still holds when its last code
    # is keyed, per class: the 79 representatives' records, their buckets and the groups
    codes = [double_toeplitz_code(T) for T, _ in search_dt(GF(2), 14)[1]]
    dedupe_into_classes(codes[:40])  # the cached message tables
    held = []
    keyed = equivalence._keyed_codes

    def measured(codes):
        yield from keyed(codes)
        gc.collect()  # a full collection also empties the interpreter's free lists
        held.append(tracemalloc.get_traced_memory()[0])

    monkeypatch.setattr(equivalence, "_keyed_codes", measured)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        groups = dedupe_into_classes(codes)
    finally:
        tracemalloc.stop()
    assert len(groups) == 79
    # about 10,760 bytes a class when each representative kept its whole record, and
    # 2,540 with only its pair-search source and co-occurrence rows shared by value
    assert (held[0] - before) / len(groups) < 3000


def test_pair_searches_leave_no_reference_cycle():
    # a dedupe's records, pair searches and maps die by reference counting alone
    codes = [double_toeplitz_code(T) for T, _ in search_dt(GF(4), 8)[1][:60]]
    for semimonomial in (False, True):
        gc.disable()
        try:
            gc.collect()
            assert len(dedupe_into_classes(codes, semimonomial=semimonomial)) < 60
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_dedupe_partitions_consistently():
    gf = GF(2)
    codes = [double_toeplitz_code(T) for T in enumerate_triples(gf, 2)]
    groups = dedupe_into_classes(codes)
    flat = sorted(i for g in groups for i in g)
    assert flat == list(range(len(codes)))
    for g in groups:
        for i in g[1:]:
            assert are_equivalent(codes[g[0]], codes[i])
    reps = [g[0] for g in groups]
    for i, j in itertools.combinations(reps, 2):
        assert not are_equivalent(codes[i], codes[j])


def test_dedupe_groups_keep_first_seen_order():
    gf = GF(2)
    C = double_toeplitz_code(ToeplitzTriple(gf, 1, (0,), (1,)))
    D = apply_monomial(C, MonomialMap((1, 0, 3, 2), (1, 1, 1, 1)))
    E = LinearCode(gf, [[1, 0, 0, 0], [0, 1, 0, 0]])
    groups = dedupe_into_classes([C, E, D])
    assert groups == [[0, 2], [1]]


def test_signature_enumerator_matches_weight_enumerator():
    # the enumerator inside the signature is read off the weight layers;
    # weight_enumerator counts weights independently
    rng = random.Random(41)
    for q in (2, 3, 4):
        gf = GF(q)
        for _ in range(10):
            n = rng.choice((4, 6, 8, 10))
            C = _random_code(rng, gf, n, rng.randrange(1, n))
            for code in (C, apply_monomial(C, _random_map(rng, q, n))):
                assert signature(code)[2] == weight_enumerator(code).coeffs


def test_each_code_is_enumerated_once(monkeypatch):
    calls = []
    original = equivalence._key_block

    def counting(codes):
        calls.extend(codes)
        return original(codes)

    monkeypatch.setattr(equivalence, "_key_block", counting)
    codes = [double_toeplitz_code(T) for T in enumerate_triples(GF(2), 3)]
    groups = dedupe_into_classes(codes)
    assert 1 < len(groups) < len(codes)
    assert len(calls) == len(codes)
    C = codes[5]
    D = apply_monomial(C, _random_map(random.Random(3), 2, C.n))
    calls.clear()
    assert find_monomial_map(C, D) is not None
    assert len(calls) == 2


def _pairwise_partition(codes, semimonomial):
    classes = []
    for i, C in enumerate(codes):
        for group in classes:
            D = codes[group[0]]
            if (D.gf.q, D.n, D.k) != (C.gf.q, C.n, C.k):
                continue
            if are_equivalent(D, C, semimonomial=semimonomial):
                group.append(i)
                break
        else:
            classes.append([i])
    return classes


@pytest.mark.parametrize("q,m,semimonomial", [(3, 3, False), (4, 2, False), (4, 2, True)])
def test_dedupe_matches_pairwise_partition(q, m, semimonomial):
    codes = [double_toeplitz_code(T) for T in enumerate_triples(GF(q), m)]
    groups = dedupe_into_classes(codes, semimonomial=semimonomial)
    assert len(groups) > 1
    assert groups == _pairwise_partition(codes, semimonomial)


# ---------------------------------------------------------------------
# The per-code keyer that the batched ``equivalence._key_block``
# replaced, copied verbatim with the codeword enumeration it read, as
# the oracle for the batched records.

def _codeword_blocks(C: LinearCode):
    """All q^k codewords of the systematic form (I_k | B), with their weights,
    as blocks of (words, weights) in odometer message order, digit 0
    fastest (budget-guarded)."""
    _check_budget(C.gf.q, C.k)
    B, _ = C.systematic_right_block()
    total = C.gf.q**C.k
    for start in range(0, total, _BLOCK_ROWS):
        idx = np.arange(start, min(start + _BLOCK_ROWS, total), dtype=np.int64)
        msgs = _index_digits(idx, C.gf.q, C.k)
        words = np.hstack([msgs, gf_matmul(C.gf, msgs, B)])
        yield words, np.count_nonzero(words, axis=1)


def _codewords_by_weight(C: LinearCode) -> dict[int, np.ndarray]:
    """All nonzero codewords grouped by weight (budget-guarded)."""
    inv = np.argsort(C.systematic_right_block()[1])
    groups: dict[int, list[np.ndarray]] = {}
    for words, wts in _codeword_blocks(C):
        words = words[:, inv]  # back to the code's own column order
        for w in np.unique(wts[wts > 0]):
            groups.setdefault(int(w), []).append(words[wts == w])
    return {w: np.vstack(parts) for w, parts in sorted(groups.items())}


class _Keyed(NamedTuple):
    """A code, its signature and its anchor words (module docstring, step 1)."""

    code: LinearCode
    sig: tuple
    anchors: np.ndarray  # one anchor word per row
    masks: list[list[int]]  # masks[p][v]: bits of the anchors with value v in column p
    cooccurrence: list[tuple[int, ...]]  # per column, over the anchors


def _cooccurrence_rows(words: np.ndarray) -> list[tuple[int, ...]]:
    """Row j, sorted: how many of ``words`` are nonzero in column j and in each column."""
    S = np.asarray(words != 0, dtype=np.int64)
    return [tuple(sorted(row)) for row in (S.T @ S).tolist()]


def _keyed(C: LinearCode) -> _Keyed:
    layers = _codewords_by_weight(C)
    coeffs = [1] + [len(layers.get(w, ())) for w in range(1, C.n + 1)]
    # the anchors: the layers up to the first that completes the nonzero columns and
    # brings the anchors to n words, or all layers when the code has fewer words
    nonzero_cols = np.asarray(C.G != 0).any(axis=0)
    touched = np.logical_or.accumulate([(L != 0).any(axis=0) for L in layers.values()])
    held = np.cumsum([len(L) for L in layers.values()])
    enough = [np.array_equal(cols, nonzero_cols) and h >= C.n for cols, h in zip(touched, held)]
    stop = enough.index(True) if any(enough) else len(layers) - 1
    W = np.vstack(list(layers.values())[: stop + 1])
    bits = np.packbits(W.T[:, None] == np.arange(C.gf.q)[:, None], axis=-1, bitorder="little")
    masks = [[int.from_bytes(b.tobytes(), "little") for b in row] for row in bits]
    cooccurrence = _cooccurrence_rows(W)
    sig = (C.n, C.k, tuple(coeffs), tuple(sorted(cooccurrence)))
    return _Keyed(C, sig, W, masks, cooccurrence)


def _anchors(record) -> np.ndarray:
    """A batched record's anchor words, one a row, decoded from its source's anchor columns."""
    source = record.source
    return np.frombuffer(source.columns, dtype=np.int8).reshape(source.code.n, source.count).T


def _assert_matches_oracle(record, x: _Keyed) -> None:
    """The batched record of a code equals the oracle's record x, and so
    do the pair-search inputs that the oracle's search derived from x."""
    C = x.code
    source = record.source
    assert source.code is C
    assert record.sig == x.sig
    anchors = _anchors(record)
    assert anchors.dtype == x.anchors.dtype
    assert np.array_equal(anchors, x.anchors)  # rows in order
    assert record.masks == x.masks
    assert source.cooccurrence == x.cooccurrence
    n = C.n
    zero = [j for j in range(n) if not C.G[:, j].any()]
    nonzero = np.count_nonzero(x.anchors, axis=0)
    cols = sorted((j for j in range(n) if j not in zero), key=lambda j: (-nonzero[j], j))
    assert source.zero == zero
    assert source.order == cols
    assert source.count == len(x.anchors)
    N = source.count
    assert [list(source.columns[j * N : (j + 1) * N]) for j in range(n)] == x.anchors.T.tolist()
    for j in cols:
        targets = [p for p in range(n) if p not in zero and x.cooccurrence[p] == x.cooccurrence[j]]
        assert record.by_row[x.cooccurrence[j]] == targets
    # columns of one row share its tuple, the key of by_row
    assert all(source.cooccurrence[p] is row for row, ps in record.by_row.items() for p in ps)
    # the zero columns share the all-zero row, which no nonzero column has
    assert sorted(p for ps in record.by_row.values() for p in ps) == list(range(n))
    if zero:
        assert record.by_row[(0,) * n] == zero


def _with_zero_columns(rng: random.Random, C: LinearCode, count: int) -> LinearCode:
    G = C.G.tolist()
    for _ in range(count):
        at = rng.randrange(len(G[0]) + 1)
        for row in G:
            row.insert(at, 0)
    return LinearCode(C.gf, G)


def _differential_codes(rng: random.Random, gf: GF, n: int, k: int, count: int) -> list:
    """Random [n, k] codes: systematic, non-systematic, and with zero columns."""
    codes = []
    while len(codes) < count:
        codes.append(_random_code(rng, gf, n, k))
        codes.append(_random_full_rank_code(rng, gf, n, k))
        zeros = rng.randrange(1, 3)
        codes.append(_with_zero_columns(rng, _random_full_rank_code(rng, gf, n - zeros, k), zeros))
    return codes[:count]


def _splits(items: list):
    """Every split of a list into consecutive nonempty blocks."""
    for cuts in itertools.product((False, True), repeat=len(items) - 1):
        blocks, block = [], [items[0]]
        for item, cut in zip(items[1:], cuts):
            if cut:
                blocks.append(block)
                block = []
            block.append(item)
        yield blocks + [block]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_anchors_are_the_fewest_lightest_layers_touching_every_column_with_n_words(q):
    # read off each code's codeword set, not the copied keyer below
    rng = random.Random(97 + q)
    gf = GF(q)
    shapes = [(4, 1), (6, 2), (6, 3), (8, 4)]
    codes = [C for n, k in shapes for C in _differential_codes(rng, gf, n, k, 6)]
    # optimal codes; at F2 n=14 their 4-9 minimum-weight words are fewer than n
    codes += [double_toeplitz_code(T) for T, _ in search_dt(gf, {2: 14, 3: 8, 4: 8}[q])[1][:12]]
    for C, record in zip(codes, equivalence._keyed_codes(codes)):
        words = np.array(sorted(_codeword_set(C) - {(0,) * C.n}))
        weights = np.count_nonzero(words, axis=1)

        def sufficient(W) -> bool:  # touches every nonzero column; n words or the whole code
            touches = np.array_equal(W.any(axis=0), C.G.any(axis=0))
            return touches and (len(W) >= C.n or len(W) == len(words))

        anchors = _anchors(record)
        top = np.count_nonzero(anchors, axis=1).max()
        assert sorted(anchors.tolist()) == words[weights <= top].tolist()
        assert sufficient(anchors)
        assert not sufficient(words[weights < top])  # without its heaviest layer


@pytest.mark.parametrize("q", [2, 3, 4])
def test_batched_keyer_matches_the_per_code_oracle(q):
    rng = random.Random(71 + q)
    gf = GF(q)
    shapes = [(4, 1), (6, 2), (6, 3), (8, 8 // q + 1)]
    for n, k in shapes:
        codes = _differential_codes(rng, gf, n, k, 6)
        oracle = [_keyed(C) for C in codes]
        for blocks in _splits(codes):
            records = [r for block in blocks for r in equivalence._key_block(block)]
            assert len(records) == len(codes)
            for record, x in zip(records, oracle):
                _assert_matches_oracle(record, x)
    # the optimal codes of a small cell
    for T, _ in search_dt(gf, 6)[1]:
        C = double_toeplitz_code(T)
        _assert_matches_oracle(equivalence._key_block([C])[0], _keyed(C))
    # codes of more than _BLOCK_ROWS codewords, keyed one a block and
    # enumerated in slices
    k = next(k for k in itertools.count(1) if q**k > _BLOCK_ROWS)
    codes = _differential_codes(rng, gf, k + 3, k, 3)
    for record, C in zip(equivalence._keyed_codes(codes), codes):
        _assert_matches_oracle(record, _keyed(C))


def test_keyer_matches_the_oracle_past_one_codeword_block():
    # F3 [12, 9] codes have 19,683 codewords, more than one _codeword_blocks
    # block of _BLOCK_ROWS, and are keyed three in one block
    codes = _differential_codes(random.Random(89), GF(3), 12, 9, 3)
    assert 3**9 > _BLOCK_ROWS
    for record, C in zip(equivalence._key_block(codes), codes):
        _assert_matches_oracle(record, _keyed(C))


def test_keyer_reads_lengths_past_a_byte():
    # from n = 255 the n + 1 that marks a zero column in the anchor stop no
    # longer fits uint8; a repetition code's columns are touched at weight n only
    for q, n, zeros in ((2, 255, 0), (3, 255, 1), (4, 256, 0), (2, 300, 2)):
        G = np.ones((1, n), dtype=np.int8)
        G[0, n - zeros :] = 0
        C = LinearCode(GF(q), G)
        for record in equivalence._key_block([C, C]):
            _assert_matches_oracle(record, _keyed(C))


def test_dedupe_keys_mixed_shapes_in_homogeneous_blocks(monkeypatch):
    rng = random.Random(83)
    codes = []
    # F4 [8, 6] codes have 4096 codewords with 2 right-half entries each,
    # so a block holds two of them
    shapes = [(2, 6, 3), (3, 6, 3), (2, 6, 3), (4, 8, 6), (2, 8, 4), (2, 6, 3), (3, 4, 2)]
    for q, n, k in shapes:
        gf = GF(q)
        C = _random_code(rng, gf, n, k)
        codes += [C, apply_monomial(C, _random_map(rng, q, n))]
        codes += _differential_codes(rng, gf, n, k, 3)
    blocks = []
    original = equivalence._key_block

    def recording(block):
        records = original(block)
        blocks.append(records)
        return records

    monkeypatch.setattr(equivalence, "_key_block", recording)
    groups = dedupe_into_classes(iter(codes))
    records = [r for block in blocks for r in block]
    assert len(records) == len(codes)
    for record, C in zip(records, codes):
        _assert_matches_oracle(record, _keyed(C))
    sizes = []
    for block in blocks:
        (q, n, k), = {(r.source.code.gf.q, r.source.code.n, r.source.code.k) for r in block}
        # the right halves of a block's codewords fit in _BLOCK_ROWS entries
        assert len(block) * q**k * (n - k) <= _BLOCK_ROWS
        sizes.append((q, n, k, len(block)))
    # each run of one shape is keyed in as few blocks as that bound allows
    assert sizes == [(2, 6, 3, 5), (3, 6, 3, 5), (2, 6, 3, 5), (4, 8, 6, 2), (4, 8, 6, 2),
                     (4, 8, 6, 1), (2, 8, 4, 5), (2, 6, 3, 5), (3, 4, 2, 5)]
    monkeypatch.undo()
    assert groups == _pairwise_partition(codes, False)
