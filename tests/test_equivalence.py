"""Monomial equivalence testing: maps, signatures, deduplication."""

import itertools
import random

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
    signature,
    weight_enumerator,
)


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


def _hull_size_bruteforce(C: LinearCode) -> int:
    """Codewords orthogonal to every generator row, with scalar field
    operations (Hermitian over F4: the row entries are squared)."""
    gf = C.gf
    conj = (lambda x: gf.mul(x, x)) if gf.q == 4 else (lambda x: x)
    rows = [[conj(int(x)) for x in row] for row in C.G]
    count = 0
    for m in itertools.product(range(gf.q), repeat=C.k):
        word = [int(x) for x in C.encode(m)]
        orthogonal = True
        for row in rows:
            acc = 0
            for x, y in zip(word, row):
                acc = gf.add(acc, gf.mul(x, y))
            orthogonal = orthogonal and acc == 0
        count += orthogonal
    return count


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hull_dimension_matches_bruteforce(q):
    rng = random.Random(47 + q)
    gf = GF(q)
    # double Toeplitz codes have large hulls more often than random ones
    codes = [double_toeplitz_code(T) for T in rng.sample(list(enumerate_triples(gf, 3)), 10)]
    for _ in range(12):
        n = rng.choice((4, 6, 8))
        k = rng.randrange(1, min(n, 8 // q + 3))  # at most 256 codewords
        codes.append(_random_code(rng, gf, n, k))
        codes.append(_random_full_rank_code(rng, gf, n, k))
    seen = set()
    for C in codes:
        hull = signature(C)[3]
        assert q**hull == _hull_size_bruteforce(C)
        image = apply_monomial(C, _random_map(rng, q, C.n))
        assert signature(image)[3] == hull
        assert q**hull == _hull_size_bruteforce(image)
        seen.add(hull)
    # hulls of several sizes, the trivial one among them
    assert 0 in seen and len(seen) >= 3


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
        for w, layer in equivalence._codewords_by_weight(C).items():
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


def test_search_node_count_without_a_map():
    # Frobenius conjugates with equal signatures and no monomial map; the
    # search fixes the first column's scale, so it decides in 109 nodes
    gf = GF(4)
    C1 = double_toeplitz_code(ToeplitzTriple(gf, 0, (1, 1, 1), (1, 1, 2)))
    C2 = double_toeplitz_code(ToeplitzTriple(gf, 0, (1, 1, 1), (1, 1, 3)))
    assert signature(C1) == signature(C2)
    assert find_monomial_map(C1, C2, node_cap=109) is None
    with pytest.raises(UndecidedError):
        find_monomial_map(C1, C2, node_cap=108)


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


def test_node_cap_raises_undecided():
    gf = GF(2)
    T = ToeplitzTriple(gf, 1, (1, 0, 1), (0, 1, 1))
    C = double_toeplitz_code(T)
    with pytest.raises(UndecidedError):
        are_equivalent(C, C, node_cap=0)


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
    original = equivalence._codewords_by_weight

    def counting(C):
        calls.append(C)
        return original(C)

    monkeypatch.setattr(equivalence, "_codewords_by_weight", counting)
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
            if are_equivalent(codes[group[0]], C, semimonomial=semimonomial):
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
