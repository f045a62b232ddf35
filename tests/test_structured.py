"""Structured matrix constructions and the code-counting lemma."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcodes import (
    GF,
    BudgetExceededError,
    CirculantSpec,
    LinearCode,
    MonomialMap,
    ToeplitzTriple,
    apply_monomial,
    average_weight_enumerator_bruteforce,
    circulant_matrix,
    contains_vector,
    count_codes_containing,
    count_codes_containing_bruteforce,
    double_circulant_code,
    double_negacirculant_code,
    double_toeplitz_code,
    enumerate_triples,
    gf_matmul,
    minimum_weight,
    parse_circulant,
    parse_triple,
    toeplitz_matrix,
    triple_count,
)
from dtcodes.linear import _index_digits
from dtcodes.structured import (
    BRUTE_FORCE_N,
    _circulant_flags,
    _triple_order,
    band_images,
    band_sequence,
    digits_of_index,
    index_of_digits,
    orbit_keys,
    split_bands,
    toeplitz_windows,
)


def test_toeplitz_matrix_hand_example():
    gf = GF(2)
    T = ToeplitzTriple(gf, 0, (1, 1), (1, 0))
    assert band_sequence(T).tolist() == [0, 1, 0, 1, 1]
    assert toeplitz_matrix(T).tolist() == [
        [0, 1, 1],
        [1, 0, 1],
        [0, 1, 0],
    ]


def test_toeplitz_matrix_is_constant_on_diagonals():
    gf = GF(4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(2, 7))
        T = ToeplitzTriple(
            gf,
            int(rng.integers(4)),
            tuple(int(x) for x in rng.integers(0, 4, m - 1)),
            tuple(int(x) for x in rng.integers(0, 4, m - 1)),
        )
        A = toeplitz_matrix(T)
        for i in range(m):
            for j in range(m):
                if i == j:
                    assert A[i, j] == T.t
                elif j > i:
                    assert A[i, j] == T.a[j - i - 1]
                else:
                    assert A[i, j] == T.b[i - j - 1]


def test_triple_validation():
    gf = GF(3)
    with pytest.raises(ValueError):
        ToeplitzTriple(gf, 3, (0,), (0,))
    with pytest.raises(ValueError):
        ToeplitzTriple(gf, 0, (0, 0), (0,))
    with pytest.raises(ValueError):
        CirculantSpec(gf, (1, 5), 1)
    with pytest.raises(ValueError):
        CirculantSpec(gf, (1, 2), 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ToeplitzTriple(GF(3), 1.9, (1, 0), (0, 2)),
        lambda: ToeplitzTriple(GF(3), 1, (1.7, 0), (0, 2)),
        lambda: ToeplitzTriple(GF(3), 1, (1, 0), (0, "2")),
        lambda: CirculantSpec(GF(2), (0.5, 1)),
        lambda: CirculantSpec(GF(4), np.array([1.0, 2.0])),
        lambda: LinearCode(GF(2), [[1.5, 0.2]]),
        lambda: LinearCode.systematic(GF(2), [[1.5, 0.2]]),
        lambda: LinearCode.systematic(GF(2), [["1"]]),
        lambda: LinearCode(GF(2), [[300, 0]]),
        lambda: LinearCode(GF(2), [[1 << 70, 0]]),
        lambda: LinearCode(GF(4), np.array([[1, 2]], dtype=np.float32)),
    ],
)
def test_element_codes_must_be_integers_in_range(build):
    # checked before any int8 cast, which would truncate floats and wrap large ints
    with pytest.raises(ValueError):
        build()


def test_integer_element_codes_are_stored_as_python_ints():
    gf = GF(3)
    T = ToeplitzTriple(gf, np.int64(1), (np.int8(2), 0), np.array([0, 2]))
    assert T == ToeplitzTriple(gf, 1, (2, 0), (0, 2)) and T.to_text() == "1;(2,0);(0,2)"
    assert all(type(x) is int for x in (T.t, *T.a, *T.b))
    assert CirculantSpec(gf, np.array([1, 2], dtype=np.uint8)).r == (1, 2)
    for G in (np.array([[1, 2]], dtype=np.uint8), np.array([[True, False]]), [[np.int64(2), 0]]):
        assert LinearCode(gf, G).G.dtype == np.int8


def _triple_of_circulant(spec: CirculantSpec) -> ToeplitzTriple:
    """The (t, a, b) whose Toeplitz matrix equals the circulant matrix, split off its bands."""
    return ToeplitzTriple(spec.gf, *split_bands(band_sequence(spec)))


def _kind(T: ToeplitzTriple) -> str:
    """The circulant family of the triple's matrix by :func:`_circulant_flags`:
    "circulant", "negacirculant", "both" or "neither"."""
    circ, nega = map(bool, _circulant_flags(T.gf, band_sequence(T)))
    return {(True, True): "both", (True, False): "circulant", (False, True): "negacirculant"}.get(
        (circ, nega), "neither"
    )


def test_circulant_matrix_and_triple_agree():
    for q in (2, 3, 4):
        gf = GF(q)
        rng = np.random.default_rng(q)
        for mu in (1, -1):
            for _ in range(8):
                m = int(rng.integers(1, 6))
                r = tuple(int(x) for x in rng.integers(0, q, m))
                spec = CirculantSpec(gf, r, mu)
                direct = circulant_matrix(spec)
                via_triple = toeplitz_matrix(_triple_of_circulant(spec))
                assert np.array_equal(direct, via_triple), (q, mu, r)


def test_negacirculant_wrap_scaling():
    gf = GF(3)
    A = circulant_matrix(CirculantSpec(gf, (1, 2), -1))
    # second row wraps r_2 = 2 through mu = -1, giving 1 over F3
    assert A.tolist() == [[1, 2], [1, 1]]


def test_classify_triple_families():
    gf = GF(3)
    spec_c = CirculantSpec(gf, (1, 2, 0), 1)
    spec_n = CirculantSpec(gf, (1, 2, 0), -1)
    assert _kind(_triple_of_circulant(spec_c)) == "circulant"
    assert _kind(_triple_of_circulant(spec_n)) == "negacirculant"
    assert _kind(ToeplitzTriple(gf, 0, (0, 0), (0, 0))) == "both"
    assert _kind(ToeplitzTriple(gf, 1, (1, 2), (2, 2))) == "neither"
    # F2 has mu = -mu, so the two families coincide
    f2 = _triple_of_circulant(CirculantSpec(GF(2), (1, 1, 0), -1))
    assert _kind(f2) == "both"


def _tuple_circulant_flags(T: ToeplitzTriple) -> tuple[bool, bool]:
    """The tuple rule the package read before the band rule: a against
    reversed(b) and against its negation, entry by entry through GF.neg."""
    rb = T.b[::-1]
    return T.a == rb, T.a == tuple(T.gf.neg(x) for x in rb)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_circulant_flags_match_the_tuple_rule(q):
    gf = GF(q)
    for n in range(2, BRUTE_FORCE_N[q] + 1, 2):
        triples = list(enumerate_triples(gf, n // 2))
        circ, nega = _circulant_flags(gf, np.stack([band_sequence(T) for T in triples]))
        assert circ.dtype == nega.dtype == bool
        assert list(zip(circ.tolist(), nega.tolist())) == [_tuple_circulant_flags(T) for T in triples]


@st.composite
def _triples(draw):
    """(gf, T, r): a triple over F2-F4 with 1 <= m <= 8, drawn as a random
    triple or read off the diagonals of a (nega)circulant matrix, and a first row r."""
    gf = GF(draw(st.sampled_from([2, 3, 4])))
    m = draw(st.integers(1, 8))
    r = tuple(draw(st.lists(st.integers(0, gf.q - 1), min_size=m, max_size=m)))
    kind = draw(st.sampled_from(["random", "circulant", "negacirculant"]))
    if kind == "random":
        rest = draw(st.lists(st.integers(0, gf.q - 1), min_size=m - 1, max_size=m - 1))
        return gf, ToeplitzTriple(gf, r[0], r[1:], tuple(rest)), r
    M = circulant_matrix(CirculantSpec(gf, r, 1 if kind == "circulant" else -1))
    # the Toeplitz definition: t = M[0, 0], a_j = M[0, j], b_i = M[i, 0]
    return gf, ToeplitzTriple(gf, int(M[0, 0]), tuple(M[0, 1:]), tuple(M[1:, 0])), r


@pytest.mark.parametrize("q", [3, 4])
def test_triple_order_sorts_band_rows_by_the_written_out_triples(q):
    # random triples, with repeats at small m, whose band rows sort stably by
    # (major, t, *a, *b): by the triples alone under a constant major key
    gf, rng = GF(q), np.random.default_rng(q)
    for m in (1, 2, 3, 5):
        rows = rng.integers(0, q, (400, 2 * m - 1)).tolist()
        triples = [ToeplitzTriple(gf, r[0], r[1:m], r[m:]) for r in rows]
        S = np.stack([band_sequence(T) for T in triples])
        lex = [(T.t, *T.a, *T.b) for T in triples]
        by_triple = sorted(range(len(S)), key=lex.__getitem__)
        assert _triple_order(S, np.zeros(len(S))).tolist() == by_triple
        major = rng.integers(0, 7, len(S))
        by_major = sorted(range(len(S)), key=lambda i: (major[i], *lex[i]))
        assert _triple_order(S, major).tolist() == by_major


@settings(deadline=None, max_examples=200)
@given(drawn=_triples())
def test_band_sequences_against_the_matrices(drawn):
    gf, T, r = drawn
    # splitting a triple's band sequence gives the triple back
    assert ToeplitzTriple(gf, *split_bands(band_sequence(T))) == T
    # a first row's band sequence has the (nega)circulant matrix as its windows
    for mu in (1, -1):
        spec = CirculantSpec(gf, r, mu)
        assert np.array_equal(toeplitz_windows(band_sequence(spec)), circulant_matrix(spec))
    # the band rule against circulant_matrix of the first row of the triple's matrix
    A = toeplitz_matrix(T)
    circ, nega = (
        np.array_equal(A, circulant_matrix(CirculantSpec(gf, tuple(A[0]), mu))) for mu in (1, -1)
    )
    names = {(True, True): "both", (True, False): "circulant", (False, True): "negacirculant"}
    assert _kind(T) == names.get((circ, nega), "neither")


def test_code_builders():
    gf = GF(2)
    C = double_circulant_code(CirculantSpec(gf, (1, 1, 0), 1))
    assert (C.n, C.k) == (6, 3)
    assert C.is_systematic()
    with pytest.raises(ValueError):
        double_circulant_code(CirculantSpec(gf, (1,), -1))
    with pytest.raises(ValueError):
        double_negacirculant_code(CirculantSpec(gf, (1,), 1))


def test_literal_round_trips():
    gf = GF(4)
    T = parse_triple(gf, "w;(1,0,v);(0,1,1)")
    assert (T.t, T.a, T.b) == (2, (1, 0, 3), (0, 1, 1))
    assert T.to_text() == "w;(1,0,v);(0,1,1)"
    spec = parse_circulant(gf, "N:(1,w,0)")
    assert (spec.r, spec.mu) == ((1, 2, 0), -1)
    assert spec.to_text() == "N:(1,w,0)"
    assert parse_circulant(gf, "C:(v)").mu == 1
    for bad in ("w;(1,0)", "X:(1)", "w;(1);(0);(1)", ""):
        with pytest.raises(ValueError):
            parse_triple(gf, bad)
    with pytest.raises(ValueError):
        parse_circulant(gf, "(1,w)")


def test_contains_vector_matches_membership():
    gf = GF(3)
    T = parse_triple(gf, "1;(2,0);(1,1)")
    C = double_toeplitz_code(T)
    words = {tuple(int(x) for x in C.encode(msg)) for msg in itertools.product(range(3), repeat=3)}
    for u in itertools.product(range(3), repeat=3):
        for v in itertools.product(range(3), repeat=3):
            assert contains_vector(T, u, v) == (u + v in words)


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (4, 4)])
def test_counting_lemma_closed_form(q, n):
    gf = GF(q)
    m = n // 2
    for u in itertools.product(range(q), repeat=m):
        for v in itertools.product(range(q), repeat=m):
            assert count_codes_containing(gf, n, u, v) == count_codes_containing_bruteforce(
                gf, n, u, v
            )


def test_brute_force_oracles_share_one_guard():
    zero = (0,) * 4
    with pytest.raises(BudgetExceededError) as info:
        count_codes_containing_bruteforce(GF(4), 8, zero, zero)
    assert str(info.value) == "brute-force count over q^(n-1) codes needs n <= 6 for F4"
    with pytest.raises(BudgetExceededError) as info:
        average_weight_enumerator_bruteforce(GF(2), 14)
    assert str(info.value) == "brute-force average over q^(n-1) codes needs n <= 12 for F2"
    # at the limit both run
    assert count_codes_containing_bruteforce(GF(4), 6, (1, 0, 0), (0, 0, 0)) == 4**2


def test_counting_lemma_split_by_case():
    gf = GF(3)
    n = 6
    zero = (0, 0, 0)
    assert count_codes_containing(gf, n, zero, zero) == 3**5
    assert count_codes_containing(gf, n, zero, (1, 0, 0)) == 0
    assert count_codes_containing(gf, n, (1, 0, 2), (2, 2, 2)) == 3**2


def test_enumerate_triples_is_the_full_odometer():
    for q, m in ((2, 3), (3, 2), (4, 2)):
        gf = GF(q)
        seen = list(enumerate_triples(gf, m))
        assert len(seen) == triple_count(gf, m) == q ** (2 * m - 1)
        assert len({(T.t, T.a, T.b) for T in seen}) == len(seen)


def test_index_digit_round_trip():
    for q in (2, 3, 4):
        # the vectorised digits behind message, candidate and checkpoint order
        rows = _index_digits(np.arange(q**4), q, 4)
        for idx in range(q**4):
            digits = digits_of_index(idx, q, 4)
            assert index_of_digits(digits, q) == idx
            assert tuple(rows[idx]) == digits


def test_distinct_triples_give_distinct_codes():
    # G = (I | A) determines A, so the triple map is injective on codes
    gf = GF(2)
    mats = {toeplitz_matrix(T).tobytes() for T in enumerate_triples(gf, 3)}
    assert len(mats) == triple_count(gf, 3)


def test_small_known_minimum_weights():
    gf2 = GF(2)
    assert minimum_weight(double_circulant_code(CirculantSpec(gf2, (0,), 1))) == 1
    gf3 = GF(3)
    golay = double_negacirculant_code(CirculantSpec(gf3, (1, 2, 1, 1, 1, 0), -1))
    assert minimum_weight(golay) == 6
    gf4 = GF(4)
    assert minimum_weight(double_circulant_code(CirculantSpec(gf4, (1, 2), 1))) == 3



def _codewords(C) -> np.ndarray:
    """All q^k codewords of C, sorted as rows: equal arrays, equal codes."""
    msgs = _index_digits(np.arange(C.gf.q**C.k), C.gf.q, C.k)
    return np.unique(gf_matmul(C.gf, msgs, C.G), axis=0)


def _power(gf: GF, x: int, e: int) -> int:
    out = 1
    for _ in range(e):
        out = gf.mul(out, x)
    return out


@settings(deadline=None, max_examples=50)
@given(q=st.sampled_from([2, 3, 4]), m=st.integers(1, 6), data=st.data())
def test_band_images_are_the_codes_of_explicit_monomial_maps(q, m, data):
    # image (s (q-1) + e) (q-1) + c - 1 of band_images is reverse^s(c twist^e(S)),
    # and its code is the code of T carried by the scaling, e twists and s swaps
    gf = GF(q)
    digits = st.lists(st.integers(0, q - 1), min_size=m - 1, max_size=m - 1)
    T = ToeplitzTriple(gf, data.draw(st.integers(0, q - 1)), data.draw(digits), data.draw(digits))
    alpha = next(x for x in range(1, q) if len({_power(gf, x, e) for e in range(q - 1)}) == q - 1)
    powers = tuple(_power(gf, alpha, j) for j in range(m))
    ident = tuple(range(2 * m))
    twist = MonomialMap(ident, powers + powers)  # (I | T) diag(D, D) for D = diag(α^j)
    halves_reversed = tuple(range(m - 1, -1, -1)) + tuple(range(2 * m - 1, m - 1, -1))
    swap = MonomialMap(halves_reversed, (1,) * (2 * m))  # (I | T) diag(J, J)
    images = band_images(gf, band_sequence(T))
    assert images.shape == (2 * (q - 1) ** 2, 2 * m - 1)
    C = double_toeplitz_code(T)
    for index, (s, e, c) in enumerate(itertools.product(range(2), range(q - 1), range(1, q))):
        mapped = apply_monomial(C, MonomialMap(ident, (1,) * m + (c,) * m))  # the right half by c
        for M in [twist] * e + [swap] * s:
            mapped = apply_monomial(mapped, M)
        image = double_toeplitz_code(ToeplitzTriple(gf, *split_bands(images[index])))
        assert np.array_equal(_codewords(mapped), _codewords(image)), (index, T)
    # the key is the least image, read with S_0 most significant, on every member
    least = min(index_of_digits(image[::-1], q) for image in images.tolist())
    assert orbit_keys(gf, images).tolist() == [least] * len(images)
    assert int(orbit_keys(gf, band_sequence(T))) == least


@pytest.mark.parametrize("q,longest", [(2, 61), (3, 39), (4, 31)])
def test_orbit_keys_match_the_image_product_up_to_the_length_guard(q, longest):
    # the Horner keys against the least image read by one int64 product, on random stacks
    # of every odd band length up to the longest under the 2^62 guard, with a row of the
    # largest digit; the next band length raises
    gf, rng = GF(q), np.random.default_rng(q)
    for length in range(1, longest + 1, 2):
        S = rng.integers(0, q, size=(3, 5, length), dtype=np.int8)
        S[0, 0] = q - 1
        weights = q ** np.arange(length - 1, -1, -1, dtype=np.int64)
        expected = (band_images(gf, S).astype(np.int64) @ weights).min(axis=-1)
        assert np.array_equal(orbit_keys(gf, S), expected)
        assert orbit_keys(gf, S[1, 2]) == expected[1, 2]
        assert orbit_keys(gf, S[:0]).shape == (0, 5)
    assert q**longest <= 1 << 62 < q ** (longest + 2)
    with pytest.raises(ValueError, match="overflows an orbit key"):
        orbit_keys(gf, np.zeros((1, longest + 2), dtype=np.int8))
