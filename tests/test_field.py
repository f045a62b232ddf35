"""Field arithmetic tests, including an independent polynomial oracle for F4."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcodes import (
    GF,
    CirculantSpec,
    LinearCode,
    MonomialMap,
    ToeplitzTriple,
    apply_monomial,
    contains_vector,
    count_codes_containing,
    count_codes_containing_bruteforce,
    gf_matmul,
    parse_element,
    parse_vector,
    render_element,
    render_vector,
)
from dtcodes.gf import _int_matmul

FIELDS = [GF(2), GF(3), GF(4)]


# --- independent F4 oracle: pairs (c0, c1) meaning c0 + c1 x, reduced
# --- modulo x^2 + x + 1 over F2; code k maps to (k & 1, k >> 1)


def _f4_pair(code: int) -> tuple[int, int]:
    return code & 1, code >> 1


def _f4_code(c0: int, c1: int) -> int:
    return (c0 & 1) | ((c1 & 1) << 1)


def _f4_mul_oracle(x: int, y: int) -> int:
    a0, a1 = _f4_pair(x)
    b0, b1 = _f4_pair(y)
    # (a0 + a1 x)(b0 + b1 x) = a0 b0 + (a0 b1 + a1 b0) x + a1 b1 x^2,
    # and x^2 = x + 1
    c0 = (a0 * b0 + a1 * b1) % 2
    c1 = (a0 * b1 + a1 * b0 + a1 * b1) % 2
    return _f4_code(c0, c1)


def test_f4_tables_match_polynomial_oracle():
    gf = GF(4)
    for x in range(4):
        for y in range(4):
            assert gf.mul(x, y) == _f4_mul_oracle(x, y)
            assert gf.add(x, y) == _f4_code(*(
                (a + b) % 2 for a, b in zip(_f4_pair(x), _f4_pair(y))
            ))


def test_f4_inverses_match_oracle():
    gf = GF(4)
    for x in range(1, 4):
        inv = gf.inv(x)
        assert _f4_mul_oracle(x, inv) == 1


def test_prime_fields_are_integers_mod_q():
    for q in (2, 3):
        gf = GF(q)
        for x in range(q):
            for y in range(q):
                assert gf.add(x, y) == (x + y) % q
                assert gf.mul(x, y) == (x * y) % q


@pytest.mark.parametrize("gf", FIELDS, ids=lambda f: f"F{f.q}")
def test_field_axioms_exhaustive(gf):
    elems = range(gf.q)
    for x, y in itertools.product(elems, repeat=2):
        assert gf.add(x, y) == gf.add(y, x)
        assert gf.mul(x, y) == gf.mul(y, x)
    for x, y, z in itertools.product(elems, repeat=3):
        assert gf.add(gf.add(x, y), z) == gf.add(x, gf.add(y, z))
        assert gf.mul(gf.mul(x, y), z) == gf.mul(x, gf.mul(y, z))
        assert gf.mul(x, gf.add(y, z)) == gf.add(gf.mul(x, y), gf.mul(x, z))
    for x in elems:
        assert gf.add(x, 0) == x
        assert gf.mul(x, 1) == x
        assert gf.mul(x, 0) == 0
        assert gf.add(x, gf.neg(x)) == 0
    for x in range(1, gf.q):
        assert gf.mul(x, gf.inv(x)) == 1


@pytest.mark.parametrize("gf", FIELDS, ids=lambda f: f"F{f.q}")
def test_zero_has_no_inverse(gf):
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


def _triple_entries(gf, t, a, b) -> tuple:
    T = ToeplitzTriple(gf, t, a, b)
    return (T.t, *T.a, *T.b)


# Every way the package takes one element code x, returning what it keeps of x:
# each reads x through GF._check
_TAKES_ELEMENT = {
    "add": lambda gf, x: (gf.add(x, 1),),
    "mul": lambda gf, x: (gf.mul(gf.q - 1, x),),
    "neg": lambda gf, x: (gf.neg(x),),
    "inv": lambda gf, x: (gf.inv(x),),
    "render_element": lambda gf, x: (render_element(gf, x),),
    "ToeplitzTriple.t": lambda gf, x: _triple_entries(gf, x, (1,), (0,)),
    "ToeplitzTriple.a": lambda gf, x: _triple_entries(gf, 1, (x, 0), (0, 1)),
    "ToeplitzTriple.b": lambda gf, x: _triple_entries(gf, 0, (1,), (x,)),
    "CirculantSpec": lambda gf, x: CirculantSpec(gf, (1, x), -1).r,
    "apply_monomial": lambda gf, x: tuple(
        apply_monomial(LinearCode(gf, [[1, 1]]), MonomialMap((1, 0), (1, x))).G.ravel().tolist()
    ),
}


def _outcome(take, gf, x):
    """What ``take`` gives for x: its values, or the type of the exception it raises."""
    try:
        return take(gf, x)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@pytest.mark.parametrize("take", _TAKES_ELEMENT.values(), ids=_TAKES_ELEMENT.keys())
@pytest.mark.parametrize("gf", FIELDS, ids=lambda f: f"F{f.q}")
def test_every_element_code_goes_through_one_check(take, gf):
    for x in range(gf.q):
        plain = _outcome(take, gf, x)
        # numpy integers are read as Python ints and kept as them
        for kind in (np.int8, np.uint8, np.int64):
            got = _outcome(take, gf, kind(x))
            assert got == plain
            if isinstance(got, tuple):
                assert all(type(v) in (int, str) for v in got)
    # bools, Python and numpy, count as 0 and 1
    for false, true in ((False, True), (np.False_, np.True_)):
        assert _outcome(take, gf, false) == _outcome(take, gf, 0)
        assert _outcome(take, gf, true) == _outcome(take, gf, 1)
    # floats, strings and codes out of range are rejected as values
    for bad in (1.0, 1.5, np.float64(0.0), "1", None, -1, gf.q, np.int64(gf.q), 1 << 70):
        with pytest.raises(ValueError):
            take(gf, bad)


# Every way the package takes a vector or matrix of element codes, with x as one
# of its entries: each reads it through GF._check_array
_TAKES_ARRAY = {
    "LinearCode": lambda gf, x: LinearCode(gf, [[1, 0, x, 1]]),
    "LinearCode.systematic": lambda gf, x: LinearCode.systematic(gf, [[x, 1]]),
    "encode": lambda gf, x: LinearCode(gf, [[1, 0], [0, 1]]).encode([1, x]),
    "contains_vector": (
        lambda gf, x: contains_vector(ToeplitzTriple(gf, 1, (0,), (1,)), (x, 0), (1, 1))
    ),
    "count_codes_containing": lambda gf, x: count_codes_containing(gf, 4, (1, 0), (0, x)),
    "count_codes_containing_bruteforce": (
        lambda gf, x: count_codes_containing_bruteforce(gf, 4, (x, 1), (0, 0))
    ),
}


@pytest.mark.parametrize("take", _TAKES_ARRAY.values(), ids=_TAKES_ARRAY.keys())
@pytest.mark.parametrize("gf", FIELDS, ids=lambda f: f"F{f.q}")
def test_every_element_array_goes_through_one_check(take, gf):
    for x in range(gf.q):
        take(gf, x)
        take(gf, np.int64(x))
    take(gf, True)
    for bad in (gf.q, gf.q + 1, -1, 1.5, "1", 1 << 70):
        with pytest.raises(ValueError):
            take(gf, bad)


def test_unchecked_vectors_once_read_as_other_codes_are_rejected():
    # cast to int8 without a check, these read as the codeword of (1, 0) and as True
    with pytest.raises(ValueError):
        LinearCode(GF(2), [[1, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 1]]).encode([3, 0])
    with pytest.raises(ValueError):
        contains_vector(ToeplitzTriple(GF(2), 1, (1,), (0,)), (1.7, 0), (1, 1))


@pytest.mark.parametrize("gf", FIELDS, ids=lambda f: f"F{f.q}")
def test_empty_element_arrays_are_accepted(gf):
    for empty in ([], (), np.array([], dtype=np.float64), np.zeros((2, 0))):
        got = gf._check_array(empty)
        assert got.dtype == np.int8 and got.shape == np.shape(empty)


def test_unsupported_sizes_rejected():
    for q in (0, 1, 5, 8, 9):
        with pytest.raises(ValueError):
            GF(q)


def test_frobenius_is_additive_on_f4():
    # x -> x^2 fixes F2 and is a field automorphism of F4
    gf = GF(4)
    sq = [gf.mul(x, x) for x in range(4)]
    assert sq == [0, 1, 3, 2]
    for x in range(4):
        for y in range(4):
            assert gf.mul(gf.add(x, y), gf.add(x, y)) == gf.add(sq[x], sq[y])


def test_element_round_trip():
    for gf in FIELDS:
        for x in range(gf.q):
            assert parse_element(gf, render_element(gf, x)) == x
    assert parse_element(GF(4), " w ") == 2
    with pytest.raises(ValueError):
        parse_element(GF(2), "2")
    with pytest.raises(ValueError):
        parse_element(GF(4), "u")


def test_vector_round_trip():
    gf = GF(4)
    vec = parse_vector(gf, "(1, w, 0, v)")
    assert vec.tolist() == [1, 2, 0, 3]
    assert render_vector(gf, vec) == "(1,w,0,v)"
    assert parse_vector(gf, "()").size == 0
    assert render_vector(gf, []) == "()"
    with pytest.raises(ValueError):
        parse_vector(gf, "1,w")


@pytest.mark.parametrize("gf", FIELDS, ids=lambda f: f"F{f.q}")
def test_matmul_matches_scalar_loops(gf):
    rng = np.random.default_rng(7)
    for _ in range(20):
        k, m, n = rng.integers(1, 6, size=3)
        x = rng.integers(0, gf.q, size=(k, m), dtype=np.int8)
        y = rng.integers(0, gf.q, size=(m, n), dtype=np.int8)
        z = gf_matmul(gf, x, y)
        for i in range(k):
            for j in range(n):
                acc = 0
                for l in range(m):
                    acc = gf.add(acc, gf.mul(int(x[i, l]), int(y[l, j])))
                assert z[i, j] == acc


@settings(deadline=None, max_examples=60)
@given(
    q=st.sampled_from([2, 3, 4]),
    data=st.data(),
)
def test_matmul_distributes_over_addition(q, data):
    gf = GF(q)
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    row = st.lists(st.integers(0, q - 1), min_size=m, max_size=m)
    x = np.array(data.draw(st.lists(row, min_size=1, max_size=3)), dtype=np.int8)
    ys = np.array(data.draw(row), dtype=np.int8).reshape(m)
    zs = np.array(data.draw(row), dtype=np.int8).reshape(m)
    y = np.zeros((m, n), dtype=np.int8)
    z = np.zeros((m, n), dtype=np.int8)
    y[:, 0] = ys
    z[:, 0] = zs
    lhs = gf_matmul(gf, x, gf.add_table[y, z])
    rhs = gf.add_table[gf_matmul(gf, x, y), gf_matmul(gf, x, z)]
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("value", [True, 2, 3])
def test_narrow_products_stay_exact_at_the_int16_threshold(value):
    # every term at its largest, up to 3 * 3 = 9: 3640 * 9 = 32760 fits int16, 3641 * 9 does not
    for inner, dtype in ((3640, np.int16), (3641, np.int64)):
        x = np.full((2, 3, inner), value, dtype=bool if value is True else np.int8)
        y = np.full((inner, 2), value, dtype=x.dtype)
        got = _int_matmul(x, y)
        assert got.dtype == dtype, inner
        assert np.array_equal(got, np.matmul(x.astype(np.int64), y.astype(np.int64))), inner


@pytest.mark.parametrize("gf", FIELDS, ids=lambda g: f"F{g.q}")
def test_field_products_stay_exact_at_the_int16_threshold(gf):
    top = gf.q - 1
    term = int(gf.mul_table[top, top])
    for inner in (3640, 3641):
        x = np.full((3, inner), top, dtype=np.int8)
        if gf.q == 4:  # a sum of equal terms in characteristic 2
            want = term if inner % 2 else 0
        else:
            want = term * inner % gf.q
        assert (gf_matmul(gf, x, x.T) == want).all(), inner

