"""Linear code container, weight routines, duality."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtcodes import (
    GF,
    BudgetExceededError,
    LinearCode,
    WeightEnumerator,
    dual_code,
    gf_matmul,
    is_formally_self_dual,
    macwilliams_dual_enumerator,
    min_weight_at_least,
    minimum_weight,
    weight,
    weight_enumerator,
)
from dtcodes import linear, signature
from dtcodes.reference_data import build_code


def test_weight_counts_nonzeros():
    assert weight([0, 0, 0]) == 0
    assert weight([1, 0, 2, 3]) == 3
    assert weight(np.array([[1, 0], [0, 1]])) == 2


@pytest.mark.parametrize("n", [0, 1, 255, 256, 300])
def test_row_weights_count_the_nonzeros_of_each_row(n):
    # from n = 256 the count no longer fits uint8 and takes uint16
    rng = np.random.default_rng(n)
    X = rng.integers(0, 4, size=(2, 5, n), dtype=np.int8)
    X[0, 0] = 3  # an all-nonzero row
    X[0, 1] = 0
    for Y in (X[0], X):  # one matrix, and a 3-d stack of them
        got = linear._row_weights(Y)
        assert got.shape == Y.shape[:-1]
        assert got.tolist() == np.count_nonzero(Y, axis=-1).tolist()
    assert linear._row_weights(X).dtype == (np.uint8 if n < 256 else np.uint16)


def test_enumerator_container_validates():
    W = WeightEnumerator(3, [1, 0, 3, 0])
    assert W.total() == 4
    assert W.min_positive_weight() == 2
    with pytest.raises(ValueError):
        WeightEnumerator(3, [1, 0, 3])
    with pytest.raises(ValueError):
        WeightEnumerator(1, [1, -1])
    with pytest.raises(ValueError):
        WeightEnumerator(2, [1, 0, 0]).min_positive_weight()


def test_code_construction_checks():
    gf = GF(2)
    with pytest.raises(ValueError):
        LinearCode(gf, [[1, 1], [1, 1]])  # dependent rows
    with pytest.raises(ValueError):
        LinearCode(gf, [[0, 2]])  # entry outside the field
    with pytest.raises(ValueError):
        LinearCode(gf, [[1], [0]])  # k > n after shape check
    C = LinearCode(gf, [[1, 0, 1], [0, 1, 1]])
    assert (C.n, C.k) == (3, 2)
    assert C.is_systematic()
    assert not C.G.flags.writeable


@pytest.mark.parametrize("q", [2, 3, 4])
def test_systematic_constructor_matches_general_one(q):
    gf = GF(q)
    rng = np.random.default_rng(10 + q)
    for k, r in ((1, 1), (3, 3), (4, 6), (6, 2)):
        A = rng.integers(0, q, size=(k, r), dtype=np.int8)
        S = LinearCode.systematic(gf, A)
        C = LinearCode(gf, np.hstack([np.eye(k, dtype=np.int8), A]))
        assert np.array_equal(S.G, C.G) and (S.n, S.k) == (C.n, C.k)
        assert not S.G.flags.writeable
        for got, want in zip(S.systematic_right_block(), C.systematic_right_block()):
            assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        LinearCode.systematic(gf, [[0, q]])  # entry outside the field


def test_encode_and_text_round_trip():
    gf = GF(4)
    C = LinearCode(gf, [[1, 0, 2], [0, 1, 3]])
    # 2*(1,0,2) + 1*(0,1,3): w*w = v and v + v = 0
    assert gf_matmul(gf, np.array([2, 1], dtype=np.int8), C.G).tolist() == [2, 1, 0]
    assert C.encode([2, 1]).tolist() == [2, 1, 0]
    again = LinearCode.from_text(gf, C.to_text())
    assert np.array_equal(again.G, C.G)


def test_repetition_code_enumerator():
    # the [n, 1] repetition code has (q-1) words of full weight
    for q in (2, 3, 4):
        gf = GF(q)
        C = LinearCode(gf, [[1] * 5])
        W = weight_enumerator(C)
        expected = [0] * 6
        expected[0] = 1
        expected[5] = q - 1
        assert list(W.coeffs) == expected
        assert minimum_weight(C) == 5


def test_hamming_7_4():
    gf = GF(2)
    C = LinearCode(
        gf,
        [
            [1, 0, 0, 0, 1, 1, 0],
            [0, 1, 0, 0, 1, 0, 1],
            [0, 0, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ],
    )
    W = weight_enumerator(C)
    assert list(W.coeffs) == [1, 0, 0, 7, 7, 0, 0, 1]
    assert minimum_weight(C) == 3
    assert min_weight_at_least(C, 3)
    assert not min_weight_at_least(C, 4)


def test_minimum_weight_on_nonsystematic_generator():
    gf = GF(3)
    C = LinearCode(gf, [[1, 2, 1, 0], [2, 1, 0, 1]])
    words = {tuple(C.encode([a, b])) for a in range(3) for b in range(3)}
    d_brute = min(weight(w) for w in words if any(w))
    assert minimum_weight(C) == d_brute
    assert list(weight_enumerator(C).coeffs) == [
        sum(1 for w in words if weight(w) == j) for j in range(5)
    ]


def test_dual_code_orthogonality():
    for q in (2, 3, 4):
        gf = GF(q)
        rng = np.random.default_rng(q)
        G = np.concatenate(
            [np.eye(3, dtype=np.int8), rng.integers(0, q, size=(3, 4), dtype=np.int8)],
            axis=1,
        )
        # the column-permuted generator is not systematic
        for C in (LinearCode(gf, G), LinearCode(gf, G[:, ::-1])):
            D = dual_code(C)
            assert (D.n, D.k) == (C.n, C.n - C.k)
            assert not gf_matmul(gf, C.G, D.G.T).any()


def test_dual_code_stores_its_systematic_form(monkeypatch):
    codes = []
    for q in (2, 3, 4):
        gf = GF(q)
        rng = np.random.default_rng(20 + q)
        G = np.hstack([np.eye(4, dtype=np.int8), rng.integers(0, q, size=(4, 5), dtype=np.int8)])
        codes += [LinearCode(gf, G), LinearCode(gf, G[:, ::-1])]
    # dual_code derives the form from C's, so it never eliminates
    monkeypatch.setattr(linear, "_rref", None)
    duals = [dual_code(C) for C in codes]
    monkeypatch.undo()
    for C, D in zip(codes, duals):
        B, perm = D.systematic_right_block()
        S = np.zeros_like(D.G)
        S[:, perm] = np.hstack([np.eye(D.k, dtype=np.int8), B])
        # equal row spaces have equal reduced echelon forms
        R1, p1 = linear._rref(C.gf, S)
        R2, p2 = linear._rref(C.gf, D.G)
        assert p1 == p2 and np.array_equal(R1, R2)


def _span(gf, M) -> set:
    """Every combination of the rows of M, built with the field tables alone."""
    words = np.zeros((1, M.shape[1]), dtype=np.int8)
    for row in M:
        multiples = [gf.add_table[words, gf.mul_table[c, row]] for c in range(gf.q)]
        words = np.unique(np.vstack(multiples), axis=0)
    return {w.tobytes() for w in words}


def _table_rref(gf: GF, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over the field; returns (R, pivot columns).

    The table-driven elimination that :func:`linear._rref` replaced,
    copied verbatim: the oracle for the packed one."""
    R = np.array(M, dtype=np.int8)
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nonzero = np.flatnonzero(R[r:, c])
        if not len(nonzero):
            continue
        pivot = r + int(nonzero[0])
        if pivot != r:
            R[[r, pivot]] = R[[pivot, r]]
        scale = gf.inv_table[R[r, c]]
        R[r] = gf.mul_table[scale, R[r]]
        # subtract R[i, c] times the pivot row from every other row i at once
        coef = gf.neg_table[R[:, c]]
        coef[r] = 0
        R = gf.add_table[R, gf.mul_table[coef[:, None], R[r]]]
        pivots.append(c)
        r += 1
    return R, pivots


@st.composite
def _elimination_inputs(draw):
    """(gf, M): a matrix up to 24 x 48, or up to 8 x 72 so that a plane spans
    more than 64 bits; random, sparse, zero, or rank-deficient (combinations
    of fewer rows)."""
    q = draw(st.sampled_from([2, 3, 4]))
    gf = GF(q)
    rows, cols = draw(st.sampled_from([(24, 48), (8, 72)]))
    rows, cols = draw(st.integers(1, rows)), draw(st.integers(1, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["full", "zero", "deficient", "sparse"]))
    if kind == "zero":
        M = np.zeros((rows, cols), dtype=np.int8)
    elif kind == "deficient":
        r = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        mix = rng.integers(0, q, size=(rows, r), dtype=np.int8)
        M = gf_matmul(gf, mix, rng.integers(0, q, size=(r, cols), dtype=np.int8))
    else:
        M = rng.integers(0, q, size=(rows, cols), dtype=np.int8)
        if kind == "sparse":  # zero columns and late pivots
            M[rng.random((rows, cols)) < 0.8] = 0
    return gf, M


@settings(deadline=None, max_examples=300)
@given(drawn=_elimination_inputs())
def test_packed_elimination_matches_the_table_oracle(drawn):
    gf, M = drawn
    R, pivots = linear._rref(gf, M)
    want_R, want_pivots = _table_rref(gf, M)
    assert pivots == want_pivots
    assert R.dtype == np.int8 and R.shape == M.shape
    assert np.array_equal(R, want_R)


def test_packed_elimination_covers_every_leading_scalar():
    # each nonzero leading entry, and each entry below a pivot, for each field
    for q in (2, 3, 4):
        gf = GF(q)
        for lead, below in itertools.product(range(1, q), range(q)):
            M = np.array([[0, lead, 1, 2 % q], [0, below, 3 % q, 1], [1, 0, 0, 1]], dtype=np.int8)
            R, pivots = linear._rref(gf, M)
            want_R, want_pivots = _table_rref(gf, M)
            assert pivots == want_pivots and np.array_equal(R, want_R), (q, lead, below)


@st.composite
def _codes(draw):
    """(gf, G, B, r): an [n, k] code drawn with a right block B of rank r.

    B is r rows (I_r | Z) and k - r combinations of them, with rows and
    columns shuffled.  Lengths cover n = k, n < 2k, n = 2k and n > 2k;
    half the generators are T (I_k | B) P for a unit lower-triangular T
    and a column permutation P, which is not systematic in general.
    """
    q = draw(st.sampled_from([2, 3, 4]))
    gf = GF(q)
    shape = draw(st.sampled_from(["n=k", "n<2k", "n=2k", "n>2k"]))
    k = draw(st.integers(2 if shape == "n<2k" else 1, 7))
    if shape == "n=k":
        n = k
    elif shape == "n<2k":
        n = draw(st.integers(k + 1, 2 * k - 1))
    elif shape == "n=2k":
        n = 2 * k
    else:
        n = draw(st.integers(2 * k + 1, 2 * k + 4))

    def entries(rows, cols):
        flat = draw(st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols))
        return np.array(flat, dtype=np.int8).reshape(rows, cols)

    def shuffle(size):
        return np.array(draw(st.permutations(range(size))), dtype=np.intp)

    r = draw(st.integers(0, min(k, n - k)))
    E = np.hstack([np.eye(r, dtype=np.int8), entries(r, n - k - r)])
    B = np.vstack([E, gf_matmul(gf, entries(k - r, r), E)])
    B = B[shuffle(k)][:, shuffle(n - k)]
    G = np.hstack([np.eye(k, dtype=np.int8), B])
    if draw(st.booleans()):
        T = gf.add_table[np.tril(entries(k, k), -1), np.eye(k, dtype=np.int8)]
        G = gf_matmul(gf, T, G)[:, shuffle(n)]
    return gf, G, B, r


@settings(deadline=None, max_examples=150)
@given(drawn=_codes())
# equal rows of B: the only weight-2 word has message weight k = 2
@example(drawn=(GF(2), [[1, 0, 1, 1, 1], [0, 1, 1, 1, 1]], np.ones((2, 3), dtype=np.int8), 1))
def test_minimum_weight_matches_enumerator_oracle(drawn):
    gf, G, B, r = drawn
    R, pivots = linear._rref(gf, B)
    # R is in reduced echelon form on its pivots, and stacking B on R
    # does not raise the rank r that B was drawn with
    assert pivots == sorted(set(pivots)) and len(pivots) == r and not R[r:].any()
    for i, c in enumerate(pivots):
        assert R[i, c] == 1 and not R[i, :c].any() and np.count_nonzero(R[:, c]) == 1
    assert len(_span(gf, np.vstack([B, R]))) == gf.q**r
    C = LinearCode(gf, G)
    d = weight_enumerator(C).min_positive_weight()
    assert minimum_weight(C) == d
    for t in range(C.n + 2):
        assert min_weight_at_least(C, t) == (d >= t)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_weight_layers_are_projective(q, monkeypatch):
    gf = GF(q)
    k = 5
    # blocks of 7 rows split every layer with more than one support
    monkeypatch.setattr(linear, "_BLOCK_ROWS", 7)
    for w in range(1, k + 1):
        layer = np.vstack(list(linear._weight_layer_blocks(q, k, w)))
        assert len(layer) == math.comb(k, w) * (q - 1) ** (w - 1)
        assert (np.count_nonzero(layer, axis=1) == w).all()
        assert (layer[np.arange(len(layer)), np.argmax(layer != 0, axis=1)] == 1).all()
        multiples = [tuple(gf.mul_table[s, u]) for u in layer for s in range(1, q)]
        full = [u for u in itertools.product(range(q), repeat=k) if k - u.count(0) == w]
        assert sorted(multiples) == sorted(full)


def _islice_layer_blocks(q: int, k: int, w: int, block: int):
    """The weight-w layer as blocks were built from ``itertools`` on every call
    before layers were cached: the oracle for :func:`linear._weight_layer_blocks`."""
    nonzero = np.array(
        [(1, *rest) for rest in itertools.product(range(1, q), repeat=w - 1)], dtype=np.int8
    )
    nv = len(nonzero)
    sup_per_block = max(1, block // nv)
    support_iter = itertools.combinations(range(k), w)
    while True:
        chunk = list(itertools.islice(support_iter, sup_per_block))
        if not chunk:
            return
        S = np.array(chunk, dtype=np.int64)
        ns = len(S)
        msgs = np.zeros((ns * nv, k), dtype=np.int8)
        rows = np.repeat(np.arange(ns * nv), w).reshape(ns * nv, w)
        cols = np.repeat(S, nv, axis=0)
        msgs[rows, cols] = np.tile(nonzero, (ns, 1))
        yield msgs


@pytest.mark.parametrize("q", [2, 3, 4])
def test_weight_layer_blocks_match_the_islice_oracle(q, monkeypatch):
    for block in (4, 7, linear._BLOCK_ROWS):
        monkeypatch.setattr(linear, "_BLOCK_ROWS", block)
        for k in range(1, 8):
            for w in range(1, k + 1):
                got = list(linear._weight_layer_blocks(q, k, w))
                want = list(_islice_layer_blocks(q, k, w, block))
                assert len(got) == len(want), (k, w, block)
                for g, e in zip(got, want):
                    assert g.dtype == np.int8 and g.shape == e.shape, (k, w, block)
                    assert (g == e).all(), (k, w, block)


def test_weight_layer_is_read_only():
    supports, values = linear._weight_layer(3, 5, 3)
    assert supports.dtype == values.dtype == np.int8
    assert supports.shape == (math.comb(5, 3), 3) and values.shape == (4, 3)
    with pytest.raises(ValueError):
        supports[0, 0] = 4
    with pytest.raises(ValueError):
        values[0, 0] = 2


def test_one_block_layers_are_expanded_once(monkeypatch):
    expanded = []
    layer_rows = linear._layer_rows

    def counting(supports, values, k):
        expanded.append((k, supports.shape[1], len(supports)))
        return layer_rows(supports, values, k)

    monkeypatch.setattr(linear, "_layer_rows", counting)
    linear._held_layer.cache_clear()
    # three equivalent [26, 13, 9] codes over F4: every scan reads layers 1-4,
    # and layer 4, 715 supports of 27 patterns, is larger than one block
    B, _ = build_code(4, "C:(1,v,w,w,w,w,1,0,1,0,0,0,0)").systematic_right_block()
    for X in (B, B[:, ::-1], B[::-1]):
        assert minimum_weight(LinearCode.systematic(GF(4), X)) == 9
    held = [(13, w, math.comb(13, w)) for w in (1, 2, 3)]
    assert set(expanded) == {*held, (13, 4, 606), (13, 4, 109)}
    for layer in held:
        assert expanded.count(layer) == 1
    assert expanded.count((13, 4, 606)) == expanded.count((13, 4, 109)) >= 3
    assert linear._held_layer.cache_info().currsize == 3
    for w in (1, 2, 3):
        (msgs,) = linear._weight_layer_blocks(4, 13, w)
        assert msgs is linear._held_layer(4, 13, w) and not msgs.flags.writeable
        with pytest.raises(ValueError):
            msgs[0, 0] = 2
        (want,) = _islice_layer_blocks(4, 13, w, linear._BLOCK_ROWS)
        assert np.array_equal(msgs, want)
    # a layer larger than one block is built afresh on every call, and never held
    first, second = (list(linear._weight_layer_blocks(4, 13, 4)) for _ in range(2))
    want = list(_islice_layer_blocks(4, 13, 4, linear._BLOCK_ROWS))
    assert len(first) == len(want) == 2
    for a, b, e in zip(first, second, want):
        assert a is not b and a.flags.writeable and np.array_equal(a, e)
    # so is one support whose 3^9 value patterns alone are more than a block
    (whole,) = linear._weight_layer_blocks(4, 10, 10)
    assert whole.shape == (3**9, 10) and whole.flags.writeable
    assert linear._held_layer.cache_info().currsize == 3


def _odometer_words(gf: GF, B: np.ndarray) -> np.ndarray:
    """Every codeword of (I | B) for a stack of right blocks B, messages by
    itertools.product with digit 0 fastest."""
    k = B.shape[-2]
    msgs = np.array([m[::-1] for m in itertools.product(range(gf.q), repeat=k)], dtype=np.int8)
    right = gf_matmul(gf, msgs, B)
    return np.concatenate([np.broadcast_to(msgs, right.shape[:-1] + (k,)), right], axis=-1)


def test_message_digits_are_built_once_per_small_space(monkeypatch):
    calls = []
    index_digits = linear._index_digits
    monkeypatch.setattr(
        linear, "_index_digits", lambda idx, q, k: calls.append((q, k)) or index_digits(idx, q, k)
    )
    linear._message_table.cache_clear()
    gf = GF(4)
    B = np.random.default_rng(4).integers(0, 4, size=(3, 6, 5), dtype=np.int8)
    # repeated keying of one (q, k): stacks, single blocks and whole codes
    for _ in range(3):
        for X in (B, B[0], B[1:]):
            words = np.concatenate(list(linear._codeword_blocks(gf, X)), axis=-2)
            assert np.array_equal(words, _odometer_words(gf, X))
        signature(LinearCode.systematic(gf, B[2]))
    assert calls == [(4, 6)]
    with pytest.raises(ValueError):
        linear._message_table(4, 6)[0, 0] = 1
    # a space of more than one block builds each block's digits, every time
    calls.clear()
    gf2, Z = GF(2), np.eye(15, 2, dtype=np.int8)
    for _ in range(2):
        words = np.concatenate(list(linear._codeword_blocks(gf2, Z)))
        assert np.array_equal(words, _odometer_words(gf2, Z))
    assert calls == [(2, 15)] * 4


def test_minimum_weight_builds_each_layer_once():
    # two different [26, 13, 9] codes over F4 whose right blocks differ by a
    # column reversal: equal weight distributions, so both scans read the
    # same layers
    B, _ = build_code(4, "C:(1,v,w,w,w,w,1,0,1,0,0,0,0)").systematic_right_block()
    C1, C2 = (LinearCode.systematic(GF(4), X) for X in (B, B[:, ::-1]))
    assert not np.array_equal(C1.G, C2.G)
    linear._weight_layer.cache_clear()
    assert minimum_weight(C1) == 9
    first = linear._weight_layer.cache_info()
    assert minimum_weight(C2) == 9
    second = linear._weight_layer.cache_info()
    assert first.misses == first.currsize >= 3
    # the second scan reads every layer it needs from the cache
    assert second.misses == first.misses
    assert second.hits >= first.hits + first.misses


def test_layer_scan_stops_at_the_first_light_block(monkeypatch):
    # rows 0 and 1 agree, so message e0 + e1, in the first block of
    # layer 2, gives weight 2 + 0
    B = np.random.default_rng(7).integers(0, 2, size=(8, 8), dtype=np.int8)
    B[1] = B[0]
    consumed = []
    layer_blocks = linear._weight_layer_blocks

    def small_blocks(q, k, w):
        for msgs in layer_blocks(q, k, w):
            consumed.append(w)
            yield msgs

    monkeypatch.setattr(linear, "_BLOCK_ROWS", 4)
    monkeypatch.setattr(linear, "_weight_layer_blocks", small_blocks)
    # a best already at the stop value scans nothing
    assert linear._layer_min(GF(2), 8, 2, B, 2, 2) == 2
    assert consumed == []
    assert linear._layer_min(GF(2), 8, 2, B, 99, 2) == 2
    assert consumed == [2]
    # below the stop value the whole layer of 28 messages is scanned
    assert linear._layer_min(GF(2), 8, 2, B, 99, 1) == 2
    assert consumed == [2] * 8


@pytest.mark.parametrize(
    "q, spec, rank_b, max_layer",
    [
        (4, "C:(1,v,w,w,w,w,1,0,1,0,0,0,0)", 13, 4),
        (2, "C:(1,1,1,0,1,1,1,0,0,1,0,1,0,0,0,0,0,0,0,0,0,0,0,0)", 22, 5),
    ],
)
def test_two_information_sets_bound_the_scanned_layers(monkeypatch, q, spec, rank_b, max_layer):
    # the one-sided scan needs layers 1..8 for both [2k, k, 9] witnesses
    C = build_code(q, spec)
    assert len(linear._rref(C.gf, C.systematic_right_block()[0])[1]) == rank_b
    requested = []
    layer_blocks = linear._weight_layer_blocks

    def counting(q_, k, w):
        requested.append(w)
        return layer_blocks(q_, k, w)

    monkeypatch.setattr(linear, "_weight_layer_blocks", counting)
    assert minimum_weight(C) == 9
    assert max(requested) <= max_layer


def test_macwilliams_matches_direct_dual_enumeration():
    for q in (2, 3, 4):
        gf = GF(q)
        rng = np.random.default_rng(10 + q)
        G = np.concatenate(
            [np.eye(4, dtype=np.int8), rng.integers(0, q, size=(4, 4), dtype=np.int8)],
            axis=1,
        )
        C = LinearCode(gf, G)
        via_identity = macwilliams_dual_enumerator(weight_enumerator(C), q, C.k)
        direct = weight_enumerator(dual_code(C))
        assert via_identity == direct


def test_formal_self_duality():
    gf = GF(2)
    assert is_formally_self_dual(LinearCode(gf, [[1, 1]]))
    # [4, 2] code whose dual enumerator differs: W = 1 + y + y^3 + y^4
    # but the dual is the even-weight subcode of a 3-cube, W = 1 + 3y^2
    C = LinearCode(gf, [[1, 1, 1, 0], [0, 0, 0, 1]])
    assert not is_formally_self_dual(C)


def test_enumeration_budget_raises():
    gf = GF(2)
    k = 30
    G = np.concatenate([np.eye(k, dtype=np.int8), np.ones((k, 1), dtype=np.int8)], axis=1)
    C = LinearCode(gf, G)
    with pytest.raises(BudgetExceededError):
        weight_enumerator(C)
    with pytest.raises(BudgetExceededError):
        minimum_weight(C)
