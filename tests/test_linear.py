"""Linear code container, weight routines, duality."""

import numpy as np
import pytest

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


def test_weight_counts_nonzeros():
    assert weight([0, 0, 0]) == 0
    assert weight([1, 0, 2, 3]) == 3
    assert weight(np.array([[1, 0], [0, 1]])) == 2


def test_enumerator_container_validates():
    W = WeightEnumerator(3, [1, 0, 3, 0])
    assert W.total() == 4
    assert W.min_positive_weight() == 2
    assert WeightEnumerator.from_decimal_strings(W.to_decimal_strings()) == W
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
