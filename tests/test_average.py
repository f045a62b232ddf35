"""Family-averaged weight enumerator and the existence thresholds."""

import itertools
import math

import pytest

from dtcodes import (
    GF,
    BudgetExceededError,
    average_weight_enumerator,
    average_weight_enumerator_bruteforce,
    count_codes_containing,
    existence_bound_holds,
    minimal_guaranteed_length,
)
from dtcodes import average
from dtcodes.average import _psi_coeff, _tail_certified
from dtcodes.reference_data import GUARANTEED_LENGTH


@pytest.mark.parametrize("q,n", [(2, 2), (2, 4), (2, 6), (2, 8), (3, 4), (3, 6), (4, 4)])
def test_closed_form_matches_brute_force(q, n):
    gf = GF(q)
    assert average_weight_enumerator(gf, n) == average_weight_enumerator_bruteforce(gf, n)


def test_smallest_binary_case_by_hand():
    # the two [2, 1] codes are <(1,0)> and <(1,1)>, so the family
    # enumerator is 2 + y + y^2
    assert list(average_weight_enumerator(GF(2), 2).coeffs) == [2, 1, 1]


def test_coefficient_formula():
    for q, n in ((2, 10), (3, 8), (4, 6)):
        W = average_weight_enumerator(GF(q), n)
        assert W.coeffs[0] == q ** (n - 1)
        for j in range(1, n + 1):
            expected = q ** (n // 2 - 1) * (math.comb(n, j) - math.comb(n // 2, j)) * (q - 1) ** j
            assert W.coeffs[j] == expected


def test_total_counts_all_codewords():
    # summing |C| = q^(n/2) over all q^(n-1) codes
    for q, n in ((2, 12), (3, 8), (4, 10)):
        W = average_weight_enumerator(GF(q), n)
        assert W.total() == q ** (n - 1) * q ** (n // 2)


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4)])
def test_decomposition_over_containment_counts(q, n):
    # psi_j must equal the containment counts summed over weight-j (u, v)
    gf = GF(q)
    m = n // 2
    W = average_weight_enumerator(gf, n)
    acc = [0] * (n + 1)
    for u in itertools.product(range(q), repeat=m):
        for v in itertools.product(range(q), repeat=m):
            j = sum(1 for x in u + v if x)
            acc[j] += count_codes_containing(gf, n, u, v)
    assert acc == list(W.coeffs)


def test_input_validation():
    gf = GF(2)
    with pytest.raises(ValueError):
        average_weight_enumerator(gf, 5)
    with pytest.raises(ValueError):
        existence_bound_holds(gf, 4, 0)
    with pytest.raises(BudgetExceededError):
        average_weight_enumerator_bruteforce(gf, 14)
    with pytest.raises(ValueError):
        minimal_guaranteed_length(gf, 0)
    with pytest.raises(ValueError):
        minimal_guaranteed_length(gf, 51)


def test_threshold_spot_values():
    assert minimal_guaranteed_length(GF(2), 5) == 30
    assert minimal_guaranteed_length(GF(3), 6) == 26
    assert minimal_guaranteed_length(GF(4), 10) == 42
    assert minimal_guaranteed_length(GF(3), 28) == 162


def test_threshold_is_a_boundary():
    for q, d in ((2, 5), (3, 6), (4, 10)):
        gf = GF(q)
        n = minimal_guaranteed_length(gf, d)
        assert existence_bound_holds(gf, n, d)
        assert not existence_bound_holds(gf, n - 2, d)


def test_indicator_never_flips_back():
    # the tail certificate claims the bound at every longer length;
    # check it exactly over 200 lengths past each recorded threshold and
    # past the first length that carries the certificate
    for q, per_d in GUARANTEED_LENGTH.items():
        gf = GF(q)
        for d, threshold in per_d.items():
            certified = threshold
            while not _tail_certified(q, certified, d):
                certified += 2
            for n in range(threshold, certified + 201, 2):
                assert existence_bound_holds(gf, n, d), (q, d, n)


def test_tail_certificate_is_sound():
    # wherever the certificate is granted, its inductive step must hold
    # and the exact test must hold there and at every longer length checked
    granted = 0
    for q in (2, 3, 4):
        gf = GF(q)
        for d in range(1, 13):
            for n in range(2, 121, 2):
                if _tail_certified(q, n, d):
                    granted += 1
                    # the step n -> n+2 multiplies no term of U by more than q
                    assert all(math.comb(n + 2, j) <= q * math.comb(n, j) for j in range(d))
                    for m in range(n, n + 61, 2):
                        assert existence_bound_holds(gf, m, d), (q, d, n, m)
    assert granted > 0


def test_trivial_target_weight():
    # d = 1 imposes an empty sum, so the bound holds from n = 2 on
    for q in (2, 3, 4):
        assert minimal_guaranteed_length(GF(q), 1) == 2


def _upward_scan_threshold(gf, d):
    # the thresholds as first computed, kept as the oracle: the exact
    # psi sum at every even length, upward to the first certified one
    def existence_bound_holds(gf, n, d):
        q = gf.q
        low_weight_total = sum(_psi_coeff(q, n, j) for j in range(1, d))
        return low_weight_total < q ** (n - 1) * (q - 1)

    def _tail_certified(q, n, d):
        U = sum(math.comb(n, j) * (q - 1) ** j for j in range(d))
        return U < q ** (n // 2) * (q - 1) and (n + 2) * (n + 1) <= q * (n + 3 - d) * (n + 2 - d)

    threshold = n = 2
    while not _tail_certified(gf.q, n, d):
        if not existence_bound_holds(gf, n, d):
            threshold = n + 2
        n += 2
    return threshold


@pytest.mark.parametrize("q", [2, 3, 4])
def test_threshold_search_matches_upward_scan(q):
    gf = GF(q)
    for d in range(1, 51):
        assert minimal_guaranteed_length(gf, d) == _upward_scan_threshold(gf, d), (q, d)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_divided_bound_matches_the_enumerator(q):
    # d runs past n/2 and past n, where the binomials vanish
    gf = GF(q)
    for n in range(2, 121, 2):
        coeffs = average_weight_enumerator(gf, n).coeffs
        for d in range(1, n + 3):
            expected = sum(coeffs[1:d]) < q ** (n - 1) * (q - 1)
            assert existence_bound_holds(gf, n, d) == expected, (q, n, d)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_tail_certificate_is_monotone(q):
    # the bisection in minimal_guaranteed_length relies on this
    for d in range(1, 51):
        certified = [_tail_certified(q, n, d) for n in range(2, 603, 2)]
        assert certified == sorted(certified), (q, d)


def test_threshold_takes_few_evaluations(monkeypatch):
    calls = []
    sums = average._low_weight_sums

    def counted(q, n, d):
        calls.append((q, n, d))
        return sums(q, n, d)

    monkeypatch.setattr(average, "_low_weight_sums", counted)
    for q in (2, 3, 4):
        for d in range(1, 51):
            calls.clear()
            minimal_guaranteed_length(GF(q), d)
            assert len(calls) <= 24, (q, d, len(calls))
