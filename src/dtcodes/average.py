"""Average weight enumerator of the double Toeplitz family.

For even n let Omega be the set of all q^(n-1) double Toeplitz [n, n/2]
codes.  The average weight enumerator

    Psi_{q,n}(y) = sum over C in Omega of W_C(y)

has the closed form

    Psi = q^(n-1) + q^(n/2-1) * sum_{j>=1} (C(n,j) - C(n/2,j)) (q-1)^j y^j

(the binomial C(n/2, j) vanishes for j > n/2, so the one expression
covers both the j <= n/2 and j > n/2 ranges).  Averaging gives an
existence test: if the codes jointly carry fewer low-weight words than
one word per code, some code has none, so

    sum_{i=1}^{d-1} psi_{q,n,i} < q^(n-1) * (q-1)

guarantees a double Toeplitz [n, n/2, >= d] code.  The smallest n from
which the test holds at every even length, with a proof for the whole
tail, is computed by :func:`minimal_guaranteed_length`.
"""

from __future__ import annotations

import math

from .gf import GF
from .linear import BudgetExceededError, WeightEnumerator, weight_enumerator
from .structured import BRUTE_FORCE_N, double_toeplitz_code, enumerate_triples

__all__ = [
    "average_weight_enumerator",
    "average_weight_enumerator_bruteforce",
    "existence_bound_holds",
    "minimal_guaranteed_length",
]

_MAX_SUPPORTED_D = 50


def _check_even(n: int) -> None:
    if n % 2 or n < 2:
        raise ValueError(f"length n must be even and positive, got {n}")


def _psi_coeff(q: int, n: int, j: int) -> int:
    if j == 0:
        return q ** (n - 1)
    return q ** (n // 2 - 1) * (math.comb(n, j) - math.comb(n // 2, j)) * (q - 1) ** j


def average_weight_enumerator(gf: GF, n: int) -> WeightEnumerator:
    """Closed-form Psi_{q,n} as an exact coefficient vector."""
    _check_even(n)
    return WeightEnumerator(n, [_psi_coeff(gf.q, n, j) for j in range(n + 1)])


def average_weight_enumerator_bruteforce(gf: GF, n: int) -> WeightEnumerator:
    """Psi_{q,n} summed code by code over the whole triple space."""
    _check_even(n)
    limit = BRUTE_FORCE_N[gf.q]
    if n > limit:
        raise BudgetExceededError(
            f"brute-force average over q^(n-1) codes needs n <= {limit} for F{gf.q}"
        )
    coeffs = [0] * (n + 1)
    for T in enumerate_triples(gf, n // 2):
        W = weight_enumerator(double_toeplitz_code(T))
        for j, c in enumerate(W.coeffs):
            coeffs[j] += c
    return WeightEnumerator(n, coeffs)


def existence_bound_holds(gf: GF, n: int, d: int) -> bool:
    """Strict averaging inequality guaranteeing an [n, n/2, >= d] code.

    True iff sum_{i=1}^{d-1} psi_{q,n,i} < q^(n-1) * (q-1).
    """
    _check_even(n)
    if d < 1:
        raise ValueError(f"minimum weight target must be positive, got {d}")
    q = gf.q
    low_weight_total = sum(_psi_coeff(q, n, j) for j in range(1, d))
    return low_weight_total < q ** (n - 1) * (q - 1)


def _tail_certified(q: int, n: int, d: int) -> bool:
    """Whether the existence bound provably holds at every even length >= n.

    U(n) = sum_{j<d} C(n,j) (q-1)^j bounds the low-weight sum divided
    by q^(n/2-1), so U(n) < q^(n/2) (q-1) proves the bound at n.  The
    ratio C(n+2,j) / C(n,j) = (n+2)(n+1) / ((n+2-j)(n+1-j)) grows with
    j and shrinks with n, so if it is at most q at j = d-1 then every
    later step n -> n+2 multiplies U by at most q while the right side
    grows by exactly q.  For d > n the first test fails (U(n) = q^n).
    """
    U = sum(math.comb(n, j) * (q - 1) ** j for j in range(d))
    return U < q ** (n // 2) * (q - 1) and (n + 2) * (n + 1) <= q * (n + 3 - d) * (n + 2 - d)


def minimal_guaranteed_length(gf: GF, d: int) -> int:
    """Smallest even n such that the existence bound holds at every even length >= n.

    Even lengths are tested exactly, upward, until one carries the tail
    certificate of :func:`_tail_certified`; the threshold is the last
    failing length plus 2.
    """
    if not 1 <= d <= _MAX_SUPPORTED_D:
        raise ValueError(f"supported minimum weights are 1..{_MAX_SUPPORTED_D}, got {d}")
    threshold = n = 2
    while not _tail_certified(gf.q, n, d):
        if not existence_bound_holds(gf, n, d):
            threshold = n + 2
        n += 2
    return threshold
