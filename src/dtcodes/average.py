"""Average weight enumerator of the double Toeplitz family.

For even n the q^(n-1) double Toeplitz [n, n/2] codes have the summed
weight enumerator (C(n/2, j) vanishes for j > n/2)

    Psi_{q,n}(y) = q^(n-1) + q^(n/2-1) sum_{j>=1} (C(n,j) - C(n/2,j)) (q-1)^j y^j.

If they jointly carry fewer words of weight 1..d-1 than one per code,
some code has none; :func:`existence_bound_holds` tests this divided by
q^(n/2-1), U - V < q^(n/2) (q-1), and :func:`minimal_guaranteed_length`
bisects its monotone tail certificate and scans down to the threshold.
"""

from __future__ import annotations

import math

from .gf import GF
from .linear import WeightEnumerator, weight_enumerator
from .structured import _brute_force_triples, _check_even_length, double_toeplitz_code

__all__ = [
    "average_weight_enumerator",
    "average_weight_enumerator_bruteforce",
    "existence_bound_holds",
    "minimal_guaranteed_length",
]

_MAX_SUPPORTED_D = 50


def _psi_coeff(q: int, n: int, j: int) -> int:
    if j == 0:
        return q ** (n - 1)
    return q ** (n // 2 - 1) * (math.comb(n, j) - math.comb(n // 2, j)) * (q - 1) ** j


def average_weight_enumerator(gf: GF, n: int) -> WeightEnumerator:
    """Closed-form Psi_{q,n} as an exact coefficient vector."""
    _check_even_length(n)
    return WeightEnumerator(n, [_psi_coeff(gf.q, n, j) for j in range(n + 1)])


def average_weight_enumerator_bruteforce(gf: GF, n: int) -> WeightEnumerator:
    """Psi_{q,n} summed code by code over the whole triple space."""
    _check_even_length(n)
    triples = _brute_force_triples(gf, n, "average")
    enumerators = (weight_enumerator(double_toeplitz_code(T)).coeffs for T in triples)
    return WeightEnumerator(n, [sum(column) for column in zip(*enumerators)])


def _low_weight_sums(q: int, n: int, d: int) -> tuple[int, int]:
    """(U, V) = (sum_{j<d} C(n,j) (q-1)^j, sum_{j<d} C(n/2,j) (q-1)^j) by running
    terms t_{j+1} = t_j (n-j) // (j+1) (q-1), exact as C(n,j) (n-j) = C(n,j+1) (j+1)."""
    U = V = 0
    u = v = 1
    for j in range(d):
        U += u
        V += v
        u = u * (n - j) // (j + 1) * (q - 1)
        v = v * (n // 2 - j) // (j + 1) * (q - 1)
    return U, V


def existence_bound_holds(gf: GF, n: int, d: int) -> bool:
    """Whether sum_{0<i<d} psi_{q,n,i} < q^(n-1) (q-1), which guarantees an [n, n/2, >= d]
    code; tested divided by q^(n/2-1), as U - V < q^(n/2) (q-1)."""
    _check_even_length(n)
    if d < 1:
        raise ValueError(f"minimum weight target must be positive, got {d}")
    U, V = _low_weight_sums(gf.q, n, d)
    return U - V < gf.q ** (n // 2) * (gf.q - 1)


def _tail_certified(q: int, n: int, d: int) -> bool:
    """Whether the existence bound provably holds at every even length >= n.

    U < q^(n/2) (q-1) proves it at n, as U >= U - V.  C(n+2,j) / C(n,j) =
    (n+2)(n+1) / ((n+2-j)(n+1-j)) grows with j and shrinks with n; at most q
    at j = d-1, it keeps U(n+2) <= q U(n) and holds again at n+2, so the
    certificate is monotone in n.  For d > n, U = q^n fails the first test.
    """
    U, _ = _low_weight_sums(q, n, d)
    return U < q ** (n // 2) * (q - 1) and (n + 2) * (n + 1) <= q * (n + 3 - d) * (n + 2 - d)


def minimal_guaranteed_length(gf: GF, d: int) -> int:
    """Smallest even n such that the existence bound holds at every even length >= n.

    Gallops n = 2, 4, 8, ... and bisects to the first certified length N,
    then scans down: the threshold is the last failing length below N plus 2.
    """
    if not 1 <= d <= _MAX_SUPPORTED_D:
        raise ValueError(f"supported minimum weights are 1..{_MAX_SUPPORTED_D}, got {d}")
    low, high = 0, 2  # low is 0 or uncertified; high is certified once the gallop stops
    while not _tail_certified(gf.q, high, d):
        low, high = high, 2 * high
    while high - low > 2:
        mid = (low + high) // 4 * 2
        low, high = (low, mid) if _tail_certified(gf.q, mid, d) else (mid, high)
    while high > 2 and existence_bound_holds(gf, high - 2, d):
        high -= 2
    return high
