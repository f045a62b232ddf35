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

guarantees a double Toeplitz [n, n/2, >= d] code.  The smallest stable
such n is computed by :func:`minimal_guaranteed_length`.
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

# Verification horizon: a length n counts as a threshold only if the
# existence bound also holds at every even length in (n, n + HORIZON].
# The bound is not proved monotone in n, so the horizon makes the
# minimality claim checkable instead of assumed.
HORIZON = 200

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


def minimal_guaranteed_length(
    gf: GF, d: int, horizon: int = HORIZON, diagnostics: list | None = None
) -> int:
    """Smallest even n at which the existence bound holds stably.

    Returns the least even n such that ``existence_bound_holds`` is
    true at every even length in [n, n + horizon].  If the indicator
    flips from true back to false inside the scanned range (it is not
    proved monotone), each flip point is appended to ``diagnostics``
    when a list is supplied.
    """
    if not 1 <= d <= _MAX_SUPPORTED_D:
        raise ValueError(f"supported minimum weights are 1..{_MAX_SUPPORTED_D}, got {d}")
    run_start = None
    n = 2
    scan_limit = 5000
    while n <= scan_limit:
        if existence_bound_holds(gf, n, d):
            if run_start is None:
                run_start = n
            if n - run_start >= horizon:
                return run_start
        else:
            if run_start is not None and diagnostics is not None:
                diagnostics.append(n)
            run_start = None
        n += 2
    raise RuntimeError(
        f"no stable threshold for d = {d} over F{gf.q} found below n = {scan_limit}"
    )
