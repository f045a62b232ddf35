"""Toeplitz, circulant and negacirculant code constructors.

A double Toeplitz code T(t, a, b) is the [2m, m] code generated by
(I_m | T) where T is the m x m Toeplitz matrix with diagonal ``t``,
upper band ``a`` and lower band ``b``:

    T[i, j] = t        if i == j
              a[j - i] if j > i
              b[i - j] if i > j       (1-based band indices)

Double circulant C(r) and double negacirculant N(r) codes are the
special cases where T is the (nega)circulant matrix with first row r.
Each matrix is read off its band sequence S = (b_{m-1}, ..., b_1, t,
a_1, ..., a_{m-1}), whose sliding windows are its rows; a (nega)circulant
matrix with first row r and sign mu has S = (mu r_2, ..., mu r_m, r).

The triple space for length n carries a fixed enumeration order: t
varies slowest, then the digits of a, then the digits of b, each vector
counted odometer style with its first entry least significant.  Search
partitioning and checkpointing rely on this order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gf import GF, gf_matmul, parse_element, parse_vector, render_element, render_vector
from .linear import BudgetExceededError, LinearCode

__all__ = [
    "ToeplitzTriple",
    "CirculantSpec",
    "toeplitz_matrix",
    "circulant_matrix",
    "double_toeplitz_code",
    "double_circulant_code",
    "double_negacirculant_code",
    "contains_vector",
    "count_codes_containing",
    "count_codes_containing_bruteforce",
    "triple_count",
    "enumerate_triples",
    "parse_triple",
    "parse_circulant",
]

# Largest n for which the q^(n-1) triple space is brute-forced: by the
# containment count here and by the average enumerator oracle.
BRUTE_FORCE_N = {2: 12, 3: 8, 4: 6}


@dataclass(frozen=True)
class ToeplitzTriple:
    """Defining data (t, a, b) of a double Toeplitz code of length 2m."""

    gf: GF
    t: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        check = self.gf._check
        object.__setattr__(self, "a", tuple(map(check, self.a)))
        object.__setattr__(self, "b", tuple(map(check, self.b)))
        object.__setattr__(self, "t", check(self.t))
        if len(self.a) != len(self.b):
            raise ValueError("bands a and b must have equal length m-1")

    @property
    def m(self) -> int:
        return len(self.a) + 1

    @property
    def n(self) -> int:
        return 2 * self.m

    def to_text(self) -> str:
        """Triple literal ``t;a;b``, e.g. ``0;(1,1,0);(1,0,0)``."""
        g = self.gf
        return ";".join(
            (render_element(g, self.t), render_vector(g, self.a), render_vector(g, self.b))
        )


@dataclass(frozen=True)
class CirculantSpec:
    """First row ``r`` and sign ``mu`` of a (nega)circulant matrix."""

    gf: GF
    r: tuple[int, ...]
    mu: int = 1

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(map(self.gf._check, self.r)))
        if self.mu not in (1, -1):
            raise ValueError("mu must be +1 (circulant) or -1 (negacirculant)")
        if len(self.r) < 1:
            raise ValueError("first row must be nonempty")

    @property
    def m(self) -> int:
        return len(self.r)

    def to_text(self) -> str:
        """Literal ``C:(r)`` or ``N:(r)``."""
        prefix = "C" if self.mu == 1 else "N"
        return f"{prefix}:{render_vector(self.gf, self.r)}"


def parse_triple(gf: GF, text: str) -> ToeplitzTriple:
    """Parse a ``t;a;b`` literal."""
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(f"triple literal must have three ';'-separated parts: {text!r}")
    t = parse_element(gf, parts[0])
    a = parse_vector(gf, parts[1])
    b = parse_vector(gf, parts[2])
    return ToeplitzTriple(gf, t, tuple(a), tuple(b))


def parse_circulant(gf: GF, text: str) -> CirculantSpec:
    """Parse a ``C:(r)`` or ``N:(r)`` literal."""
    s = text.strip()
    if len(s) < 2 or s[0] not in "CN" or s[1] != ":":
        raise ValueError(f"circulant literal must look like 'C:(...)' or 'N:(...)': {text!r}")
    r = parse_vector(gf, s[2:])
    return CirculantSpec(gf, tuple(r), 1 if s[0] == "C" else -1)


def triple_bands(t, A, B) -> np.ndarray:
    """Band sequences (b_{m-1}, ..., b_1, t, a_1, ..., a_{m-1}) of t (...) and A, B (..., m-1)."""
    A, B = np.asarray(A, dtype=np.int8), np.asarray(B, dtype=np.int8)
    return np.concatenate((B[..., ::-1], np.asarray(t, dtype=np.int8)[..., None], A), axis=-1)


def circulant_bands(gf: GF, R, mu: int) -> np.ndarray:
    """Band sequences (mu r_2, ..., mu r_m, r) of the first rows R (..., m) with sign mu."""
    R = np.asarray(R, dtype=np.int8)
    return np.concatenate((R[..., 1:] if mu == 1 else gf.neg_table[R[..., 1:]], R), axis=-1)


def band_sequence(spec: ToeplitzTriple | CirculantSpec) -> np.ndarray:
    """The band sequence of a triple or of a (nega)circulant first row."""
    if isinstance(spec, CirculantSpec):
        return circulant_bands(spec.gf, spec.r, spec.mu)
    return triple_bands(spec.t, spec.a, spec.b)


def split_bands(S) -> tuple[int, list[int], list[int]]:
    """(t, a, b) of a band sequence as an int and lists: the inverse of :func:`triple_bands`."""
    s = np.asarray(S).tolist()
    m = (len(s) + 1) // 2
    return s[m - 1], s[m:], s[: m - 1][::-1]


def _triple_order(S: np.ndarray, major: np.ndarray) -> np.ndarray:
    """The stable order of band sequences S (rows, 2m-1) by ``major`` (rows,), then by their
    triples (t, *a, *b) read lexicographically: one lexsort of major and the band columns."""
    m = (S.shape[-1] + 1) // 2
    # the columns of b_{m-1}, ..., b_1, a_{m-1}, ..., a_1, t: lexsort keys, primary last
    return np.lexsort((*S[:, [*range(m - 1), *range(2 * m - 2, m - 2, -1)]].T, major))


def band_images(gf: GF, S) -> np.ndarray:
    """The images (..., 2(q-1)^2, 2m-1) of band sequences S (..., 2m-1) under the
    scalings, twists and swap, each of which spans a monomially equivalent code.

    Image (s (q-1) + e) (q-1) + c - 1 multiplies S_l by c α^(e (l-m+1)),
    for α the generator 1, 2, w of F2, F3, F4, and reverses the result
    when s = 1.  With A = T(t, a, b):

    - scaling: (I | cA) is (I | A) with its right half scaled by c;
    - twist: D⁻¹AD for D = diag(α^i) sends a_k -> α^k a_k and
      b_k -> α^-k b_k, and (I | D⁻¹AD) spans (I | A) diag(D, D);
    - swap: JAJ for the reversal J swaps a and b, and (I | JAJ) spans
      (I | A) diag(J, J), each half's columns reversed.
    """
    S = np.asarray(S, dtype=np.int8)
    q, m = gf.q, (S.shape[-1] + 1) // 2
    mul = gf.mul_table
    powers = [1]  # α^0 .. α^(q-2), for α = 2 over F3 and F4 (the loop skips F2)
    while len(powers) < q - 1:
        powers.append(int(mul[powers[-1], 2]))
    exponents = np.outer(np.arange(q - 1), np.arange(1 - m, m)) % (q - 1)  # [e, l]: e (l-m+1)
    twist = np.array(powers, dtype=np.int8)[exponents]
    factor = mul[twist[:, None], np.arange(1, q)[:, None]]  # [e, c-1, l]
    images = mul[factor, S[..., None, None, :]].reshape(*S.shape[:-1], (q - 1) ** 2, S.shape[-1])
    return np.concatenate((images, images[..., ::-1]), axis=-2)


def orbit_keys(gf: GF, S) -> np.ndarray:
    """The least image of each band sequence of S (..., 2m-1) under :func:`band_images`,
    read as a base-q integer with S_0 most significant: equal keys, equivalent codes."""
    S = np.asarray(S, dtype=np.int8)
    if gf.q ** S.shape[-1] > 1 << 62:
        raise ValueError(f"an F{gf.q} band sequence of length {S.shape[-1]} overflows an orbit key")
    keys = np.int64(0)  # Horner steps over the band axis: no int8 image is widened to int64
    for column in np.moveaxis(band_images(gf, S), -1, 0):
        keys = keys * gf.q + column
    return keys.min(axis=-1)


def toeplitz_windows(S: np.ndarray) -> np.ndarray:
    """Toeplitz matrix views (..., m, m) of band sequences S (..., 2m-1): row i is S[m-1-i : 2m-1-i]."""
    m = (S.shape[-1] + 1) // 2
    return np.lib.stride_tricks.sliding_window_view(S, m, axis=-1)[..., ::-1, :]


def toeplitz_matrix(T: ToeplitzTriple) -> np.ndarray:
    """The m x m Toeplitz matrix of the triple."""
    return np.ascontiguousarray(toeplitz_windows(band_sequence(T)))


def circulant_matrix(spec: CirculantSpec) -> np.ndarray:
    """The (nega)circulant matrix with first row r, built directly.

    Entry (i, j) is r[(j - i) mod m], scaled by mu (the field's 1 or
    -1) whenever the index wraps (j < i).
    """
    m = spec.m
    gf = spec.gf
    r = np.array(spec.r, dtype=np.int8)
    i, j = np.indices((m, m))
    A = r[(j - i) % m]
    wrapped = j < i
    A[wrapped] = gf.mul_table[1 if spec.mu == 1 else gf.neg_table[1], A[wrapped]]
    return A


def _circulant_flags(gf: GF, S) -> tuple[np.ndarray, np.ndarray]:
    """Whether each band sequence of S (..., 2m-1) is circulant, and whether it is
    negacirculant: equal to :func:`circulant_bands` of its own first row S[..., m-1:]
    with sign +1 or -1, that is a == reversed(b) or a == -reversed(b)."""
    S = np.asarray(S, dtype=np.int8)
    R = S[..., S.shape[-1] // 2 :]
    return tuple((circulant_bands(gf, R, mu) == S).all(axis=-1) for mu in (1, -1))


def double_toeplitz_code(T: ToeplitzTriple) -> LinearCode:
    """The [2m, m] code with generator (I | T(t,a,b))."""
    return LinearCode.systematic(T.gf, toeplitz_matrix(T))


def double_circulant_code(spec: CirculantSpec) -> LinearCode:
    """The [2m, m] code with generator (I | circulant(r))."""
    if spec.mu != 1:
        raise ValueError("double_circulant_code needs mu = +1")
    return LinearCode.systematic(spec.gf, circulant_matrix(spec))


def double_negacirculant_code(spec: CirculantSpec) -> LinearCode:
    """The [2m, m] code with generator (I | negacirculant(r))."""
    if spec.mu != -1:
        raise ValueError("double_negacirculant_code needs mu = -1")
    return LinearCode.systematic(spec.gf, circulant_matrix(spec))


def contains_vector(T: ToeplitzTriple, u, v) -> bool:
    """Whether (u, v) is a codeword of the double Toeplitz code.

    (u, v) lies in the code exactly when u A = v for A = T(t,a,b),
    since the codeword with message u is (u, uA).
    """
    u, v = _check_halves(T.gf, T.n, u, v)
    return bool(np.array_equal(gf_matmul(T.gf, u, toeplitz_matrix(T)), v))


def _check_even_length(n: int) -> None:
    if n % 2 or n < 2:
        raise ValueError(f"length n must be even and positive, got {n}")


def _check_halves(gf: GF, n: int, u, v) -> tuple[np.ndarray, np.ndarray]:
    _check_even_length(n)
    u, v = gf._check_array(u), gf._check_array(v)
    if u.shape != (n // 2,) or v.shape != (n // 2,):
        raise ValueError(f"u and v must both have length n/2 = {n // 2}")
    return u, v


def _brute_force_triples(gf: GF, n: int, what: str):
    """All triples of length n for a brute-force ``what``, within ``BRUTE_FORCE_N``."""
    limit = BRUTE_FORCE_N[gf.q]
    if n > limit:
        raise BudgetExceededError(
            f"brute-force {what} over q^(n-1) codes needs n <= {limit} for F{gf.q}"
        )
    return enumerate_triples(gf, n // 2)


def count_codes_containing(gf: GF, n: int, u, v) -> int:
    """How many of the q^(n-1) double Toeplitz codes contain (u, v).

    Closed form: q^(n-1) when u = v = 0; zero when u = 0 but v != 0;
    q^(n/2-1) when u != 0 (independent of v).
    """
    u, v = _check_halves(gf, n, u, v)
    q = gf.q
    if not u.any():
        return q ** (n - 1) if not v.any() else 0
    return q ** (n // 2 - 1)


def count_codes_containing_bruteforce(gf: GF, n: int, u, v) -> int:
    """The same count by iterating every triple and testing membership."""
    u, v = _check_halves(gf, n, u, v)
    return sum(1 for T in _brute_force_triples(gf, n, "count") if contains_vector(T, u, v))


def triple_count(gf: GF, m: int) -> int:
    """Size of the triple space: q^(2m-1)."""
    return gf.q ** (2 * m - 1)


def digits_of_index(idx: int, q: int, length: int) -> tuple[int, ...]:
    """Odometer digits of an index, first digit least significant."""
    return tuple(idx // q**i % q for i in range(length))


def index_of_digits(digits, q: int) -> int:
    """The index of odometer digits, sum_i d_i q^i: the inverse of :func:`digits_of_index`."""
    return sum(int(d) * q**i for i, d in enumerate(digits))


def enumerate_triples(gf: GF, m: int):
    """All q^(2m-1) triples in enumeration order.

    t slowest, then a, then b; within a and b the first entry is the
    least significant digit.
    """
    bands = [digits_of_index(i, gf.q, m - 1) for i in range(gf.q ** (m - 1))]
    for t, a, b in itertools.product(range(gf.q), bands, bands):
        yield ToeplitzTriple(gf, t, a, b)
