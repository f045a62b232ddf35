"""Linear codes over F2/F3/F4 given by generator matrices.

Provides encoding, exact weight enumerators, exact minimum weights over
two information sets (Brouwer-Zimmermann), dual codes, and a MacWilliams
transform used as an independent cross-check.

Enumeration budgets
-------------------
Everything message-space sized is guarded by ``ENUM_BUDGET``: the
dimension limits 24 (F2), 15 (F3) and 13 (F4).  Exceeding a budget
raises :class:`BudgetExceededError` naming the limit instead of
silently truncating.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .gf import GF, gf_matmul, parse_element, render_element

__all__ = [
    "ENUM_BUDGET",
    "BudgetExceededError",
    "WeightEnumerator",
    "LinearCode",
    "weight",
    "weight_enumerator",
    "minimum_weight",
    "min_weight_at_least",
    "dual_code",
    "is_formally_self_dual",
    "macwilliams_dual_enumerator",
]

# Largest dimension whose full message space q^k is enumerable here.
ENUM_BUDGET = {2: 24, 3: 15, 4: 13}

_BLOCK_ROWS = 1 << 14


class BudgetExceededError(RuntimeError):
    """An operation would exceed its declared enumeration budget."""


def _check_budget(q: int, k: int, what: str = "dimension") -> None:
    limit = ENUM_BUDGET[q]
    if k > limit:
        raise BudgetExceededError(
            f"{what} {k} exceeds the enumeration budget k <= {limit} for F{q}"
        )


def weight(x) -> int:
    """Hamming weight: the number of nonzero components."""
    return int(np.count_nonzero(np.asarray(x)))


class WeightEnumerator:
    """Coefficient vector of W(y) = sum over codewords of y^wt.

    ``coeffs[j]`` counts the weight-``j`` terms and is an exact Python
    integer; the same container also holds averaged enumerators whose
    coefficients overflow any fixed-width type.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != n + 1:
            raise ValueError(f"need {n + 1} coefficients for length {n}, got {len(coeffs)}")
        if any(c < 0 for c in coeffs):
            raise ValueError("weight enumerator coefficients must be nonnegative")
        self.n = n
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightEnumerator)
            and other.n == self.n
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __repr__(self) -> str:
        return f"WeightEnumerator(n={self.n}, coeffs={list(self.coeffs)})"

    def total(self) -> int:
        """Value at y = 1, i.e. the number of enumerated codewords."""
        return sum(self.coeffs)

    def min_positive_weight(self) -> int:
        """Smallest j >= 1 with a nonzero coefficient."""
        for j in range(1, self.n + 1):
            if self.coeffs[j]:
                return j
        raise ValueError("no nonzero weight present")

    def to_decimal_strings(self) -> list[str]:
        """Serialized form: a list of n+1 decimal strings."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_decimal_strings(cls, strings) -> "WeightEnumerator":
        return cls(len(strings) - 1, [int(s) for s in strings])


class LinearCode:
    """An [n, k] code over ``gf`` spanned by the rows of ``G``.

    The generator matrix must have full row rank; rank is checked at
    construction by elimination, which also gives the systematic form,
    unless G = (I_k | A) already.  Instances are immutable.
    """

    __slots__ = ("gf", "n", "k", "G", "_sys")

    def __init__(self, gf: GF, rows, *, _form=None):
        G = np.array(rows, dtype=np.int8)
        if G.ndim != 2 or G.shape[0] < 1:
            raise ValueError("generator matrix must be a nonempty 2-d array")
        if G.min(initial=0) < 0 or G.max(initial=0) >= gf.q:
            raise ValueError(f"generator entries must be element codes 0..{gf.q - 1}")
        k, n = G.shape
        if k > n:
            raise ValueError(f"dimension {k} exceeds length {n}")
        G.flags.writeable = False
        self.gf = gf
        self.n = n
        self.k = k
        self.G = G
        if _form is not None:  # a systematic form derived by the caller
            B, perm = _form
        elif self.is_systematic():
            # (I_k | B) has rank k by construction: no elimination needed
            B, perm = G[:, k:], np.arange(n)
        else:
            R, pivots = _rref(gf, G)
            if len(pivots) != k:
                raise ValueError(f"generator rows are dependent: rank {len(pivots)} < k = {k}")
            nonpivots = [j for j in range(n) if j not in set(pivots)]
            B, perm = R[:, nonpivots], np.array(list(pivots) + nonpivots)
        B = np.ascontiguousarray(B)
        B.flags.writeable = False
        self._sys = (B, perm)

    @classmethod
    def systematic(cls, gf: GF, A) -> "LinearCode":
        """The code generated by ``(I_k | A)`` for a k-row block ``A``."""
        A = np.asarray(A, dtype=np.int8)
        return cls(gf, np.hstack([np.eye(len(A), dtype=np.int8), A]))

    def encode(self, message) -> np.ndarray:
        """Codeword m G for a length-k message vector."""
        m = np.asarray(message, dtype=np.int8)
        if m.shape != (self.k,):
            raise ValueError(f"message length {m.shape} does not match dimension {self.k}")
        return gf_matmul(self.gf, m, self.G)

    def is_systematic(self) -> bool:
        """True when G = (I_k | A)."""
        return bool(np.array_equal(self.G[:, : self.k], np.eye(self.k, dtype=np.int8)))

    def systematic_right_block(self) -> tuple[np.ndarray, np.ndarray]:
        """Right block and column order of an equivalent systematic form.

        Returns ``(B, perm)`` such that permuting the columns of this
        code by ``perm`` gives the code generated by ``(I_k | B)``.
        Column permutations preserve all weight data, so the weight
        routines below always work on ``(I_k | B)``.
        """
        return self._sys

    def to_text(self) -> str:
        """One row per line, entries comma separated in the field alphabet."""
        return "\n".join(
            ",".join(render_element(self.gf, int(x)) for x in row) for row in self.G
        )

    @classmethod
    def from_text(cls, gf: GF, text: str) -> "LinearCode":
        rows = [line.strip() for line in text.strip().splitlines()]
        return cls(gf, [[parse_element(gf, tok) for tok in row.split(",")] for row in rows if row])

    def __repr__(self) -> str:
        return f"LinearCode(F{self.gf.q}, n={self.n}, k={self.k})"


def _rref(gf: GF, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over the field; returns (R, pivot columns)."""
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


def _index_digits(idx: np.ndarray, q: int, length: int) -> np.ndarray:
    """Odometer digits of each index, one row each, first digit least significant.

    The vectorised form of :func:`structured.digits_of_index`; message,
    candidate and checkpoint orders all rest on it.
    """
    powers = q ** np.arange(length, dtype=np.int64)
    return ((idx[:, None] // powers[None, :]) % q).astype(np.int8)


@functools.cache
def _weight_layer(q: int, k: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The projective weight-w messages of length k, built once per (q, k, w).

    A message and its nonzero scalar multiples give codewords of one
    weight, so only the C(k, w) (q-1)^(w-1) messages whose first
    nonzero entry is 1 are listed.  Returns read-only int8 arrays
    ``(supports, values)``: the supports in ``itertools.combinations``
    order and the (q-1)^(w-1) value patterns that start with 1.  The
    messages are every support with every pattern, support-major.
    """
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), w))
    supports = np.fromiter(flat, dtype=np.int8).reshape(-1, w)
    values = np.array(
        [(1, *rest) for rest in itertools.product(range(1, q), repeat=w - 1)], dtype=np.int8
    )
    supports.flags.writeable = values.flags.writeable = False
    return supports, values


def _weight_layer_blocks(q: int, k: int, w: int, block: int = _BLOCK_ROWS):
    """The messages of :func:`_weight_layer` as dense rows, in blocks of whole supports."""
    supports, values = _weight_layer(q, k, w)
    nv = len(values)
    sup_per_block = max(1, block // nv)
    for lo in range(0, len(supports), sup_per_block):
        S = supports[lo : lo + sup_per_block]
        msgs = np.zeros((len(S) * nv, k), dtype=np.int8)
        np.put_along_axis(msgs, np.repeat(S, nv, axis=0), np.tile(values, (len(S), 1)), axis=1)
        yield msgs


@functools.cache
def _message_table(q: int, k: int) -> np.ndarray:
    """All q^k messages of length k in odometer order, built once per (q, k) (read-only)."""
    msgs = _index_digits(np.arange(q**k, dtype=np.int64), q, k)
    msgs.flags.writeable = False
    return msgs


def _codeword_blocks(gf: GF, B: np.ndarray):
    """All q^k codewords of (I_k | B), in blocks of at most ``_BLOCK_ROWS`` messages
    in odometer order, digit 0 fastest (budget-guarded).  For a stack of right
    blocks B, shape (c, k, n - k), a block of words has shape (c, rows, n)."""
    k = B.shape[-2]
    _check_budget(gf.q, k)
    total = gf.q**k
    for start in range(0, total, _BLOCK_ROWS):
        msgs = (_message_table(gf.q, k) if total <= _BLOCK_ROWS  # one block: built once
                else _index_digits(np.arange(start, min(start + _BLOCK_ROWS, total)), gf.q, k))
        right = gf_matmul(gf, msgs, B)
        yield np.concatenate([np.broadcast_to(msgs, right.shape[:-1] + (k,)), right], axis=-1)


def weight_enumerator(C: LinearCode) -> WeightEnumerator:
    """Exact weight enumerator by full message-space enumeration."""
    coeffs = np.zeros(C.n + 1, dtype=np.int64)
    for words in _codeword_blocks(C.gf, C.systematic_right_block()[0]):
        coeffs += np.bincount(np.count_nonzero(words, axis=1), minlength=C.n + 1)
    return WeightEnumerator(C.n, coeffs.tolist())


def _layer_min(gf: GF, k: int, w: int, B: np.ndarray, best: int, stop: int) -> int:
    """min(best, w + wt(u B)) over the projective weight-w messages u,
    stopping at the first block that brings it to ``stop`` or below."""
    if best <= stop:
        return best
    for msgs in _weight_layer_blocks(gf.q, k, w):
        best = min(best, w + int(np.count_nonzero(gf_matmul(gf, msgs, B), axis=1).min()))
        if best <= stop:
            break
    return best


def _min_weight_clamped(C: LinearCode, lo: int, hi: int) -> int:
    """The minimum weight d of C clamped to [lo, hi]: max(lo, min(d, hi)).

    Two information sets (K.-H. Zimmermann, TU Hamburg-Harburg report
    3-96, 1996; M. Grassl, "Searching for linear codes with large
    minimum distance", 2006): G1 = (I_k | B) is the stored form, and
    rref((B | I_k)) = (R | M) gives G2 = (M | R), whose pivot columns
    are r = rank(B) columns of B and k - r of the identity.  Messages
    are scanned by ascending weight w through both; once layers 1..w-1
    are done, every unseen codeword has weight at least
    w + max(0, w - (k - r)).  The scan stops when that bound reaches
    the best weight found or ``hi``, or at the first block whose best
    is at most ``lo``.  G2 is built the first time the scan goes past
    layer 1, so a code settled at layer 1 pays no second elimination.
    """
    _check_budget(C.gf.q, C.k)
    B, _ = C.systematic_right_block()
    best = _layer_min(C.gf, C.k, 1, B, C.n + 1, lo)
    blocks, overlap, w = [B], C.k, 2
    while best > lo and w <= C.k and w + max(0, w - overlap) < min(best, hi):
        if len(blocks) == 1:
            # past layer 1: build G2 and scan its layer 1
            swapped = LinearCode(C.gf, np.hstack([B, np.eye(C.k, dtype=np.int8)]))
            B2, perm2 = swapped.systematic_right_block()
            overlap = int(np.count_nonzero(perm2[: C.k] >= B.shape[1]))
            blocks.append(B2)
            best = _layer_min(C.gf, C.k, 1, B2, best, lo)
            continue  # the bound may already stop the scan
        for Bi in blocks:
            best = _layer_min(C.gf, C.k, w, Bi, best, lo)
        w += 1
    return max(lo, min(best, hi))


def minimum_weight(C: LinearCode) -> int:
    """Exact minimum nonzero weight (the scan of :func:`_min_weight_clamped`)."""
    return _min_weight_clamped(C, 1, C.n)


def min_weight_at_least(C: LinearCode, d: int) -> bool:
    """True iff no nonzero codeword has weight below d; the scan stops at
    the first block with a lighter codeword or once its bound reaches d."""
    return _min_weight_clamped(C, d - 1, d) >= d


def dual_code(C: LinearCode) -> LinearCode:
    """The [n, n-k] dual code.

    For G = (I | B) the dual generator is (-B^T | I).  A general G uses
    its stored systematic form: the columns ``perm[:k]`` play the role
    of the identity block, and the construction is permuted back to the
    original column order.
    """
    B, perm = C.systematic_right_block()
    Bd, permd = C.gf.neg_table[B.T], np.concatenate([perm[C.k :], perm[: C.k]])
    H = np.zeros((C.n - C.k, C.n), dtype=np.int8)
    H[:, permd] = np.hstack([np.eye(C.n - C.k, dtype=np.int8), Bd])
    # (I | -B^T) in the order permd is H's systematic form: no elimination
    return LinearCode(C.gf, H, _form=(Bd, permd))


def is_formally_self_dual(C: LinearCode) -> bool:
    """Whether C and its dual share one weight enumerator."""
    _check_budget(C.gf.q, C.k)
    _check_budget(C.gf.q, C.n - C.k, "dual dimension")
    return weight_enumerator(C) == weight_enumerator(dual_code(C))


def _krawtchouk(j: int, i: int, n: int, q: int) -> int:
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
        for s in range(0, j + 1)
    )


def macwilliams_dual_enumerator(W: WeightEnumerator, q: int, k: int) -> WeightEnumerator:
    """Dual enumerator through the MacWilliams transform, exactly.

    Independent of :func:`dual_code`; used to cross-check it.  The
    transform of an [n, k] enumerator is

        W'(j) = q^(-k) * sum_i W(i) * K_j(i)

    with Krawtchouk coefficients K_j.  All divisions must be exact.
    """
    n = W.n
    coeffs = []
    for j in range(n + 1):
        num = sum(W.coeffs[i] * _krawtchouk(j, i, n, q) for i in range(n + 1))
        div, rem = divmod(num, q**k)
        if rem:
            raise ValueError("MacWilliams transform of a non-code enumerator")
        coeffs.append(div)
    return WeightEnumerator(n, coeffs)
