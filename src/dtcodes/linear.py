"""Linear codes over F2/F3/F4 given by generator matrices.

Provides encoding, exact weight enumerators, pruned minimum-weight
computation, dual codes, and a MacWilliams transform used as an
independent cross-check.

Enumeration budgets
-------------------
Everything message-space sized is guarded by ``ENUM_BUDGET``: the
dimension limits 24 (F2), 15 (F3) and 13 (F4).  Exceeding a budget
raises :class:`BudgetExceededError` naming the limit instead of
silently truncating.
"""

from __future__ import annotations

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

    def __init__(self, gf: GF, rows):
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
        if self.is_systematic():
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
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line:
                continue
            rows.append([parse_element(gf, tok) for tok in line.split(",")])
        return cls(gf, rows)

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
        pivot = None
        for i in range(r, rows):
            if R[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            R[[r, pivot]] = R[[pivot, r]]
        scale = gf.inv_table[R[r, c]]
        R[r] = gf.mul_table[scale, R[r]]
        for i in range(rows):
            if i != r and R[i, c]:
                coef = gf.neg_table[R[i, c]]
                R[i] = gf.add_table[R[i], gf.mul_table[coef, R[r]]]
        pivots.append(c)
        r += 1
    return R, pivots


def _message_blocks(q: int, k: int, block: int = _BLOCK_ROWS):
    """All q^k messages in odometer order (digit 0 fastest), in blocks."""
    total = q**k
    powers = q ** np.arange(k, dtype=np.int64)
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        digits = ((idx[:, None] // powers[None, :]) % q).astype(np.int8)
        yield digits


def _weight_layer_blocks(q: int, k: int, w: int, block: int = _BLOCK_ROWS):
    """All weight-w messages of length k, grouped into blocks.

    Supports come from ``itertools.combinations`` in lexicographic
    order; for q > 2 each support carries every pattern of nonzero
    values.
    """
    if w == 0:
        yield np.zeros((1, k), dtype=np.int8)
        return
    nonzero = np.array(list(itertools.product(range(1, q), repeat=w)), dtype=np.int8)
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


def weight_enumerator(C: LinearCode) -> WeightEnumerator:
    """Exact weight enumerator by full message-space enumeration."""
    _check_budget(C.gf.q, C.k)
    B, _ = C.systematic_right_block()
    coeffs = np.zeros(C.n + 1, dtype=np.int64)
    for msgs in _message_blocks(C.gf.q, C.k):
        right = gf_matmul(C.gf, msgs, B)
        wts = np.count_nonzero(msgs, axis=1) + np.count_nonzero(right, axis=1)
        coeffs += np.bincount(wts, minlength=C.n + 1)
    return WeightEnumerator(C.n, coeffs.tolist())


def minimum_weight(C: LinearCode) -> int:
    """Exact minimum nonzero weight.

    Works on the systematic form (I | B): a codeword with message u has
    weight wt(u) + wt(uB), so scanning messages by ascending weight can
    stop as soon as the layer weight reaches the best weight found.
    """
    _check_budget(C.gf.q, C.k)
    B, _ = C.systematic_right_block()
    ub = 1 + int(np.count_nonzero(B, axis=1).min()) if B.shape[1] else 1
    w = 1
    while w < ub:
        for msgs in _weight_layer_blocks(C.gf.q, C.k, w):
            right = gf_matmul(C.gf, msgs, B)
            layer_min = w + int(np.count_nonzero(right, axis=1).min())
            if layer_min < ub:
                ub = layer_min
        w += 1
    return ub


def min_weight_at_least(C: LinearCode, d: int) -> bool:
    """True iff no nonzero codeword has weight below d.

    Short-circuits at the first violating block: messages of weight w
    only need checking while w < d, since wt(codeword) >= wt(message).
    """
    _check_budget(C.gf.q, C.k)
    if d <= 1:
        return True
    B, _ = C.systematic_right_block()
    for w in range(1, d):
        for msgs in _weight_layer_blocks(C.gf.q, C.k, w):
            right = gf_matmul(C.gf, msgs, B)
            if np.any(np.count_nonzero(right, axis=1) < d - w):
                return False
    return True


def dual_code(C: LinearCode) -> LinearCode:
    """The [n, n-k] dual code.

    For G = (I | B) the dual generator is (-B^T | I).  A general G uses
    its stored systematic form: the columns ``perm[:k]`` play the role
    of the identity block, and the construction is permuted back to the
    original column order.
    """
    B, perm = C.systematic_right_block()
    H = np.zeros((C.n - C.k, C.n), dtype=np.int8)
    H[:, perm[C.k :]] = np.eye(C.n - C.k, dtype=np.int8)
    H[:, perm[: C.k]] = C.gf.neg_table[B.T]
    return LinearCode(C.gf, H)


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
