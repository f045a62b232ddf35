"""Linear codes over F2/F3/F4 given by generator matrices.

Provides encoding, exact weight enumerators, exact minimum weights over
two information sets (Brouwer-Zimmermann), dual codes, and a MacWilliams
transform used as an independent cross-check.

Systematic forms come from one Gauss-Jordan elimination on rows packed
into Python ints, two bit planes a row (:func:`_rref`).  Minimum weights
scan projective message layers; a layer of at most ``_BLOCK_ROWS``
messages is expanded into dense rows once per (q, k, w) and held
read-only, at most 361 layers and 9.5 MB over every dimension the
budgets allow, and each layer's product with a right block is one
:func:`gf.gf_matmul`, whose integer partial sums are int16 while the
inner dimension allows.

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

from .gf import GF, _f3_add, gf_matmul, parse_element, render_element

__all__ = [
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


def _row_weights(X: np.ndarray) -> np.ndarray:
    """The Hamming weight of each row of X (..., n), in the narrowest unsigned type
    that holds n: the package's one row count, faster than ``np.count_nonzero``."""
    n = X.shape[-1]
    return (X != 0) @ np.ones(n, dtype=np.min_scalar_type(n))


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


class LinearCode:
    """An [n, k] code over ``gf`` spanned by the rows of ``G``.

    The generator matrix must have full row rank; rank is checked at
    construction by elimination, which also gives the systematic form,
    unless G = (I_k | A) already.  Instances are immutable.
    """

    __slots__ = ("gf", "n", "k", "G", "_sys")

    def __init__(self, gf: GF, rows, *, _form=None):
        G = gf._check_array(rows)
        if G.ndim != 2 or G.shape[0] < 1:
            raise ValueError("generator matrix must be a nonempty 2-d array")
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
            B, perm = _systematic_form(gf, G)
        B = np.ascontiguousarray(B)
        B.flags.writeable = False
        self._sys = (B, perm)

    @classmethod
    def systematic(cls, gf: GF, A) -> "LinearCode":
        """The code generated by ``(I_k | A)`` for a k-row block ``A``."""
        A = gf._check_array(A)
        return cls(gf, np.hstack([np.eye(len(A), dtype=np.int8), A]))

    def encode(self, message) -> np.ndarray:
        """Codeword m G for a length-k message vector."""
        m = self.gf._check_array(message)
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
    """Reduced row echelon form over the field; returns (R, pivot columns).

    Gauss-Jordan elimination on packed rows: each row is two Python ints,
    the planes x & 1 and x >> 1 of its entries with column j at bit j.
    Over F4 these are the GF(2) coordinates of x = x0 + w x1, over F3 the
    one-hot planes [x == 1] and [x == 2], and over F2 the second plane
    stays zero.  Scaling a row is a plane swap or XOR, and adding a
    multiple of the pivot row is an XOR of planes, or over F3 the
    bitsliced adder :func:`gf._f3_add`.  Columns are taken left to right,
    each pivot row is the first remaining row with a nonzero entry there,
    and it is swapped up into place; R is rows x cols, zero rows last.
    """
    M = np.asarray(M, dtype=np.int8)
    rows, cols = M.shape
    nbytes = -(-cols // 8)
    raw = np.packbits(np.stack([M & 1, M >> 1]), axis=-1, bitorder="little").tobytes()
    words = [int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") for i in range(2 * rows)]
    lo, hi = words[:rows], words[rows:]
    f3 = gf.q == 3
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        bit = 1 << c
        for pivot in range(r, rows):
            if (lo[pivot] | hi[pivot]) & bit:
                break
        else:
            continue
        lo[r], lo[pivot], hi[r], hi[pivot] = lo[pivot], lo[r], hi[pivot], hi[r]
        x, y = lo[r], hi[r]
        if not x & bit:  # leading 2 over F3 (times 2 swaps), w over F4 (times v = w^2)
            x, y = (y, x) if f3 else (x ^ y, x)
        elif y & bit:  # leading v over F4: times w
            x, y = y, x ^ y
        lo[r], hi[r] = x, y
        for i in range(rows):
            a, b = lo[i], hi[i]
            if i == r or not (a | b) & bit:
                continue
            if f3:  # subtract e times the pivot row: add it negated for e = 1, as is for e = 2
                lo[i], hi[i] = _f3_add(a, b, y, x) if a & bit else _f3_add(a, b, x, y)
            elif not b & bit:  # entry 1
                lo[i], hi[i] = a ^ x, b ^ y
            elif not a & bit:  # entry w: add w (x, y) = (y, x ^ y)
                lo[i], hi[i] = a ^ y, b ^ x ^ y
            else:  # entry v: add v (x, y) = (x ^ y, x)
                lo[i], hi[i] = a ^ x ^ y, b ^ x
        pivots.append(c)
        r += 1
    raw = b"".join(word.to_bytes(nbytes, "little") for word in lo + hi)
    planes = np.frombuffer(raw, dtype=np.uint8).reshape(2, rows, nbytes)
    planes = np.unpackbits(planes, axis=-1, count=cols, bitorder="little")
    return (planes[0] | planes[1] << 1).view(np.int8), pivots


def _systematic_form(gf: GF, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(B, perm)``: permuting the columns of G by ``perm`` gives a generator
    (I_k | B) of the same code, from the pivot columns of ``rref(G)``.

    Raises ValueError when the rows of G are dependent.
    """
    k, n = G.shape
    R, pivots = _rref(gf, G)
    if len(pivots) != k:
        raise ValueError(f"generator rows are dependent: rank {len(pivots)} < k = {k}")
    pivoted = set(pivots)
    nonpivots = [j for j in range(n) if j not in pivoted]
    return R[:, nonpivots], np.array(pivots + nonpivots)


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


def _layer_rows(supports: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """Every support with every value pattern as dense length-k rows, support-major."""
    msgs = np.zeros((len(supports) * len(values), k), dtype=np.int8)
    reps = np.repeat(supports, len(values), axis=0)
    np.put_along_axis(msgs, reps, np.tile(values, (len(supports), 1)), axis=1)
    return msgs


@functools.cache
def _held_layer(q: int, k: int, w: int) -> np.ndarray:
    """The messages of a layer that fits one ``_BLOCK_ROWS`` block, as dense rows,
    expanded once per (q, k, w) (read-only).  Over every (q, k, w) that
    ``ENUM_BUDGET`` allows, these are at most 361 layers and 9.5 MB."""
    msgs = _layer_rows(*_weight_layer(q, k, w), k)
    msgs.flags.writeable = False
    return msgs


def _weight_layer_blocks(q: int, k: int, w: int):
    """The messages of :func:`_weight_layer` as dense rows, in blocks of whole supports.

    A layer that fits one block of at most ``_BLOCK_ROWS`` rows comes
    whole from :func:`_held_layer`; a larger one is built block by block.
    """
    supports, values = _weight_layer(q, k, w)
    nv = len(values)
    if len(supports) * nv <= _BLOCK_ROWS:
        yield _held_layer(q, k, w)
        return
    sup_per_block = max(1, _BLOCK_ROWS // nv)
    for lo in range(0, len(supports), sup_per_block):
        yield _layer_rows(supports[lo : lo + sup_per_block], values, k)


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
        coeffs += np.bincount(_row_weights(words), minlength=C.n + 1)
    return WeightEnumerator(C.n, coeffs.tolist())


def _layer_min(gf: GF, k: int, w: int, B: np.ndarray, best: int, stop: int) -> int:
    """min(best, w + wt(u B)) over the projective weight-w messages u,
    stopping at the first block that brings it to ``stop`` or below."""
    if best <= stop:
        return best
    for msgs in _weight_layer_blocks(gf.q, k, w):
        best = min(best, w + int(_row_weights(gf_matmul(gf, msgs, B)).min()))
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
    is at most ``lo``.  G2's right block comes from
    :func:`_systematic_form` the first time the scan goes past layer 1,
    so a code settled at layer 1 pays no second elimination, and no
    second ``LinearCode`` is built or validated.  The layers come from
    :func:`_weight_layer_blocks`, held whole when they fit one block.
    """
    _check_budget(C.gf.q, C.k)
    B, _ = C.systematic_right_block()
    best = _layer_min(C.gf, C.k, 1, B, C.n + 1, lo)
    blocks, overlap, w = [B], C.k, 2
    while best > lo and w <= C.k and w + max(0, w - overlap) < min(best, hi):
        if len(blocks) == 1:
            # past layer 1: build G2 and scan its layer 1
            B2, perm2 = _systematic_form(C.gf, np.hstack([B, np.eye(C.k, dtype=np.int8)]))
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
