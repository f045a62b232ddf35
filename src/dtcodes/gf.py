"""Arithmetic in the small finite fields F2, F3 and F4.

Field elements are stored as integer codes ``0 .. q-1``.  For F4 the
codes are ``0 -> 0``, ``1 -> 1``, ``2 -> w``, ``3 -> v`` where ``w`` is
a root of ``x^2 + x + 1`` and ``v = w^2 = w + 1``.

Scalar arithmetic is table driven.  The tables are tiny (at most 4x4)
and a ``GF`` instance is immutable after construction, so one object
can be shared freely across threads and worker processes.  Matrix
products go through exact float32 BLAS (:func:`gf_matmul`), and sums of
bitsliced F3 vectors through the one F3 adder, :func:`_f3_add`.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "GF",
    "gf_matmul",
    "parse_element",
    "render_element",
    "parse_vector",
    "render_vector",
]

_ALPHABETS = {
    2: ("0", "1"),
    3: ("0", "1", "2"),
    4: ("0", "1", "w", "v"),
}

# Multiplication table of GF(4) in the basis {1, w} with w^2 = w + 1.
_GF4_MUL = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
]


def _frozen(table) -> np.ndarray:
    arr = np.array(table, dtype=np.int8)
    arr.flags.writeable = False
    return arr


class GF:
    """The finite field with ``q`` elements, ``q`` in ``{2, 3, 4}``.

    Parameters
    ----------
    q : int
        Field size.  Only 2, 3 and 4 are supported; anything else is
        rejected at construction time.

    Attributes
    ----------
    q : int
        Field size.
    add_table, mul_table : ndarray of shape (q, q)
        Lookup tables for addition and multiplication of element codes.
    neg_table : ndarray of shape (q,)
        Additive inverses.
    inv_table : ndarray of shape (q,)
        Multiplicative inverses; index 0 is a filler and must never be
        used (``inv`` guards it).
    alphabet : tuple of str
        Text token for each element code, used by parsing/rendering.

    Examples
    --------
    >>> f4 = GF(4)
    >>> f4.add(2, 3)        # w + v = 1
    1
    >>> f4.mul(2, 2)        # w * w = v
    3
    """

    __slots__ = ("q", "add_table", "mul_table", "neg_table", "inv_table", "alphabet")

    def __init__(self, q: int):
        if q not in (2, 3, 4):
            raise ValueError(f"unsupported field size {q}: only F2, F3 and F4 are available")
        self.q = q
        if q == 4:
            add = [[i ^ j for j in range(4)] for i in range(4)]
            mul = _GF4_MUL
            neg = [0, 1, 2, 3]
            inv = [0, 1, 3, 2]
        else:
            add = [[(i + j) % q for j in range(q)] for i in range(q)]
            mul = [[(i * j) % q for j in range(q)] for i in range(q)]
            neg = [(-i) % q for i in range(q)]
            inv = [0] + [pow(i, q - 2, q) for i in range(1, q)]
        self.add_table = _frozen(add)
        self.mul_table = _frozen(mul)
        self.neg_table = _frozen(neg)
        self.inv_table = _frozen(inv)
        self.alphabet = _ALPHABETS[q]

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("GF", self.q))

    def _check(self, x) -> int:
        """``x`` as a Python int, checked to be an element code 0..q-1: the package's
        one scalar check.  Integers of any kind, Python and numpy bools as 0 and 1,
        are read with ``operator.index``; floats, strings and other values raise
        ValueError."""
        if type(x) is not int:  # the search's records pass Python ints, checked by range only
            try:
                x = operator.index(int(x) if isinstance(x, np.bool_) else x)
            except TypeError:
                raise ValueError(f"element code {x!r} is not an integer") from None
        if not 0 <= x < self.q:
            raise ValueError(f"element code {x} out of range for F{self.q}")
        return x

    def _check_array(self, X) -> np.ndarray:
        """``X`` as an int8 array, checked to hold element codes 0..q-1: the package's
        one array check.  Integer and bool arrays, and empty ones, pass; floats,
        strings and objects raise ValueError, checked before the int8 cast, which
        would truncate floats and wrap large entries."""
        X = np.asarray(X)
        ints = X.dtype.kind in "biu" or not X.size
        if not ints or X.min(initial=0) < 0 or X.max(initial=0) >= self.q:
            raise ValueError(f"entries must be element codes 0..{self.q - 1}")
        return X.astype(np.int8)

    def add(self, x: int, y: int) -> int:
        """Field sum of two element codes."""
        return int(self.add_table[self._check(x), self._check(y)])

    def mul(self, x: int, y: int) -> int:
        """Field product of two element codes."""
        return int(self.mul_table[self._check(x), self._check(y)])

    def neg(self, x: int) -> int:
        """Additive inverse."""
        return int(self.neg_table[self._check(x)])

    def inv(self, x: int) -> int:
        """Multiplicative inverse of a nonzero element.

        Raises
        ------
        ZeroDivisionError
            If ``x`` is the zero element.
        """
        x = self._check(x)
        if x == 0:
            raise ZeroDivisionError(f"zero has no multiplicative inverse in F{self.q}")
        return int(self.inv_table[x])


def parse_element(gf: GF, token: str) -> int:
    """Parse one element token against the field alphabet.

    The alphabets are ``0/1`` for F2, ``0/1/2`` for F3 and ``0/1/w/v``
    for F4 (``v`` denotes ``w^2``).
    """
    tok = token.strip()
    try:
        return gf.alphabet.index(tok)
    except ValueError:
        raise ValueError(f"unknown F{gf.q} element token {token!r}") from None


def render_element(gf: GF, x: int) -> str:
    """Text token of one element code."""
    return gf.alphabet[gf._check(x)]


def parse_vector(gf: GF, text: str) -> np.ndarray:
    """Parse a vector written as ``(c1,c2,...)`` into an int8 array.

    ``()`` denotes the empty vector.  Whitespace around tokens is
    ignored.
    """
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"vector literal must be parenthesised: {text!r}")
    inner = s[1:-1].strip()
    codes = [parse_element(gf, tok) for tok in inner.split(",")] if inner else []
    return np.array(codes, dtype=np.int8)


def render_vector(gf: GF, vec) -> str:
    """Render a vector of element codes as ``(c1,c2,...)``."""
    return "(" + ",".join(render_element(gf, x) for x in vec) + ")"


# Exact integer matrix products are computed through float32 BLAS: every
# per-entry product is at most (q-1)^2 <= 9 and float32 represents
# integer sums exactly below 2^24, so the inner dimension may reach
# 2^24 / 9 before exactness is at risk.  The result is cast to int16
# while the inner dimension times 9 fits it (below 3,641 terms), so the
# reductions that follow touch a quarter of the bytes of int64.
_MATMUL_SAFE_INNER = (1 << 24) // 9
_INT16_SAFE_INNER = np.iinfo(np.int16).max // 9


def _int_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    inner = x.shape[-1]
    if inner > _MATMUL_SAFE_INNER:
        return np.matmul(x.astype(np.int64), y.astype(np.int64))
    prod = np.matmul(x.astype(np.float32), y.astype(np.float32))
    return prod.astype(np.int16 if inner <= _INT16_SAFE_INNER else np.int64)


def _f3_add(x, xn, y, yn):
    """(x + y, -(x + y)) of bitsliced F3 words x and y, given with their negations.

    The bitsliced one-hot sum (Boothby and Bradshaw, arXiv:0901.1413):
    with t = (x1 | y2) ^ (x2 | y1), the sum has planes (x2 | y2) ^ t and
    (x1 | y1) ^ t, where plane 1 marks the entries equal to 1 and plane 2
    those equal to 2.  Called on plane ints as ``_f3_add(x1, x2, y1, y2)``
    it returns the sum's two planes.  Called on packed words that hold
    plane 1 and plane 2 in their two halves, a negation swaps the halves,
    so the pair of words holds both halves of each formula and the result
    is the sum's word and its negation.
    """
    t = (x | yn) ^ (xn | y)
    return (xn | yn) ^ t, (x | y) ^ t


def gf_matmul(gf: GF, x, y) -> np.ndarray:
    """Matrix product over the field.

    Follows ``np.matmul`` broadcasting, so batched products such as
    ``(messages, m) @ (blocks, m, m)`` work directly.

    For F2 and F3 this is an integer product reduced mod q.  For F4 the
    operands are split into their two GF(2) coordinate planes
    ``x = x0 + w*x1`` and recombined with ``w^2 = w + 1``:

        z0 = x0 y0 + x1 y1                                      (mod 2)
        z1 = x0 y1 + x1 y0 + x1 y1 = (x0 + x1)(y0 + y1) + x0 y0  (mod 2)

    in three integer products, with terms of at most 4.  Every partial
    sum is at most 5 times the inner dimension, within the 9 times that
    :func:`_int_matmul`'s result type is chosen to hold.

    Returns an int8 array of element codes.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if gf.q == 4:
        x0, x1 = x & 1, x >> 1
        y0, y1 = y & 1, y >> 1
        p00 = _int_matmul(x0, y0)
        p11 = _int_matmul(x1, y1)
        z0 = (p00 + p11) & 1
        z1 = (_int_matmul(x0 + x1, y0 + y1) + p00) & 1
        return (z0 + 2 * z1).astype(np.int8)
    return (_int_matmul(x, y) % gf.q).astype(np.int8)
