"""Monomial equivalence of codes and equivalence-class deduplication.

Two [n, k] codes over F_q are equivalent when an n x n monomial matrix
P (one nonzero entry per row and column, i.e. a column permutation
composed with nonzero column scalings) maps one codeword set onto the
other.

The decision procedure here anchors on low-weight codewords:

1. one stacked enumeration of a block of codes that share (q, n, k)
   gives each its record (:class:`_Keyed`): its signature and its
   anchor words, its lightest whole weight layers, until every nonzero
   column is touched and they hold at least n words, or all the nonzero
   words when the code has fewer.
   Both stops read only the weight layers, so a monomial map carries
   the anchors of a code onto those of its image.  The n-word floor
   lets the search of step 3 cut a branch before it reaches a leaf;
   with fewer words than columns many leaves pass every anchor test
   and fail only the check of step 4.  Of the anchors the search
   reads, on its source side (:class:`_Source`), their count, their
   values as one ``bytes`` column by column and the co-occurrence rows;
   on its target side the value bitmasks and the columns of each
   co-occurrence row;
2. exact invariant pre-filter (:func:`signature`): besides the weight
   enumerator it holds the sorted co-occurrence rows of the anchors,
   the rows step 3 matches columns by, so keying makes one
   co-occurrence product and no other invariant.  Codes with different
   signatures are never searched, and most inequivalent pairs are
   separated here.  Every weight layer of a linear code is closed under
   nonzero scalars, so a column with nz nonzero entries over a layer
   holds each nonzero value nz/(q-1) times: per-column value counts add
   nothing to the supports;
3. backtracking over column assignments (target column, scale factor),
   constrained by the anchor words W1, W2 of the two codes.  A monomial
   map carries layers onto layers and nonzero columns onto nonzero
   columns, so it carries W1 bijectively onto W2: anchor sets of
   different sizes refute it, a column may only go to a column with the
   same sorted row of co-occurrence counts over the anchors, and every
   partial assignment propagates candidate bitmask sets; an empty
   candidate set or an unreachable W2 word cuts the branch.  A map times
   a nonzero scalar is again a map, so the first column is assigned
   with scale 1 only.
4. a completed assignment is accepted only after the mapped generator
   rows of the first code all lie in the second code, checked against
   its systematic form, which makes every "True" answer sound
   irrespective of the pruning.

Deduplication matches each code against the class representatives
that share its signature; the first equivalent representative wins.  A
representative is only ever the source of a pair search, so it keeps
its record's :class:`_Source` alone, and its signature once, as the key
of its bucket.

The search is exhaustive over consistent assignments, so "False" is
sound as well; running out of the node budget raises
:class:`UndecidedError` instead of answering.

Field automorphisms are NOT part of this relation.  For F4 an
explicitly labelled semimonomial diagnostic widens the test by the
Frobenius map x -> x^2; see :func:`are_equivalent`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gf import _int_matmul, gf_matmul
from .linear import _BLOCK_ROWS, LinearCode, _codeword_blocks, _row_weights

__all__ = [
    "UndecidedError",
    "MonomialMap",
    "apply_monomial",
    "signature",
    "are_equivalent",
    "find_monomial_map",
    "dedupe_into_classes",
    "frobenius_image",
]

# the backtrack nodes one pair search visits before it raises UndecidedError
DEFAULT_NODE_CAP = 10**8

# x -> x^2 on the F4 element codes 0, 1, w, v = w^2
_FROBENIUS = np.array([0, 1, 3, 2], dtype=np.int8)
_FROBENIUS_BYTES = bytes.maketrans(bytes(range(4)), _FROBENIUS.tobytes())


class UndecidedError(RuntimeError):
    """The backtracking search hit its node budget before deciding."""


@dataclass(frozen=True)
class MonomialMap:
    """Column permutation plus nonzero column scalings.

    Column j of the source code lands in column ``perm[j]`` of the
    image, multiplied by ``scales[j]``.
    """

    perm: tuple[int, ...]
    scales: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        if len(self.scales) != n:
            raise ValueError("need one scale per column")
        if any(s == 0 for s in self.scales):
            raise ValueError("scales must be nonzero field elements")


def apply_monomial(C: LinearCode, M: MonomialMap) -> LinearCode:
    """The code C P for the monomial matrix P described by M."""
    if len(M.perm) != C.n:
        raise ValueError(f"map acts on {len(M.perm)} columns, code has {C.n}")
    gf = C.gf
    G = np.zeros_like(C.G)
    for j, (p, s) in enumerate(zip(M.perm, M.scales)):
        G[:, p] = gf.mul_table[gf._check(s), C.G[:, j]]  # MonomialMap rejects a zero scale
    return LinearCode(gf, G)


def frobenius_image(C: LinearCode) -> LinearCode:
    """Entrywise x -> x^2 image of an F4 code (an F4-linear code again)."""
    if C.gf.q != 4:
        raise ValueError("the Frobenius image is only defined here for F4")
    return LinearCode(C.gf, _FROBENIUS[C.G])


class _Source(NamedTuple):
    """What the pair search reads of its source code: all that a class representative keeps."""

    code: LinearCode
    zero: list[int]  # the zero columns
    count: int  # how many anchor words
    order: list[int]  # the nonzero columns, most anchors first, then by index
    cooccurrence: list[tuple[int, ...]]  # per column, over the anchors; equal rows one tuple
    columns: bytes  # the anchors' values column by column: count bytes a column


class _Keyed(NamedTuple):
    """A code's pair-search source, signature and target-side inputs (module docstring)."""

    source: _Source
    sig: tuple
    masks: list[list[int]]  # masks[p][v]: bits of the anchors with value v in column p
    by_row: dict[tuple, list[int]]  # the columns of each co-occurrence row, ascending


def _key_block(codes: list[LinearCode]) -> list[_Keyed]:
    """The records of codes that share (q, n, k), from one stacked enumeration and one
    co-occurrence product: the signature is read off what the pair search reads."""
    gf, n, k = codes[0].gf, codes[0].n, codes[0].k
    at = np.arange(len(codes))
    B = np.stack([C.systematic_right_block()[0] for C in codes])
    words = np.concatenate(list(_codeword_blocks(gf, B)), axis=1)  # systematic column order
    wts = _row_weights(words)  # [code, word]
    enum = np.bincount(  # [code, weight]
        (wts + (n + 1) * at[:, None]).ravel(), minlength=len(codes) * (n + 1)
    ).reshape(-1, n + 1)
    # the anchors: the words up to the largest, over the nonzero columns, of the lightest
    # weight that touches the column, and on by whole layers until they hold n words or
    # the whole code; by weight, then message, in the code's column order
    rise = n + 1 - wts.astype(np.min_scalar_type(n + 1))  # [code, word]
    # [code, column]: the largest rise over the words nonzero in the column, n + 1 less the
    # lightest weight touching it and 0 at a zero column: a masked minimum, laid out one
    # row a column so that each maximum runs over contiguous memory
    reach = np.multiply(words.transpose(0, 2, 1) != 0, rise[:, None, :], order="C").max(axis=2)
    covering = n + 1 - np.where(reach > 0, reach, n + 1).min(axis=1)  # over nonzero columns
    upto = enum.cumsum(axis=1)  # [code, weight]: the words of at most that weight, zero included
    floor = np.where(upto[:, n] > n, (upto > n).argmax(axis=1), n)
    N = upto[at, np.maximum(covering, floor)] - 1
    # the zero word is message 0, the only one of weight 0
    ranked = np.argsort(wts, axis=1, kind="stable")[:, 1 : N.max() + 1]
    inv = np.argsort(np.stack([C.systematic_right_block()[1] for C in codes]), axis=1)
    A = np.take_along_axis(words, ranked[:, :, None], axis=1)
    A = np.take_along_axis(A, inv[:, None, :], axis=2)
    A[np.arange(A.shape[1]) >= N[:, None]] = -1  # padding rows, which match no value
    SA = A > 0
    cooc = np.sort(_int_matmul(SA.transpose(0, 2, 1), SA), axis=2).tolist()
    nz = SA.sum(axis=1)
    eq = A.transpose(0, 2, 1)[:, :, None, :] == np.arange(gf.q)[:, None]
    raw, nbytes = np.packbits(eq, axis=-1, bitorder="little").tobytes(), -(-A.shape[1] // 8)
    flat = [int.from_bytes(raw[o : o + nbytes], "little") for o in range(0, len(raw), nbytes)]
    out = []
    for i, (C, nz_i, enum_i) in enumerate(zip(codes, nz.tolist(), enum.tolist())):
        shared: dict[tuple, tuple] = {}  # one tuple for equal rows
        rows = [shared.setdefault(row, row) for row in map(tuple, cooc[i])]
        by_row: dict[tuple, list[int]] = {}
        for p, row in enumerate(rows):
            by_row.setdefault(row, []).append(p)
        masks = [flat[(i * n + p) * gf.q : (i * n + p + 1) * gf.q] for p in range(n)]
        sig = (n, k, tuple(enum_i), tuple(sorted(rows)))
        zero = [p for p in range(n) if not nz_i[p]]
        order_i = sorted((p for p in range(n) if nz_i[p]), key=lambda p: -nz_i[p])
        source = _Source(C, zero, int(N[i]), order_i, rows, A[i, : N[i]].T.tobytes())
        out.append(_Keyed(source, sig, masks, by_row))
    return out


def _keyed_codes(codes):
    """The records of ``codes`` in order, keyed lazily in blocks of consecutive
    codes that share (q, n, k).  A block's right halves hold at most
    ``_BLOCK_ROWS`` entries, which bounds the field product's int64 temporaries."""
    for (q, n, k), run in itertools.groupby(codes, key=lambda C: (C.gf.q, C.n, C.k)):
        per_block = max(1, _BLOCK_ROWS // (q**k * max(1, n - k)))
        while block := list(itertools.islice(run, per_block)):
            yield from _key_block(block)


def signature(C: LinearCode) -> tuple:
    """Monomial-invariant fingerprint used as an equivalence pre-filter.

    The tuple ``(n, k, enumerator, cooccurrence)`` holds:

    - ``n``: the length;
    - ``k``: the dimension;
    - ``enumerator``: the full weight enumerator, counts of weights 0..n;
    - ``cooccurrence``: with S the 0/1 support matrix of the anchor
      words (module docstring, step 1), the sorted multiset of the
      sorted rows of SᵀS: the rows the pair search matches columns by.
      Entry (i, j) counts the anchors nonzero in both columns i and j;
      a monomial map carries anchors onto anchors, scalings keep
      supports, and a permutation permutes rows and columns alike.

    Every entry is also unchanged by the F4 Frobenius map, so a code
    and its conjugate share the signature.
    """
    return _key_block([C])[0].sig


class _PairSearch:
    """One pair search (module docstring, step 3): a map of x's columns onto y's, extended a
    column at a time.  No attribute refers to a method, so it leaves no reference cycle."""

    def __init__(self, x: _Source, y: _Keyed):
        self.x, self.y, self.nodes = x, y, 0
        self.full = (1 << x.count) - 1
        # x.order puts the columns touched by most anchor words first: they
        # propagate the most information.  The map permutes anchor words and
        # columns together, so column j can land only on a column p with the
        # same sorted row of anchor co-occurrence counts, and so with the same
        # value counts (scalar closure, see the module docstring).
        self.targets = [y.by_row.get(x.cooccurrence[j], ()) for j in x.order]
        self.mul = x.code.gf.mul_table.tolist()
        self.perm, self.scale = [-1] * x.code.n, [1] * x.code.n
        for z1, z2 in zip(x.zero, y.source.zero):
            self.perm[z1] = z2
        self.used = set(y.source.zero)

    def verify(self) -> bool:
        C1, C2 = self.x.code, self.y.source.code
        B2, perm2 = C2.systematic_right_block()
        G = np.empty_like(C1.G)
        G[:, self.perm] = C1.gf.mul_table[self.scale, C1.G]  # column j, scaled, to perm[j]
        # a row lies in C2 iff, in C2's systematic column order, its right part is its left times B2
        G = G[:, perm2]
        return np.array_equal(gf_matmul(C1.gf, G[:, : C2.k], B2), G[:, C2.k :])

    def descend(self, depth: int, cand: list[int]) -> bool:
        x, used, N = self.x, self.used, self.x.count
        if depth == len(x.order):
            return self.verify()
        j = x.order[depth]
        col_vals = x.columns[j * N : (j + 1) * N]
        for p in self.targets[depth]:
            if p in used:
                continue
            m2p = self.y.masks[p]
            # A map times a nonzero scalar is again a map, so the first
            # column holds a map under scale lam only if it does under 1.
            for lam in range(1, x.code.gf.q) if depth else (1,):
                self.nodes += 1
                if self.nodes > DEFAULT_NODE_CAP:
                    raise UndecidedError(
                        f"equivalence search exceeded its node budget of {DEFAULT_NODE_CAP}"
                    )
                row = [m2p[v] for v in self.mul[lam]]  # row[u]: the y anchors with lam*u in p
                new_cand, union, ok = [], 0, True
                for i in range(N):
                    c = cand[i] & row[col_vals[i]]
                    if not c:
                        ok = False
                        break
                    new_cand.append(c)
                    union |= c
                if not ok or union != self.full:
                    continue
                self.perm[j], self.scale[j] = p, lam
                used.add(p)
                if self.descend(depth + 1, new_cand):
                    return True
                used.discard(p)
        return False


def _search_map(x: _Source, y: _Keyed) -> MonomialMap | None:
    """A monomial map carrying code x onto code y; their signatures must be equal."""
    # a map carries the anchors of x onto those of y (module docstring)
    if len(x.zero) != len(y.source.zero) or x.count != y.source.count:
        return None
    search = _PairSearch(x, y)
    if search.descend(0, [search.full] * x.count):
        return MonomialMap(tuple(search.perm), tuple(search.scale))
    return None


def _keyed_pair(C1: LinearCode, C2: LinearCode) -> tuple[_Keyed, _Keyed]:
    if (C1.gf.q, C1.n, C1.k) != (C2.gf.q, C2.n, C2.k):
        raise ValueError("codes must share field, length and dimension")
    return tuple(_keyed_codes([C1, C2]))


def _check_semimonomial(q: int, semimonomial: bool) -> None:
    if semimonomial and q != 4:
        raise ValueError("the semimonomial diagnostic applies to F4 only")


def _maps_onto(x: _Source, y: _Keyed, semimonomial: bool) -> bool:
    """Whether a monomial map carries x onto y or, with ``semimonomial`` (F4 only), onto
    the Frobenius image of y; x has y's signature."""
    found = _search_map(x, y) is not None
    if found or not semimonomial:
        return found
    # x P = conj(y) exactly when conj(x) conj(P) = y, for the monomial conj(P); the anchors
    # of conj(x) are those of x conjugated, on the same supports
    conj = x._replace(code=frobenius_image(x.code), columns=x.columns.translate(_FROBENIUS_BYTES))
    return _search_map(conj, y) is not None


def find_monomial_map(C1: LinearCode, C2: LinearCode) -> MonomialMap | None:
    """A monomial map carrying C1 onto C2, or None when none exists."""
    x, y = _keyed_pair(C1, C2)
    return _search_map(x.source, y) if x.sig == y.sig else None


def are_equivalent(C1: LinearCode, C2: LinearCode, semimonomial: bool = False) -> bool:
    """Whether a monomial matrix maps C1 onto C2.

    With ``semimonomial=True`` (diagnostic switch for F4 only; other
    fields raise ValueError) the test additionally allows the Frobenius
    automorphism, i.e. it also accepts C1 P = C2^(Frobenius).
    """
    _check_semimonomial(C1.gf.q, semimonomial)
    x, y = _keyed_pair(C1, C2)
    return x.sig == y.sig and _maps_onto(x.source, y, semimonomial)


def dedupe_into_classes(codes, semimonomial: bool = False) -> list[list[int]]:
    """Partition codes into equivalence classes.

    Returns index groups in first-seen order; the first index of each
    group is its representative, so feeding codes in ascending origin
    order makes representatives the least originating objects.  Codes
    are keyed in blocks as they are read, each once, and are matched
    against the representatives of their signature's bucket.  A code
    that opens a class keeps only its record's :class:`_Source`, the
    source side of every later pair search; the signature is held once,
    as its bucket's key.  An undecided pairwise test aborts the run with
    an UndecidedError naming the code and the class.
    """
    reps: dict[tuple, list[tuple[int, _Source]]] = {}
    classes: list[list[int]] = []
    for i, x in enumerate(_keyed_codes(codes)):
        _check_semimonomial(x.source.code.gf.q, semimonomial)
        bucket = reps.setdefault(x.sig, [])
        for class_id, rep in bucket:
            try:
                found = _maps_onto(rep, x, semimonomial)
            except UndecidedError as exc:
                raise UndecidedError(f"code {i} against class {class_id}: {exc}") from exc
            if found:
                classes[class_id].append(i)
                break
        else:
            bucket.append((len(classes), x.source))
            classes.append([i])
    return classes
