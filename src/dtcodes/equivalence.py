"""Monomial equivalence of codes and equivalence-class deduplication.

Two [n, k] codes over F_q are equivalent when an n x n monomial matrix
P (one nonzero entry per row and column, i.e. a column permutation
composed with nonzero column scalings) maps one codeword set onto the
other.

The decision procedure here anchors on low-weight codewords:

1. one enumeration per code gives its signature and its anchor words:
   its lowest weight layers, until every nonzero column is touched;
2. exact invariant pre-filter (:func:`signature`): besides the weight
   enumerator it holds the hull dimension (Hermitian over F4) and the
   sorted support co-occurrence profile of the minimum-weight words.
   Codes with different signatures are never searched, and most
   inequivalent pairs are separated here.  Every weight layer of a
   linear code is closed under nonzero scalars, so a column with nz
   nonzero entries over a layer holds each nonzero value nz/(q-1)
   times: per-column value counts add nothing to the supports;
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
that share its signature; the first equivalent representative wins.

The search is exhaustive over consistent assignments, so "False" is
sound as well; running out of the node budget raises
:class:`UndecidedError` instead of answering.

Field automorphisms are NOT part of this relation.  For F4 an
explicitly labelled semimonomial diagnostic widens the test by the
Frobenius map x -> x^2; see :func:`are_equivalent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gf import gf_matmul
from .linear import LinearCode, _codeword_blocks, _rref

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

DEFAULT_NODE_CAP = 10**8

# x -> x^2 on the F4 element codes 0, 1, w, v = w^2
_FROBENIUS = np.array([0, 1, 3, 2], dtype=np.int8)


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
        if not 0 < s < gf.q:
            raise ValueError(f"scale {s} is not a nonzero F{gf.q} element")
        G[:, p] = gf.mul_table[s, C.G[:, j]]
    return LinearCode(gf, G)


def frobenius_image(C: LinearCode) -> LinearCode:
    """Entrywise x -> x^2 image of an F4 code (an F4-linear code again)."""
    if C.gf.q != 4:
        raise ValueError("the Frobenius image is only defined here for F4")
    return LinearCode(C.gf, _FROBENIUS[C.G])


def _codewords_by_weight(C: LinearCode) -> dict[int, np.ndarray]:
    """All nonzero codewords grouped by weight (budget-guarded)."""
    inv = np.argsort(C.systematic_right_block()[1])
    groups: dict[int, list[np.ndarray]] = {}
    for words, wts in _codeword_blocks(C):
        words = words[:, inv]  # back to the code's own column order
        for w in np.unique(wts[wts > 0]):
            groups.setdefault(int(w), []).append(words[wts == w])
    return {w: np.vstack(parts) for w, parts in sorted(groups.items())}


class _Keyed(NamedTuple):
    """A code, its signature and its anchor words (module docstring, step 1)."""

    code: LinearCode
    sig: tuple
    anchors: np.ndarray  # one anchor word per row
    masks: list[list[int]]  # masks[p][v]: bits of the anchors with value v in column p
    cooccurrence: list[tuple[int, ...]]  # per column, over the anchors


def _hull_dimension(C: LinearCode) -> int:
    """dim(C ∩ C^⊥) = k - rank(G Ḡᵀ), Hermitian (Ḡ = G^2) over F4.

    A scale s on a column multiplies its term of the inner product by
    s·s̄, which is s^2 = 1 over F2 and F3 and s^3 = 1 over F4, so the
    dimension is a monomial invariant.  The Euclidean form over F4 is
    not: s^2 != 1 for s = w.
    """
    conj = _FROBENIUS[C.G] if C.gf.q == 4 else C.G
    return C.k - len(_rref(C.gf, gf_matmul(C.gf, C.G, conj.T))[1])


def _cooccurrence_rows(words: np.ndarray) -> list[tuple[int, ...]]:
    """Row j, sorted: how many of ``words`` are nonzero in column j and in each column."""
    S = np.asarray(words != 0, dtype=np.int64)
    return [tuple(sorted(row)) for row in (S.T @ S).tolist()]


def _keyed(C: LinearCode) -> _Keyed:
    layers = _codewords_by_weight(C)
    coeffs = [1] + [len(layers.get(w, ())) for w in range(1, C.n + 1)]
    cooccurrence = tuple(sorted(_cooccurrence_rows(layers[min(layers)])))
    sig = (C.n, C.k, tuple(coeffs), _hull_dimension(C), cooccurrence)
    # the anchors: the layers up to the first that completes the nonzero columns
    nonzero_cols = np.asarray(C.G != 0).any(axis=0)
    touched = np.logical_or.accumulate([(L != 0).any(axis=0) for L in layers.values()])
    stop = next(i for i, cols in enumerate(touched) if np.array_equal(cols, nonzero_cols))
    W = np.vstack(list(layers.values())[: stop + 1])
    bits = np.packbits(W.T[:, None] == np.arange(C.gf.q)[:, None], axis=-1, bitorder="little")
    masks = [[int.from_bytes(b.tobytes(), "little") for b in row] for row in bits]
    return _Keyed(C, sig, W, masks, _cooccurrence_rows(W))


def signature(C: LinearCode) -> tuple:
    """Monomial-invariant fingerprint used as an equivalence pre-filter.

    The tuple ``(n, k, enumerator, hull, cooccurrence)`` holds:

    - ``n``: the length;
    - ``k``: the dimension;
    - ``enumerator``: the full weight enumerator, counts of weights 0..n;
    - ``hull``: the dimension of C ∩ C^⊥, Hermitian over F4;
    - ``cooccurrence``: with S the 0/1 support matrix of the
      minimum-weight codewords, the sorted multiset of the sorted rows
      of SᵀS.  Entry (i, j) counts the words nonzero in both columns i
      and j; scalings keep supports and a permutation permutes rows
      and columns alike.  The diagonal entry of column j is its nonzero
      count nz, and the minimum-weight words are closed under nonzero
      scalars, so column j holds each nonzero value nz/(q-1) times.

    Every entry is also unchanged by the F4 Frobenius map, so a code
    and its conjugate share the signature.
    """
    return _keyed(C).sig


def _search_map(x: _Keyed, y: _Keyed, node_cap: int) -> MonomialMap | None:
    """A monomial map carrying code x onto code y; their signatures must be equal."""
    C1, C2 = x.code, y.code
    gf = C1.gf
    q = gf.q
    n = C1.n

    zero1 = [j for j in range(n) if not C1.G[:, j].any()]
    zero2 = [j for j in range(n) if not C2.G[:, j].any()]
    # a map carries the anchors of x onto those of y (module docstring)
    if len(zero1) != len(zero2) or len(x.anchors) != len(y.anchors):
        return None

    N = len(x.anchors)
    full = (1 << N) - 1

    # column j of W1 as Python ints, built once for the whole search
    vals1 = x.anchors.T.tolist()

    cols1 = [j for j in range(n) if j not in set(zero1)]
    cols2 = [p for p in range(n) if p not in set(zero2)]
    # Most-constrained first: columns touched by many anchor words
    # propagate the most information.
    nonzero1 = np.count_nonzero(x.anchors, axis=0)
    cols1.sort(key=lambda j: (-nonzero1[j], j))
    # The map permutes the anchor words and the columns together, so
    # column j can land only on a column p with the same sorted row of
    # anchor co-occurrence counts, and so with the same value counts
    # (scalar closure, see the module docstring).
    targets = {j: [p for p in cols2 if y.cooccurrence[p] == x.cooccurrence[j]] for j in cols1}

    B2, perm2 = C2.systematic_right_block()
    k = C2.k
    scales = range(1, q)
    nodes = 0

    perm = [-1] * n
    scale = [1] * n
    for z1, z2 in zip(zero1, zero2):
        perm[z1] = z2

    used = set(zero2)

    def verify() -> bool:
        G = np.empty_like(C1.G)
        G[:, perm] = gf.mul_table[scale, C1.G]  # column j, scaled, lands in column perm[j]
        # a row lies in C2 iff, in C2's systematic column order, its
        # right part is its left part times B2
        G = G[:, perm2]
        return np.array_equal(gf_matmul(gf, G[:, :k], B2), G[:, k:])

    def descend(depth: int, cand: list[int]) -> bool:
        nonlocal nodes
        if depth == len(cols1):
            return verify()
        j = cols1[depth]
        col_vals = vals1[j]
        for p in targets[j]:
            if p in used:
                continue
            m2p = y.masks[p]
            # A map times a nonzero scalar is again a map, so the first
            # column holds a map under scale lam only if it does under 1.
            for lam in scales if depth else (1,):
                mul_row = gf.mul_table[lam]
                nodes += 1
                if nodes > node_cap:
                    raise UndecidedError(
                        f"equivalence search exceeded its node budget of {node_cap}"
                    )
                new_cand = []
                union = 0
                ok = True
                for i in range(N):
                    c = cand[i] & m2p[mul_row[col_vals[i]]]
                    if not c:
                        ok = False
                        break
                    new_cand.append(c)
                    union |= c
                if not ok or union != full:
                    continue
                perm[j] = p
                scale[j] = lam
                used.add(p)
                if descend(depth + 1, new_cand):
                    return True
                used.discard(p)
        return False

    if descend(0, [full] * N):
        return MonomialMap(tuple(perm), tuple(scale))
    return None


def _keyed_pair(C1: LinearCode, C2: LinearCode) -> tuple[_Keyed, _Keyed]:
    if (C1.gf.q, C1.n, C1.k) != (C2.gf.q, C2.n, C2.k):
        raise ValueError("codes must share field, length and dimension")
    return _keyed(C1), _keyed(C2)


def _check_semimonomial(q: int, semimonomial: bool) -> None:
    if semimonomial and q != 4:
        raise ValueError("the semimonomial diagnostic applies to F4 only")


def _maps_onto(x: _Keyed, y: _Keyed, node_cap: int, semimonomial: bool) -> bool:
    """Whether a monomial map carries x onto y or, with ``semimonomial``
    (F4 only), onto the Frobenius image of y."""
    same = x.sig == y.sig
    if same and _search_map(x, y, node_cap) is not None:
        return True
    if not (semimonomial and same):
        return False
    # x -> x^2 keeps weights and supports: the image has y's signature
    # and y's anchors mapped entrywise, and as x -> x^2 is an involution,
    # value v of the image is value v^2 of y
    masks = [[row[v] for v in _FROBENIUS] for row in y.masks]
    frob = y._replace(code=frobenius_image(y.code), anchors=_FROBENIUS[y.anchors], masks=masks)
    return _search_map(x, frob, node_cap) is not None


def find_monomial_map(
    C1: LinearCode, C2: LinearCode, node_cap: int = DEFAULT_NODE_CAP
) -> MonomialMap | None:
    """A monomial map carrying C1 onto C2, or None when none exists."""
    x, y = _keyed_pair(C1, C2)
    return _search_map(x, y, node_cap) if x.sig == y.sig else None


def are_equivalent(
    C1: LinearCode,
    C2: LinearCode,
    node_cap: int = DEFAULT_NODE_CAP,
    semimonomial: bool = False,
) -> bool:
    """Whether a monomial matrix maps C1 onto C2.

    With ``semimonomial=True`` (diagnostic switch for F4 only; other
    fields raise ValueError) the test additionally allows the Frobenius
    automorphism, i.e. it also accepts C1 P = C2^(Frobenius).
    """
    _check_semimonomial(C1.gf.q, semimonomial)
    return _maps_onto(*_keyed_pair(C1, C2), node_cap, semimonomial)


def dedupe_into_classes(
    codes,
    node_cap: int = DEFAULT_NODE_CAP,
    semimonomial: bool = False,
) -> list[list[int]]:
    """Partition codes into equivalence classes.

    Returns index groups in first-seen order; the first index of each
    group is its representative, so feeding codes in ascending origin
    order makes representatives the least originating objects.  Each
    code is enumerated once, and only the representatives keep their
    anchor words.  An undecided pairwise test aborts the whole run
    (UndecidedError).
    """
    reps: dict[tuple, list[tuple[int, _Keyed]]] = {}
    classes: list[list[int]] = []
    for i, code in enumerate(codes):
        _check_semimonomial(code.gf.q, semimonomial)
        x = _keyed(code)
        bucket = reps.setdefault(x.sig, [])
        for class_id, rep in bucket:
            if _maps_onto(rep, x, node_cap, semimonomial):
                classes[class_id].append(i)
                break
        else:
            bucket.append((len(classes), x))
            classes.append([i])
    return classes
