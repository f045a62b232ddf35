"""Monomial equivalence of codes and equivalence-class deduplication.

Two [n, k] codes over F_q are equivalent when an n x n monomial matrix
P (one nonzero entry per row and column, i.e. a column permutation
composed with nonzero column scalings) maps one codeword set onto the
other.

The decision procedure here anchors on low-weight codewords:

1. one enumeration per code groups its nonzero codewords by weight;
   the later steps read these layers;
2. exact invariant pre-filter (:func:`signature`): besides the weight
   enumerator and per-column value counts over the minimum-weight
   words, it holds the hull dimension (Hermitian over F4) and the
   sorted support co-occurrence profile of the minimum-weight words.
   Codes with different signatures are never searched, and most
   inequivalent pairs are separated here;
3. backtracking over column assignments (target column, scale factor),
   constrained by the sets W1, W2 of codewords in the lowest weight
   layers of the two codes.  A monomial map carries W1 bijectively onto
   W2 layer by layer, so a column may only go to a column with the same
   sorted row of co-occurrence counts over these words, and every
   partial assignment propagates candidate bitmask sets; an empty
   candidate set or an unreachable W2 word cuts the branch.
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
from .linear import LinearCode, _check_budget, _message_blocks, _rref

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
    _check_budget(C.gf.q, C.k)
    B, perm = C.systematic_right_block()
    inv = np.empty_like(perm)
    inv[perm] = np.arange(C.n)
    groups: dict[int, list[np.ndarray]] = {}
    for msgs in _message_blocks(C.gf.q, C.k):
        right = gf_matmul(C.gf, msgs, B)
        words = np.hstack([msgs, right])[:, inv]
        wts = np.count_nonzero(words, axis=1)
        for w in np.unique(wts):
            if w == 0:
                continue
            groups.setdefault(int(w), []).append(words[wts == w])
    return {w: np.vstack(parts) for w, parts in sorted(groups.items())}


class _Keyed(NamedTuple):
    """A code with its nonzero codewords by weight and its signature."""

    code: LinearCode
    layers: dict[int, np.ndarray]
    sig: tuple


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
    lowest = layers[min(layers)]
    # value counts per column over the minimum-weight codewords
    counts = (lowest[:, :, None] == np.arange(C.gf.q)).sum(axis=0).tolist()
    profiles = tuple(sorted((c[0],) + tuple(sorted(c[1:])) for c in counts))
    cooccurrence = tuple(sorted(_cooccurrence_rows(lowest)))
    sig = (C.n, C.k, tuple(coeffs), profiles, _hull_dimension(C), cooccurrence)
    return _Keyed(C, layers, sig)


def _anchor_layers(C1: LinearCode, g1: dict, g2: dict):
    """Matching low-weight layers of both codes, as stacked matrices.

    The layers ``g1``, ``g2`` must have the same weights and sizes
    (equal signatures guarantee it).  Layers are taken in increasing
    weight until every column that is nonzero somewhere in code 1 is
    touched by an anchor codeword.
    """
    nonzero_cols = np.asarray(C1.G != 0).any(axis=0)
    take1, take2, bounds = [], [], []
    covered = np.zeros(C1.n, dtype=bool)
    for w in g1:
        take1.append(g1[w])
        take2.append(g2[w])
        bounds.append(len(g1[w]))
        covered |= np.asarray(take1[-1] != 0).any(axis=0)
        if np.array_equal(covered & nonzero_cols, nonzero_cols):
            break
    return np.vstack(take1), np.vstack(take2), bounds


def signature(C: LinearCode) -> tuple:
    """Monomial-invariant fingerprint used as an equivalence pre-filter.

    The tuple ``(n, k, enumerator, profiles, hull, cooccurrence)`` holds:

    - ``n`` and ``k``;
    - ``enumerator``: the full weight enumerator, counts of weights 0..n;
    - ``profiles``: the sorted multiset of per-column value profiles
      over the minimum-weight codewords.  A column profile keeps the
      zero count and the sorted nonzero value counts, both invariant
      under column permutation and scaling;
    - ``hull``: the dimension of C ∩ C^⊥, Hermitian over F4;
    - ``cooccurrence``: with S the 0/1 support matrix of the
      minimum-weight codewords, the sorted multiset of the sorted rows
      of SᵀS.  Entry (i, j) counts the words nonzero in both columns i
      and j; scalings keep supports and a permutation permutes rows
      and columns alike.

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
    if len(zero1) != len(zero2):
        return None

    W1, W2, bounds = _anchor_layers(C1, x.layers, y.layers)
    N = len(W1)

    # Candidate bitmasks: W1 row i may map onto W2 row x only inside
    # its own weight layer.
    layer_masks = []
    full = (1 << N) - 1
    start = 0
    for size in bounds:
        mask = ((1 << size) - 1) << start
        layer_masks.extend([mask] * size)
        start += size
    init_cand = list(layer_masks)

    # mask2[p][v]: which W2 rows hold value v in column p.
    mask2 = [[0] * q for _ in range(n)]
    for i in range(N):
        row = W2[i]
        bit = 1 << i
        for p in range(n):
            mask2[p][int(row[p])] |= bit

    hist1 = [tuple(np.bincount(W1[:, j], minlength=q).tolist()) for j in range(n)]
    # column j of W1 as Python ints, built once for the whole search
    vals1 = W1.T.tolist()
    hist2 = [tuple(np.bincount(W2[:, j], minlength=q).tolist()) for j in range(n)]

    cols1 = [j for j in range(n) if j not in set(zero1)]
    cols2 = [p for p in range(n) if p not in set(zero2)]
    # Most-constrained first: columns touched by many anchor words
    # propagate the most information.
    cols1.sort(key=lambda j: (hist1[j][0], j))
    # The map permutes the anchor words and the columns together, so
    # column j can land only on a column p with the same sorted row of
    # anchor co-occurrence counts.
    co1 = _cooccurrence_rows(W1)
    co2 = _cooccurrence_rows(W2)
    targets = {j: [p for p in cols2 if co2[p] == co1[j]] for j in cols1}

    B2, perm2 = C2.systematic_right_block()
    k = C2.k
    scales = range(1, q)
    nodes = 0

    perm = [-1] * n
    scale = [1] * n
    for z1, z2 in zip(zero1, zero2):
        perm[z1] = z2

    used = [False] * n
    for z in zero2:
        used[z] = True

    def verify() -> bool:
        G = np.zeros_like(C1.G)
        for j in range(n):
            G[:, perm[j]] = gf.mul_table[scale[j], C1.G[:, j]]
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
        h1 = hist1[j]
        for p in targets[j]:
            if used[p]:
                continue
            m2p = mask2[p]
            h2p = hist2[p]
            for lam in scales:
                mul_row = gf.mul_table[lam]
                # equal zero counts already hold for every target
                if any(h1[v] != h2p[mul_row[v]] for v in range(1, q)):
                    continue
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
                used[p] = True
                if descend(depth + 1, new_cand):
                    return True
                used[p] = False
        perm[j] = -1
        return False

    if descend(0, init_cand):
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
    # x -> x^2 keeps weights and permutes the nonzero values: the image
    # has y's layers mapped entrywise and y's signature
    layers = {w: _FROBENIUS[L] for w, L in y.layers.items()}
    frob = _Keyed(frobenius_image(y.code), layers, y.sig)
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
    weight layers.  An undecided pairwise test aborts the whole run
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
