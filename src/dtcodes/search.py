"""Reduced exhaustive search and classification of double Toeplitz codes.

The triple space of length n is scanned in its canonical enumeration
order (t slowest, then a, then b, first vector entries least
significant).  Two symmetry filters shrink the space without losing
equivalence classes:

  C2 (binary):     keep (t, a, b) with f(a) >= f(b), where f is the
                   odometer rank; the swapped triple (t, b, a) spans an
                   equivalent code, so one of each swap pair suffices.
  C3 (nonbinary):  keep triples whose (t, a) part has first nonzero
                   entry 1 (all-zero part accepted); scaling a triple
                   by a nonzero constant gives an equivalent code, so
                   one representative per scalar orbit suffices.

Every search is one pass over blocks of filtered candidates.  A
"find-optimal" pass keeps the attainers of its running best minimum
weight and drops them when the best rises; "collect-at" and "at-least"
passes keep the candidates at or above a fixed target.  The prefix
space (t, a), or the first rows of a circulant family, is split into
contiguous chunks which can run on worker processes.  Each chunk
returns its best and its attainers; the search keeps the attainers of
the chunks whose best is the maximum, in chunk order, so output is
identical for any worker or partition count.  Each completed chunk can
be checkpointed to JSON.
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .equivalence import _check_semimonomial, dedupe_into_classes
from .gf import GF, gf_matmul
from .linear import (
    BudgetExceededError,
    LinearCode,
    _index_digits,
    _weight_layer_blocks,
    min_weight_at_least,
    minimum_weight,
)
from .structured import (
    CirculantSpec,
    ToeplitzTriple,
    classify_triple,
    digits_of_index,
    double_toeplitz_code,
    index_of_digits,
)

__all__ = [
    "CheckpointError",
    "SearchConfig",
    "ClassRecord",
    "ClassificationReport",
    "vector_rank",
    "passes_reduction",
    "search_dt",
    "search_family",
    "classify",
]

CHECKPOINT_VERSION = 2

# Cap on the raw candidate-space size of one search call.
DEFAULT_TRIPLE_BUDGET = 1 << 26

_B_BLOCK = 4096
_MATMUL_ELEM_BUDGET = 8 << 20


class CheckpointError(RuntimeError):
    """A checkpoint file does not match the requested search."""


@dataclass(frozen=True)
class SearchConfig:
    """Identity of one search run; stored inside checkpoints."""

    q: int
    n: int
    family: str  # "DT" | "DC" | "NC"
    reduction: str  # "none" | "C2" | "C3"
    mode: str  # "find-optimal" | "collect-at" | "at-least"
    d: int | None
    partitions: int

    def to_dict(self) -> dict:
        return asdict(self)


def vector_rank(a) -> int:
    """Odometer rank f(a) = sum_i 2^(i-1) a_i of a binary vector."""
    a = np.asarray(a)
    if a.size and (a.min() < 0 or a.max() > 1):
        raise ValueError("vector_rank is defined for binary vectors only")
    return int(sum(int(x) << i for i, x in enumerate(a)))


def _check_reduction(q: int, reduction: str) -> None:
    if reduction not in ("none", "C2", "C3"):
        raise ValueError(f"unknown reduction {reduction!r}")
    if reduction == "C2" and q != 2:
        raise ValueError("the C2 filter applies to binary searches only")
    if reduction == "C3" and q not in (3, 4):
        raise ValueError("the C3 filter applies to F3 and F4 searches only")


def _kept_b_count(q: int, reduction: str, t: int, a) -> int:
    """How many b survive the filter after the prefix (t, a).

    The survivors are always the b indices 0 .. count-1: C2 keeps
    f(b) <= f(a), and the index of a binary b is f(b); C3 keeps all b
    or none, depending on the first nonzero entry of (t, a).
    """
    if reduction == "C2":
        return vector_rank(a) + 1
    if reduction == "C3" and next((x for x in (t, *a) if x), 1) != 1:
        return 0
    return q ** len(a)


def passes_reduction(T: ToeplitzTriple, reduction: str) -> bool:
    """Whether a triple survives a symmetry filter.

    "none" keeps everything; "C2" (binary only) keeps f(a) >= f(b);
    "C3" (F3/F4 only) keeps triples whose (t, a) part starts with 1,
    all-zero parts included.
    """
    q = T.gf.q
    _check_reduction(q, reduction)
    return index_of_digits(T.b, q) < _kept_b_count(q, reduction, T.t, T.a)


def _resolve_reduction(q: int, reduction: str) -> str:
    if reduction == "auto":
        return "C2" if q == 2 else "C3"
    _check_reduction(q, reduction)
    return reduction


# ---------------------------------------------------------------------------
# batched minimum-weight evaluation


class _MessageCache:
    """The messages of each weight over F_q^m, built once per weight."""

    def __init__(self, q: int, m: int):
        self.q = q
        self.m = m
        self._layers: dict[int, np.ndarray] = {}

    def layer(self, w: int) -> np.ndarray:
        if w not in self._layers:
            self._layers[w] = np.vstack(list(_weight_layer_blocks(self.q, self.m, w)))
        return self._layers[w]


def _batch_min_weight_capped(gf: GF, A: np.ndarray, T: int, cache: _MessageCache) -> np.ndarray:
    """``min(d_i, T)`` for the minimum weight d_i of each code (I | A_i).

    A codeword of weight below T comes from a message of weight below
    T, so the messages of weight 1..T-1 give d_i exactly when d_i < T,
    and a value of T proves d_i >= T.  They are scanned by ascending
    weight w; messages of weight above w give codewords of weight
    above w, so a code whose lowest weight so far is at most w + 1 is
    settled and leaves the scan.
    """
    out = np.full(len(A), T, dtype=np.int64)
    alive = np.arange(len(A))
    m = A.shape[1]
    for w in range(1, min(T, m + 1)):
        U = cache.layer(w)
        step = max(1, _MATMUL_ELEM_BUDGET // (len(U) * m))
        for lo in range(0, len(alive), step):
            idx = alive[lo : lo + step]
            right = gf_matmul(gf, U, A[idx])  # (len(idx), len(U), m)
            low = w + np.count_nonzero(right, axis=2).min(axis=1)
            out[idx] = np.minimum(out[idx], low)
        alive = alive[out[alive] > w + 1]
        if not len(alive):
            break
    return out


# ---------------------------------------------------------------------------
# candidate-space iteration


def _toeplitz_block(gf: GF, t: int, a, ib: np.ndarray) -> np.ndarray:
    """Toeplitz matrices of prefix (t, a) for the b indices ``ib``."""
    L = len(a)
    m = L + 1
    S = np.empty((len(ib), 2 * m - 1), dtype=np.int8)
    if L:
        S[:, :L] = _index_digits(ib, gf.q, L)[:, ::-1]
        S[:, L + 1 :] = np.array(a, dtype=np.int8)
    S[:, L] = t
    win = np.lib.stride_tricks.sliding_window_view(S, m, axis=1)
    return win[:, ::-1, :]


def _circulant_block(gf: GF, m: int, rows: np.ndarray, mu_code: int) -> np.ndarray:
    """(Nega)circulant matrices for the first-row indices ``rows``."""
    R = _index_digits(rows, gf.q, m)
    S = np.empty((len(rows), 2 * m - 1), dtype=np.int8)
    S[:, : m - 1] = gf.mul_table[mu_code, R[:, 1:]]
    S[:, m - 1 :] = R
    win = np.lib.stride_tricks.sliding_window_view(S, m, axis=1)
    return win[:, ::-1, :]


def _index_blocks(indices):
    """The indices as consecutive int64 arrays of at most _B_BLOCK."""
    it = iter(indices)
    while block := list(itertools.islice(it, _B_BLOCK)):
        yield np.array(block, dtype=np.int64)


def _spread(total: int, count: int) -> np.ndarray:
    if total <= count:
        return np.arange(total)
    return np.unique(np.linspace(0, total - 1, count).astype(np.int64))


def _candidate_blocks(gf: GF, n: int, family: str, reduction: str, prefixes, kept_b):
    """Yield ``(A, record)`` per block of filtered candidates, in enumeration order.

    ``prefixes`` are indices of (t, a) prefixes for DT and of first
    rows for DC/NC.  For DT, ``kept_b(count)`` gives the b indices to
    visit among the ``count`` that survive the filter after a prefix.
    ``record(off, mw)`` is the checkpoint payload of the block's
    candidate ``off`` with minimum weight ``mw``.
    """
    q = gf.q
    m = n // 2
    if family != "DT":
        mu = _family_mu_code(gf, family)
        sign = 1 if family == "DC" else -1
        for rows in _index_blocks(prefixes):
            yield _circulant_block(gf, m, rows, mu), (
                lambda off, mw, rows=rows: [list(digits_of_index(int(rows[off]), q, m)), sign, mw]
            )
        return
    L = m - 1
    for pidx in prefixes:
        t, ia = divmod(int(pidx), q**L)
        a = digits_of_index(ia, q, L)
        for ib in _index_blocks(kept_b(_kept_b_count(q, reduction, t, a))):
            yield _toeplitz_block(gf, t, a, ib), (
                lambda off, mw, t=t, a=a, ib=ib: [
                    t, list(a), list(digits_of_index(int(ib[off]), q, L)), mw
                ]
            )


def _space_layout(q: int, n: int, family: str) -> tuple[int, int]:
    """(prefix count, raw space size) of a search family."""
    m = n // 2
    if family == "DT":
        return q**m, q ** (n - 1)
    return q**m, q**m


def _family_mu_code(gf: GF, family: str) -> int:
    if family == "DC":
        return 1
    if family == "NC":
        return int(gf.neg_table[1])
    raise ValueError(f"unknown family {family!r}")


def _probe_floor(gf: GF, n: int, family: str, reduction: str) -> int:
    """Best exact minimum weight over a deterministic sample of candidates.

    Raises the starting best of a find-optimal pass, so that early
    blocks need fewer raises and rescans at low thresholds; any
    sampled candidate is a genuine member of the filtered space, so
    the floor is always attained.  A sample is evaluated exactly only
    when it beats the running floor, which ``min_weight_at_least``
    rules out at the first message layer with a low-weight codeword.
    """
    prefixes = _spread(gf.q ** (n // 2), 16 if family == "DT" else 64)
    floor = 1
    for A, _ in _candidate_blocks(gf, n, family, reduction, prefixes, lambda c: _spread(c, 8)):
        for Ai in A:
            code = LinearCode.systematic(gf, Ai)
            if min_weight_at_least(code, floor + 1):
                floor = minimum_weight(code)
    return floor


# ---------------------------------------------------------------------------
# chunk scan (top level so worker processes can import it)


def _scan_chunk(args) -> tuple[int, list]:
    """(best, attainer payloads) of the prefixes [lo, hi).

    In find-optimal mode ``d`` is the starting best, which the chunk
    may raise; otherwise it is the fixed target.
    """
    q, n, family, reduction, mode, d, lo, hi = args
    gf = GF(q)
    cache = _MessageCache(q, n // 2)
    best, found = d, []
    for A, record in _candidate_blocks(gf, n, family, reduction, range(lo, hi), range):
        if mode == "at-least":
            for off in np.flatnonzero(_batch_min_weight_capped(gf, A, d, cache) >= d):
                found.append(record(off, minimum_weight(LinearCode.systematic(gf, A[off]))))
            continue
        # candidates of the block that may still attain or raise the best
        pending = np.arange(len(A))
        while len(pending):
            capped = _batch_min_weight_capped(gf, A[pending], best + 1, cache)
            above = pending[capped > best] if mode == "find-optimal" else pending[:0]
            if not len(above):
                found += [record(i, best) for i in pending[capped == best]]
                break
            best = minimum_weight(LinearCode.systematic(gf, A[above[0]]))
            found = [record(above[0], best)]
            pending = above[1:]
    return best, found


# ---------------------------------------------------------------------------
# checkpointing


def _load_checkpoint(path: str, config: SearchConfig) -> dict:
    if not os.path.exists(path):
        return {"version": CHECKPOINT_VERSION, "config": config.to_dict(), "chunks": {}}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {data.get('version')} does not match {CHECKPOINT_VERSION}"
        )
    if data.get("config") != config.to_dict():
        raise CheckpointError("checkpoint was written by a different search configuration")
    data.setdefault("chunks", {})
    return data


def _save_checkpoint(path: str, data: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# search drivers


def _chunk_ranges(total: int, partitions: int) -> list[tuple[int, int]]:
    if partitions < 1:
        raise ValueError("partitions must be positive")
    bounds = np.linspace(0, total, partitions + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(partitions)]


def _run_chunks(fn, arg_list, workers: int):
    """Run chunk jobs, yielding (chunk_id, result) as they complete.

    The pool gets no more processes than there are chunks or CPUs: under
    fork it starts all of them at the first submit.
    """
    workers = min(workers, len(arg_list), os.cpu_count() or 1)
    if workers <= 1:
        for cid, args in enumerate(arg_list):
            yield cid, fn(args)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {cid: pool.submit(fn, args) for cid, args in enumerate(arg_list)}
        for cid in sorted(futures):
            yield cid, futures[cid].result()


def _payload_to_triple(gf: GF, payload, family: str):
    if family == "DT":
        t, a, b, mw = payload
        return ToeplitzTriple(gf, int(t), tuple(a), tuple(b)), int(mw)
    r, mu, mw = payload
    return CirculantSpec(gf, tuple(r), int(mu)), int(mw)


def _search(
    gf: GF,
    n: int,
    family: str,
    reduction: str,
    mode: str,
    d: int | None,
    partitions: int,
    workers: int,
    checkpoint_path: str | None,
    triple_budget: int,
):
    if n % 2 or n < 2:
        raise ValueError(f"length n must be even and positive, got {n}")
    if mode not in ("find-optimal", "collect-at", "at-least"):
        raise ValueError(f"unknown search mode {mode!r}")
    if mode != "find-optimal" and (d is None or d < 1):
        raise ValueError(f"mode {mode!r} needs a positive target weight d")
    if mode == "find-optimal" and d is not None:
        raise ValueError("mode 'find-optimal' takes no target weight d")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    q = gf.q
    reduction = _resolve_reduction(q, reduction) if family == "DT" else "none"

    prefix_total, space = _space_layout(q, n, family)
    if space > triple_budget:
        raise BudgetExceededError(
            f"search space {space} exceeds the budget of {triple_budget} candidates"
        )

    config = SearchConfig(q, n, family, reduction, mode, d, partitions)
    state = _load_checkpoint(checkpoint_path, config) if checkpoint_path else {"chunks": {}}
    done = {int(k): v for k, v in state["chunks"].items()}
    ranges = _chunk_ranges(prefix_total, partitions)
    start = _probe_floor(gf, n, family, reduction) if mode == "find-optimal" else d
    todo = [
        (cid, (q, n, family, reduction, mode, start, lo, hi))
        for cid, (lo, hi) in enumerate(ranges)
        if cid not in done
    ]
    for i, result in _run_chunks(_scan_chunk, [a for _, a in todo], workers):
        done[todo[i][0]] = result
        if checkpoint_path:
            state["chunks"] = {str(k): v for k, v in done.items()}
            _save_checkpoint(checkpoint_path, state)

    best = max(chunk_best for chunk_best, _ in done.values())
    records = [
        _payload_to_triple(gf, payload, family)
        for cid in range(partitions)
        if done[cid][0] == best
        for payload in done[cid][1]
    ]
    return best, records


def search_dt(
    gf: GF,
    n: int,
    reduction: str = "auto",
    mode: str = "find-optimal",
    d: int | None = None,
    *,
    partitions: int = 1,
    workers: int = 1,
    checkpoint_path: str | None = None,
    triple_budget: int = DEFAULT_TRIPLE_BUDGET,
):
    """Scan the (filtered) double Toeplitz triple space.

    Returns ``(d_ref, records)`` where records are ``(triple, min_weight)``
    pairs in enumeration order.  In "find-optimal" mode ``d_ref`` is the
    family optimum and the records are exactly the optimal triples;
    "collect-at" keeps the triples of minimum weight exactly ``d`` and
    "at-least" those of minimum weight ``d`` or more.
    """
    return _search(
        gf, n, "DT", reduction, mode, d, partitions, workers, checkpoint_path, triple_budget
    )


def search_family(
    gf: GF,
    n: int,
    family: str,
    mode: str = "find-optimal",
    d: int | None = None,
    *,
    partitions: int = 1,
    workers: int = 1,
    checkpoint_path: str | None = None,
    triple_budget: int = DEFAULT_TRIPLE_BUDGET,
):
    """Scan all first rows r of a circulant family ("DC" or "NC").

    Returns ``(d_ref, records)`` of ``(CirculantSpec, min_weight)``
    pairs, with the same modes as :func:`search_dt`.
    """
    if family not in ("DC", "NC"):
        raise ValueError(f"unknown family {family!r}")
    return _search(
        gf, n, family, "none", mode, d, partitions, workers, checkpoint_path, triple_budget
    )


# ---------------------------------------------------------------------------
# classification


@dataclass
class ClassRecord:
    class_id: int
    representative: ToeplitzTriple
    members: int
    structure: str  # "DC" | "NC" | "DT-only"

    def to_dict(self, q: int, n: int, d: int) -> dict:
        return {
            "q": q,
            "n": n,
            "d": d,
            "class_id": self.class_id,
            "representative_triple": self.representative.to_text(),
            "members": self.members,
            "structure": self.structure,
        }


@dataclass
class ClassificationReport:
    """Equivalence classes of the optimal codes of one (q, n) cell."""

    q: int
    n: int
    d_opt: int
    records: list[ClassRecord] = field(default_factory=list)

    @property
    def n_dt(self) -> int:
        return sum(1 for r in self.records if r.structure == "DT-only")

    @property
    def n_dc(self) -> int:
        return sum(1 for r in self.records if r.structure == "DC")

    @property
    def n_nc(self) -> int:
        return sum(1 for r in self.records if r.structure == "NC")

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "d": self.d_opt,
            "counts": {"dt_only": self.n_dt, "dc": self.n_dc, "nc": self.n_nc},
            "classes": [r.to_dict(self.q, self.n, self.d_opt) for r in self.records],
        }


def classify(
    gf: GF,
    n: int,
    *,
    reduction: str = "auto",
    partitions: int = 1,
    workers: int = 1,
    semimonomial: bool = False,
    checkpoint_path: str | None = None,
    triple_budget: int = DEFAULT_TRIPLE_BUDGET,
) -> ClassificationReport:
    """Classify the optimal double Toeplitz codes of length n.

    Finds every filtered triple attaining the optimal minimum weight,
    splits them into equivalence classes, and labels each class by the
    triples in it: "DC" when one of them is circulant, else "NC" when
    one is negacirculant, else "DT-only".  Over F2 and F4 negation is
    the identity, so a circulant triple is negacirculant too and "NC"
    only occurs over F3.

    The labels need no search of the circulant families: a double
    (nega)circulant code is the double Toeplitz code of its triple, and
    the C2 swap (t, a, b) -> (t, b, a) and the C3 scaling of a triple
    keep a circulant triple circulant and a negacirculant one
    negacirculant.  Every such optimal code therefore has an
    equivalent filtered triple of the same kind among the attainers,
    which lies in the code's class.

    Classes are monomial-equivalence classes by default, for every q;
    the semimonomial diagnostic (F4) merges Frobenius-conjugate classes
    and changes the counts (already at n = 8).
    """
    _check_semimonomial(gf.q, semimonomial)
    d_opt, records = search_dt(
        gf,
        n,
        reduction,
        partitions=partitions,
        workers=workers,
        checkpoint_path=checkpoint_path,
        triple_budget=triple_budget,
    )
    triples = [T for T, _ in records]
    codes = [double_toeplitz_code(T) for T in triples]
    report = ClassificationReport(gf.q, n, d_opt)
    for class_id, group in enumerate(dedupe_into_classes(codes, semimonomial=semimonomial)):
        if minimum_weight(codes[group[0]]) != d_opt:
            raise AssertionError("class representative does not attain the optimum")
        members = [triples[i] for i in group]
        kinds = {classify_triple(T) for T in members}
        if kinds & {"circulant", "both"}:
            structure = "DC"
        elif "negacirculant" in kinds:
            structure = "NC"
        else:
            structure = "DT-only"
        rep_triple = min(members, key=ToeplitzTriple.lex_key)
        report.records.append(ClassRecord(class_id, rep_triple, len(group), structure))
    return report
