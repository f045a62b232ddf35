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

Every search is one pass over blocks of candidate numbers, sized to a
byte budget.  A candidate of any family is its band sequence S (see
:mod:`structured`), whose sliding windows are the rows of its Toeplitz
matrix.  Each entry of S is one digit of the candidate, so its uint64
word (a bit-plane per field coordinate) is the OR of two table lookups;
S itself is built only for kept candidates.  Each row is a shift of the
word and its multiples are plane operations on it; a projective
message's right half is then an XOR of row words (a bitsliced adder over
F3) and its weight a popcount, which gives the block's minimum weights
capped at a threshold.  S must fit a plane, 2m-1 <= 64 over F2 and 32
over F3 and F4, but the default budget of 2^26 candidates binds first: m
<= 13, 8, 7 for DT (q^(2m-1) triples) and m <= 26, 16, 13 for DC and NC
(q^m first rows) over F2, F3, F4.  The messages are the layers of
:func:`linear._weight_layer`, shared with ``minimum_weight``.  Every mode
reads a block by one kernel call, whose weights are cut below at the
best, for best the target d or a "find-optimal" pass's running best: a
weight is exact at or above the best, and below it only some lower
value, since no mode keeps such a code.  The cap is best + 1 in
"collect-at" and m + 2 (d <= m + 1) otherwise, so a "find-optimal"
block with any weight above the best raises the best to their maximum
and drops the attainers so far.  Those at the best ("at-least": at or
above) are kept, in block order.  The prefix space (t, a), or the first
rows of a circulant family, is split into contiguous chunks which can
run on worker processes.  A chunk's result is its best and the numbers
and weights of its kept candidates, in the numbering of its prefix
range; the search keeps the attainers of the chunks whose best is the
maximum, in chunk order, so output is identical for any worker or
partition count.  Each chunk can be checkpointed to JSON as it
completes; a resumed chunk's numbers must increase within its
numbering, and one packed call per chunk recomputes their weights.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .equivalence import _check_semimonomial, dedupe_into_classes
from .gf import GF, _f3_add
from .linear import (
    BudgetExceededError,
    LinearCode,
    _index_digits,
    _weight_layer,
    min_weight_at_least,
    minimum_weight,
)
from .structured import (
    CirculantSpec,
    ToeplitzTriple,
    _check_even_length,
    _circulant_flags,
    _triple_order,
    circulant_bands,
    index_of_digits,
    orbit_keys,
    split_bands,
    toeplitz_windows,
    triple_bands,
)

__all__ = [
    "CheckpointError",
    "ClassRecord",
    "ClassificationReport",
    "passes_reduction",
    "search_dt",
    "search_family",
    "classify",
]

CHECKPOINT_VERSION = 3

# Cap on the raw candidate-space size of one search call.
DEFAULT_TRIPLE_BUDGET = 1 << 26

# Bytes of packed words that one batch step gathers per message term.
_PACKED_BYTE_BUDGET = 1 << 20


class CheckpointError(RuntimeError):
    """A checkpoint file or path is unusable, or does not match the requested search."""


def _resolve_reduction(q: int, reduction: str) -> str:
    """The filter that ``reduction`` names over F_q, with "auto" as C2 (F2) or C3 (F3, F4)."""
    if reduction == "auto":
        return "C2" if q == 2 else "C3"
    if reduction not in ("none", "C2", "C3"):
        raise ValueError(f"unknown reduction {reduction!r}")
    if reduction == "C2" and q != 2:
        raise ValueError("the C2 filter applies to binary searches only")
    if reduction == "C3" and q not in (3, 4):
        raise ValueError("the C3 filter applies to F3 and F4 searches only")
    return reduction


def _kept_b_counts(q: int, reduction: str, t, A) -> np.ndarray:
    """How many b survive the filter after each prefix (t, a), for t (...) and A (..., L).

    The survivors are always the b indices 0 .. count-1: C2 keeps
    f(b) <= f(a), and the index of a binary b is f(b); C3 keeps all q^L
    b or none, by the first nonzero entry of (t, a); "none" keeps all.
    """
    t, A = np.asarray(t, dtype=np.int64), np.asarray(A, dtype=np.int64)
    if reduction == "C2":
        return A @ (1 << np.arange(A.shape[-1])) + 1
    D = np.concatenate((t[..., None], A), axis=-1)
    lead = np.take_along_axis(D, (D != 0).argmax(axis=-1)[..., None], axis=-1)[..., 0]
    return np.where((lead <= 1) | (reduction == "none"), q ** A.shape[-1], 0)


def passes_reduction(T: ToeplitzTriple, reduction: str) -> bool:
    """Whether a triple survives a symmetry filter.

    "none" keeps everything; "C2" (binary only) keeps f(a) >= f(b);
    "C3" (F3/F4 only) keeps triples whose (t, a) part starts with 1,
    all-zero parts included; "auto" is the field's filter.
    """
    q = T.gf.q
    reduction = _resolve_reduction(q, reduction)
    return bool(index_of_digits(T.b, q) < _kept_b_counts(q, reduction, T.t, T.a))


# ---------------------------------------------------------------------------
# batched minimum-weight evaluation


def _band_words(gf: GF, S: np.ndarray) -> np.ndarray:
    """The uint64 words of sequences S (..., l), entry j at bit j of each plane: F2 has one
    plane, F3 and F4 the planes x & 1 and x >> 1 of their element codes in bits 0-31 and 32-63
    (F3 one-hot, F4 coordinates, as in linear._rref).  Zero packs to zero, so sequences with
    disjoint supports sum to the OR of their words.  ValueError if S is longer than a plane."""
    q, l, width = gf.q, S.shape[-1], 64 if gf.q == 2 else 32
    if l > width:
        m = (l + 1) // 2
        raise ValueError(f"band of block width m={m} exceeds the {width} entries of an F{q} plane")
    codes = np.arange(q, dtype=np.uint64)
    return ((codes & 1) | (codes >> 1) << 32)[S] @ (np.uint64(1) << np.arange(l, dtype=np.uint64))


def _row_words(q: int, m: int, W: np.ndarray) -> np.ndarray:
    """The nonzero multiples of the Toeplitz rows of the band words W (N,), shape (m (q-1), N):
    row r (q-1) + s - 1 is the word of s S[m-1-r : 2m-1-r], for S the band of its column.
    Over F3 the negation swaps the planes, so rows c and c ^ 1 hold the two multiples of
    one row; over F4 w sends the planes (x0, x1) to (x1, x0 ^ x1) and w^2 to (x0 ^ x1, x0).
    A sum over F2 or F4 is an XOR of words."""
    if q > 2:
        s = W >> 32 | W << 32  # (x1, x0)
        W = np.stack((W, s) if q == 3 else (W, s ^ W >> 32 << 32, s ^ W << 32 >> 32))
    mask = np.uint64(((1 << m) - 1) * (1 if q == 2 else 1 | 1 << 32))  # m entries a plane
    rows = W.reshape(q - 1, -1) >> np.arange(m - 1, -1, -1, dtype=np.uint64)[:, None, None]
    return np.bitwise_and(rows, mask, out=rows).reshape(m * (q - 1), -1)  # no second block


def _message_weights(q: int, PT: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Weights of u A for the messages ``cols``, shape (messages, blocks).

    ``PT`` holds the packed words of the blocks, one row per row of
    :func:`_row_words`.  Over F2 and F4 the right half u A is the XOR of
    the message's terms.  Over F3 the last term is compared instead of
    added: a sum x + y is zero exactly where x equals -y, so u A has the
    weight of x ^ (-y), with x the sum of the other terms.
    """
    if q == 3:
        acc = PT[cols[:, -1] ^ 1]
        if cols.shape[1] > 1:
            x, xn = PT[cols[:, 0]], PT[cols[:, 0] ^ 1]
            for c in cols[:, 1:-1].T:
                x, xn = _f3_add(x, xn, PT[c], PT[c ^ 1])
            acc ^= x
    else:
        acc = PT[cols[:, -1]]
        for c in cols[:, :-1].T:
            acc ^= PT[c]
    if q == 2:
        return np.bitwise_count(acc)
    # an entry is nonzero when either of its plane bits is set
    halves = acc.view(np.uint32)
    return np.bitwise_count(halves[:, 0::2] | halves[:, 1::2])


@cache
def _layer_columns(q: int, m: int, w: int) -> np.ndarray:
    """Packed-word columns ``support (q-1) + value - 1`` of the terms of the messages of
    :func:`linear._weight_layer`, support-major, built once per (q, m, w) (read-only)."""
    supports, values = _weight_layer(q, m, w)
    cols = (supports[:, None].astype(np.int64) * (q - 1) + values - 1).reshape(-1, w)
    cols.flags.writeable = False
    return cols


def _batch_min_weight_capped(P: np.ndarray, T: int, q: int, least: int) -> np.ndarray:
    """``min(d_i, T)`` for the minimum weight d_i of each code (I | A_i) over F_q with
    d_i >= ``least``, and some value below ``least`` for every other code.

    ``P`` holds the packed rows of A_i in column i (:func:`_row_words`).
    A codeword of weight below T comes from a message of weight below T,
    so the projective messages of weight 1..T-1 give d_i exactly when
    d_i < T, and a value of T proves d_i >= T.  They are scanned by
    ascending weight w, each layer read from :func:`_layer_columns`;
    messages of weight above w give codewords of weight above w, so a
    code whose lowest weight so far is at most w + 1 leaves the scan,
    and so does one whose lowest weight so far is below ``least``
    (least = 0 keeps every code to its exact value).
    """
    m = len(P) // (q - 1)
    out = np.full(P.shape[1], T, dtype=np.int64)
    alive = np.arange(P.shape[1])
    for w in range(1, min(T, m + 1)):
        cols = _layer_columns(q, m, w)
        step = max(1, _PACKED_BYTE_BUDGET // (8 * len(cols)))
        for lo in range(0, len(alive), step):
            idx = alive[lo : lo + step]
            PT = P[:, lo : lo + step] if len(alive) == P.shape[1] else P[:, idx]
            low = w + _message_weights(q, PT, cols).min(axis=0)
            out[idx] = np.minimum(out[idx], low)
        alive = alive[out[alive] > max(w + 1, least - 1)]
        if not len(alive):
            break
    return out


# ---------------------------------------------------------------------------
# candidate-space iteration


def _numbered_bands(gf: GF, n: int, family: str, reduction: str, lo: int, hi: int):
    """(total, split, low, high) of the candidates of prefixes [lo, hi), numbered 0 .. total-1
    in scan order: ``split(idx)`` gives the rows (i, j) of the int8 tables ``low`` and ``high``
    whose sum low[i] + high[j] is the band sequence of each candidate number of ``idx``.

    Each band entry depends on one digit of the candidate, so the parts have disjoint
    supports.  DC/NC numbers are first-row indices less ``lo``, split into their low
    ceil(m/2) and high digits.  DT prefixes [lo, hi), the low parts, hold the b indices
    0 .. count-1 of :func:`_kept_b_counts` each; number i belongs to the last prefix that
    starts at or before i.
    """
    q, m, L = gf.q, n // 2, n // 2 - 1
    if family != "DT":
        mu, h = 1 if family == "DC" else -1, (m + 1) // 2
        low, high = (circulant_bands(gf, _index_digits(np.arange(q**k) * q**s, q, m), mu)
                     for k, s in ((h, 0), (m - h, h)))
        return hi - lo, lambda idx: ((lo + idx) % q**h, (lo + idx) // q**h), low, high
    p = np.arange(lo, hi, dtype=np.int64)
    t, A = p // q**L, _index_digits(p % q**L, q, L)
    starts = np.concatenate(([0], _kept_b_counts(q, reduction, t, A).cumsum()))
    B = _index_digits(np.arange(q**L), q, L)
    high = triple_bands(np.zeros(len(B)), B * 0, B)

    def split(idx):
        own = np.searchsorted(starts, idx, side="right") - 1
        return own, idx - starts[own]

    return int(starts[-1]), split, triple_bands(t, A, A * 0), high


def _probe_floor(gf: GF, n: int, family: str, reduction: str) -> int:
    """Best exact minimum weight over a deterministic sample of candidates: the
    :func:`_numbered_bands` of 128 numbers spread evenly over the whole filtered space.

    It starts a find-optimal pass's best above 1, so early blocks need fewer raises and
    deep layers, and a sampled member of the filtered space attains it.  One kernel call,
    cut at 0 and capped at m + 2 (d <= m + 1), gives every sample's exact weight.  The scan
    reads its blocks by the same kernel, so the best sample is checked by the independent
    exact scan of ``min_weight_at_least``: AssertionError if it misses the floor.
    """
    q, m = gf.q, n // 2
    total, split, low, high = _numbered_bands(gf, n, family, reduction, 0, q**m)
    i, j = split(np.unique(np.linspace(0, total - 1, min(total, 128)).astype(np.int64)))
    S = low[i] + high[j]
    weights = _batch_min_weight_capped(_row_words(q, m, _band_words(gf, S)), m + 2, q, 0)
    floor, best = int(weights.max()), S[weights.argmax()]
    if not min_weight_at_least(LinearCode.systematic(gf, toeplitz_windows(best)), floor):
        raise AssertionError("the probe's best sample does not attain the floor")
    return floor


# ---------------------------------------------------------------------------
# chunk scan (top level so worker processes can import it)


def _scan_chunk(args) -> tuple[int, list[int], list[int]]:
    """(best, numbers, weights) of the prefixes [lo, hi): the kept candidates' numbers in
    the :func:`_numbered_bands` of the range, and their minimum weights.

    In find-optimal mode ``d`` is the starting best, which the chunk
    may raise; otherwise it is the fixed target.
    """
    q, n, family, reduction, mode, d, lo, hi = args
    gf = GF(q)
    total, split, low, high = _numbered_bands(gf, n, family, reduction, lo, hi)
    low_words, high_words = _band_words(gf, low), _band_words(gf, high)
    rows = max(1, _PACKED_BYTE_BUDGET // (8 * (q - 1) * (n // 2) ** 2))  # (q-1) m^2 words each
    cap = d + 1 if mode == "collect-at" else n // 2 + 2
    best, numbers, weights = d, [], []
    for first in range(0, total, rows):
        i, j = split(np.arange(first, min(first + rows, total)))
        P = _row_words(q, n // 2, low_words[i] | high_words[j])
        mw = _batch_min_weight_capped(P, cap, q, best)
        if mode == "find-optimal" and mw.max() > best:
            best, numbers, weights = int(mw.max()), [], []
        keep = np.flatnonzero(mw >= best if mode == "at-least" else mw == best)
        numbers += (first + keep).tolist()
        weights += mw[keep].tolist()
    return best, numbers, weights


# ---------------------------------------------------------------------------
# checkpointing


def _spec_of_band(gf: GF, family: str, S: np.ndarray):
    """The triple (DT) or the (nega)circulant first row and sign of band sequence S."""
    if family == "DT":
        return ToeplitzTriple(gf, *split_bands(S))
    return CirculantSpec(gf, S[len(S) // 2 :].tolist(), 1 if family == "DC" else -1)


def _check_chunk(config: dict, lo: int, hi: int, best: int, numbers: list, weights: list) -> None:
    """ValueError unless ``[best, numbers, weights]`` is what the scan of prefixes [lo, hi)
    writes.  The numbering holds only the range's filtered candidates, in scan order, so
    increasing numbers within it name candidates the scan reaches in its order."""
    gf, n, family, mode = GF(config["q"]), config["n"], config["family"], config["mode"]
    if mode != "find-optimal" and best != config["d"]:
        raise ValueError(f"best {best} is not the target weight {config['d']}")
    if len(numbers) != len(weights) or any(type(x) is not int for x in numbers + weights):
        raise ValueError("numbers and weights are not integer lists of one length")  # no bool
    total, split, low, high = _numbered_bands(gf, n, family, config["reduction"], lo, hi)
    if any(a >= b for a, b in zip(numbers, numbers[1:])):
        raise ValueError(f"numbers {numbers} are out of scan order")
    if numbers and not 0 <= numbers[0] <= numbers[-1] < total:
        raise ValueError(f"numbers {numbers} run outside [0, {total})")
    for w in weights:
        if w < best if mode == "at-least" else w != best:
            raise ValueError(f"weight {w} does not fit the chunk best {best}")
    # every number's exact weight in one packed call, with the scan's exact cap m + 2
    i, j = split(np.array(numbers, dtype=np.int64))
    S = low[i] + high[j]
    P = _row_words(gf.q, n // 2, _band_words(gf, S))
    exact = _batch_min_weight_capped(P, n // 2 + 2, gf.q, 0)
    for number, band, w, d in zip(numbers, S, weights, exact.tolist()):
        if d != w:
            spec = _spec_of_band(gf, family, band).to_text()
            raise ValueError(f"number {number}'s weight {w} is not {spec}'s minimum weight {d}")


def _load_checkpoint(path: str, config: dict, ranges: list[tuple[int, int]]) -> dict:
    """The checkpoint at ``path`` (fresh when absent), written back at once: CheckpointError if
    the file is malformed, a chunk fails :func:`_check_chunk`, or the path is unusable."""
    data = {"version": CHECKPOINT_VERSION, "config": config, "chunks": {}}
    try:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"checkpoint is not a readable JSON file: {exc}") from exc
    if not isinstance(data, dict):
        raise CheckpointError("checkpoint is not a JSON object")
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {data.get('version')} does not match {CHECKPOINT_VERSION}"
        )
    if data.get("config") != config:
        raise CheckpointError("checkpoint was written by a different search configuration")
    chunks = data.setdefault("chunks", {})
    if not isinstance(chunks, dict) or not set(chunks) <= {str(i) for i in range(len(ranges))}:
        raise CheckpointError(f"checkpoint chunk ids are not among 0..{len(ranges) - 1}")
    for cid, chunk in chunks.items():
        try:
            best, numbers, weights = chunk
            if type(best) is not int or not all(type(x) is list for x in (numbers, weights)):
                raise TypeError("best is not an integer or numbers and weights not lists")
            _check_chunk(config, *ranges[int(cid)], best, numbers, weights)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint chunk {cid} is not its scan's output: {exc}") from exc
    try:
        _save_checkpoint(path, data)
    except OSError as exc:
        raise CheckpointError(f"checkpoint path is not writable: {exc}") from exc
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


def _run_chunks(fn, jobs: dict[int, tuple], workers: int):
    """Run chunk jobs ``{chunk_id: args}``, yielding (chunk_id, result) as they complete.

    A job that raises cancels the jobs not yet started, and its
    exception is raised again with the same type, its message prefixed
    by the chunk id and the prefix range ``args[-2:]``.  The pool gets
    no more processes than there are chunks or CPUs: under fork it
    starts all of them at the first submit.
    """
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    with ExitStack() as stack:
        if workers <= 1:
            outcomes = ((cid, partial(fn, args)) for cid, args in jobs.items())
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            futures = {pool.submit(fn, args): cid for cid, args in jobs.items()}
            stack.callback(lambda: [future.cancel() for future in futures])
            outcomes = ((futures[future], future.result) for future in as_completed(futures))
        for cid, outcome in outcomes:
            try:
                result = outcome()
            except Exception as exc:
                lo, hi = jobs[cid][-2:]
                raise type(exc)(f"chunk {cid} (prefixes [{lo}, {hi})): {exc}") from exc
            yield cid, result


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
    _check_even_length(n)
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

    space = q ** (n - 1) if family == "DT" else q ** (n // 2)
    if space > triple_budget:
        raise BudgetExceededError(
            f"search space {space} exceeds the budget of {triple_budget} candidates"
        )

    # the run's identity, stored inside checkpoints
    config = {"q": q, "n": n, "family": family, "reduction": reduction, "mode": mode, "d": d,
              "partitions": partitions}
    ranges = _chunk_ranges(q ** (n // 2), partitions)
    state = _load_checkpoint(checkpoint_path, config, ranges) if checkpoint_path else {"chunks": {}}
    done = {int(k): v for k, v in state["chunks"].items()}
    left = {cid: r for cid, r in enumerate(ranges) if cid not in done}
    # a resume with every chunk done scans nothing, so it needs no floor
    start = _probe_floor(gf, n, family, reduction) if mode == "find-optimal" and left else d
    todo = {cid: (q, n, family, reduction, mode, start, lo, hi) for cid, (lo, hi) in left.items()}
    for cid, result in _run_chunks(_scan_chunk, todo, workers):
        done[cid] = result
        if checkpoint_path:
            state["chunks"] = {str(k): done[k] for k in sorted(done)}
            _save_checkpoint(checkpoint_path, state)

    best = max(chunk[0] for chunk in done.values())
    bands, weights = [np.zeros((0, n - 1), dtype=np.int8)], []
    for cid, (lo, hi) in enumerate(ranges):
        chunk_best, numbers, chunk_weights = done[cid]
        if chunk_best == best:
            _, split, low, high = _numbered_bands(gf, n, family, reduction, lo, hi)
            i, j = split(np.array(numbers, dtype=np.int64))
            bands.append(low[i] + high[j])
            weights += chunk_weights
    # a scan always keeps an attainer of its best: the probe floor's candidate, or the
    # candidate that raised it
    if mode == "find-optimal" and not weights:
        raise CheckpointError(f"no checkpoint chunk at the best {best} holds a record")
    return best, np.concatenate(bands), weights


def _records(gf: GF, family: str, best: int, S: np.ndarray, weights: list[int]):
    """``(best, records)`` of a search result: the (spec, weight) pairs of its band rows S."""
    return best, list(zip(map(partial(_spec_of_band, gf, family), S), weights))


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
    return _records(gf, "DT", *_search(
        gf, n, "DT", reduction, mode, d, partitions, workers, checkpoint_path, triple_budget
    ))


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
    return _records(gf, family, *_search(
        gf, n, family, "none", mode, d, partitions, workers, checkpoint_path, triple_budget
    ))


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


# Band rows per orbit_keys call: bounds its (rows, 2 (q-1)^2, 2m-1) image tensor and int64 keys
_ORBIT_BLOCK_ROWS = 1 << 13


def _orbit_classes(gf: GF, S: np.ndarray, semimonomial: bool) -> tuple[np.ndarray, np.ndarray]:
    """The class of each band sequence of S, numbered by least rows, and each class's least
    row.  Only the first row, or leader, of each orbit of :func:`structured.orbit_keys` is
    keyed and pair-tested (see :func:`classify`), so a class's least row is a leader.  Keys
    come ``_ORBIT_BLOCK_ROWS`` rows at a time; a leader's code is built as dedupe reads it."""
    blocks = (S[lo : lo + _ORBIT_BLOCK_ROWS] for lo in range(0, len(S), _ORBIT_BLOCK_ROWS))
    keys = np.concatenate([orbit_keys(gf, B) for B in blocks])
    _, first, orbit = np.unique(keys, return_index=True, return_inverse=True)
    by_leader = np.argsort(first)  # the orbits, numbered by key, in the order of their leaders
    codes = (LinearCode.systematic(gf, A) for A in toeplitz_windows(S[first[by_leader]]))
    groups = dedupe_into_classes(codes, semimonomial=semimonomial)
    cls = np.empty(len(first), dtype=np.intp)  # the class of each orbit, by key
    for class_id, group in enumerate(groups):
        cls[by_leader[group]] = class_id
    return cls[orbit], first[by_leader[[group[0] for group in groups]]]


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

    Three maps of triples are known to keep the code's monomial class
    (:func:`structured.band_images`): scaling T by c; the twist
    D⁻¹TD for D = diag(α^i), which sends a_k -> α^k a_k and
    b_k -> α^-k b_k; and the swap a <-> b.  Only the first attainer of
    each orbit under them, in enumeration order, is keyed and
    pair-tested; every attainer takes its leader's class, one array
    that gives the members, labels and representatives.  A class's
    least attainer is a leader, and the pair tests decide equivalence
    exactly, so the classes, their order, members, labels and
    lex-minimal representatives are those of a dedupe over every one.

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
    d_opt, S, _ = _search(
        gf, n, "DT", reduction, "find-optimal", None, partitions, workers, checkpoint_path,
        triple_budget,
    )
    circ, nega = _circulant_flags(gf, S)
    cls, leaders = _orbit_classes(gf, S, semimonomial)
    members = np.bincount(cls).tolist()
    dc, nc = (np.bincount(cls, weights=flags) > 0 for flags in (circ, nega))
    order = _triple_order(S, cls)  # by class, then (t, a, b)
    reps = order[np.searchsorted(cls[order], np.arange(len(leaders)))]
    report = ClassificationReport(gf.q, n, d_opt)
    for class_id, (leader, row) in enumerate(zip(leaders, reps)):
        if minimum_weight(LinearCode.systematic(gf, toeplitz_windows(S[leader]))) != d_opt:
            raise AssertionError("class representative does not attain the optimum")
        structure = "DC" if dc[class_id] else "NC" if nc[class_id] else "DT-only"
        rep = _spec_of_band(gf, "DT", S[row])
        report.records.append(ClassRecord(class_id, rep, members[class_id], structure))
    return report
