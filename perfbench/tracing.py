"""Outside-in layer trace of the dtcodes library.

The public functions of each layer are wrapped where callers look them
up: every ``dtcodes`` module attribute bound to one of them is replaced
for the duration of a traced pass and put back afterwards, so the
library itself is untouched.  A wrapper records a span (name, duration,
parent span) and the counts that belong to that boundary; spans are
aggregated in memory per name.  Self time is a span's duration minus
the durations of its direct child spans.

``madds`` and ``bytes`` of the field product are computed from operand
shapes, not measured.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# cli and reference_data hold lookup sites too; importing them here
# keeps a late import from binding a wrapper that outlives its pass.
from dtcodes import average, cli, equivalence, gf, linear, reference_data, search, structured  # noqa: F401

LAYERS = ("gf", "linear", "structured", "equivalence", "search", "average")
FIELDS = (2, 3, 4)
SHAPES = ("flat", "batched")


def search_candidates(q: int, n: int, family: str, reduction: str) -> int:
    """Size of the filtered search space, from its closed form.

    C2 keeps the 2 * 2^(m-1) (2^(m-1) + 1) / 2 triples with
    f(a) >= f(b).  C3 keeps the (q^m - 1)/(q - 1) + 1 prefixes (t, a)
    that start with 1 or are all zero, times q^(m-1) values of b.  The
    circulant families have q^m first rows.
    """
    m = n // 2
    if family in ("DC", "NC"):
        return q**m
    if reduction == "auto":
        reduction = "C2" if q == 2 else "C3"
    if reduction == "none":
        return q ** (n - 1)
    if reduction == "C2":
        return 2 ** (m - 1) * (2 ** (m - 1) + 1)
    if reduction == "C3":
        return q ** (m - 1) * (1 + (q**m - 1) // (q - 1))
    raise ValueError(f"unknown reduction {reduction!r}")


class Tracer:
    """Aggregated spans and counts of one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        # (search function name, bound arguments, optimum) per find-optimal span
        self.searches: list = []
        self._stack: list = []

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def span(self, name: str, fn, args, kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dt
            self.calls[name] += 1
            self.total_s[name] += dt
            self.self_s[name] += dt - frame[1]


# ---------------------------------------------------------------------------
# per-function span names and counters


def _matmul_name(args, kwargs):
    field, x, y = args
    return f"gf.matmul.q{field.q}.{'batched' if np.ndim(y) >= 3 else 'flat'}"


def _matmul_counts(tr: Tracer, parent, name, args, kwargs, out) -> None:
    _, x, y = args
    xs = np.shape(x)
    tr.counts[name + ".madds"] += math.prod(out.shape) * xs[-1]
    tr.counts[name + ".bytes"] += np.asarray(x).nbytes + np.asarray(y).nbytes + out.nbytes
    if parent == "linear.minimum_weight":
        tr.counts["linear.minimum_weight.messages"] += math.prod(xs[:-1])


def _mwal_counts(tr: Tracer, parent, name, args, kwargs, out) -> None:
    tr.counts["linear.min_weight_at_least.passed"] += bool(out)
    if parent is not None and parent.startswith("search."):
        tr.counts["search.exact_evals"] += 1


def _dedupe_counts(tr: Tracer, parent, name, args, kwargs, out) -> None:
    tr.counts["equivalence.dedupe.codes"] += sum(len(g) for g in out)
    tr.counts["equivalence.classes"] += len(out)


def _equiv_counts(tr: Tracer, parent, name, args, kwargs, out) -> None:
    tr.counts["equivalence.are_equivalent.true"] += bool(out)


def _search_hooks(fn_name: str):
    """Span namer and counter hook of one search entry point."""
    sig = inspect.signature(getattr(search, fn_name))

    def name(args, kwargs):
        mode = sig.bind(*args, **kwargs).arguments.get("mode", "find-optimal")
        return "search." + mode.replace("-", "_")

    def counts(tr: Tracer, parent, name, args, kwargs, out) -> None:
        if name != "search.find_optimal":
            return
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        family = a.get("family", "DT")
        reduction = a.get("reduction", "none")
        tr.counts["search.candidates"] += search_candidates(a["gf"].q, a["n"], family, reduction)
        tr.counts["search.attainers"] += len(out[1])
        tr.searches.append((fn_name, bound, out))

    return name, counts


def _fixed(name):
    return lambda args, kwargs: name


def _wrapped_functions():
    """(function, span namer, counter hook) per traced function."""
    table = [
        (gf, "gf_matmul", _matmul_name, _matmul_counts),
        (linear, "minimum_weight", None, None),
        (linear, "min_weight_at_least", None, _mwal_counts),
        (linear, "weight_enumerator", None, None),
        (linear, "dual_code", None, None),
        (structured, "double_toeplitz_code", _fixed("structured.build"), None),
        (structured, "double_circulant_code", _fixed("structured.build"), None),
        (structured, "double_negacirculant_code", _fixed("structured.build"), None),
        (equivalence, "dedupe_into_classes", _fixed("equivalence.dedupe"), _dedupe_counts),
        (equivalence, "are_equivalent", None, _equiv_counts),
        (equivalence, "find_monomial_map", None, None),
        (equivalence, "signature", None, None),
        (search, "search_dt", *_search_hooks("search_dt")),
        (search, "search_family", *_search_hooks("search_family")),
        (average, "minimal_guaranteed_length", None, None),
        (average, "existence_bound_holds", None, None),
    ]
    for module, fn_name, namer, hook in table:
        layer = module.__name__.rsplit(".", 1)[1]
        yield getattr(module, fn_name), namer or _fixed(f"{layer}.{fn_name}"), hook


def _wrapper(tr: Tracer, fn, namer, hook):
    def traced(*args, **kwargs):
        name = namer(args, kwargs)
        parent = tr.parent()
        out = tr.span(name, fn, args, kwargs)
        if hook is not None:
            hook(tr, parent, name, args, kwargs, out)
        return out

    traced.__wrapped__ = fn
    return traced


@contextmanager
def installed(tr: Tracer):
    """Wrap every lookup site of the traced functions; restore on exit."""
    wrappers = {id(fn): _wrapper(tr, fn, namer, hook) for fn, namer, hook in _wrapped_functions()}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dtcodes"]
    patched = []
    try:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, value))
        yield patched
    finally:
        for mod, attr, value in reversed(patched):
            setattr(mod, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, solve_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass that took ``solve_s``."""
    c, s, calls = tr.counts, tr.self_s, tr.calls
    out: dict[str, float] = {}
    for q in FIELDS:
        for shape in SHAPES:
            key = f"gf.matmul.q{q}.{shape}"
            tail = f"q{q}.{shape}"
            out[f"gf.matmul.calls.{tail}"] = calls[key]
            out[f"gf.matmul.self_s.{tail}"] = s[key]
            out[f"gf.matmul.madds.{tail}"] = c[key + ".madds"]
            out[f"gf.matmul.madds_per_s.{tail}"] = _ratio(c[key + ".madds"], s[key])
            out[f"gf.matmul.bytes.{tail}"] = c[key + ".bytes"]
    for fn in ("minimum_weight", "min_weight_at_least", "weight_enumerator", "dual_code"):
        out[f"linear.{fn}.calls"] = calls[f"linear.{fn}"]
        out[f"linear.{fn}.self_s"] = s[f"linear.{fn}"]
    out["linear.minimum_weight.messages"] = c["linear.minimum_weight.messages"]
    out["linear.min_weight_at_least.pass_frac"] = _ratio(
        c["linear.min_weight_at_least.passed"], calls["linear.min_weight_at_least"]
    )
    out["structured.build.calls"] = calls["structured.build"]
    out["structured.build.self_s"] = s["structured.build"]
    for fn in ("dedupe", "are_equivalent", "find_monomial_map", "signature"):
        out[f"equivalence.{fn}.calls"] = calls[f"equivalence.{fn}"]
        out[f"equivalence.{fn}.self_s"] = s[f"equivalence.{fn}"]
    out["equivalence.dedupe.codes"] = c["equivalence.dedupe.codes"]
    out["equivalence.classes"] = c["equivalence.classes"]
    out["equivalence.are_equivalent.true_frac"] = _ratio(
        c["equivalence.are_equivalent.true"], calls["equivalence.are_equivalent"]
    )
    out["equivalence.signature.per_code"] = _ratio(
        calls["equivalence.signature"], c["equivalence.dedupe.codes"]
    )
    out["search.find_optimal.calls"] = calls["search.find_optimal"]
    out["search.find_optimal.self_s"] = s["search.find_optimal"]
    out["search.candidates"] = c["search.candidates"]
    out["search.candidates_per_s"] = _ratio(c["search.candidates"], tr.total_s["search.find_optimal"])
    out["search.exact_evals"] = c["search.exact_evals"]
    out["search.survivor_frac"] = _ratio(c["search.exact_evals"], c["search.candidates"])
    out["search.attainers"] = c["search.attainers"]
    for fn in ("minimal_guaranteed_length", "existence_bound_holds"):
        out[f"average.{fn}.calls"] = calls[f"average.{fn}"]
        out[f"average.{fn}.self_s"] = s[f"average.{fn}"]
    attributed = 0.0
    for layer in LAYERS:
        layer_s = sum(v for k, v in s.items() if k.startswith(layer + "."))
        attributed += layer_s
        out[f"{layer}.self_share"] = _ratio(layer_s, solve_s)
    out["unattributed.self_share"] = _ratio(solve_s - attributed, solve_s)
    return out


def time_phase2(tr: Tracer) -> tuple[float, float, list[str]]:
    """(phase-1 s, phase-2 s, failures) of the traced find-optimal searches.

    Phase 2 is timed by repeating each search untraced in "collect-at"
    mode at the optimum it found; phase 1 is the rest of the
    find-optimal time.  A repeat that raises or disagrees with its
    search is a failure.
    """
    phase2 = 0.0
    failures = []
    for fn_name, bound, (d_opt, records) in tr.searches:
        a = dict(bound.arguments)
        a["mode"], a["d"] = "collect-at", d_opt
        t0 = perf_counter()
        try:
            again = getattr(search, fn_name)(**a)
        except Exception as exc:  # reported as a failed check, like any item
            again = f"raised {type(exc).__name__}: {exc}"
        phase2 += perf_counter() - t0
        if again != (d_opt, records):
            failures.append(f"collect-at repeat of {fn_name} n={a['n']} disagrees with find-optimal")
    return tr.total_s["search.find_optimal"] - phase2, phase2, failures
