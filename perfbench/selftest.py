"""Self-tests of the benchmark's own machinery; a few seconds, small cells.

Run from the repository root:

    python3 perfbench/selftest.py

They check the closed-form candidate counts against counting, the
layer wrappers (restoration, unchanged outputs, parent attribution,
reported overhead), the correctness gate on corrupted output, and that
``BENCHMARK.json`` names exactly the metrics a run prints.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

import dtcodes  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402
from dtcodes import reference_data as rd  # noqa: E402


def _small_items():
    """A cheap job list touching every layer."""
    items = [
        jobs.Item("classify F2 n=10", lambda: jobs._classify(2, 10)[:4],
                  (rd.OPTIMAL_MIN_WEIGHT[2][10],) + rd.CLASS_COUNTS[2][10]),
        jobs.Item("search DT F3 n=8", lambda: jobs._search("DT", 3, 8)[0],
                  rd.OPTIMAL_MIN_WEIGHT[3][8]),
        jobs.Item("search DC F4 n=8", lambda: jobs._search("DC", 4, 8)[0],
                  rd.OPTIMAL_MIN_WEIGHT[4][8]),
    ]
    items += jobs.threshold_items()[:3]
    items += _short_witnesses(5)
    return items


def _short_witnesses(count: int):
    """Recorded witnesses of length 10 to 18."""
    return [it for it in jobs.generator_items() if " n=1" in it.name][:count]


def _snapshot():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "dtcodes" or name.startswith("dtcodes.")
        for attr, value in vars(mod).items()
    }


def test_candidate_closed_forms():
    recorded = {(2, 8): 72, (2, 10): 272, (3, 6): 126, (4, 6): 352}
    for (q, n), expected in recorded.items():
        gf = dtcodes.GF(q)
        reduction = "C2" if q == 2 else "C3"
        counted = sum(
            dtcodes.passes_reduction(T, reduction) for T in dtcodes.enumerate_triples(gf, n // 2)
        )
        assert counted == expected == tracing.search_candidates(q, n, "DT", "auto"), (q, n)
        tr = tracing.Tracer()
        with tracing.installed(tr):
            jobs.search_cell("DT", q, n)
        assert tr.counts["search.candidates"] == counted, (q, n)
    for q, n in ((2, 8), (3, 6), (4, 6)):
        assert tracing.search_candidates(q, n, "DC", "none") == q ** (n // 2)


def test_every_patched_name_is_restored():
    before = _snapshot()
    tr = tracing.Tracer()
    with tracing.installed(tr) as patched:
        sites = {f"{mod.__name__}.{attr}" for mod, attr, _ in patched}
        for site in ("dtcodes.search.minimum_weight", "dtcodes.gf.gf_matmul",
                     "dtcodes.linear.gf_matmul", "dtcodes.equivalence.signature",
                     "dtcodes.reference_data.double_circulant_code", "dtcodes.minimum_weight"):
            assert site in sites, site
        for mod, attr, original in patched:
            assert getattr(mod, attr) is not original, (mod.__name__, attr)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a traced name was not restored"


def test_traced_outputs_match_and_overhead_is_reported():
    items = _small_items()
    untraced = run.run_pass(items)
    tr = tracing.Tracer()
    with tracing.installed(tr):
        traced = run.run_pass(items)
    assert not untraced.failures and not traced.failures, untraced.failures + traced.failures
    assert traced.outputs == untraced.outputs
    metrics, failures = run.layer_result([untraced], [(traced, tr)])
    assert not failures
    assert metrics["trace.overhead_s"] == traced.seconds - untraced.seconds


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = run.Pass(1.0, [1.0], [0], [])
    layer, _ = run.layer_result([p], [(p, tracing.Tracer())])
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {k: run.unit_of(k) for k in layer}, set(declared) ^ set(layer)
    e2e = run.end_to_end_metrics([0.2], [p], 0, 1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: run.unit_of(k) for k in e2e}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        assert jobs.build(workload, 0)


def test_parent_attribution():
    code = rd.build_code(4, "C:(1,w,1,1,1,0)")
    alone = tracing.Tracer()
    with tracing.installed(alone):
        dtcodes.minimum_weight(code)
    messages = alone.counts["linear.minimum_weight.messages"]
    assert messages > 0
    assert messages == sum(
        alone.counts[k] // (code.k * (code.n - code.k))
        for k in alone.counts if k.endswith(".madds")
    ), "every product under minimum_weight alone sends k-column messages to an (I|B) block"
    mixed = tracing.Tracer()
    with tracing.installed(mixed):
        dtcodes.weight_enumerator(code)
        dtcodes.min_weight_at_least(code, 6)
        dtcodes.minimum_weight(code)
        dtcodes.dual_code(code)
        dtcodes.are_equivalent(code, code)
    assert mixed.counts["linear.minimum_weight.messages"] == messages
    assert mixed.counts["search.exact_evals"] == 0
    assert mixed.calls["linear.minimum_weight"] == 1
    inside = tracing.Tracer()
    with tracing.installed(inside):
        jobs.search_cell("DC", 4, 8)
    assert inside.counts["search.exact_evals"] == inside.calls["linear.min_weight_at_least"] > 0
    total = sum(inside.total_s[k] for k in inside.calls if k.startswith("search."))
    self_sum = sum(inside.self_s.values())
    assert abs(total - self_sum) < 1e-6, "self times under the search span must sum to its total"


def test_gate_counts_corrupted_and_raising_items():
    items = _short_witnesses(4)
    original = dtcodes.minimum_weight

    def corrupted(code):
        return original(code) + 1

    dtcodes.minimum_weight = corrupted
    try:
        bad = run.run_pass(items)
    finally:
        dtcodes.minimum_weight = original
    assert len(bad.failures) == len(items) == len(bad.outputs)

    def raises():
        raise ValueError("broken item")

    mixed = run.run_pass([jobs.Item("raises", raises, 0)] + items)
    assert len(mixed.failures) == 1 and len(mixed.outputs) == len(items) + 1
    assert run.end_to_end_metrics([0.2], [mixed], 1, len(mixed.outputs))["pass_frac"] < 1


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(tests) - failed} of {len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
