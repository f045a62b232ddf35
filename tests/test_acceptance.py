"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every check here is exact; there are no tolerances.
The whole module takes a few seconds (5-6 s on 2 CPUs), dominated by the
classification grid and the generator-row sweep.
"""

import random
from contextlib import contextmanager

from dtcodes import (
    GF,
    ToeplitzTriple,
    are_equivalent,
    classify,
    count_codes_containing,
    count_codes_containing_bruteforce,
    double_toeplitz_code,
    is_formally_self_dual,
    parse_triple,
    signature,
)
from dtcodes import verify
from dtcodes.reference_data import CLASSIFY_GRID, DT_CLASS_TRIPLES


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def _passing(checks) -> int:
    """Run one suite of reference checks; all must pass.  Returns their count."""
    checks = list(checks)
    failed = [text for ok, text in checks if not ok]
    assert not failed, failed
    return len(checks)


def test_criterion_1_average_enumerator_oracle():
    with criterion(1, "closed-form family enumerator equals brute force"):
        assert _passing(verify.awe_oracle()) == 8


def test_criterion_2_counting_lemma():
    with criterion(2, "containment counts match brute force for every (u, v)"):
        import itertools

        for q, n in ((2, 4), (2, 6), (3, 4)):
            gf = GF(q)
            m = n // 2
            for u in itertools.product(range(q), repeat=m):
                for v in itertools.product(range(q), repeat=m):
                    closed = count_codes_containing(gf, n, u, v)
                    brute = count_codes_containing_bruteforce(gf, n, u, v)
                    assert closed == brute, (q, n, u, v, closed, brute)


def test_criterion_3_threshold_tables():
    with criterion(3, "existence thresholds reproduce all 138 tabulated values"):
        assert _passing(verify.thresholds()) == 138


def test_criterion_4_generator_row_weights():
    with criterion(4, "every in-budget tabulated generator attains its claimed weight"):
        checked = _passing(verify.generators())
        assert checked >= 390, checked


def test_criterion_5_classification_grid():
    with criterion(5, "classification counts and optimal weights across the grid"):
        assert _passing(verify.classification(CLASSIFY_GRID)) == 16


def test_criterion_6_listed_representatives():
    with criterion(6, "listed optimal triples each land in a distinct new class"):
        for q, n in ((3, 6), (4, 8), (2, 14)):
            gf = GF(q)
            report = classify(gf, n)
            reps = [double_toeplitz_code(r.representative) for r in report.records]
            sigs = [signature(C) for C in reps]
            structures = [r.structure for r in report.records]
            seen = []
            for text in DT_CLASS_TRIPLES[q][n]:
                C = double_toeplitz_code(parse_triple(gf, text))
                s = signature(C)
                hits = [
                    i
                    for i in range(len(reps))
                    if s == sigs[i] and are_equivalent(C, reps[i])
                ]
                assert len(hits) == 1, (q, n, text, hits)
                assert structures[hits[0]] == "DT-only", (q, n, text, structures[hits[0]])
                seen.append(hits[0])
            assert len(set(seen)) == len(seen), (q, n, seen)


def test_criterion_7_reduction_soundness():
    with criterion(7, "symmetry reductions lose no equivalence class"):
        for q, n in ((2, 8), (2, 10), (3, 6), (4, 4)):
            assert verify.verify_reduction_soundness(GF(q), n), (q, n)


def _random_triple(rng: random.Random, gf: GF, n: int) -> ToeplitzTriple:
    m = n // 2
    return ToeplitzTriple(
        gf,
        rng.randrange(gf.q),
        tuple(rng.randrange(gf.q) for _ in range(m - 1)),
        tuple(rng.randrange(gf.q) for _ in range(m - 1)),
    )


def test_criterion_8_property_suites():
    with criterion(8, "self-duality, swap/scalar equivalence, parallel determinism"):
        rng = random.Random(20260814)

        for q in (2, 3, 4):
            gf = GF(q)
            for n in (8, 12):
                for _ in range(500):
                    T = _random_triple(rng, gf, n)
                    assert is_formally_self_dual(double_toeplitz_code(T)), (q, n, T)

        for q in (2, 3, 4):
            gf = GF(q)
            for _ in range(100):
                n = rng.choice((4, 6, 8, 10, 12))
                T = _random_triple(rng, gf, n)
                C = double_toeplitz_code(T)
                swapped = double_toeplitz_code(ToeplitzTriple(gf, T.t, T.b, T.a))
                assert are_equivalent(C, swapped), (q, n, T)
                alpha = rng.randrange(1, gf.q)
                scaled = double_toeplitz_code(
                    ToeplitzTriple(
                        gf,
                        gf.mul(alpha, T.t),
                        tuple(gf.mul(alpha, x) for x in T.a),
                        tuple(gf.mul(alpha, x) for x in T.b),
                    )
                )
                assert are_equivalent(C, scaled), (q, n, T, alpha)

        serial = classify(GF(2), 12, partitions=1).to_dict()
        parallel = classify(GF(2), 12, partitions=4).to_dict()
        assert serial == parallel
