"""Reference checks: the recorded tables recomputed from the library.

Each suite is a generator of ``(ok, text)`` checks, one per recorded
value.  ``dtcodes verify-tables --suite NAME`` runs ``SUITES[NAME]``
and the acceptance tests run the same generators, so every recorded
table is checked by one loop.
"""

from __future__ import annotations

from functools import partial

from .average import (
    average_weight_enumerator,
    average_weight_enumerator_bruteforce,
    minimal_guaranteed_length,
)
from .gf import GF
from .linear import minimum_weight
from .reference_data import (
    AWE_ORACLE_GRID,
    CLASS_COUNTS,
    CLASSIFY_SMALL_GRID,
    GENERATOR_SWEEP_KMAX,
    GUARANTEED_LENGTH,
    OPTIMAL_MIN_WEIGHT,
    build_code,
    iter_weight_checks,
)
from .search import classify

__all__ = [
    "SUITES",
    "awe_oracle",
    "thresholds",
    "generators",
    "classification",
    "verify_reduction_soundness",
]


def awe_oracle():
    """The closed-form family enumerator against brute force on ``AWE_ORACLE_GRID``."""
    for q, n in AWE_ORACLE_GRID:
        gf = GF(q)
        closed = average_weight_enumerator(gf, n)
        brute = average_weight_enumerator_bruteforce(gf, n)
        yield closed.coeffs == brute.coeffs, f"awe closed form == enumeration at q={q} n={n}"


def thresholds():
    """Every recorded existence threshold ``GUARANTEED_LENGTH[q][d]``."""
    for q, table in sorted(GUARANTEED_LENGTH.items()):
        gf = GF(q)
        for d, expected in sorted(table.items()):
            got = minimal_guaranteed_length(gf, d)
            yield got == expected, f"n_{q}({d}) = {expected} (got {got})"


def generators():
    """The minimum weight of every recorded generator within ``GENERATOR_SWEEP_KMAX``."""
    for q, n, d, spec in iter_weight_checks():
        if n // 2 > GENERATOR_SWEEP_KMAX[q]:
            continue
        w = minimum_weight(build_code(q, spec))
        yield w == d, f"q={q} {spec} has minimum weight {d} (got {w})"


def classification(cells):
    """Optimal weight and class counts (dt_only, dc, nc) of each (q, n) cell."""
    for q, n in cells:
        report = classify(GF(q), n)
        expected_d = OPTIMAL_MIN_WEIGHT[q][n]
        expected = CLASS_COUNTS[q][n]
        got = (report.n_dt, report.n_dc, report.n_nc)
        yield (
            report.d_opt == expected_d and got == expected,
            f"classify q={q} n={n}: d={expected_d}, classes {expected} (got d={report.d_opt}, {got})",
        )


SUITES = {
    "awe-oracle": awe_oracle,
    "thresholds": thresholds,
    "classification-small": partial(classification, CLASSIFY_SMALL_GRID),
    "generators": generators,
}


def verify_reduction_soundness(gf: GF, n: int, *, semimonomial: bool = False) -> bool:
    """Check that the symmetry filter loses no equivalence class.

    Runs :func:`classify` twice, with the default filter and with no
    filter, and asks for equal optima and equal class counts.
    That suffices: with equal optima the filtered attainers are
    exactly the unfiltered attainers that pass the filter, so each
    filtered class lies inside one unfiltered class, and inequivalent
    filtered classes lie inside distinct ones.  The filtered classes
    thus inject into the unfiltered classes, and equal counts make the
    injection onto: every unfiltered class has a filtered member.
    """
    filtered = classify(gf, n, semimonomial=semimonomial)
    unfiltered = classify(gf, n, reduction="none", semimonomial=semimonomial)
    return (filtered.d_opt, len(filtered.records)) == (unfiltered.d_opt, len(unfiltered.records))
