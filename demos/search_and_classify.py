"""
Finding and classifying the optimal codes of one length
=======================================================

A reduced exhaustive search scans the triple space of one length,
keeps the codes attaining the best minimum weight, and groups them
into monomial equivalence classes.  Classes containing a double
circulant (or, over F3, double negacirculant) code are labelled as
such; the rest are proper Toeplitz discoveries.
"""

from dtcodes import GF, classify, search_dt

gf = GF(2)
n = 12

# one pass keeps the attainers of the best weight seen so far and
# drops them when it rises; the C2 filter halves the space by keeping
# one triple per (a, b) swap
d_opt, records = search_dt(gf, n)
print(f"best [12,6] minimum weight over F2: {d_opt}")
print(f"filtered optimal triples: {len(records)}")

# group the attainers into equivalence classes and label the families
report = classify(gf, n)
print(f"classes: {report.n_dt} Toeplitz-only + {report.n_dc} circulant")
for rec in report.records:
    print(
        f"  class {rec.class_id}: {rec.representative.to_text():24s}"
        f" members={rec.members:3d} {rec.structure}"
    )

# the same run, serialized the way the command line tool prints it
blob = report.to_dict()
print("counts:", blob["counts"])
