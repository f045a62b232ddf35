"""
Monomial equivalence, witnessed by explicit maps
================================================

Two codes are monomially equivalent when a column permutation plus
nonzero column scalings carries one onto the other.  The tester either
returns such a map or proves there is none; a cheap invariant
signature filters out most non-equivalent pairs before any search.
"""

from dtcodes import (
    GF,
    ToeplitzTriple,
    apply_monomial,
    are_equivalent,
    double_toeplitz_code,
    find_monomial_map,
    signature,
    weight_enumerator,
)

gf = GF(3)
T = ToeplitzTriple(gf, 1, (2, 0), (1, 1))
C = double_toeplitz_code(T)
print("code:", C)

# swapping the two bands gives an equivalent code (reverse all
# coordinates within each half)
swapped = double_toeplitz_code(ToeplitzTriple(gf, T.t, T.b, T.a))
M = find_monomial_map(C, swapped)
print("swap witness: perm =", M.perm, "scales =", M.scales)

# the returned map really carries C onto the swapped code
image = apply_monomial(C, M)
print("same enumerator after mapping:", weight_enumerator(image) == weight_enumerator(swapped))
assert are_equivalent(image, swapped)

# scaling the whole triple by a nonzero constant rescales every
# codeword, another equivalence
scaled = double_toeplitz_code(
    ToeplitzTriple(gf, gf.mul(2, T.t), tuple(gf.mul(2, x) for x in T.a),
                   tuple(gf.mul(2, x) for x in T.b))
)
print("scalar multiple equivalent:", are_equivalent(C, scaled))

# the signature is a monomial invariant: equal for equivalent codes,
# and usually different for inequivalent ones, so most pairs never
# reach the backtracking search.  Besides the weight enumerator it
# holds how often the anchor words, the lightest codewords the search
# matches, share each pair of columns.
other = double_toeplitz_code(ToeplitzTriple(gf, 0, (1, 0), (0, 0)))
print("signatures differ for a weight-1 code:", signature(other) != signature(C))
print("equivalent anyway?", are_equivalent(C, other))
