"""
Exact determinants and characteristic polynomials
=================================================

"""

# All oracle arithmetic is exact: integer matrices stay integer and rational
# ones stay rational under Bareiss elimination, and polynomial matrices go
# through the same elimination with exact polynomial division.  Nothing here
# knows the closed forms it will later check.
from seidelspectra.family import make_params, seidel_matrix
from seidelspectra.linalg import (
    adjugate_exact,
    assemble_blocks,
    char_matrix,
    charpoly_oracle,
    complete_adjacency,
    det_exact,
    exact_matrix,
    schur_block_det,
    schur_block_det_adjugate,
)

# charpoly_oracle deflates classes of twin vertices until none merge; every
# family matrix leaves a residual of at most 2 rows, whose characteristic
# polynomial is read off its entries.  A larger residual would be reduced to
# Hessenberg form modulo word-size primes and recombined by the Chinese
# remainder theorem up to a proven bound, so coefficients are exact at any size.
s = seidel_matrix(make_params(3, 1, 2))
print("charpoly of the Seidel matrix:", charpoly_oracle(s))

# det(M - x*I) can also be computed by eliminating the polynomial matrix
# directly; the two routes must agree coefficient for coefficient.
print("same thing via polynomial det:", det_exact(char_matrix(s)))

# The adjugate satisfies M @ adj(M) = det(M) * I even when M is singular.
m = exact_matrix([[1, 2], [3, 4]])
print("adjugate:", adjugate_exact(m).tolist(), "det:", det_exact(m))

# Block determinants: the Schur route det(D) * det(A - B D^-1 C) and the
# division-free adjugate route agree with the plain determinant.
a = complete_adjacency(2)
b = exact_matrix([[1, 0], [0, 1]])
c = exact_matrix([[0, 1], [1, 0]])
d = exact_matrix([[2, 0], [0, 3]])
whole = assemble_blocks([[a, b], [c, d]])
print("det of the assembled block matrix:", det_exact(whole))
print("Schur route:", schur_block_det(a, b, c, d))
print("adjugate route:", schur_block_det_adjugate(a, b, c, d))
