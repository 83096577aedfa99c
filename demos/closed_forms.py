"""
Closed-form spectra without any matrix work
===========================================

"""

# The characteristic polynomial of the family factors as
# (1 - 2p - x)^(k-2) * (1 - x)^(n-k-1) * s(x) with s an integer cubic, so
# spectra come straight from the parameters.
from seidelspectra.closedform import (
    charpoly_closed,
    cubic_s,
    spectrum_aI_bJ,
    spectrum_closed,
    spectrum_uniform_blocks,
)

params_list = [(3, 1, 2), (2, 1, 3), (4, 2, 3)]
from seidelspectra.family import make_params

for h, p, k in params_list:
    params = make_params(h, p, k)
    fac = charpoly_closed(params)
    print(f"h={h} p={p} k={k} n={params.n}")
    print("  factored:", fac)
    print("  expanded:", fac.expand())
    print("  cubic coefficients (ascending):", cubic_s(params))
    spectrum = spectrum_closed(params)
    for value, mult in spectrum.entries:
        print(f"  eigenvalue {value}  x{mult}")

# Two helper spectra the factorization rests on.  First a*I + b*J, whose
# eigenvalues are a + b*n (the all-ones direction) and a:
print("spectrum of 2*I + 3*J, order 4:",
      spectrum_aI_bJ(2, 3, 4).entries)

# Then a t x t array of order-m blocks: row sum r and secondary eigenvalue
# d on the diagonal, b*J off it.  The secondary eigenvalue keeps one copy
# per block, t*(m - 1) in all.
print("uniform block spectrum (r=-1, d=1, b=1, m=2, t=2):",
      spectrum_uniform_blocks(-1, 1, 1, 2, 2).entries)
