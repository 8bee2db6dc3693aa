"""Middle-cohomology L-series of the fibered threefold.

The degree-4 tensor factor of the weight-2 x weight-3 pair is expanded
and multiplied with the anti-invariant-cycle elliptic factors; its
Dirichlet coefficients at primes must equal the Frobenius traces
assembled from point counts.
"""

from modk3.counting import ap_elliptic, good_primes, h3_trace
from modk3.families import preset
from modk3.lfunctions import assemble_h3, betti_hodge_report, tensor_factor

E = (0, 0, 0, -1, 0)  # y^2 = x^3 - x
print(f"test curve E: y^2 = x^3 - x, a_5 = {ap_elliptic(E, 5)}, "
      f"a_13 = {ap_elliptic(E, 13)}")
print()

print("sample tensor factor at (A, B, eps, p) = (1, 1, 1, 2):")
print(f"  {tensor_factor(1, 1, 1, 2).coefficients}")
print()

for name in ("g4_legendre", "g62"):
    fam = preset(name)
    coeffs = assemble_h3(fam, E, 50)
    print(f"{name}: L(H^3) Dirichlet coefficients a_1..a_20")
    print(f"  {coeffs[:20]}")
    for p in good_primes(fam, 5, 50):
        assert coeffs[p - 1] == h3_trace(fam, E, p)
    print(f"  prime coefficients match the H^3 traces up to 50")
    print()

print("fixed Betti/Hodge bookkeeping:", betti_hodge_report())
