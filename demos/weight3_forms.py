"""Weight-3 CM forms two ways: eta products vs Hecke characters.

The q-expansion of each form is computed once from its eta-product
formula and once from the normalized Hecke character of its CM field;
the two must agree coefficient by coefficient.
"""

from modk3.arith import primes_up_to
from modk3.cmforms import (HECKE_SPECS, _eta_coefficients,
                           _generator_candidates, _normalized_generator, ap,
                           coefficient_sequence, splitting, verify_against_eta)

N = 100

for fid in ("h8", "h7", "h3", "h4"):
    spec = HECKE_SPECS[fid]
    mism = verify_against_eta(spec, N)
    seq = coefficient_sequence(spec, 20)
    print(f"{fid}: level {spec.level}, CM by Q(sqrt({spec.disc}))")
    print(f"  a_1..a_20 = {seq}")
    print(f"  eta-product agreement to {N}: "
          f"{'exact' if not mism else f'FAILS at {mism[:3]}'}")

print()
print("A sample normalized generator: p = 5 above Q(i) is")
g = _normalized_generator(HECKE_SPECS["h8"], 5)
print(f"  pi = ({g.u} + {g.v} i)/2 normalized mod 2, "
      f"tr(pi^2) = {g.trace_of_square()} = a_5 = {ap(HECKE_SPECS['h8'], 5)}")
print()
print("Negative control: dropping the normalization breaks the match:")
h7 = HECKE_SPECS["h7"]
eta = _eta_coefficients("h7", 60)
bad = [p for p in primes_up_to(60) if splitting(h7, p) == 1
       and _generator_candidates(h7, p)[0].trace_of_square() != eta[p - 1]]
print(f"  h7 unnormalized tr(pi^2) differs from a_p at p = {bad[:5]}")
