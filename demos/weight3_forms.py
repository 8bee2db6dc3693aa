"""Weight-3 CM forms two ways: eta products vs Hecke characters.

The q-expansion of each form is computed once from its eta-product
formula and once from the normalized Hecke character of its CM field;
the two must agree coefficient by coefficient.
"""

from modk3.arith import _norm_solutions, kronecker_character, primes_up_to
from modk3.cmforms import (HECKE_SPECS, _eta_coefficients, _is_normalized, ap,
                           coefficient_sequence, verify_against_eta)

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
print("A sample normalized pair: p = 5 above Q(i) has")
h8 = HECKE_SPECS["h8"]
u, v = next((u, v) for u, v in _norm_solutions(1, 5)
            if v > 0 and _is_normalized(1, h8.conductor_gen, u, v))
print(f"  alpha = ({u} + {v} i)/2 normalized mod 2, "
      f"tr(alpha^2) = (u^2 - v^2)/2 = {(u * u - v * v) // 2} = "
      f"a_5 = {ap(h8, 5)}")
print()
print("Negative control: dropping the normalization breaks the match:")
h7 = HECKE_SPECS["h7"]
eta = _eta_coefficients("h7", 60)
bad = []
for p in primes_up_to(60):
    if kronecker_character(h7.disc, p) == 1:
        u, v = _norm_solutions(h7.d, p)[0]
        if (u * u - 3 * v * v) // 2 != eta[p - 1]:
            bad.append(p)
print(f"  h7 unnormalized (u^2 - 3 v^2)/2 differs from a_p at p = {bad[:5]}")
