"""The headline identity: K3 point counts recover weight-3 coefficients.

For each of the four rank-20 families, B(p) = total - 1 - p^2 - p*tr(NS)
is computed by brute-force fiberwise counting over F_p and compared with
the p-th coefficient of the matched weight-3 CM form, twisted by the
quadratic character the family stores (trivial for all four models).
"""

from modk3.arith import kronecker_character
from modk3.cmforms import HECKE_SPECS, ap
from modk3.counting import good_primes, k3_point_count
from modk3.families import preset

PMAX = 60

for name in ("g4_legendre", "g62", "g82", "g8_412"):
    fam = preset(name)
    form_id, disc = fam.form_id, fam.twist_disc
    spec = HECKE_SPECS[form_id]
    print(f"{name}: matched form {form_id}, twist discriminant {disc}")
    for p in good_primes(fam, 5, PMAX):
        r = k3_point_count(fam, p)
        expected = kronecker_character(disc, p) * ap(spec, p)
        status = "ok" if r.B == expected else "MISMATCH"
        print(f"  p={p:<3} #X={r.total:<7} tr(NS)={r.ns_trace_used:<3} "
              f"B={r.B:<5} a_p={expected:<5} {status}")
    print()
