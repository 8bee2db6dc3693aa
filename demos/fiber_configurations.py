"""Singular-fiber configurations of the elliptic families over F_p.

Each family is scanned at a good prime: the discriminant is factored
over F_p[t], each place is classified, and the Euler numbers must add
to 24 (elliptic K3) or 12 (rational surface).
"""

from modk3.cli import SCAN_NOTES
from modk3.families import FAMILY_NAMES, preset
from modk3.kodaira import eigenspace_counts, scan

for name in FAMILY_NAMES:
    fam = preset(name)
    p = next(q for q in (13, 11, 17) if q not in fam.bad_primes)
    rep = scan(fam, p)
    line = f"{name:<12} p={p:<3} {{{', '.join(rep.config)}}} e={rep.euler_total}"
    if sorted(rep.config) != sorted(fam.expected_config):
        line += "  CONFIG MISMATCH"
    print(line)
    if name in SCAN_NOTES:
        print(f"{'':14}note: {SCAN_NOTES[name]}")

print()
print("Eigenspace counts of the algebraic lattice from the semistable")
print("configurations (hyperplane classes + fiber-chain splits):")
for name in ("g4_legendre", "g62", "g82", "g8_412", "e1_7"):
    cfg = preset(name).expected_config
    print(f"  {name:<12} (n+, n-) = {eigenspace_counts(cfg)}")
