"""Command-line front door: verification suites with JSON-lines output.

Every subcommand prints one JSON object per line (machine format), or a
plain table with --pretty, or CSV with --csv; keys are sorted in every
format.  Exit code 0 means every emitted record has ok true (or carries no
ok field); 1 means some check failed; 2 is reserved for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict

from .arith import primes_up_to
from .cmforms import HECKE_SPECS, ap as form_ap, verify_against_eta
from .congruence import group_report
from .counting import (count_report, good_primes, h3_trace,
                       ns_trace_prediction, twist_fit)
from .families import FAMILY_NAMES, preset
from .kodaira import config_vs_expected, ns_report, scan
from .lfunctions import (assemble_h3, betti_hodge_report, h3_local_factor,
                         h3_primes)
from .qseries import FORM_IDS, form_series

FAMILY_ALIASES = {"g4": "g4_legendre"}
COUNT_PMAX_CEILING = 2200


class UsageError(Exception):
    """A request the command refuses; exit code 2, like argparse's errors."""


def _family(name: str):
    return preset(FAMILY_ALIASES.get(name, name))


def _parse_curve(text: str) -> tuple:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 5:
        raise argparse.ArgumentTypeError("curve needs 5 integers a1,a2,a3,a4,a6")
    return tuple(parts)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _emit(records: list, args) -> int:
    """Write records in the selected format; return the exit code."""
    if args.csv and records:
        keys = sorted({k for r in records for k in r})
        w = csv.DictWriter(sys.stdout, fieldnames=keys)
        w.writeheader()
        for r in records:
            w.writerow({k: json.dumps(v) if isinstance(v, (list, tuple, dict))
                        else v for k, v in r.items()})
    elif args.pretty:
        for r in records:
            print("  ".join(f"{k}={r[k]}" for k in sorted(r)))
    else:
        for r in records:
            print(json.dumps(r, sort_keys=True))
    return 0 if all(r.get("ok", True) for r in records) else 1


def _primes(args, family=None) -> list:
    """--p exactly as given (the library call reports a bad one), else the
    target's good primes in [--pmin, --pmax]: p prime to the level of
    --form, lfunctions.h3_primes of the family and --curve, or
    counting.good_primes of the family.  An empty window, or a point count
    (a command with --force) past the ceiling without it, is refused."""
    lo, hi = args.pmin, args.pmax
    if args.p is not None:
        primes = [args.p]
    elif family is None:
        target, level = args.form, HECKE_SPECS[args.form].level
        primes = [p for p in primes_up_to(hi) if p >= lo and level % p]
    elif "curve" in args:
        target = f"{family.name} and curve {','.join(map(str, args.curve))}"
        primes = h3_primes(family, args.curve, lo, hi)
    else:
        target, primes = family.name, good_primes(family, lo, hi)
    if not primes:
        raise UsageError(f"no good prime of {target} in [{lo}, {hi}]")
    if "force" in args and not args.force and max(primes) > COUNT_PMAX_CEILING:
        raise UsageError(f"refusing p > {COUNT_PMAX_CEILING} without --force")
    return primes


# ---- subcommand implementations: each returns its records ---------------

def cmd_groups_verify(args) -> list:
    records = []
    for k in range(1, 10):
        r = group_report(k)
        ok = (r["index"] == 24 and r["genus"] == 0 and r["torsion_free"]
              and len(r["cusp_widths"]) == 6 and r["widths_match_preset"]
              and not r["lift_has_minus_id"] and r["trace_minus2_free"]
              and r["lift_widths_unchanged"])
        records.append({"suite": "groups", "target": r["name"], "group": k,
                        "index": r["index"], "genus": r["genus"],
                        "cusp_widths": r["cusp_widths"],
                        "torsion_free": r["torsion_free"],
                        "lift_has_minus_id": r["lift_has_minus_id"],
                        "lift_widths_unchanged": r["lift_widths_unchanged"],
                        "trace_minus2_free": r["trace_minus2_free"],
                        "ok": ok})
    return records


def cmd_forms_qexp(args) -> list:
    return [{"form": args.form, "n": args.prec,
             "coefficients": form_series(args.form, args.prec)}]


def cmd_forms_ap(args) -> list:
    spec = HECKE_SPECS[args.form]
    return [{"form": args.form, "p": p, "ap": form_ap(spec, p)}
            for p in _primes(args)]


def cmd_forms_check(args) -> list:
    records = []
    for fid in ([args.form] if args.form else ["h3", "h4", "h7", "h8"]):
        mism = verify_against_eta(HECKE_SPECS[fid], args.prec)
        records.append({"suite": "forms", "target": fid, "n": args.prec,
                        "mismatches": mism[:5], "ok": not mism})
    return records


def cmd_surface_scan(args) -> list:
    family = _family(args.family)
    records = []
    for p in _primes(args, family):
        rep = scan(family, p)
        cfg = config_vs_expected(family, p, rep)
        rec = {"suite": "scan", "target": family.name, "p": p,
               "config": list(rep.config),
               "fibers": [dict(sorted(asdict(f).items()))
                          for f in rep.fibers],
               "euler_total": rep.euler_total, "ns_trace": rep.ns_trace,
               "ok": rep.euler_ok and cfg["match"]}
        if "note" in cfg:
            rec["note"] = cfg["note"]
        records.append(rec)
    return records


def cmd_surface_count(args) -> list:
    family = _family(args.family)
    primes = _primes(args, family)
    fit = twist_fit(family)
    return [dict(asdict(count_report(family, p, fit)), suite="count")
            for p in primes]


def cmd_surface_verify(args) -> list:
    family = _family(args.family)
    primes = _primes(args, family)
    form_id, disc = fit = twist_fit(family, primes)
    failing = []
    for p in primes:
        rep = count_report(family, p, fit)
        ns_ok = (family.ns_data is None
                 or rep.ns_trace_used == ns_trace_prediction(family, p))
        if not (rep.ok and ns_ok):
            failing.append(p)
    return [{"suite": "surface", "target": family.name,
             "form": form_id, "twist_disc": disc,
             "primes": [primes[0], primes[-1]],
             "first_failure": failing[0] if failing else None,
             "ok": not failing}]


def cmd_l3fold_euler(args) -> list:
    family = _family(args.family)
    return [{"family": family.name, "p": p, "coefficients":
             list(h3_local_factor(family, args.curve, p).coefficients),
             "trace": h3_trace(family, args.curve, p)}
            for p in _primes(args, family)]


def cmd_l3fold_series(args) -> list:
    family = _family(args.family)
    coeffs = assemble_h3(family, args.curve, args.n)
    return [{"family": family.name, "n": args.n, "coefficients": coeffs,
             "betti": betti_hodge_report()}]


def cmd_verify_all(args) -> list:
    parser = build_parser()

    def sub(*argv) -> list:
        ns = parser.parse_args([str(a) for a in argv])
        return ns.func(ns)

    # every window is checked before any work; x0_12 is report-only
    scan_primes = {name: _primes(args, _family(name))[0]
                   for name in FAMILY_NAMES if name != "x0_12"}
    records = sub("groups", "verify") + sub("forms", "check")
    for name, p in scan_primes.items():
        records += sub("surface", "scan", "--family", name, "--p", p)
    for name in ("g4_legendre", "g62", "g82", "g8_412"):
        records += sub("surface", "verify", "--family", name,
                       "--pmax", args.pmax)
        ns = ns_report(name)
        records.append(dict(ns, suite="eigenspace", ok=ns["counts_match"]))
    records.append(dict(betti_hodge_report(), suite="betti", ok=True))
    return records


# ---- argument parsing ------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--csv", action="store_true")


def _add_primes(p: argparse.ArgumentParser):
    p.add_argument("--p", type=_positive_int, default=None)
    p.add_argument("--pmin", type=_positive_int, default=5)
    p.add_argument("--pmax", type=_positive_int, default=97)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="modk3")
    sub = top.add_subparsers(dest="command", required=True)

    groups = sub.add_parser("groups").add_subparsers(dest="action",
                                                     required=True)
    g = groups.add_parser("verify")
    _add_common(g)
    g.set_defaults(func=cmd_groups_verify)

    forms = sub.add_parser("forms").add_subparsers(dest="action",
                                                   required=True)
    f = forms.add_parser("qexp")
    f.add_argument("--form", choices=FORM_IDS, required=True)
    f.add_argument("--prec", type=_positive_int, default=50)
    _add_common(f)
    f.set_defaults(func=cmd_forms_qexp)
    f = forms.add_parser("ap")
    f.add_argument("--form", choices=sorted(HECKE_SPECS), required=True)
    _add_primes(f)
    _add_common(f)
    f.set_defaults(func=cmd_forms_ap)
    f = forms.add_parser("check")
    f.add_argument("--form", choices=sorted(HECKE_SPECS), default=None)
    f.add_argument("--prec", type=_positive_int, default=500)
    _add_common(f)
    f.set_defaults(func=cmd_forms_check)

    fam_choices = sorted(set(FAMILY_NAMES) | set(FAMILY_ALIASES))
    surface = sub.add_parser("surface").add_subparsers(dest="action",
                                                       required=True)
    for action, fn in (("scan", cmd_surface_scan),
                       ("count", cmd_surface_count),
                       ("verify", cmd_surface_verify)):
        s = surface.add_parser(action)
        s.add_argument("--family", choices=fam_choices, required=True)
        if action != "scan":
            s.add_argument("--force", action="store_true",
                           help=f"allow the O(p^2) count at p > {COUNT_PMAX_CEILING}")
        _add_primes(s)
        _add_common(s)
        s.set_defaults(func=fn)

    l3 = sub.add_parser("l3fold").add_subparsers(dest="action", required=True)
    le = l3.add_parser("euler")
    le.add_argument("--family", choices=fam_choices, required=True)
    le.add_argument("--curve", type=_parse_curve, required=True)
    _add_primes(le)
    _add_common(le)
    le.set_defaults(func=cmd_l3fold_euler)
    ls = l3.add_parser("series")
    ls.add_argument("--family", choices=fam_choices, required=True)
    ls.add_argument("--curve", type=_parse_curve, required=True)
    ls.add_argument("--n", type=_positive_int, default=100)
    _add_common(ls)
    ls.set_defaults(func=cmd_l3fold_series)

    va = sub.add_parser("verify").add_subparsers(dest="action", required=True)
    v = va.add_parser("all")
    v.add_argument("--pmax", type=_positive_int, default=97)
    _add_common(v)
    v.set_defaults(func=cmd_verify_all, p=None, pmin=5, force=False)
    return top


def run(argv=None) -> int:
    """Parse argv, run the command, print its records; the exit code."""
    args = build_parser().parse_args(argv)
    try:
        records = args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(json.dumps({"ok": False, "error": str(exc)}), file=sys.stderr)
        return 1
    return _emit(records, args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
