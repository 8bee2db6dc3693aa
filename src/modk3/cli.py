"""Command-line front door: verification suites with JSON-lines output.

Every subcommand prints one JSON object per line (machine format), or a
plain table with --pretty, or CSV with --csv; keys are sorted in every
format.  Exit code 0 means every emitted record has ok true (or carries no
ok field); 1 means some check failed; 2 is reserved for usage errors.

`run` reads the command and action, the first two arguments, and builds
only that command's flat parser (`COMMANDS` holds its options), so a
process builds the parser of the command it runs and no other; `verify
all` builds those of the commands it stands for.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from functools import cache

from .arith import primes_up_to
from .cmforms import HECKE_SPECS, ap as form_ap, verify_against_eta
from .congruence import group_report
from .counting import b_trace_prediction, count_reports, good_primes, h3_trace
from .families import FAMILY_NAMES, preset
from .kodaira import ns_report, scan
from .lfunctions import (assemble_h3, betti_hodge_report, h3_counts,
                         h3_local_factor, h3_primes)
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
    return [dict(group_report(k), suite="groups") for k in range(1, 10)]


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
        first, hecke, eta = mism[0] if mism else (None, None, None)
        records.append({"suite": "forms", "target": fid, "n": args.prec,
                        "mismatches": [n for n, _, _ in mism[:5]],
                        "first_mismatch": first, "hecke": hecke, "eta": eta,
                        "ok": not mism})
    return records


#: notes on a family's scan records: g82's stored configuration comes from
#: its lattice data, and a naive 8+8+2*4+6 = 30 reading of two I8 + four I2
#: + extra fibers is incompatible with the Euler number 24, which the scan
#: confirms
SCAN_NOTES = {"g82": "configuration fixed by the Euler-number audit; "
                     "any larger reading would overflow e = 24"}


def cmd_surface_scan(args) -> list:
    family = _family(args.family)
    note = ({"note": SCAN_NOTES[family.name]} if family.name in SCAN_NOTES
            else {})
    records = []
    for p in _primes(args, family):
        rep = scan(family, p)
        match = sorted(rep.config) == sorted(family.expected_config)
        records.append({
            "suite": "scan", "target": family.name, "p": p,
            "config": list(rep.config),
            "fibers": [dict(sorted(asdict(f).items())) for f in rep.fibers],
            "euler_total": rep.euler_total, "ns_trace": rep.ns_trace,
            "ok": rep.euler_ok and match, **note})
    return records


def cmd_surface_count(args) -> list:
    family = _family(args.family)
    return [dict(asdict(rep), suite="count")
            for rep in count_reports(family, _primes(args, family))]


def cmd_surface_verify(args) -> list:
    """B(p) = chi_D(p) a_p(form) for the family's stored form and twist D,
    and the lattice trace against its stored decomposition, at every prime
    of the window; expected and observed values at the first failure."""
    family = _family(args.family)
    primes = _primes(args, family)
    evidence = dict.fromkeys(("first_failure", "B_expected", "B_observed",
                              "ns_expected", "ns_observed"))
    for p, rep in zip(primes, count_reports(family, primes)):
        ns = None if family.ns_data is None else family.ns_data.trace(p)
        if not rep.ok or ns not in (None, rep.ns_trace_used):
            evidence = {"first_failure": p,
                        "B_expected": b_trace_prediction(family, p),
                        "B_observed": rep.B, "ns_expected": ns,
                        "ns_observed": rep.ns_trace_used}
            break
    return [{"suite": "surface", "target": family.name,
             "form": family.form_id, "twist_disc": family.twist_disc,
             "primes": [primes[0], primes[-1]], **evidence,
             "ok": evidence["first_failure"] is None}]


def cmd_l3fold_euler(args) -> list:
    family = _family(args.family)
    primes = _primes(args, family)
    h3_counts(family, args.curve, primes)
    return [{"family": family.name, "p": p, "coefficients":
             list(h3_local_factor(family, args.curve, p).coefficients),
             "trace": h3_trace(family, args.curve, p)}
            for p in primes]


def cmd_l3fold_series(args) -> list:
    family = _family(args.family)
    coeffs = assemble_h3(family, args.curve, args.n)
    return [{"family": family.name, "n": args.n, "coefficients": coeffs,
             "betti": betti_hodge_report()}]


def cmd_verify_all(args) -> list:
    if args.pmax > COUNT_PMAX_CEILING:
        raise UsageError(f"verify all takes --pmax <= {COUNT_PMAX_CEILING}")
    def parse(*argv):
        return _parser(*argv[:2]).parse_args([str(a) for a in argv[2:]])

    def sub(*argv) -> list:
        ns = parse(*argv)
        return ns.func(ns)

    # every window is checked before any work; x0_12 gets no record
    windows = {name: parse("surface", "verify", "--family", name,
                           "--pmax", args.pmax)
               for name in FAMILY_NAMES if name != "x0_12"}
    scan_primes = {name: _primes(window, _family(name))[0]
                   for name, window in windows.items()}
    records = sub("groups", "verify") + sub("forms", "check")
    for name, p in scan_primes.items():
        records += sub("surface", "scan", "--family", name, "--p", p)
    for name in (n for n in FAMILY_NAMES if preset(n).form_id):
        records += windows[name].func(windows[name])
        ns = ns_report(name)
        records.append(dict(ns, suite="eigenspace", ok=ns["counts_match"]))
    records.append(dict(betti_hodge_report(), suite="betti", ok=True))
    return records


# ---- argument parsing ------------------------------------------------------

_FAMILY = ("--family", dict(required=True, choices=sorted(
    set(FAMILY_NAMES) | set(FAMILY_ALIASES))))
_CURVE = ("--curve", dict(type=_parse_curve, required=True))
_FORCE = ("--force", dict(
    action="store_true", help=f"allow the O(p^2) count at p > {COUNT_PMAX_CEILING}"))
_PRIMES = (("--p", dict(type=_positive_int, default=None)),
           ("--pmin", dict(type=_positive_int, default=5)),
           ("--pmax", dict(type=_positive_int, default=97)))
_FORMATS = (("--pretty", dict(action="store_true")),
            ("--csv", dict(action="store_true")))

#: each command's options but _FORMATS, keyed by (command, action); the
#: command runs cmd_<command>_<action>
COMMANDS = {
    ("groups", "verify"): (),
    ("forms", "qexp"): (("--form", dict(choices=FORM_IDS, required=True)),
                        ("--prec", dict(type=_positive_int, default=50))),
    ("forms", "ap"): (("--form", dict(choices=sorted(HECKE_SPECS),
                                      required=True)), *_PRIMES),
    ("forms", "check"): (("--form", dict(choices=sorted(HECKE_SPECS),
                                         default=None)),
                         ("--prec", dict(type=_positive_int, default=500))),
    ("surface", "scan"): (_FAMILY, *_PRIMES),
    ("surface", "count"): (_FAMILY, _FORCE, *_PRIMES),
    ("surface", "verify"): (_FAMILY, _FORCE, *_PRIMES),
    ("l3fold", "euler"): (_FAMILY, _CURVE, *_PRIMES),
    ("l3fold", "series"): (_FAMILY, _CURVE,
                           ("--n", dict(type=_positive_int, default=100))),
    ("verify", "all"): (("--pmax", dict(type=_positive_int, default=97)),),
}


@cache  # run() and verify all reuse each command's parser
def _parser(command: str, action: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"modk3 {command} {action}")
    for flag, options in COMMANDS[command, action] + _FORMATS:
        parser.add_argument(flag, **options)
    # looked up now, not at import, so a rebound cmd_* function is the one run
    parser.set_defaults(func=globals()[f"cmd_{command}_{action}"])
    return parser


def _usage(argv: list):
    """--help lists the commands and exits 0; any other argv that does not
    start with a command is a usage error, exit 2."""
    pairs = [f"{command} {action}" for command, action in COMMANDS]
    top = argparse.ArgumentParser(
        prog="modk3", usage="%(prog)s <command> <action> [options]",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="commands:\n  " + "\n  ".join(pairs) + "\n\n'modk3 <command> "
        "<action> --help' lists the options of that command")
    top.parse_known_args(argv)
    got = " ".join(argv[:2])
    top.error((f"invalid command {got!r}" if got else "a command is required")
              + f" (choose from {', '.join(map(repr, pairs))})")


def run(argv=None) -> int:
    """Parse argv with the parser of its command alone, run the command,
    print its records; the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if tuple(argv[:2]) not in COMMANDS:
        _usage(argv)
    args = _parser(*argv[:2]).parse_args(argv[2:])
    try:
        records = args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError, MemoryError) as exc:
        print(json.dumps({"ok": False, "error": str(exc)}), file=sys.stderr)
        return 1
    return _emit(records, args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
