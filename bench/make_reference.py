"""Write bench/reference.json: the records modk3 prints over every input
the benchmark workloads can draw.

Run from the repository root, on the code whose outputs are taken as
correct (the reference was made from the seed code):

    python3 bench/make_reference.py

It takes a few minutes on two cores, most of it the point counts of the
count_large_p domain.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from modk3 import cli  # noqa: E402

import workloads as wl  # noqa: E402


def records(argv: list) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return wl.parse_records(out.getvalue())


def main() -> None:
    lo, hi = wl.COUNT_DOMAIN
    commands = [["verify", "all", "--pmax", "97"],
                ["groups", "verify"],
                ["forms", "check", "--prec", str(wl.FORMS_PREC)],
                ["surface", "count", "--family", "g4", "--pmin", str(lo),
                 "--pmax", str(hi), "--force"]]
    commands += [["l3fold", "series", "--family", "g4", "--curve", c,
                  "--n", str(wl.SERIES_N)] for c in wl.curve_pool()]
    reference = {}
    for argv in commands:
        reference[wl.command_key(argv)] = records(argv)
        print(" ".join(argv), file=sys.stderr)
    assert [r["p"] for r in reference["count"]] == wl.count_primes()
    with open(wl.REFERENCE, "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
