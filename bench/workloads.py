"""Workload definitions and the correctness gate of the modk3 benchmark.

Pure standard library: the benchmark's parent process never imports
modk3, so nothing it does can warm a cache the timed runs use.  A workload
turns a seed into the command lines a user would type (`modk3 ...`
arguments) plus the interpreter seeds; `check` compares what the program
printed against the reference values in `reference.json`, which
`make_reference.py` produced from the seed code.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: families whose set-up (preset + both integral models) each workload pays
VERIFY_FAMILIES = ("g4_legendre", "e1_4", "e1_6", "e1_7", "e1_8",
                   "g62", "g82", "g8_412")
G4_FAMILIES = ("g4_legendre",)

#: count_large_p window: the seed draws one of the windows of consecutive
#: primes that start in COUNT_START and whose estimated fibre-sum work is
#: within COUNT_TOLERANCE of COUNT_TARGET
COUNT_START = (1500, 2500)
COUNT_DOMAIN = (1500, 2800)  # the primes reference.json has counts for
#: per-prime work model in units of one fibre-sum step: p^2 steps plus a
#: fixed cost (scan, factoring, the twist lookup) of about 3e5 steps
COUNT_FIXED = 300_000
COUNT_TARGET = 16_000_000
COUNT_TOLERANCE = 0.02

FORMS_PREC = 6000
SERIES_N = 97
SERIES_CURVES = 4


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _discriminant(a1, a2, a3, a4, a6) -> int:
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def curve_pool() -> list:
    """Elliptic curves with a1, a3 in {0, 1}, |a2|, |a4|, |a6| <= 1 and
    nonzero discriminant, as the `--curve` text the CLI takes."""
    pool = []
    for a1 in (0, 1):
        for a3 in (0, 1):
            for a2 in (-1, 0, 1):
                for a4 in (-1, 0, 1):
                    for a6 in (-1, 0, 1):
                        if _discriminant(a1, a2, a3, a4, a6) != 0:
                            pool.append(f"{a1},{a2},{a3},{a4},{a6}")
    return pool


def count_primes() -> list:
    """Primes of the count_large_p domain; all are good for g4_legendre,
    whose bad primes are 2 and 3."""
    return [p for p in range(COUNT_DOMAIN[0], COUNT_DOMAIN[1] + 1)
            if _is_prime(p)]


def count_windows() -> list:
    """(pmin, pmax) of every window of consecutive primes that starts in
    COUNT_START and whose modelled work is within COUNT_TOLERANCE of
    COUNT_TARGET, so that every seed asks for the same amount of counting."""
    primes = count_primes()
    windows = []
    for i, start in enumerate(primes):
        if not COUNT_START[0] <= start <= COUNT_START[1]:
            continue
        cost = 0
        for end in primes[i:]:
            cost += end * end + COUNT_FIXED
            if abs(cost - COUNT_TARGET) <= COUNT_TOLERANCE * COUNT_TARGET:
                windows.append((start, end))
            if cost > COUNT_TARGET:
                break
    return windows


def _verify_all(rng):
    return [["verify", "all", "--pmax", "97"]]


def _count_large_p(rng):
    pmin, pmax = rng.choice(count_windows())
    return [["surface", "count", "--family", "g4", "--pmin", str(pmin),
             "--pmax", str(pmax), "--force"]]


def _forms_lseries(rng):
    commands = [["groups", "verify"], ["forms", "check", "--prec", str(FORMS_PREC)]]
    for curve in rng.sample(curve_pool(), SERIES_CURVES):
        commands.append(["l3fold", "series", "--family", "g4", "--curve", curve,
                         "--n", str(SERIES_N)])
    return commands


#: name -> (command generator, families built in set-up); BENCHMARK.json
#: says why each workload was chosen
WORKLOADS = {
    "verify_all": (_verify_all, VERIFY_FAMILIES),
    "count_large_p": (_count_large_p, G4_FAMILIES),
    "forms_lseries": (_forms_lseries, G4_FAMILIES),
}


def make(workload: str, seed: int) -> dict:
    """Everything one (workload, seed) run needs; equal seeds give equal specs."""
    generate, families = WORKLOADS[workload]
    rng = random.Random(f"modk3-bench:{workload}:{seed}")
    return {"workload": workload, "seed": seed,
            "hash_seed": rng.randrange(1, 2 ** 32),
            "sympy_seed": rng.randrange(2 ** 32),
            "families": list(families), "commands": generate(rng)}


# ---- correctness gate -----------------------------------------------------

def record_key(command: list, record: dict) -> str:
    """Identity of a record within one command's output."""
    if command[:2] == ["surface", "count"]:
        return f"count:{record.get('p')}"
    if command[:2] == ["l3fold", "series"]:
        return "series"
    target = record.get("target", record.get("family"))
    return f"{record.get('suite')}:{target}:{record.get('p')}"


def command_key(command: list) -> str:
    if command[:2] == ["l3fold", "series"]:
        return "series:" + command[command.index("--curve") + 1]
    if command[:2] == ["surface", "count"]:
        return "count"
    return " ".join(command)


def expected_records(command: list, reference: dict) -> dict:
    """{record key: reference record} the command must print."""
    ref = reference[command_key(command)]
    if command[:2] == ["surface", "count"]:
        lo = int(command[command.index("--pmin") + 1])
        hi = int(command[command.index("--pmax") + 1])
        ref = [r for r in ref if lo <= r["p"] <= hi]
    return {record_key(command, r): r for r in ref}


def parse_records(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def check(command: list, result: dict, reference: dict) -> tuple:
    """(attempted, failures) for one command run; failures are short strings.

    One check per expected record: it must be printed once, with every
    reference field equal (extra fields are allowed) and never `ok: false`.
    One more check per command: exit code 0, no exception, no traceback,
    no unparsable output.  Records the reference does not know fail too.
    """
    failures = []
    where = " ".join(command)
    try:
        records = parse_records(result["stdout"])
    except json.JSONDecodeError:
        records = None
    code, exc, err = result["code"], result["exception"], result["stderr"]
    if code != 0 or exc or "Traceback" in err or records is None:
        failures.append(f"{where}: exit {code}, parsed {records is not None}, "
                        f"{(exc or err)[-300:]!r}")
    expected = expected_records(command, reference)
    seen = {}
    for r in records or []:
        seen.setdefault(record_key(command, r), []).append(r)
    for key, ref in expected.items():
        got = seen.pop(key, [])
        if len(got) != 1:
            failures.append(f"{where}: {key} printed {len(got)} times")
            continue
        bad = [k for k, v in ref.items() if got[0].get(k) != v]
        if bad or got[0].get("ok", True) is not True:
            failures.append(f"{where}: {key} differs in {bad or ['ok']}")
    for key, extra in seen.items():
        failures.append(f"{where}: unexpected record {key} x{len(extra)}")
    return 1 + len(expected) + len(seen), failures


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)
