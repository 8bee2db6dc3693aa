"""Point counts over F_p and the transcendental Frobenius traces B(p).

The surface total over F_p is assembled fiberwise from the Weierstrass
model (locally minimalized at the singular places) plus p times the
Frobenius-fixed extra fiber components; subtracting the algebraic part
1 + p^2 + p * ns_trace leaves the transcendental trace B(p), which must
equal chi_D(p) a_p of the family's attached weight-3 form, D the
quadratic twist stored with the family.  The threefold traces use B(p)
itself and need no twist.

Every fibre, and a single curve given as its integer a-invariants
(a1, a2, a3, a4, a6), takes its trace a from the Hasse invariant of its
short model y^2 = x^3 + A x + B: a = H mod p, H the coefficient of x^(p-1)
in (x^3 + A x + B)^((p-1)/2), singular or not (Silverman, AEC V.4).  Per
prime, one cached table of the powers and logs (16p bytes) of the least
generator g of F_p^* and of H(c, c)'s coefficients makes every character,
inverse and power a gather:
H(A, B) = chi(AB) H(c, c) with c = A^3 / B^2 = g^(3 log A - 2 log B) and
chi(AB) the parity of log A + log B.  H(c, c) is evaluated only at the c
the fibres reach: p/24 to p/8 of F_p, as each J-map is an index-24 cover
of X(1); its polynomial by baby and giant steps c^r = g^(r log c)
(Paterson and Stockmeyer): one int64 matmul, exact while
s (p // 2 + 1)^2 < 2^63 for s ~ sqrt(p/12) baby steps, then ~s Horner steps.
A = 0 and B = 0 are single monomials.  From p = 17 on, 2 sqrt(p) < p / 2
makes the lift of H to (-p/2, p/2) exact.  Below 17 the lift is the one of
H and H - p with a = 1 + r mod 2, r the number of roots of x^3 + A x + B
in F_p (a = -sum_x chi(x^3 + A x + B) has p - r odd terms).  Every lifted
trace must satisfy the Weil bound a^2 <= 4p; at p = 5 and 7 a forged H
breaks it only as H = 0 (or 1 at p = 7) against the parity, so there
count_reports' B(p) = chi_D(p) a_p is the real check.  The int64 arrays
are exact for p < 2^31; larger p is refused first.

Primes are counted in batches, so that a range of small primes shares one
numpy pass instead of paying its dispatch per prime: consecutive primes
join a batch while sum (p + 1) <= _EVALUATE_CELLS, so a single prime, and
every p > 2^16, is a batch of one through the same code.  The fibres of
all the batch's primes lie end to end in one int64 array, each element
with its own prime; the primes' cached tables are concatenated once per
batch and read at each prime's offset, and the Hasse polynomials are
cut into blocks of one width s for the batch, with one matmul per prime.
The int64 bounds (Horner's reductions, s) are taken at the batch's
largest p.  Where the modulus is one prime (a batch of one, the table
builds) x mod p is x - x // p * p, which numpy divides by libdivide.
_window counts the primes of a window not yet counted this way once each
has passed its checks (a refused prime costs no O(p^2) work), and keeps
every count in _counts, which k3_point_count and ap_elliptic read.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import accumulate
from math import isqrt

import numpy as np

from .arith import (InvalidPrimeError, VerificationError, is_prime,
                    kronecker_character, prime_factors, primes_up_to)
from .cmforms import HECKE_SPECS, HeckeCharSpec, ap as form_ap
from .families import WeierstrassFamily, weierstrass_invariants
from .kodaira import BadReductionError, integral_model, scan


class ModelMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class CountReport:
    family: str
    p: int
    total: int
    ns_trace_used: int
    B: int
    matched_form: str = ""
    twist_disc: int = 0
    ok: bool = False

    def __post_init__(self):
        expected = 1 + self.p ** 2 + self.p * self.ns_trace_used + self.B
        if self.total != expected:
            raise VerificationError("total = 1 + p^2 + p * ns_trace_used + B",
                                    asdict(self), expected, self.total)


def _check_int64(p: int):
    """Refuse a p at which the int64 fibre sum could overflow."""
    if p >= 1 << 31:
        raise InvalidPrimeError(
            f"p={p} >= 2^31 would overflow the int64 fibre sum")


def _mod(x, m):
    """x mod m rounded down, as x % m gives it; where m is one int, as
    x - x // m * m, since numpy divides by a scalar with libdivide but
    takes % the slow way."""
    return x % m if isinstance(m, np.ndarray) else x - x // m * m


def _spread(values, counts):
    """values[j] at each of the counts[j] elements of the j-th prime of a
    batch (values[0] itself for a batch of one)."""
    return values[0] if len(counts) == 1 else np.repeat(values, counts)


def _horner(coefficients, x, p):
    """The polynomial (leading coefficient first: integers, or rows of
    residues mod p) mod p at each x in [0, p] of an int64 array, p one
    prime < 2^31 or one per x.  An integer is added as it is (reduced only
    past 2^62) and the value reduced only where the next step could reach
    2^63 at the largest p."""
    top = int(p.max()) if isinstance(p, np.ndarray) else p
    value, bound = np.zeros_like(x), 0
    for c in coefficients:
        size = top if isinstance(c, np.ndarray) else abs(int(c))
        if size >> 62:
            c, size = c % p, top
        if (bound * top + size) >> 63:
            value, bound = _mod(value, p), top - 1
        value *= x
        value += c
        bound = bound * top + size
    return _mod(value, p)


def _generator(p: int) -> int:
    """The least g with g^((p - 1) / q) != 1 for each prime q | p - 1."""
    exponents = [(p - 1) // q for q in prime_factors(p - 1)]
    return next(g for g in range(2, p)
                if all(pow(g, e, p) != 1 for e in exponents))


#: room for verify all's 23 primes 5 <= p <= 97; ~16.7p bytes each
@lru_cache(maxsize=32)
def _table(p: int) -> tuple:
    """(pw, log, coefficients, shift, (M_B, e_B), (M_A, e_A)) at p.
    pw[k] = g^k, k < p - 1, and log[pw[k]] = k (log[0] = 0) for
    g = _generator(p): the giant steps g^(s i) times the baby steps g^j,
    i, j < s = isqrt(p - 1) + 1, each product below p^2 < 2^62.
    H(c, c) = c^shift P(c) for the polynomial P with these coefficients
    (leading first; read-only int64), H(0, B) = M_B B^e_B and
    H(A, 0) = M_A A^e_A (M = 0 where 3 resp. 2 does not divide
    m = (p - 1) / 2).  H(A, B) = sum over i of m! / (i! j! k!) A^j B^k,
    j = 2m - 3i, k = 2i - m: H(c, c) is c^(m - floor(2m/3)) times a
    polynomial in c with the terms floor(2m/3) >= i >= ceil(m/2),
    g^(LF m - LF i - LF j - LF k), LF n = log 1 + ... + log n."""
    g, s = _generator(p), isqrt(p - 1) + 1
    baby, giant = [1], [1]
    for _ in range(s):
        baby.append(baby[-1] * g % p)
    for _ in range(s - 1):
        giant.append(giant[-1] * baby[s] % p)
    pw = _mod(np.array(giant)[:, None] * np.array(baby[:s]), p).ravel()[:p - 1]
    k, log = np.arange(p - 1), np.zeros(p, dtype=np.int64)
    log[pw] = k
    if np.count_nonzero(log[pw] != k):
        raise VerificationError("g generates F_p^*", dict(p=p, g=g), p - 1,
                                len(np.unique(pw)))
    m = (p - 1) // 2
    i, n = (m + 1) // 2, 2 * m // 3 - (m + 1) // 2 + 1
    lf = np.add.accumulate(log[:m + 1])
    # as i steps by 1, j steps by -3 and k by 2
    coefficients = pw[_mod(lf[m] - lf[i:i + n] - lf[2 * m - 3 * i::-3][:n]
                           - lf[2 * i - m::2][:n], p - 1)]
    coefficients.flags.writeable = False
    # the last term is B^(m/3) when 3 | m, the first A^(m/2) when 2 | m
    b_only = (int(coefficients[-1]), m // 3) if m % 3 == 0 else (0, 0)
    a_only = (int(coefficients[0]), m // 2) if m % 2 == 0 else (0, 0)
    return pw, log, coefficients, m - 2 * m // 3, b_only, a_only


def _tables(primes: list) -> tuple:
    """(pw, log, starts, hasse): the pw and log of a batch's primes end to
    end, each pw padded to p entries, so that both tables of the j-th
    prime start at starts[j], and the rest of each prime's _table."""
    tables = [_table(p) for p in primes]
    hasse = [table[2:] for table in tables]
    if len(primes) == 1:
        return (*tables[0][:2], [0], hasse)
    return (np.concatenate([a for table in tables for a in (table[0], [1])]),
            np.concatenate([table[1] for table in tables]),
            list(accumulate(primes[:-1], initial=0)), hasse)


def _block_width(n: int, p: int) -> int:
    """ceil(sqrt(n)) baby steps (1 for n = 0), capped so that s terms of
    absolute value (p // 2)^2 stay below 2^63: 7 at p = 2^31 - 1."""
    return min(isqrt(max(n, 1) - 1) + 1, ((1 << 63) - 1) // (p // 2 + 1) ** 2)


#: int64 cells per operand of one _evaluate chunk of columns, and the
#: fibres (and table entries) of one batch of primes
_EVALUATE_CELLS = 1 << 16


def _batches(primes: list):
    """Runs of consecutive primes, each with sum (p + 1) <= _EVALUATE_CELLS
    or one prime alone."""
    batch, cells = [], 0
    for p in primes:
        if batch and cells + p + 1 > _EVALUATE_CELLS:
            yield batch
            batch, cells = [], 0
        batch.append(p)
        cells += p + 1
    if batch:
        yield batch


def _evaluate(polynomials, exponents, primes: list, counts, pw, starts):
    """Each polynomials[j] (integers, leading first) mod the j-th prime at
    its counts[j] points x = g^e given by their exponents e (grouped by
    prime, in order), by baby and giant steps with one s = _block_width
    for the batch: the blocks of s coefficients of x^(s q + r) (zero past
    a polynomial's degree) times the baby powers x^r, r < s, in one int64
    matmul of signed residues per prime; then _horner in x^s over the
    block values, in chunks of columns; each x^r is pw[r e mod (p - 1)]."""
    n = max(map(len, polynomials))
    s = _block_width(n, primes[-1])
    rows = -(-n // s)
    blocks = np.zeros((len(primes), rows * s), dtype=np.int64)
    for block, coefficients in zip(blocks, polynomials):
        block[:len(coefficients)] = coefficients[::-1]
    q = primes[0] if len(primes) == 1 else np.array(primes)[:, None]
    blocks = (_mod(blocks + q // 2, q) - q // 2).reshape(len(primes), rows, s)
    bounds = list(accumulate(counts, initial=0))
    width = max(_EVALUATE_CELLS // max(rows, s), 1)
    out = np.empty_like(exponents)
    for a in range(0, len(exponents), width):
        chunk = exponents[a:a + width]
        cuts = [min(max(b - a, 0), len(chunk)) for b in bounds]
        widths = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
        p, offset = _spread(primes, widths), _spread(starts, widths)
        powers = pw[offset + _mod(np.arange(s + 1)[:, None] * chunk, p - 1)]
        giant, powers = powers[-1], powers[:-1]
        powers -= (powers > p // 2) * p
        values = np.zeros((rows, len(chunk)), dtype=np.int64)
        for block, lo, hi in zip(blocks, cuts, cuts[1:]):
            if lo < hi:
                values[:, lo:hi] = block @ powers[:, lo:hi]
        out[a:a + width] = _horner(_mod(values, p)[::-1], giant, p)
    return out


def _hasse_traces(A, B, primes: list, sizes):
    """The trace p + 1 - #E(F_p) of each short model y^2 = x^3 + A x + B
    (A and B in [0, p)), sizes[j] of them (in order) over F_p for the j-th
    of the ascending primes p >= 5, each within the Weil bound: the lifted
    Hasse invariant, with H(c, c) evaluated only at the classes c the
    fibres reach, and every power a gather: log c = 3 log A - 2 log B,
    c^shift = g^(shift log c), and chi(AB) = -1 exactly where
    log A + log B is odd."""
    pw, log, starts, hasse = _tables(primes)
    p, offset = _spread(primes, sizes), _spread(starts, sizes)
    log_a, log_b = log[offset + A], log[offset + B]
    # H is overwritten where A or B is 0
    e = offset + _mod(3 * log_a - 2 * log_b, p - 1)
    odd = (log_a + log_b) & 1 == 1
    del log_a, log_b, offset  # a batch holds up to _EVALUATE_CELLS fibres
    g = np.zeros(len(log), dtype=np.int64)
    g[e] = 1  # a mask on log c rather than a sort: then g[e] = H(c, c)
    reached, counts = np.flatnonzero(g), np.add.reduceat(g, starts).tolist()
    q, at = _spread(primes, counts), _spread(starts, counts)
    shift = _spread([h[1] for h in hasse], counts)
    exponents = reached - at  # log c
    g[reached] = _mod(_evaluate([h[0] for h in hasse], exponents, primes,
                                counts, pw, starts)
                      * pw[at + _mod(shift * exponents, q - 1)], q)
    H = g[e]
    # -0 is p here: it lifts as 0 does, to 0 or (failing the Weil bound) +-p
    np.subtract(p, H, out=H, where=odd)
    # H(A, 0) = M_A A^e_A, H(0, B) = M_B B^e_B and H(0, 0) = 0; a
    # polynomial c4 or c6 vanishes at few fibres
    ends = list(accumulate(sizes))
    for zero, base, n in ((B, A, 3), (A, B, 2)):
        i = np.flatnonzero(zero == 0)
        if len(i):
            j = np.searchsorted(ends, i, side="right")  # the prime of each
            q, o = np.array(primes)[j], np.array(starts)[j]
            m, k = (np.array([h[n][x] for h in hasse])[j] for x in (0, 1))
            H[i] = (_mod(m * pw[o + _mod(k * log[o + base[i]], q - 1)], q)
                    * (base[i] != 0))
    traces = H - (H > p // 2) * p
    small = sum(n for q, n in zip(primes, sizes) if q < 17)
    if small:
        # below 17, 2 sqrt(p) >= p / 2, so H and H - p may both keep the
        # Weil bound; a = 1 + r mod 2 for the r roots of x^3 + A x + B
        # picks one (those primes come first)
        q = np.reshape(p[:small] if len(primes) > 1 else p, (-1, 1))
        x = np.arange(int(q.max()))
        r = ((_mod(x * x * x + A[:small, None] * x + B[:small, None], q) == 0)
             & (x < q)).sum(axis=1)
        h = H[:small]
        traces[:small] = np.where((h - 1 - r) % 2 == 0, h, h - q[:, 0])
    failing = np.flatnonzero(traces * traces > 4 * p)
    if len(failing):
        # what a loop over the primes raises first: the smallest failing
        # prime, at its fibre with the largest a^2
        j = bisect_right(ends, int(failing[0]))
        lo, q = ends[j] - sizes[j], primes[j]
        squares = traces[lo:ends[j]] ** 2
        worst = int(squares.argmax())
        raise VerificationError(
            "a^2 <= 4p for the lifted Hasse invariant of every fibre",
            dict(p=q, A=int(A[lo + worst]), B=int(B[lo + worst])), 4 * q,
            int(squares[worst]))
    return traces


#: every count made, keyed (family or a curve's a-invariants, p)
_counts = {}


def _window(key, primes, check, count) -> list:
    """The counts of key (a family or a-invariants) at the primes: each new
    one passes _check_int64 and check before count takes any, in _batches."""
    new = sorted({p for p in primes if (key, p) not in _counts})
    checked = {}
    for p in new:
        _check_int64(p)
        checked[p] = check(key, p)
    for batch in _batches(new):
        _counts.update(zip([(key, p) for p in batch],
                           count(key, batch, [checked[p] for p in batch])))
    return [_counts[key, p] for p in primes]


def _curve_check(ainvs: tuple, p: int) -> tuple:
    """(A, B) mod p of the curve's short model y^2 = x^3 + A x + B at a
    prime p >= 5 of good reduction."""
    if not is_prime(p) or p < 5:
        raise BadReductionError(f"need a prime p >= 5, got {p}")
    c4, c6, disc = weierstrass_invariants(*ainvs)[4:7]
    if disc % p == 0:
        raise BadReductionError(f"bad reduction at p={p}")
    # (x, y) -> (36x + 3b2, 108(2y + a1 x + a3)) is an affine bijection of
    # F_p^2 onto y^2 = x^3 - 27 c4 x - 54 c6
    return -27 * c4 % p, -54 * c6 % p


def _curve_traces(ainvs: tuple, primes: list, short: list) -> list:
    A, B = np.array(short, dtype=np.int64).T
    return _hasse_traces(A, B, primes, [1] * len(primes)).tolist()


def ap_elliptics(ainvs: tuple, primes) -> list:
    """ap_elliptic at each prime: the primes not yet counted for the curve
    are checked and counted in one _window."""
    return _window(ainvs, primes, _curve_check, _curve_traces)


def ap_elliptic(ainvs: tuple, p: int) -> int:
    """Frobenius trace A(p) = p + 1 - #E(F_p) of (a1, a2, a3, a4, a6) at a
    prime p >= 5 of good reduction: its count, or a window of one."""
    try:
        return _counts[ainvs, p]
    except KeyError:  # not yet counted
        return ap_elliptics(ainvs, [p])[0]


def _surface_counts(family: WeierstrassFamily, primes: list,
                    reports: list) -> list:
    """The CountReports of one batch: the fibres of every prime end to end,
    each fibre's short model y^2 = x^3 - 27 c4 x - 54 c6 from the t-chart
    by Horner (column t0 < p of a prime's p + 1), then from the minimal
    (c4, c6) at the zeros of Delta and at infinity (column p); the extra
    components of the resolved singular fibres."""
    sizes = [p + 1 for p in primes]
    starts = list(accumulate(sizes[:-1], initial=0))
    t = np.arange(sum(sizes), dtype=np.int64) - _spread(starts, sizes)
    p = _spread(primes, sizes)
    c4, c6 = integral_model(family, "zero").invariants[:2]
    A = _horner([-27 * c for c in c4], t, p)
    B = _horner([-54 * c for c in c6], t, p)
    del t, p  # a batch holds up to _EVALUATE_CELLS fibres
    columns, values = [], []
    for start, q, report in zip(starts, primes, reports):
        for place, (v4, v6) in report.minimal_values.items():
            columns.append(start + (q if place == "inf" else place))
            values.append((-27 * v4 % q, -54 * v6 % q))
    A[columns], B[columns] = np.array(values, dtype=np.int64).T
    sums = np.add.reduceat(_hasse_traces(A, B, primes, sizes), starts)
    out = []
    for q, report, s in zip(primes, reports, sums.tolist()):
        total = (q + 1) ** 2 - s + q * sum(f.tau for f in report.fibers)
        ns = report.ns_trace
        out.append(CountReport(family.name, q, total, ns,
                               total - 1 - q * q - q * ns))
    return out


def k3_point_counts(family: WeierstrassFamily, primes) -> list:
    """k3_point_count at each prime: the primes not yet counted for the
    family are scanned once each and counted in one _window."""
    _window(family, primes, scan, _surface_counts)
    return [k3_point_count(family, p) for p in primes]


@lru_cache(maxsize=None)
def k3_point_count(family: WeierstrassFamily, p: int) -> CountReport:
    """Fiberwise surface total over P^1(F_p) and the trace B(p) it leaves:
    the count in _counts, or a window of one."""
    return _window(family, [p], scan, _surface_counts)[0]


def good_primes(family: WeierstrassFamily, pmin: int = 5, pmax: int = 97):
    return [p for p in primes_up_to(pmax)
            if p >= max(pmin, 5) and p not in family.bad_primes]


def attached_form(family: WeierstrassFamily) -> HeckeCharSpec:
    """The Hecke character of the family's attached weight-3 form."""
    if not family.form_id:
        raise ModelMismatchError(f"{family.name} has no attached weight-3 form")
    return HECKE_SPECS[family.form_id]


def b_trace_prediction(family: WeierstrassFamily, p: int) -> int:
    """chi_D(p) a_p(form): the B(p) that the family's attached form and
    stored twist discriminant D predict."""
    spec = attached_form(family)
    return kronecker_character(family.twist_disc, p) * form_ap(spec, p)


def count_reports(family: WeierstrassFamily, primes) -> list:
    """k3_point_counts with the family's form id and twist filled in and B
    checked against b_trace_prediction; no form raises before counting."""
    attached_form(family)
    return [replace(base, matched_form=family.form_id,
                    twist_disc=family.twist_disc,
                    ok=base.B == b_trace_prediction(family, base.p))
            for base in k3_point_counts(family, primes)]


def h3_trace(family: WeierstrassFamily, e_ainvs, p: int) -> int:
    """Frobenius trace on the middle cohomology of the fibered threefold:
    the tensor part A(p)B(p) plus the anti-invariant cycles paired with
    the elliptic factor; only families with an attached form carry the
    lattice data it needs."""
    attached_form(family)
    A = ap_elliptic(e_ainvs, p)
    B = k3_point_count(family, p).B
    minus = family.ns_data.minus_trace_terms(p)
    return A * B + p * A * minus

