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
prime, a cached table of logs (16p bytes) to the least generator g of
F_p^* makes every character, inverse and power a gather:
H(A, B) = chi(AB) H(c, c) with c = A^3 / B^2 = g^(3 log A - 2 log B) and
chi(AB) the parity of log A + log B.  H(c, c) is evaluated only at the c
the fibres reach: p/24 to p/8 of F_p, as each J-map is an index-24 cover
of X(1); its polynomial (cached per prime) by baby and giant steps
(Paterson and Stockmeyer): one int64 matmul, exact while
s (p // 2 + 1)^2 < 2^63 for s ~ sqrt(p/12) baby steps, then ~s Horner steps.
A = 0 and B = 0 are single monomials.  From p = 17 on, 2 sqrt(p) < p / 2
makes the lift of H to (-p/2, p/2) exact.  Below 17 the lift is the one of
H and H - p with a = 1 + r mod 2, r the number of roots of x^3 + A x + B
in F_p (a = -sum_x chi(x^3 + A x + B) has p - r odd terms).  Every lifted
trace must satisfy the Weil bound a^2 <= 4p; at p = 5 and 7 a forged H
breaks it only as H = 0 (or 1 at p = 7) against the parity, so there
count_report's B(p) = chi_D(p) a_p is the real check.  The int64 arrays
are exact for p < 2^31; larger p is refused first.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .arith import (InvalidPrimeError, VerificationError, is_prime,
                    kronecker_character, prime_factors, primes_up_to)
from .cmforms import HECKE_SPECS, HeckeCharSpec, ap as form_ap
from .families import WeierstrassFamily, weierstrass_invariants
from .kodaira import BadReductionError, scan


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


def _horner(coefficients, x, p: int):
    """The polynomial (leading coefficient first, integers or rows of them)
    mod p < 2^31 at each x in [0, p] of an int64 array, reduced only where
    the next step could reach 2^63 (at every step once p > 2^21)."""
    value, bound = np.zeros_like(x), 0
    for c in coefficients:
        if (bound + 1) * p >> 63:
            value, bound = value % p, p - 1
        value *= x
        value += c % p
        bound = (bound + 1) * p
    return value % p


def _generator(p: int) -> int:
    """The least g with g^((p - 1) / q) != 1 for each prime q | p - 1."""
    exponents = [(p - 1) // q for q in prime_factors(p - 1)]
    return next(g for g in range(2, p)
                if all(pow(g, e, p) != 1 for e in exponents))


#: 16p bytes a prime, as many primes as _hasse_table
@lru_cache(maxsize=32)
def _log_table(p: int) -> tuple:
    """(pw, log) with pw[k] = g^k, k < p - 1, and log[pw[k]] = k (log[0] = 0)
    for g = _generator(p): the giant steps g^(s i) times the baby steps
    g^j, i, j < s = isqrt(p - 1) + 1, each product below p^2 < 2^62."""
    g, s = _generator(p), isqrt(p - 1) + 1
    baby, giant = [1], [1]
    for _ in range(s):
        baby.append(baby[-1] * g % p)
    for _ in range(s - 1):
        giant.append(giant[-1] * baby[s] % p)
    pw = (np.array(giant)[:, None] * np.array(baby[:s]) % p).ravel()[:p - 1]
    k, log = np.arange(p - 1), np.zeros(p, dtype=np.int64)
    log[pw] = k
    if np.count_nonzero(log[pw] != k):
        raise VerificationError("g generates F_p^*", dict(p=p, g=g), p - 1,
                                len(np.unique(pw)))
    return pw, log


def _block_width(n: int, p: int) -> int:
    """ceil(sqrt(n)) baby steps (1 for n = 0), capped so that s terms of
    absolute value (p // 2)^2 stay below 2^63: 7 at p = 2^31 - 1."""
    return min(isqrt(max(n, 1) - 1) + 1, ((1 << 63) - 1) // (p // 2 + 1) ** 2)


def _evaluate(coefficients, x, p: int):
    """_horner at x in [0, p) by baby steps and giant steps: the blocks of
    s = _block_width coefficients of x^(s q + r) times the baby powers x^r,
    r < s (a gather), in one int64 matmul of signed residues; then _horner
    in x^s over the block values."""
    pw, log = _log_table(p)
    n, half = len(coefficients), p // 2
    s = _block_width(n, p)
    blocks = np.zeros(-(-n // s) * s, dtype=np.int64)
    blocks[:n] = coefficients[::-1]
    blocks = (blocks + half) % p - half
    powers = np.arange(s)[:, None] * log[x]
    powers %= p - 1
    powers = pw[powers]
    powers[1:] *= x != 0
    giant = powers[-1] * x % p
    powers -= (powers > half) * p  # in place: s x N int64 is the peak
    return _horner((blocks.reshape(-1, s) @ powers)[::-1], giant, p)


#: room for verify all's 23 primes 5 <= p <= 97; each holds ~p/12 ints
@lru_cache(maxsize=32)
def _hasse_table(p: int) -> tuple:
    """(coefficients, shift, (M_B, e_B), (M_A, e_A)) at p: H(c, c) =
    c^shift P(c) for the polynomial P with these coefficients (leading
    first; read-only int64), H(0, B) = M_B B^e_B and H(A, 0) = M_A A^e_A
    (M = 0 where 3 resp. 2 does not divide m = (p - 1) / 2).
    H(A, B) = sum over i of m! / (i! j! k!) A^j B^k, j = 2m - 3i,
    k = 2i - m: H(c, c) is c^(m - floor(2m/3)) times a polynomial in c with
    the terms floor(2m/3) >= i >= ceil(m/2), g^(LF m - LF i - LF j - LF k)
    for the log-factorials LF n = log 1 + ... + log n."""
    pw, log = _log_table(p)
    m = (p - 1) // 2
    i, n = (m + 1) // 2, 2 * m // 3 - (m + 1) // 2 + 1
    lf = np.add.accumulate(log[:m + 1])
    # as i steps by 1, j steps by -3 and k by 2
    coefficients = pw[(lf[m] - lf[i:i + n] - lf[2 * m - 3 * i::-3][:n]
                       - lf[2 * i - m::2][:n]) % (p - 1)]
    coefficients.flags.writeable = False
    # the last term is B^(m/3) when 3 | m, the first A^(m/2) when 2 | m
    b_only = (int(coefficients[-1]), m // 3) if m % 3 == 0 else (0, 0)
    a_only = (int(coefficients[0]), m // 2) if m % 2 == 0 else (0, 0)
    return coefficients, m - 2 * m // 3, b_only, a_only


def _hasse_traces(c4, c6, p: int):
    """The trace p + 1 - #E(F_p) of each short model
    y^2 = x^3 - 27 c4 x - 54 c6 over F_p, p >= 5, each within the Weil
    bound: the lifted Hasse invariant, with H(c, c) evaluated only at the
    classes c that the fibres reach, and every power a gather:
    c = g^(3 log A - 2 log B), c^shift = g^(shift log c), and chi(AB) = -1
    exactly where log A + log B is odd."""
    coefficients, shift, (m_b, e_b), (m_a, e_a) = _hasse_table(p)
    pw, log = _log_table(p)
    A = -27 * np.asarray(c4, dtype=np.int64) % p
    B = -54 * np.asarray(c6, dtype=np.int64) % p
    log_a, log_b = log[A], log[B]  # H is overwritten where A or B is 0
    c = pw[(3 * log_a - 2 * log_b) % (p - 1)]
    g = np.zeros(p, dtype=np.int64)
    g[c] = 1  # a mask rather than a sort: then g[c] = H(c, c)
    values = np.flatnonzero(g)
    g[values] = (_evaluate(coefficients, values, p)
                 * pw[shift * log[values] % (p - 1)] % p)
    H = g[c]
    # -0 is p here: it lifts as 0 does, to 0 or (failing the Weil bound) +-p
    H = np.where((log_a + log_b) & 1, p - H, H)
    # H(A, 0) = M_A A^e_A, H(0, B) = M_B B^e_B and H(0, 0) = 0; a
    # polynomial c4 or c6 vanishes at few fibres
    for i in np.flatnonzero(B == 0):
        H[i] = m_a * pw[e_a * log_a[i] % (p - 1)] % p
    for i in np.flatnonzero(A == 0):
        H[i] = m_b * pw[e_b * log_b[i] % (p - 1)] % p if B[i] else 0
    if p < 17:
        # 2 sqrt(p) >= p / 2, so H and H - p may both keep the Weil bound;
        # a = 1 + r mod 2 for the r roots of x^3 + A x + B picks one
        x = np.arange(p, dtype=np.int64)
        r = ((x * x * x + A[:, None] * x + B[:, None]) % p == 0).sum(axis=1)
        traces = np.where((H - 1 - r) % 2 == 0, H, H - p)
    else:
        traces = np.where(H > p // 2, H - p, H)
    squares = traces * traces
    if squares.max() > 4 * p:
        worst = int(squares.argmax())
        raise VerificationError(
            "a^2 <= 4p for the lifted Hasse invariant of every fibre",
            dict(p=p, A=int(A[worst]), B=int(B[worst])), 4 * p,
            int(squares[worst]))
    return traces


@lru_cache(maxsize=None)
def ap_elliptic(ainvs: tuple, p: int) -> int:
    """Frobenius trace A(p) = p + 1 - #E(F_p) at a prime p >= 5 of good
    reduction; memoized on the tuple (a1, a2, a3, a4, a6) and p."""
    if not is_prime(p) or p < 5:
        raise BadReductionError(f"need a prime p >= 5, got {p}")
    _check_int64(p)  # before the O(p) table build
    c4, c6, disc = weierstrass_invariants(*ainvs)[4:7]
    if disc % p == 0:
        raise BadReductionError(f"bad reduction at p={p}")
    # (x, y) -> (36x + 3b2, 108(2y + a1 x + a3)) is an affine bijection of
    # F_p^2 onto the short model
    return int(_hasse_traces([c4 % p], [c6 % p], p)[0])


@lru_cache(maxsize=None)
def k3_point_count(family: WeierstrassFamily, p: int) -> CountReport:
    """Fiberwise surface total over P^1(F_p) and the trace B(p) it leaves."""
    _check_int64(p)
    report = scan(family, p)
    # (c4, c6) of every fibre, column t0 < p from the t-chart by Horner,
    # then the minimal values at the zeros of Delta and at infinity (column p)
    t = np.arange(p + 1, dtype=np.int64)
    c4c6 = np.array([_horner(f, t, p) for f in report.t_chart_c4_c6])
    for place, values in report.minimal_values.items():
        c4c6[:, p if place == "inf" else place] = values
    total = (p + 1) ** 2 - int(_hasse_traces(*c4c6, p).sum())
    # extra components of the resolved singular fibers
    total += p * sum(f.tau for f in report.fibers)
    ns = report.ns_trace
    return CountReport(family.name, p, total, ns,
                       total - 1 - p * p - p * ns)


def good_primes(family: WeierstrassFamily, pmin: int = 5, pmax: int = 97):
    return [p for p in primes_up_to(pmax)
            if p >= max(pmin, 5) and p not in family.bad_primes]


def attached_form(family: WeierstrassFamily) -> HeckeCharSpec:
    """The Hecke character of the family's attached weight-3 form."""
    if not family.form_id:
        raise ModelMismatchError(f"{family.name} has no attached weight-3 form")
    return HECKE_SPECS[family.form_id]


def ns_trace_prediction(family: WeierstrassFamily, p: int) -> int:
    """Frobenius trace on the algebraic lattice predicted by the stored
    Galois decomposition."""
    if family.ns_data is None:
        raise ValueError(f"{family.name} has no stored lattice decomposition")
    return family.ns_data.trace(p)


def b_trace_prediction(family: WeierstrassFamily, p: int) -> int:
    """chi_D(p) a_p(form): the B(p) that the family's attached form and
    stored twist discriminant D predict."""
    spec = attached_form(family)
    return kronecker_character(family.twist_disc, p) * form_ap(spec, p)


def count_report(family: WeierstrassFamily, p: int) -> CountReport:
    """k3_point_count with the family's (form id, twist discriminant)
    filled in and checked against b_trace_prediction."""
    attached_form(family)  # a family with no form raises before counting
    base = k3_point_count(family, p)
    return CountReport(base.family, base.p, base.total, base.ns_trace_used,
                       base.B, family.form_id, family.twist_disc,
                       base.B == b_trace_prediction(family, p))


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


def h2_trace(family: WeierstrassFamily, p: int) -> int:
    """Frobenius trace on H^2 of the threefold: 16 exceptional classes,
    the fiber class, and the invariant lattice part."""
    if family.ns_data is None:
        raise ValueError(f"{family.name} has no stored lattice decomposition")
    plus = family.ns_data.plus_trace_terms(p)
    return p * (17 + plus)
