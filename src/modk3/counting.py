"""Point counts over F_p and the transcendental Frobenius traces B(p).

The surface total over F_p is assembled fiberwise from the Weierstrass
model (locally minimalized at the singular places) plus p times the
Frobenius-fixed extra fiber components; subtracting the algebraic part
1 + p^2 + p * ns_trace leaves the transcendental trace B(p), which the
weight-3 coefficient data must reproduce up to an explicit quadratic
twist fitted once per command.  The threefold traces use B(p) itself and
need no twist.

A surface count at p >= 17 takes each fibre's trace a from the Hasse
invariant: a = H mod p, H the coefficient of x^(p-1) in
(x^3 + A x + B)^((p-1)/2), singular fibre or not (Silverman, AEC V.4), and
2 sqrt(p) < p / 2 makes the lift of H to (-p/2, p/2) exact.  Scaling by
A/B gives H(A, B) = chi(AB) H(c, c) with c = A^3 / B^2, so one table of
H(c, c) over c in F_p, built once per prime by Horner, serves every fibre
of every family; A = 0 and B = 0 are single monomials.  Every lifted trace
must satisfy the Weil bound a^2 <= 4p.  A single curve, given as its
integer a-invariants (a1, a2, a3, a4, a6), and every fibre at p < 17, is
counted by one numpy kernel over y^2 = x^3 + A x + B: blocks of
BLOCK_CELLS // p fibres, each one int64 array of A x + x^3 + B mod p over
x in F_p, looked up in an int8 Legendre table.  Intermediates stay below
p^2 + 2p: exact for p < 2^31, refused above before any array is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .arith import (InvalidPrimeError, VerificationError, is_prime,
                    kronecker_character, primes_up_to)
from .cmforms import HECKE_SPECS, HeckeCharSpec, WeilBoundError, ap as form_ap
from .families import WeierstrassFamily, weierstrass_invariants
from .kodaira import BadReductionError, scan

#: fundamental discriminants D with |D| dividing 48
TWIST_DISCS = (1, -3, -4, 8, -8, 12, -24, 24)

#: int64 cells per block of the fibre sum (512 KB)
BLOCK_CELLS = 1 << 16


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


def _legendre_table(p: int):
    """chi[v] = (v / p) for v in F_p as an int8 array; p < 2^31."""
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    chi[x * x % p] = 1
    chi[0] = 0
    return chi


def _short_model_points(c4, c6, p: int) -> int:
    """Projective F_p points of y^2 = x^3 - 27 c4 x - 54 c6, summed over
    the fibres whose invariants mod p fill the arrays c4 and c6."""
    _check_int64(p)
    chi = _legendre_table(p)
    x = np.arange(p, dtype=np.int64)
    cube = x * x % p * x % p
    a = (-27 * np.asarray(c4, dtype=np.int64) % p)[:, None]
    b = (-54 * np.asarray(c6, dtype=np.int64) % p)[:, None]
    step = max(1, BLOCK_CELLS // p)
    total = len(a) * (p + 1)
    for i in range(0, len(a), step):
        # in place, so that a block holds one int64 temporary
        values = a[i:i + step] * x
        values += cube
        values += b[i:i + step]
        values %= p
        total += int(chi[values].sum(dtype=np.int64))
    return total


def _power(base, e: int, p: int):
    """base^e mod p elementwise over an int64 array of residues."""
    result = np.ones_like(base)
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


#: room for the 21 primes 17 <= p <= 97 that every twist fit counts
@lru_cache(maxsize=32)
def _hasse_table(p: int) -> tuple:
    """(chi, g, reciprocal, (M_B, e_B), (M_A, e_A)) at p, m = (p - 1) / 2: the
    Legendre table, g[c] = H(c, c) over c in F_p, the int32 table of 1 / x
    (0 at x = 0), H(0, B) = M_B B^e_B and H(A, 0) = M_A A^e_A (M = 0 where
    3 resp. 2 does not divide m).
    H(A, B) = sum over i of m! / (i! j! k!) A^j B^k, j = 2m - 3i,
    k = 2i - m: H(c, c) is c^(m - floor(2m/3)) times a polynomial in c with
    the terms floor(2m/3) >= i >= ceil(m/2)."""
    chi = _legendre_table(p)
    m = (p - 1) // 2
    factorial = 1
    for n in range(2, m + 1):
        factorial = factorial * n % p
    inverse = [pow(factorial, -1, p)] * (m + 1)  # inverse[n] = 1 / n!
    for n in range(m, 0, -1):
        inverse[n - 1] = inverse[n] * n % p

    def multinomial(i):
        return (factorial * inverse[i] * inverse[2 * m - 3 * i]
                * inverse[2 * i - m] % p)

    c = np.arange(p, dtype=np.int64)
    g = np.zeros(p, dtype=np.int64)
    for i in range((m + 1) // 2, 2 * m // 3 + 1):
        g *= c
        g += multinomial(i)
        g %= p
    g = g * _power(c, m - 2 * m // 3, p) % p
    reciprocal = _power(c, p - 2, p).astype(np.int32)
    b_only = (multinomial(2 * m // 3), m // 3) if m % 3 == 0 else (0, 0)
    a_only = (multinomial(m // 2), m // 2) if m % 2 == 0 else (0, 0)
    for table in (chi, g, reciprocal):
        table.flags.writeable = False  # shared by the cache
    return chi, g, reciprocal, b_only, a_only


def _hasse_points(c4, c6, p: int) -> int:
    """_short_model_points for p >= 17, from the lifted traces H of
    _hasse_table; each must satisfy the Weil bound."""
    chi, g, reciprocal, (m_b, e_b), (m_a, e_a) = _hasse_table(p)
    A = -27 * np.asarray(c4, dtype=np.int64) % p
    B = -54 * np.asarray(c6, dtype=np.int64) % p
    # 1 / B widened to int64 before any product; chi(AB) = 0 where A or B is 0
    b_inverse = reciprocal[B].astype(np.int64)
    c = A * A % p * A % p * b_inverse % p * b_inverse % p  # A^3 / B^2
    H = chi[A * B % p] * g[c] % p
    # with A = B = 0 too: H(0, 0) = M_B 0^e_B = 0, as e_B > 0 or M_B = 0;
    # a polynomial c4 or c6 vanishes at few fibres
    for i in np.flatnonzero(A == 0):
        H[i] = m_b * pow(int(B[i]), e_b, p) % p
    for i in np.flatnonzero((B == 0) & (A != 0)):
        H[i] = m_a * pow(int(A[i]), e_a, p) % p
    traces = np.where(H > p // 2, H - p, H)
    squares = traces * traces
    if squares.max() > 4 * p:
        worst = int(squares.argmax())
        raise VerificationError(
            "a^2 <= 4p for the lifted Hasse invariant of every fibre",
            dict(p=p, A=int(A[worst]), B=int(B[worst])), 4 * p,
            int(squares[worst]))
    return len(A) * (p + 1) - int(traces.sum())


def curve_count(ainvs: tuple, p: int) -> int:
    """Projective F_p points of the (possibly singular) Weierstrass cubic
    with integer a-invariants ainvs, at a prime p >= 5."""
    if not is_prime(p) or p < 5:
        raise BadReductionError(f"need a prime p >= 5, got {p}")
    # (x, y) -> (36x + 3b2, 108(2y + a1 x + a3)) is an affine bijection of
    # F_p^2 onto the short model, singular or not
    c4, c6 = weierstrass_invariants(*ainvs)[4:6]
    return _short_model_points([c4 % p], [c6 % p], p)


@lru_cache(maxsize=None)
def ap_elliptic(ainvs: tuple, p: int) -> int:
    """Frobenius trace A(p) = p + 1 - #E(F_p) at a prime of good reduction;
    memoized on the tuple (a1, a2, a3, a4, a6) and p."""
    a = p + 1 - curve_count(ainvs, p)  # refuses all but primes p >= 5
    if weierstrass_invariants(*ainvs)[6] % p == 0:
        raise BadReductionError(f"bad reduction at p={p}")
    if a * a > 4 * p:
        raise WeilBoundError(f"|A|={abs(a)} exceeds 2 sqrt({p})")
    return a


@lru_cache(maxsize=None)
def k3_point_count(family: WeierstrassFamily, p: int) -> CountReport:
    """Fiberwise surface total over P^1(F_p) and the trace B(p) it leaves."""
    _check_int64(p)
    report = scan(family, p)
    # (c4, c6) of every fibre, column t0 < p from the t-chart by Horner,
    # then the minimal values at the zeros of Delta and at infinity (column p)
    t = np.arange(p + 1, dtype=np.int64)
    c4c6 = np.zeros((2, p + 1), dtype=np.int64)
    for row, coefficients in enumerate(report.t_chart_c4_c6):
        for c in coefficients:
            c4c6[row] = (c4c6[row] * t + c) % p
    for place, values in report.minimal_values.items():
        c4c6[:, p if place == "inf" else place] = values
    # the lift of H is exact once 2 sqrt(p) < p / 2
    points = _hasse_points if p >= 17 else _short_model_points
    total = points(c4c6[0], c4c6[1], p)
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


def twist_fit(family: WeierstrassFamily, primes=None) -> tuple:
    """The unique (form id, twist discriminant D) with
    B(p) = chi_D(p) * a_p(form) at every supplied good prime."""
    spec = attached_form(family)
    if primes is None:
        primes = good_primes(family)
    traces = {p: k3_point_count(family, p).B for p in primes}
    if all(b == 0 for b in traces.values()):
        raise ModelMismatchError("all traces vanish; primes cannot fit a twist")
    def fits(D):
        return all(b == kronecker_character(D, p) * form_ap(spec, p)
                   for p, b in traces.items())

    candidates = [D for D in TWIST_DISCS if fits(D)]
    if not candidates:
        raise ModelMismatchError(
            f"{family.name}: no quadratic twist of {family.form_id} fits")
    # chi_D a_p = chi_D' a_p at every good p iff chi_D chi_D' is the CM
    # character (a_p = 0 off its kernel), i.e. iff D D' disc(K) is a
    # positive square; any other survivor means too few primes
    base = candidates[0]
    for D in candidates[1:]:
        n = base * D * spec.disc
        if n <= 0 or isqrt(n) ** 2 != n:
            raise ModelMismatchError(f"{family.name}: twist not separated "
                                     f"by the supplied primes: {candidates}")
    candidates.sort(key=lambda D: (abs(D), D < 0))
    return family.form_id, candidates[0]


def ns_trace_prediction(family: WeierstrassFamily, p: int) -> int:
    """Frobenius trace on the algebraic lattice predicted by the stored
    Galois decomposition."""
    if family.ns_data is None:
        raise ValueError(f"{family.name} has no stored lattice decomposition")
    return family.ns_data.trace(p)


def count_report(family: WeierstrassFamily, p: int, fit: tuple) -> CountReport:
    """k3_point_count with the fitted (form id, twist discriminant) filled
    in and verified."""
    form_id, disc = fit
    base = k3_point_count(family, p)
    expected = kronecker_character(disc, p) * form_ap(HECKE_SPECS[form_id], p)
    return CountReport(base.family, base.p, base.total, base.ns_trace_used,
                       base.B, form_id, disc, base.B == expected)


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
