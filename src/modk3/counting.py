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
in (x^3 + A x + B)^((p-1)/2), singular or not (Silverman, AEC V.4).
Scaling by A/B gives H(A, B) = chi(AB) H(c, c) with c = A^3 / B^2, and
Horner (its coefficients cached per prime) evaluates H(c, c) only at the c
the fibres reach: p/24 to p/8 of F_p, as each J-map is an index-24 cover
of X(1).  A = 0 and B = 0 are single monomials.  From p = 17 on,
2 sqrt(p) < p / 2 makes the lift of H to (-p/2, p/2) exact.  Below 17 the
lift is the one of H and H - p with a = 1 + r mod 2, r the number of roots
of x^3 + A x + B in F_p (a = -sum_x chi(x^3 + A x + B) has p - r odd
terms).  Every lifted trace must satisfy the Weil bound a^2 <= 4p; at
p = 5 and 7 a forged H breaks it only as H = 0 (or 1 at p = 7) against the
parity, so there count_report's B(p) = chi_D(p) a_p is the real check.
The int64 arrays are exact for p < 2^31; larger p is refused first.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .arith import (InvalidPrimeError, VerificationError, is_prime,
                    kronecker_character, primes_up_to)
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


def _legendre_table(p: int):
    """chi[v] = (v / p) for v in F_p as an int8 array; p < 2^31."""
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    chi[x * x % p] = 1
    chi[0] = 0
    return chi


def _power(base, e: int, p: int):
    """base^e mod p elementwise over an int64 array of residues."""
    result = np.ones_like(base)
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


def _horner(coefficients, x, p: int):
    """The integer polynomial (leading coefficient first) mod p < 2^31 at
    each x in [0, p] of an int64 array, reduced only where the next step
    could reach 2^63 (at every step once p > 2^21)."""
    value, bound = np.zeros_like(x), 0
    for c in coefficients:
        if (bound + 1) * p >> 63:
            value, bound = value % p, p - 1
        value *= x
        value += c % p
        bound = (bound + 1) * p
    return value % p


#: room for verify all's 23 primes 5 <= p <= 97; each holds ~p/12 ints
@lru_cache(maxsize=32)
def _hasse_table(p: int) -> tuple:
    """(coefficients, shift, (M_B, e_B), (M_A, e_A)) at p: H(c, c) =
    c^shift P(c) for the polynomial P with these coefficients (leading
    first), H(0, B) = M_B B^e_B and H(A, 0) = M_A A^e_A (M = 0 where 3
    resp. 2 does not divide m = (p - 1) / 2).
    H(A, B) = sum over i of m! / (i! j! k!) A^j B^k, j = 2m - 3i,
    k = 2i - m: H(c, c) is c^(m - floor(2m/3)) times a polynomial in c with
    the terms floor(2m/3) >= i >= ceil(m/2)."""
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

    coefficients = [multinomial(i) for i in range((m + 1) // 2, 2 * m // 3 + 1)]
    b_only = (multinomial(2 * m // 3), m // 3) if m % 3 == 0 else (0, 0)
    a_only = (multinomial(m // 2), m // 2) if m % 2 == 0 else (0, 0)
    return tuple(coefficients), m - 2 * m // 3, b_only, a_only


def _hasse_traces(c4, c6, p: int):
    """The trace p + 1 - #E(F_p) of each short model
    y^2 = x^3 - 27 c4 x - 54 c6 over F_p, p >= 5, each within the Weil
    bound: the lifted Hasse invariant, with H(c, c) evaluated only at the
    classes c that the fibres reach."""
    coefficients, shift, (m_b, e_b), (m_a, e_a) = _hasse_table(p)
    A = -27 * np.asarray(c4, dtype=np.int64) % p
    B = -54 * np.asarray(c6, dtype=np.int64) % p
    # c = A^3 / B^2 = A^3 B^(p-3), 0 where B is 0; chi(AB) = 0 there too
    c = A * A % p * A % p * _power(B, p - 3, p) % p
    g = np.zeros(p, dtype=np.int64)
    g[c] = 1  # a mask rather than a sort: then g[c] = H(c, c)
    values = np.flatnonzero(g)
    g[values] = _horner(coefficients, values, p) * _power(values, shift, p) % p
    H = _legendre_table(p)[A * B % p] * g[c] % p
    # with A = B = 0 too: H(0, 0) = M_B 0^e_B = 0, as e_B > 0 or M_B = 0;
    # a polynomial c4 or c6 vanishes at few fibres
    for i in np.flatnonzero(A == 0):
        H[i] = m_b * pow(int(B[i]), e_b, p) % p
    for i in np.flatnonzero((B == 0) & (A != 0)):
        H[i] = m_a * pow(int(A[i]), e_a, p) % p
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
