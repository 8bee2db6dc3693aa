"""Point counts over F_p and the transcendental Frobenius traces B(p).

The surface total over F_p is assembled fiberwise from the Weierstrass
model (locally minimalized at the singular places) plus p times the
Frobenius-fixed extra fiber components; subtracting the algebraic part
1 + p^2 + p * ns_trace leaves the transcendental trace B(p), which the
weight-3 coefficient data must reproduce up to an explicit quadratic
twist fitted once per command.  The threefold traces use B(p) itself and
need no twist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import is_prime, kronecker_character, primes_up_to
from .cmforms import HECKE_SPECS, HeckeCharSpec, ap as form_ap
from .families import WeierstrassCurve, WeierstrassFamily
from .kodaira import BadReductionError, scan

#: fundamental discriminants D with |D| dividing 48
TWIST_DISCS = (1, -3, -4, 8, -8, 12, -24, 24)


class ModelMismatchError(ValueError):
    pass


class UnresolvedTwistError(ValueError):
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
        assert self.total == 1 + self.p ** 2 + self.p * self.ns_trace_used + self.B


def _chi_table(p: int) -> list:
    """chi[v] = legendre symbol (v/p) as a lookup table."""
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, (p + 1) // 2 + 1):
        chi[x * x % p] = 1
    return chi


def curve_count(curve: WeierstrassCurve) -> int:
    """Projective F_p points of the (possibly singular) Weierstrass cubic."""
    p = curve.p
    if p in (0, 2, 3):
        raise BadReductionError("need a finite field of characteristic >= 5")
    # (x, y) -> (36x + 3b2, 108(2y + a1 x + a3)) is an affine bijection of
    # F_p^2 onto the short model, singular or not
    c4, c6 = curve._invariants()[4:6]
    return _short_count(c4, c6, p, _chi_table(p))


def ap_elliptic(ainvs, p: int) -> int:
    """Frobenius trace A(p) = p + 1 - #E(F_p) at a prime of good reduction."""
    if not is_prime(p) or p < 5:
        raise BadReductionError(f"need a prime p >= 5, got {p}")
    curve = WeierstrassCurve(*[int(a) % p for a in ainvs], p=p)
    if curve._is_zero(curve.discriminant()):
        raise BadReductionError(f"bad reduction at p={p}")
    a = p + 1 - curve_count(curve)
    assert a * a <= 4 * p
    return a


def _short_count(c4v: int, c6v: int, p: int, chi) -> int:
    """Points of y^2 = x^3 - 27 c4 x - 54 c6 over F_p, plus infinity."""
    a = -27 * c4v % p
    b = -54 * c6v % p
    total = 1
    for x in range(p):
        total += 1 + chi[((x * x + a) * x + b) % p]
    return total


def _evaluate(coefficients: tuple, x: int, p: int) -> int:
    """Value mod p of a polynomial given by its coefficients, leading first."""
    value = 0
    for c in coefficients:
        value = (value * x + c) % p
    return value


@lru_cache(maxsize=None)
def k3_point_count(family: WeierstrassFamily, p: int) -> CountReport:
    """Fiberwise surface total over P^1(F_p) and the trace B(p) it leaves."""
    report = scan(family, p)
    chi = _chi_table(p)
    c4, c6 = report.t_chart_c4_c6
    minimal = report.minimal_values
    total = 0
    # finite fibers from the t-chart, minimalized at the zeros of Delta
    for t0 in range(p):
        if t0 in minimal:
            c4v, c6v = minimal[t0]
        else:
            c4v, c6v = _evaluate(c4, t0, p), _evaluate(c6, t0, p)
        total += _short_count(c4v, c6v, p, chi)
    # the fiber at infinity from the s-chart
    c4v, c6v = minimal["inf"]
    total += _short_count(c4v, c6v, p, chi)
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
    if len(candidates) > 1:
        # twisting by the character of the CM field itself is invisible on
        # the coefficients (a_p = 0 off its kernel), so such twins can never
        # be separated by more data; any other survivor signals too few
        # primes, which a cheap coefficient-only comparison detects
        probe = [q for q in primes_up_to(499)
                 if q >= 5 and spec.level % q != 0]
        base = candidates[0]
        for D in candidates[1:]:
            if any(kronecker_character(base, q) * form_ap(spec, q)
                   != kronecker_character(D, q) * form_ap(spec, q)
                   for q in probe):
                raise ModelMismatchError(
                    f"{family.name}: twist not separated by the supplied "
                    f"primes: {candidates}")
        candidates.sort(key=lambda D: (abs(D), D < 0))
    return family.form_id, candidates[0]


def ns_trace_prediction(family: WeierstrassFamily, p: int) -> int:
    """Frobenius trace on the algebraic lattice predicted by the stored
    Galois decomposition."""
    if family.ns_data is None:
        raise ValueError(f"{family.name} has no stored lattice decomposition")
    return family.ns_data.trace(p, kronecker_character)


def count_report(family: WeierstrassFamily, p: int, fit: tuple) -> CountReport:
    """k3_point_count with the fitted (form id, twist discriminant) filled
    in and verified."""
    form_id, disc = fit
    base = k3_point_count(family, p)
    expected = kronecker_character(disc, p) * form_ap(HECKE_SPECS[form_id], p)
    return CountReport(base.family, base.p, base.total, base.ns_trace_used,
                       base.B, form_id, disc, base.B == expected)


def kummer_fiber_count(a1: int, a2: int, r2: int, p: int) -> int:
    """Points of the blown-up quotient of a product abelian surface:
    the quotient-average count and its simplified closed form, which
    must agree as an exact integer identity."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    averaged = ((p + 1 - a1) * (p + 1 - a2)
                + (p + 1 + a1) * (p + 1 + a2)) // 2 + p * r2
    closed = (p + 1) ** 2 + a1 * a2 + p * r2
    assert averaged == closed
    return closed


def h3_trace(family: WeierstrassFamily, e_ainvs, p: int) -> int:
    """Frobenius trace on the middle cohomology of the fibered threefold:
    the tensor part A(p)B(p) plus the anti-invariant cycles paired with
    the elliptic factor; only families with an attached form carry the
    lattice data it needs."""
    attached_form(family)
    A = ap_elliptic(e_ainvs, p)
    B = k3_point_count(family, p).B
    minus = family.ns_data.minus_trace_terms(p, kronecker_character)
    return A * B + p * A * minus


def h2_trace(family: WeierstrassFamily, p: int) -> int:
    """Frobenius trace on H^2 of the threefold: 16 exceptional classes,
    the fiber class, and the invariant lattice part."""
    if family.ns_data is None:
        raise ValueError(f"{family.name} has no stored lattice decomposition")
    plus = family.ns_data.plus_trace_terms(p, kronecker_character)
    return p * (17 + plus)
