"""Test-only helpers: the Legendre symbol and the O(sqrt p) norm-equation
search (oracles of the library's fast paths), conversions between sympy
expressions in t and the integer data of a family, the printed base-change
maps and gluing identity, specialisation of a family to one curve, and
curve constructions (the group law on the long form, torsion orders,
closed-form multiples of a Tate-normal point, 2-isogenies)."""

import math
from fractions import Fraction

import sympy
from sympy import Poly, Rational, cancel, fraction

from modk3.arith import _check_odd_prime
from modk3.families import WeierstrassCurve, WeierstrassFamily
from modk3.kodaira import integral_model

t = sympy.symbols("t")


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) in {-1, 0, 1} for an odd prime p by Euler's criterion: the
    oracle of sqrt_mod, of the Kronecker character and of split tests."""
    _check_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def loop_norm_solutions(d: int, p: int) -> list:
    """Every (u, v) with u >= 0, u^2 + d v^2 = 4p and (u + v sqrt(-d))/2
    integral, by the O(sqrt p) search over v that Cornacchia replaced."""
    out = []
    for v in range(math.isqrt(4 * p // d) + 1):
        rem = 4 * p - d * v * v
        u = math.isqrt(rem)
        if u * u == rem and (u - v) % 2 == 0 and (d % 4 == 3 or u % 2 == 0):
            out += [(u, v), (u, -v)] if v else [(u, v)]
    return out


def _coefficients(poly) -> tuple:
    """Integer coefficients in t, leading first, () for 0."""
    coeffs = [int(c) for c in Poly(poly, t).all_coeffs()]
    return tuple(coeffs) if any(coeffs) else ()


def integer_data(exprs) -> tuple:
    """sympy expressions in t -> the (numerator, denominator) pairs of
    integer coefficient tuples of their ``cancel``."""
    return tuple(tuple(_coefficients(part) for part in fraction(cancel(e)))
                 for e in exprs)


def sympy_family(name, exprs, expected_config=(),
                 level_primes=frozenset()):
    """A WeierstrassFamily from sympy expressions in t."""
    return WeierstrassFamily(name, integer_data(exprs),
                             tuple(expected_config),
                             level_primes=frozenset(level_primes))


def as_sympy(family: WeierstrassFamily) -> tuple:
    """The family's a_i as sympy expressions in t."""
    return tuple(Poly.from_list(list(n) or [0], t).as_expr()
                 / Poly.from_list(list(d), t).as_expr()
                 for n, d in family.a_invariants)


class SpecializationError(ValueError):
    pass


def _to_field(x: Fraction, p: int):
    """Fraction (p = 0) or int mod p."""
    if p == 0:
        return x
    if x.denominator % p == 0:
        raise SpecializationError("denominator vanishes mod p")
    return x.numerator * pow(x.denominator, -1, p) % p


def specialize(family: WeierstrassFamily, t0, p: int = 0) -> WeierstrassCurve:
    """Evaluate the family at t0 (a rational number, or the string "inf").

    At poles and at infinity the coefficients are cleared by an admissible
    (x, y) -> (u^2 x, u^3 y) rescaling; the result can be a singular cubic.
    """
    chart, x = ("inf", Fraction(0)) if t0 == "inf" else ("zero", Fraction(t0))
    values = [sum(c * x ** (len(f) - 1 - i) for i, c in enumerate(f))
              for f in integral_model(family, chart).a_polys]
    try:
        coeffs = [_to_field(Fraction(v), p) for v in values]
    except SpecializationError as exc:
        raise SpecializationError(f"{family.name} at t={t0}: {exc}") from exc
    return WeierstrassCurve(*coeffs, p=p)


def parameter_map(name: str, value):
    """The printed base-change maps (exact over Q)."""
    value = Rational(value)
    if name == "xi_to_a":
        den = value ** 2 - 9
        if den == 0:
            raise ZeroDivisionError("pole of xi_to_a")
        return (2 * value ** 2 - 10) / den
    if name == "u_to_a":
        return value ** 2 + 1
    raise KeyError(f"unknown parameter map {name!r}")


def fibred_product_identity() -> bool:
    """The gluing identity (1+lam)^2/lam = (4-3a^2)^2/(16(a-1)^3) defining
    the fibred product of the Legendre and level-6 families, checked as an
    exact rational-function identity in the parameter xi.

    The parameter xi satisfies
        xi = 32(a-1)^3 / ((4-3a^2)(a-2)^2) * (lam + 1 - (4-3a^2)^2/(32(a-1)^3))
    with a = (2 xi^2 - 10)/(xi^2 - 9); solving the (linear) relation for lam
    and substituting must turn the gluing identity into 0 = 0."""
    xi = sympy.symbols("xi")
    a = (2 * xi ** 2 - 10) / (xi ** 2 - 9)
    c = (4 - 3 * a ** 2) ** 2 / (32 * (a - 1) ** 3)
    lam = cancel(xi * (4 - 3 * a ** 2) * (a - 2) ** 2
                 / (32 * (a - 1) ** 3) - 1 + c)
    lhs = (1 + lam) ** 2 / lam
    rhs = (4 - 3 * a ** 2) ** 2 / (16 * (a - 1) ** 3)
    return sympy.simplify(lhs - rhs) == 0


def negate_point(curve: WeierstrassCurve, P):
    """-P on the long Weierstrass curve; None is the point at infinity."""
    if P is None:
        return None
    x, y = P
    ny = -y - curve.a1 * x - curve.a3
    return (x, ny % curve.p if curve.p else ny)


def add_points(curve: WeierstrassCurve, P, Q):
    """P + Q by the chord-and-tangent law on the long form."""
    if P is None:
        return Q
    if Q is None:
        return P
    if not (curve.is_on_curve(P) and curve.is_on_curve(Q)):
        raise ValueError("point not on curve")
    x1, y1 = P
    x2, y2 = Q
    a1, a2, a3, a4, a6 = (curve._f(a) for a in curve.ainvs)
    if curve._eq(x1, x2) and curve._eq(y2, -y1 - a1 * x2 - a3):
        return None
    if curve._eq(x1, x2):
        lam = curve._div(3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1,
                         2 * y1 + a1 * x1 + a3)
    else:
        lam = curve._div(y2 - y1, x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    if curve.p:
        x3, y3 = x3 % curve.p, y3 % curve.p
    return (x3, y3)


def multiply_point(curve: WeierstrassCurve, n: int, P):
    """n * P by repeated addition."""
    if n < 0:
        return negate_point(curve, multiply_point(curve, -n, P))
    R = None
    for _ in range(n):
        R = add_points(curve, R, P)
    return R


def torsion_order(curve: WeierstrassCurve, P, bound: int = 12):
    """Least n <= bound with n*P = O, or None."""
    R = P
    for n in range(1, bound + 1):
        if R is None:
            return n if n > 1 or P is None else 1
        R = add_points(curve, R, P)
    return None


def tate_multiples(a, b, p: int = 0) -> dict:
    """Closed-form multiples of P = (0,0) on y^2 + a*x*y + b*y = x^3 + b*x^2."""
    if p == 0:
        a, b = Fraction(a), Fraction(b)
    if (b % p == 0 if p else b == 0):
        raise ValueError("b must be nonzero")
    curve = WeierstrassCurve(a, b, b, 0, 0, p=p)
    inv = curve._div
    one_minus_a = 1 - a
    if curve._is_zero(one_minus_a):
        raise ZeroDivisionError("a = 1: 4P formula degenerates")
    x4 = inv(b, one_minus_a) + inv(b * b, one_minus_a ** 2)
    y4 = inv(b * b, one_minus_a) * (1 + inv(b, one_minus_a ** 2)
                                    + inv(1, one_minus_a))
    pts = {
        "P": (0, 0),
        "-P": (0, -b),
        "2P": (-b, (a - 1) * b),
        "-2P": (-b, 0),
        "3P": (1 - a, a - 1 - b),
        "4P": (x4, y4),
    }
    if p:
        pts = {k: (x % p, y % p) for k, (x, y) in pts.items()}
    return pts


def two_isogeny_quotient(curve: WeierstrassCurve) -> WeierstrassCurve:
    """Quotient of y^2 = x(x^2 + a*x + b) by the 2-torsion point (0, 0)."""
    if not (curve._is_zero(curve.a1) and curve._is_zero(curve.a3)
            and curve._is_zero(curve.a6)):
        raise ValueError("curve must be in the form y^2 = x(x^2 + a x + b)")
    a, b = curve.a2, curve.a4
    na = -2 * a
    nb = a * a - 4 * b
    if curve.p:
        na, nb = na % curve.p, nb % curve.p
    return WeierstrassCurve(0, na, 0, nb, 0, p=curve.p)
