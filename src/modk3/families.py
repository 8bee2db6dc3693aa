"""The explicit Weierstrass families over the t-line and curve arithmetic.

Family coefficients a1..a6 are exact rational functions of a parameter t
(sympy expressions over Q).  Specializations produce WeierstrassCurve
objects over Q (Fraction arithmetic) or over F_p (int arithmetic mod p);
the full long-Weierstrass group law works over either field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import sympy
from sympy import Rational, cancel

from .arith import VerificationError

t = sympy.symbols("t")

FAMILY_NAMES = ("g4_legendre", "e1_4", "e1_6", "e1_7", "e1_8",
                "g62", "g82", "g8_412", "x0_12")


class SingularCurveError(ValueError):
    def __init__(self, msg, c4=None):
        super().__init__(msg)
        self.c4 = c4


class SpecializationError(ValueError):
    pass


@dataclass(frozen=True)
class NSDecomposition:
    """Galois structure of the algebraic cycles: lists of
    (character discriminant or 1 for trivial, multiplicity)."""

    plus_part: tuple
    minus_part: tuple

    def counts(self):
        np1 = sum(m for d, m in self.plus_part if d == 1)
        np2 = sum(m for d, m in self.plus_part if d != 1)
        nm1 = sum(m for d, m in self.minus_part if d == 1)
        nm2 = sum(m for d, m in self.minus_part if d != 1)
        return (np1, np2), (nm1, nm2)

    @property
    def total_rank(self):
        return sum(m for _, m in self.plus_part + self.minus_part)

    def trace(self, p: int, chi) -> int:
        """n' + sum chi_D(p) * n'' over both parts; chi(D, p) supplied."""
        return self.plus_trace_terms(p, chi) + self.minus_trace_terms(p, chi)

    def minus_trace_terms(self, p: int, chi) -> int:
        return sum(m * (1 if d == 1 else chi(d, p)) for d, m in self.minus_part)

    def plus_trace_terms(self, p: int, chi) -> int:
        return sum(m * (1 if d == 1 else chi(d, p)) for d, m in self.plus_part)


@dataclass(frozen=True)
class WeierstrassFamily:
    name: str
    a_invariants: tuple  # (a1, a2, a3, a4, a6) sympy expressions in t
    expected_config: tuple  # fiber-type labels, e.g. ("I4",)*6
    preset_group_id: int = 0   # index of the matching congruence-group preset, 0 if none
    ns_data: NSDecomposition = None
    level_primes: frozenset = frozenset()
    delta: int = 0          # CM field marker of the transcendental motive
    form_id: str = ""       # weight-3 form with the same CM field

    @property
    def bad_primes(self) -> frozenset:
        return frozenset({2, 3} | set(self.level_primes))


def weierstrass_invariants(a1, a2, a3, a4, a6) -> tuple:
    """(b2, b4, b6, b8, c4, c6, Delta) of a long Weierstrass equation, over
    any commutative ring (integers, fractions, polynomials)."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if 1728 * disc != c4 ** 3 - c6 ** 2:
        raise VerificationError("1728 Delta = c4^3 - c6^2",
                                {"a": (a1, a2, a3, a4, a6)},
                                c4 ** 3 - c6 ** 2, 1728 * disc)
    return b2, b4, b6, b8, c4, c6, disc


@dataclass(frozen=True)
class WeierstrassCurve:
    """Long Weierstrass curve over Q (p=0, Fraction coefficients) or F_p."""

    a1: object
    a2: object
    a3: object
    a4: object
    a6: object
    p: int = 0  # 0 means Q

    def _f(self, x):
        return Fraction(x) if self.p == 0 else x % self.p

    @property
    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def _invariants(self) -> tuple:
        inv = weierstrass_invariants(*(self._f(a) for a in self.ainvs))
        return tuple(x % self.p for x in inv) if self.p else inv

    def invariants(self):
        """(b2, b4, b6, b8, c4, c6, Delta, j); raises on Delta = 0."""
        inv = self._invariants()
        c4, disc = inv[4], inv[6]
        if self._is_zero(disc):
            raise SingularCurveError("singular curve (Delta = 0)", c4=c4)
        return inv + (self._div(c4 ** 3, disc),)

    def discriminant(self):
        return self._invariants()[6]

    def _is_zero(self, x) -> bool:
        return (x % self.p == 0) if self.p else x == 0

    def _eq(self, x, y) -> bool:
        return self._is_zero(x - y)

    def _div(self, x, y):
        if self.p:
            return x * pow(int(y) % self.p, -1, self.p) % self.p
        return Fraction(x) / Fraction(y)

    # ---- point arithmetic on the long form -------------------------------

    def is_on_curve(self, P) -> bool:
        if P is None:
            return True
        x, y = P
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x ** 3 + self.a2 * x * x + self.a4 * x + self.a6
        return self._eq(lhs, rhs)

    def negate(self, P):
        if P is None:
            return None
        x, y = P
        ny = -y - self.a1 * x - self.a3
        return (x, ny % self.p if self.p else ny)

    def add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        if not (self.is_on_curve(P) and self.is_on_curve(Q)):
            raise ValueError("point not on curve")
        x1, y1 = P
        x2, y2 = Q
        a1, a2, a3, a4, a6 = (self._f(a) for a in self.ainvs)
        if self._eq(x1, x2) and self._eq(y2, -y1 - a1 * x2 - a3):
            return None
        if self._eq(x1, x2):
            lam = self._div(3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1,
                            2 * y1 + a1 * x1 + a3)
        else:
            lam = self._div(y2 - y1, x2 - x1)
        nu = y1 - lam * x1
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        y3 = -(lam + a1) * x3 - nu - a3
        if self.p:
            x3, y3 = x3 % self.p, y3 % self.p
        return (x3, y3)

    def multiply(self, n: int, P):
        if n < 0:
            return self.negate(self.multiply(-n, P))
        R = None
        for _ in range(n):
            R = self.add(R, P)
        return R


def torsion_order(curve: WeierstrassCurve, P, bound: int = 12):
    """Least n <= bound with n*P = O, or None."""
    R = P
    for n in range(1, bound + 1):
        if R is None:
            return n if n > 1 or P is None else 1
        R = curve.add(R, P)
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


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _ns(plus, minus):
    return NSDecomposition(tuple(plus), tuple(minus))


@lru_cache(maxsize=None)
def preset(name: str) -> WeierstrassFamily:
    if name == "g4_legendre":
        lam = (t + 1 / t) ** 2 / 4
        ai = (0, -(1 + lam), 0, lam, 0)
        return WeierstrassFamily(
            name, tuple(sympy.sympify(a) for a in ai),
            expected_config=("I4",) * 6, preset_group_id=1,
            ns_data=_ns([(1, 12), (-4, 2)], [(1, 3), (-4, 3)]),
            level_primes=frozenset({2}), delta=-1, form_id="h8")
    if name == "e1_4":
        ai = (1, t, t, 0, 0)
        return WeierstrassFamily(name, tuple(sympy.sympify(a) for a in ai),
                                 expected_config=("I1*", "I1", "I4"),
                                 level_primes=frozenset({2}))
    if name == "e1_6":
        b = -(t - 1) * (t - 2)
        ai = (t, b, b, 0, 0)
        return WeierstrassFamily(name, tuple(sympy.sympify(a) for a in ai),
                                 expected_config=("I6", "I3", "I2", "I1"),
                                 level_primes=frozenset({2, 3}))
    if name == "e1_7":
        b = t ** 2 - t ** 3
        ai = (1 + t - t ** 2, b, b, 0, 0)
        return WeierstrassFamily(name, tuple(sympy.sympify(a) for a in ai),
                                 expected_config=("I7",) * 3 + ("I1",) * 3,
                                 preset_group_id=3,
                                 level_primes=frozenset({7}))
    if name == "e1_8":
        a = (-2 * t ** 2 + 4 * t - 1) / t
        b = -2 * t ** 2 + 3 * t - 1
        ai = (a, b, b, 0, 0)
        return WeierstrassFamily(name, tuple(sympy.sympify(a) for a in ai),
                                 expected_config=("I8", "I8", "I4", "I2",
                                                  "I1", "I1"),
                                 preset_group_id=4,
                                 level_primes=frozenset({2}))
    if name == "g62":
        a = (2 * t ** 2 - 10) / (t ** 2 - 9)
        b = -(a - 1) * (a - 2)
        ai = (a, b, b, 0, 0)
        return WeierstrassFamily(
            name, tuple(cancel(x) for x in ai),
            expected_config=("I6",) * 3 + ("I2",) * 3, preset_group_id=2,
            ns_data=_ns([(1, 14)], [(1, 6)]),
            level_primes=frozenset({3}), delta=-3, form_id="h7")
    if name == "g82":
        a2 = 2 + (t + 1 / t) ** 2 / 2
        a4 = (t - 1 / t) ** 4 / 16
        ai = (0, a2, 0, a4, 0)
        return WeierstrassFamily(
            name, tuple(sympy.sympify(x) for x in ai),
            expected_config=("I8", "I8", "I2", "I2", "I2", "I2"),
            preset_group_id=5,
            ns_data=_ns([(1, 13), (-4, 1)], [(1, 6)]),
            level_primes=frozenset({2}), delta=-1, form_id="h8")
    if name == "g8_412":
        q = 8 * t ** 4 - 16 * t ** 3 + 16 * t ** 2 - 8 * t + 1
        a2 = -2 * q
        a4 = (8 * t ** 2 - 8 * t + 1) * (2 * t - 1) ** 4
        ai = (0, a2, 0, a4, 0)
        return WeierstrassFamily(
            name, tuple(sympy.sympify(x) for x in ai),
            expected_config=("I8", "I4", "I4", "I4", "I2", "I2"),
            preset_group_id=6,
            ns_data=_ns([(1, 13), (8, 1)], [(1, 5), (-4, 1)]),
            level_primes=frozenset({2}), delta=-2, form_id="h4")
    if name == "x0_12":
        b = -t ** 2 * (t ** 2 - 1)
        ai = (t ** 2 + 1, b, b, 0, 0)
        return WeierstrassFamily(name, tuple(sympy.sympify(a) for a in ai),
                                 expected_config=("I12", "I4", "I3", "I3",
                                                  "I1", "I1"),
                                 preset_group_id=7,
                                 level_primes=frozenset({2, 3}))
    raise KeyError(f"unknown family {name!r}")


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


def _to_field(x, p: int):
    """sympy Rational -> Fraction (p=0) or int mod p."""
    x = Rational(x)
    if p == 0:
        return Fraction(int(x.p), int(x.q))
    den = int(x.q) % p
    if den == 0:
        raise SpecializationError("denominator vanishes mod p")
    return int(x.p) * pow(den, -1, p) % p


def specialize(family: WeierstrassFamily, t0, p: int = 0) -> WeierstrassCurve:
    """Evaluate the family at t0 (a rational number, or the string "inf").

    At poles and at infinity the coefficients are cleared by an admissible
    (x, y) -> (u^2 x, u^3 y) rescaling; the result can be a singular cubic.
    """
    from .kodaira import integral_model  # late import; no cycle at runtime
    if t0 == "inf":
        model = integral_model(family, chart="inf")
        vals = [poly.subs(model.var, 0) for poly in model.a_polys]
    else:
        t0r = Rational(t0)
        model = integral_model(family, chart="zero")
        vals = [poly.subs(model.var, t0r) for poly in model.a_polys]
    try:
        coeffs = [_to_field(v, p) for v in vals]
    except SpecializationError as exc:
        raise SpecializationError(f"{family.name} at t={t0}: {exc}") from exc
    a1, a2, a3, a4, a6 = coeffs
    return WeierstrassCurve(a1, a2, a3, a4, a6, p=p)
