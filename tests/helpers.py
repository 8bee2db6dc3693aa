"""Test-only helpers: one Weierstrass curve over Q or F_p (the library
holds a curve as its integer a-invariants), the Legendre symbol and the
O(sqrt p) norm-equation search (oracles of the library's fast paths), the
twist fit (the oracle of each family's stored twist), the H^2 trace of the
threefold from the stored lattice data, the checked entry points and
field-element operations the commands never call (the square root mod p, a
field element of Q(sqrt(-d)) with its product, norm, conjugate, trace of
the square and unit orbit, the normalised generator above p), the
norm-equation solutions as field elements, the full modular group, a
group's +-Id closure, the weight-2 and weight-3 local factors and the
Hecke coefficients as an Euler product (the oracle of the theta series),
the exact Hasse multinomials (the oracle of their log-factorial table) and
the Hasse invariant from a table over all of F_p (the oracle of its
evaluation at the reached classes only), the numpy point-count kernel with
its Legendre table (the oracle of the lifted Hasse traces), the per-prime
point count and curve trace (the oracle of the batched kernel), conversions
between sympy expressions in t and the integer data of a family, the
printed base-change maps and gluing identity, specialisation of a family
to one curve, and curve constructions (the group law on the long form,
torsion orders, closed-form multiples of a Tate-normal point,
2-isogenies)."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

import numpy as np
import sympy
from sympy import Poly, Rational, cancel, fraction

from modk3 import arith, counting
from modk3.arith import (FIELD_DISC, InvalidPrimeError, VerificationError,
                         _is_integral, _norm_solutions, is_prime,
                         kronecker_character, primes_up_to, unit_pairs)
from modk3.cmforms import (HeckeCharSpec, WeilBoundError, _is_normalized,
                           ap as form_ap)
from modk3.congruence import CongruenceGroupSpec, _neg
from modk3.counting import (CountReport, ModelMismatchError, _check_int64,
                            _hasse_traces, attached_form, good_primes,
                            k3_point_count)
from modk3.families import (SingularCurveError, WeierstrassFamily,
                            weierstrass_invariants)
from modk3.kodaira import BadReductionError, integral_model, scan
from modk3.lfunctions import LocalFactor, euler_to_dirichlet

#: fundamental discriminants D with |D| dividing 48
TWIST_DISCS = (1, -3, -4, 8, -8, 12, -24, 24)

#: int64 cells per block of the kernel's fibre sum (512 KB)
BLOCK_CELLS = 1 << 16

t = sympy.symbols("t")


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
            raise SingularCurveError("singular curve (Delta = 0)")
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

    def is_on_curve(self, P) -> bool:
        if P is None:
            return True
        x, y = P
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x ** 3 + self.a2 * x * x + self.a4 * x + self.a6
        return self._eq(lhs, rhs)


def check_odd_prime(p: int) -> None:
    # arith.is_prime looked up at the call, so a test can count the calls
    if p < 3 or p % 2 == 0 or not arith.is_prime(p):
        raise InvalidPrimeError(f"need an odd prime, got {p}")


def sqrt_mod(a: int, p: int):
    """Tonelli-Shanks; returns the smaller root, or None for a non-residue."""
    check_odd_prime(p)
    return arith._sqrt_mod(a, p)


@dataclass(frozen=True)
class QuadFieldElement:
    """(u + v*sqrt(-d))/2 with the integrality condition of O_{Q(sqrt(-d))}:
    the field element of the oracles, where the library keeps (u, v)."""

    d: int
    u: int
    v: int

    def __post_init__(self):
        if self.d not in FIELD_DISC:
            raise ValueError(f"unsupported field parameter d={self.d}")
        if not _is_integral(self.d, self.u, self.v):
            raise ValueError(f"({self.u}, {self.v}) not integral, d={self.d}")

    def _halve(self, n: int, m: int, identity: str) -> int:
        if n % m:  # the encoding's parity conditions make it exact
            raise VerificationError(identity, dict(d=self.d, u=self.u,
                                                   v=self.v), 0, n % m)
        return n // m

    def trace_of_square(self) -> int:
        return self._halve(self.u * self.u - self.d * self.v * self.v, 2,
                           "2 | u^2 - d v^2")


def mul(x: QuadFieldElement, y: QuadFieldElement) -> QuadFieldElement:
    """The product x y in the field of x and y."""
    if x.d != y.d:
        raise ValueError("field mismatch")
    uu, vv = x.u * y.u - x.d * x.v * y.v, x.u * y.v + x.v * y.u
    return QuadFieldElement(x.d, x._halve(uu, 2, "2 | u u' - d v v'"),
                            x._halve(vv, 2, "2 | u v' + v u'"))


def norm(x: QuadFieldElement) -> int:
    return x._halve(x.u * x.u + x.d * x.v * x.v, 4, "4 | u^2 + d v^2")


def conjugate(x: QuadFieldElement) -> QuadFieldElement:
    return QuadFieldElement(x.d, x.u, -x.v)


def unit_orbit(x: QuadFieldElement) -> list:
    """All unit multiples of x (4 for d=1, 6 for d=3, 2 otherwise)."""
    return [QuadFieldElement(x.d, u, v) for u, v in unit_pairs(x.d, x.u, x.v)]


def normalized_generator(spec: HeckeCharSpec, p: int) -> QuadFieldElement:
    """A generator pi of a prime above p with pi = +-1 mod c*O_K: the
    largest normalised Cornacchia pair."""
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    d, c = spec.d, spec.conductor_gen
    good = [(u, v) for u, v in _norm_solutions(d, p)
            if _is_normalized(d, c, u, v)]
    if not good:
        raise ValueError(f"no normalised generator above p={p}")
    return QuadFieldElement(d, *max(good))


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) in {-1, 0, 1} for an odd prime p by Euler's criterion: the
    oracle of sqrt_mod, of the Kronecker character and of split tests."""
    check_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def hasse_multinomials(p: int) -> list:
    """The exact multinomials m! / (i! j! k!) = C(m, i) C(m - i, j) mod p,
    j = 2m - 3i, k = 2i - m, for floor(2m/3) >= i >= ceil(m/2),
    m = (p - 1) / 2: the coefficients of H(c, c) / c^(m - floor(2m/3)),
    leading first."""
    m = (p - 1) // 2
    return [comb(m, i) * comb(m - i, 2 * m - 3 * i) % p
            for i in range((m + 1) // 2, 2 * m // 3 + 1)]


@lru_cache(maxsize=None)
def full_hasse_table(p: int) -> tuple:
    """H(c, c) for every c in F_p, H(A, B) the coefficient of x^(p-1) in
    (x^3 + A x + B)^m mod p, m = (p - 1) / 2: one Horner pass over the whole
    field with the exact multinomials, and the factor c^(m - floor(2m/3))."""
    m = (p - 1) // 2
    c = np.arange(p, dtype=np.int64)
    g = np.zeros(p, dtype=np.int64)
    for multinomial in hasse_multinomials(p):
        g = (g * c + multinomial) % p
    shift = m - 2 * m // 3
    return tuple(int(h) * pow(x, shift, p) % p for x, h in enumerate(g))


def full_table_traces(c4, c6, p: int) -> list:
    """The lifted Hasse invariant H in (-p/2, p/2) of each short model
    y^2 = x^3 - 27 c4 x - 54 c6 over F_p: chi(AB) H(c, c), c = A^3 / B^2,
    from full_hasse_table, or a binomial of (x^3 + B)^m resp.
    x^m (x^2 + A)^m where A or B is 0."""
    m, traces = (p - 1) // 2, []
    for a4, a6 in zip(c4, c6):
        A, B = -27 * int(a4) % p, -54 * int(a6) % p
        if A == 0:
            H = comb(m, 2 * m // 3) * pow(B, m // 3, p) if m % 3 == 0 else 0
        elif B == 0:
            H = comb(m, m // 2) * pow(A, m // 2, p) if m % 2 == 0 else 0
        else:
            c = A ** 3 * pow(B, -2, p) % p
            H = legendre_symbol(A * B, p) * full_hasse_table(p)[c]
        H %= p
        traces.append(H - p if H > p // 2 else H)
    return traces


def legendre_table(p: int):
    """chi[v] = (v / p) for v in F_p as an int8 array; p < 2^31."""
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    chi[x * x % p] = 1
    chi[0] = 0
    return chi


def short_model_points(c4, c6, p: int) -> int:
    """Projective F_p points of y^2 = x^3 - 27 c4 x - 54 c6, summed over
    the fibres whose invariants mod p fill the arrays c4 and c6: blocks of
    BLOCK_CELLS // p fibres, each one int64 array of A x + x^3 + B mod p
    over x in F_p, looked up in an int8 Legendre table."""
    _check_int64(p)
    chi = legendre_table(p)
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


def curve_count(ainvs: tuple, p: int) -> int:
    """Projective F_p points of the (possibly singular) Weierstrass cubic
    with integer a-invariants ainvs, at a prime p >= 5, by the kernel."""
    if not is_prime(p) or p < 5:
        raise BadReductionError(f"need a prime p >= 5, got {p}")
    # (x, y) -> (36x + 3b2, 108(2y + a1 x + a3)) is an affine bijection of
    # F_p^2 onto the short model, singular or not
    c4, c6 = weierstrass_invariants(*ainvs)[4:6]
    return short_model_points([c4 % p], [c6 % p], p)


def hasse_count(ainvs: tuple, p: int) -> int:
    """curve_count through the library instead: p + 1 minus the lifted
    Hasse trace of the one short model, singular or not."""
    c4, c6 = weierstrass_invariants(*ainvs)[4:6]
    A, B = np.array([-27 * c4 % p]), np.array([-54 * c6 % p])
    return p + 1 - int(_hasse_traces(A, B, [p], [1])[0])


# ---- the per-prime point count: the oracle of the batched kernel ---------
# counting's fibre sum as it was before primes were counted in batches,
# one prime (and one numpy pass) at a time; it shares counting's cached
# per-prime _table, _block_width and _EVALUATE_CELLS


def per_prime_horner(coefficients, x, p: int):
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


def per_prime_evaluate(coefficients, x, p: int):
    """per_prime_horner at x in [0, p) by baby steps and giant steps: the blocks of
    s = _block_width coefficients of x^(s q + r) times the baby powers x^r,
    r < s (a gather), in one int64 matmul of signed residues; then
    per_prime_horner in x^s over the block values, in chunks of columns."""
    pw, log = counting._table(p)[:2]
    n, half = len(coefficients), p // 2
    s = counting._block_width(n, p)
    blocks = np.zeros(-(-n // s) * s, dtype=np.int64)
    blocks[:n] = coefficients[::-1]
    blocks = ((blocks + half) % p - half).reshape(-1, s)
    width = max(counting._EVALUATE_CELLS // max(blocks.shape), 1)
    out = np.empty_like(x)
    for j in range(0, len(x), width):
        chunk = x[j:j + width]
        powers = pw[np.arange(s)[:, None] * log[chunk] % (p - 1)]
        powers[1:] *= chunk != 0
        giant = powers[-1] * chunk % p
        powers -= (powers > half) * p
        out[j:j + width] = per_prime_horner((blocks @ powers)[::-1], giant, p)
    return out


def per_prime_hasse_traces(c4, c6, p: int):
    """The trace p + 1 - #E(F_p) of each short model
    y^2 = x^3 - 27 c4 x - 54 c6 over F_p, p >= 5, each within the Weil
    bound: the lifted Hasse invariant, with H(c, c) evaluated only at the
    classes c that the fibres reach, and every power a gather:
    c = g^(3 log A - 2 log B), c^shift = g^(shift log c), and chi(AB) = -1
    exactly where log A + log B is odd."""
    pw, log, coefficients, shift, (m_b, e_b), (m_a, e_a) = counting._table(p)
    A = -27 * np.asarray(c4, dtype=np.int64) % p
    B = -54 * np.asarray(c6, dtype=np.int64) % p
    log_a, log_b = log[A], log[B]  # H is overwritten where A or B is 0
    c = pw[(3 * log_a - 2 * log_b) % (p - 1)]
    g = np.zeros(p, dtype=np.int64)
    g[c] = 1  # a mask rather than a sort: then g[c] = H(c, c)
    values = np.flatnonzero(g)
    g[values] = (per_prime_evaluate(coefficients, values, p)
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


def per_prime_ap_elliptic(ainvs: tuple, p: int) -> int:
    """Frobenius trace A(p) = p + 1 - #E(F_p) at a prime p >= 5 of good
    reduction."""
    if not is_prime(p) or p < 5:
        raise BadReductionError(f"need a prime p >= 5, got {p}")
    _check_int64(p)  # before the O(p) table build
    c4, c6, disc = weierstrass_invariants(*ainvs)[4:7]
    if disc % p == 0:
        raise BadReductionError(f"bad reduction at p={p}")
    # (x, y) -> (36x + 3b2, 108(2y + a1 x + a3)) is an affine bijection of
    # F_p^2 onto the short model
    return int(per_prime_hasse_traces([c4 % p], [c6 % p], p)[0])


def per_prime_point_count(family: WeierstrassFamily, p: int) -> CountReport:
    """Fiberwise surface total over P^1(F_p) and the trace B(p) it leaves."""
    _check_int64(p)
    report = scan(family, p)
    # (c4, c6) of every fibre, column t0 < p from the t-chart by Horner,
    # then the minimal values at the zeros of Delta and at infinity (column p)
    t = np.arange(p + 1, dtype=np.int64)
    c4c6 = np.array([per_prime_horner(f, t, p)
                     for f in integral_model(family, "zero").invariants[:2]])
    for place, values in report.minimal_values.items():
        c4c6[:, p if place == "inf" else place] = values
    total = (p + 1) ** 2 - int(per_prime_hasse_traces(*c4c6, p).sum())
    # extra components of the resolved singular fibers
    total += p * sum(f.tau for f in report.fibers)
    ns = report.ns_trace
    return CountReport(family.name, p, total, ns,
                       total - 1 - p * p - p * ns)


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


def norm_equation_solutions(d: int, p: int) -> list:
    """All QuadFieldElements of norm p, i.e. u^2 + d*v^2 = 4p, with u >= 0.

    Both (u, v) and (u, -v) are listed when v != 0.  Empty iff p is inert.
    """
    if d not in FIELD_DISC:
        raise ValueError(f"unsupported field parameter d={d}")
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    return [QuadFieldElement(d, u, v) for u, v in _norm_solutions(d, p)
            if u >= 0]


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


def h2_trace(family: WeierstrassFamily, p: int) -> int:
    """Frobenius trace on H^2 of the threefold: 16 exceptional classes,
    the fiber class, and the invariant lattice part."""
    if family.ns_data is None:
        raise ValueError(f"{family.name} has no stored lattice decomposition")
    plus = family.ns_data.trace(p) - family.ns_data.minus_trace_terms(p)
    return p * (17 + plus)


def psl2z() -> CongruenceGroupSpec:
    """The full modular group (modulus-1 convention)."""
    return CongruenceGroupSpec("PSL(2,Z)", 1, lambda m: True, projective=True)


def members_pm(spec: CongruenceGroupSpec) -> frozenset:
    """The members of spec together with their negatives (the +-Id
    closure)."""
    H = spec.members()
    return H | {_neg(g, spec.modulus) for g in H}


def weight2_factor(A: int, p: int) -> LocalFactor:
    """1 - A T + p T^2 for an elliptic curve with good reduction."""
    if A * A > 4 * p:
        raise WeilBoundError(f"|A|={abs(A)} exceeds 2 sqrt({p})")
    return LocalFactor(p, 2, (1, -A, p))


def weight3_factor(B: int, eps_p: int, p: int) -> LocalFactor:
    """1 - B T + eps(p) p^2 T^2 for a weight-3 newform."""
    if B * B > 4 * p * p:
        raise WeilBoundError(f"|B|={abs(B)} exceeds 2p for p={p}")
    if eps_p not in (-1, 0, 1):
        raise ValueError("nebentypus value must be -1, 0 or 1")
    if eps_p == 0:
        return LocalFactor(p, 3, (1, -B))
    return LocalFactor(p, 3, (1, -B, eps_p * p * p))


def euler_coefficient_sequence(spec: HeckeCharSpec, N: int) -> list:
    """[a_1, ..., a_N] of the product of the weight-3 Euler factors
    1 - a_p T + eps(p) p^2 T^2, eps the nebentypus mod the level (0 at bad
    primes), a_p from the normalised Cornacchia pairs above p.  The oracle
    of the library's theta series at the prime powers and products."""
    factors = {}
    for p in primes_up_to(N):
        eps = (0 if spec.level % p == 0
               else kronecker_character(spec.disc, p))
        factors[p] = weight3_factor(form_ap(spec, p), eps, p)
    return euler_to_dirichlet(factors, N)


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
