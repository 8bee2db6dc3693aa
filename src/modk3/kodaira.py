"""Singular-fiber analysis of the elliptic families over F_p (p >= 5).

``integral_model`` clears each chart, t or s = 1/t (a_i(1/s) reverses the
numerator and denominator of a_i(t)), to Z[var] by an admissible
(x, y) -> (u^2 x, u^3 y), u the lcm of the denominators, and classifies its
places over Q once per family (Tate in residue characteristic >= 5): gcds
split the squarefree part of Delta (s on the s-chart) into classes g of
equal (v(c4), v(Delta)), which name the type and its k shifts by
(4, 6, 12), as 1728 Delta = c4^3 - c6^2 forces 2 v(c6) >= min(3 v(c4),
v(Delta)).  A prime >= 5 dividing lc(g), disc(g) or the resultant of g
with the part of c4 or Delta prime to g must be bad; at every other p the
classes stay squarefree and coprime.  The rational root test splits each
g into places h, its linear factors and their cofactor, each keeping h'
and the pseudo-remainders R of c4 / h^(4k) and c6 / h^(6k) mod h.  Per
prime, ``scan`` splits each h into irreducibles mod p: a preset's h has
degree <= 3, so one square root splits a quadratic h, and gcds with
u^((p - 1)/2) - 1, u = t, t + 1, ..., split off a cubic's roots (a larger
part without roots raises).  It reads the minimal (c4, c6) at each root r
from R(r) and h'(r), and split or non-split from the Legendre symbol of
-c6.  The Euler audit checks Noether's sum(v(Delta_min) deg) = 12 chi(O):
24 or 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import gcd

from .arith import VerificationError, _sqrt_mod, is_prime, prime_factors
from .families import WeierstrassFamily, preset, weierstrass_invariants
from .zpoly import ZPoly


class BadReductionError(ValueError):
    pass


@dataclass(frozen=True)
class IntegralModel:
    """Polynomial Weierstrass model with integer coefficients on one chart."""

    var: str  # "t" or "s"
    #: (a1, a2, a3, a4, a6) over Z[var] as ZPoly integer coefficient tuples
    a_polys: tuple
    #: (c4, c6, Delta) over Z[var] as ZPoly integer coefficient tuples
    invariants: tuple
    #: (h, label, euler, k, h', (R4, e4), (R6, e6)) over Z for each place h,
    #: a linear factor b t - a or the rest of a class of zeros of Delta (or
    #: h = s): lc(h)^e4 c4 / h^(4k) = R4 mod h with deg R4 < deg h, c6 alike
    places: tuple


def _valuation_classes(g: ZPoly, f: ZPoly) -> list:
    """[(h, v)]: the squarefree primitive g split into the nonconstant h
    whose zeros all have valuation v in f (10^9 for f = 0)."""
    if not f:
        return [(g, 10 ** 9)]
    out, v = [], 0
    while g.degree > 0:
        if g == (1, 0):  # the rest of v(f) at t = 0: f's trailing zeros
            return out + [(g, v + next(i for i, c in enumerate(f[::-1]) if c))]
        try:
            higher, f = g, f.exquo(g)  # every zero has valuation > v
        except ArithmeticError:
            higher = g.gcd(f)  # the zeros of valuation > v
            out.append((g.exquo(higher), v))
            f = f.exquo(higher)
        g, v = higher, v + 1
    return out


def _rational_split(g: ZPoly) -> list:
    """The primitive squarefree g as its linear factors b t - a, b | lc(g)
    and a | g(0) (each a / b tested by evaluation), and their cofactor."""
    def divisors(n: int) -> set:
        out = {1}
        for q in prime_factors(n):
            while n % q == 0:
                n, out = n // q, out | {d * q for d in out}
        return out
    pieces = [] if g[-1] else [ZPoly((1, 0))]
    rest = g if g[-1] else ZPoly(g[:-1])
    n = rest.degree
    pieces += [ZPoly((b, -a)) for b in sorted(divisors(rest[0]))
               for d in sorted(divisors(rest[-1])) for a in (d, -d)
               if gcd(a, b) == 1 and not sum(
                   c * a ** (n - i) * b ** i for i, c in enumerate(rest))]
    rest = reduce(ZPoly.exquo, pieces, g)
    return pieces + [rest] * (rest.degree > 0)


@lru_cache(maxsize=None)
def integral_model(family: WeierstrassFamily, chart: str = "zero") -> IntegralModel:
    if chart not in ("zero", "inf"):
        raise ValueError(f"unknown chart {chart!r}")
    fractions = [(ZPoly(n), ZPoly(d)) for n, d in family.a_invariants]
    if chart == "inf":
        # a(1/s) = rev(n) s^deg(d) / (rev(d) s^deg(n)), still in lowest terms
        # once the common power of s cancels
        fractions = [(ZPoly(n[::-1] + (0,) * max(d.degree - n.degree, 0)),
                      ZPoly(d[::-1] + (0,) * max(n.degree - d.degree, 0)))
                     for n, d in fractions]
    u = reduce(lambda x, y: (x * y).exquo(x.gcd(y)), (d for _, d in fractions))
    u = u if u[0] > 0 else -u
    polys = [n * (u ** w).exquo(d)
             for (n, d), w in zip(fractions, (1, 2, 3, 4, 6))]
    c4, c6, disc = weierstrass_invariants(*polys)[4:]
    zeros = (disc.exquo(disc.gcd(disc.derivative())).primitive()
             if chart == "zero" else ZPoly((1, 0)))
    places, numbers = [], []
    for same_vd, vd in _valuation_classes(zeros, disc):
        for g, v4 in _valuation_classes(same_vd, c4):
            label, euler, k = _classify(v4, vd)
            # the type reads v(c4) and v(Delta) alone, so c6 may meet g mod
            # p; so may c4 at a place that is good after the shifts
            rest = ((disc, vd),) if label == "good" else ((c4, v4), (disc, vd))
            numbers += [g[0], g.discriminant()] + [
                g.resultant(f.exquo(g ** v)) for f, v in rest if f]
            # lc(h) | lc(g), and disc(g) holds each disc(h) and the pieces'
            # resultants: the certificate on g covers every piece h
            for h in _rational_split(g):
                q4, q6 = (f.exquo(h ** (w * k)) for f, w in ((c4, 4), (c6, 6)))
                places.append((h, label, euler, k, h.derivative(), *(
                    (q.prem(h), max(len(q) - len(h) + 1, 0))
                    for q in (q4, q6))))
    exceptional = set().union(*(prime_factors(n, family.bad_primes)
                                for n in numbers))
    if exceptional:
        raise VerificationError(
            "the places of Delta over Q reduce at every good prime",
            dict(family=family.name, chart=chart), sorted(family.bad_primes),
            sorted(exceptional))
    return IntegralModel("t" if chart == "zero" else "s", tuple(polys),
                         (c4, c6, disc), tuple(places))


#: the additive types that v(Delta) at a minimal place names, with it
_ADDITIVE = {"II": 2, "III": 3, "IV": 4, "I0*": 6, "IV*": 8, "III*": 9,
             "II*": 10}


def _classify(v4: int, vd: int):
    """Kodaira type from the valuations of c4 and Delta (residue char >= 5;
    2 v(c6) >= min(3 v(c4), v(Delta)) leaves v(c6) nothing to decide).

    Returns (label, vd_min, k) where k is the number of (4, 6, 12) shifts
    needed to minimalize; vd_min is also the Euler contribution.
    """
    k = min(v4 // 4, vd // 12)
    v4, vd = v4 - 4 * k, vd - 12 * k
    if vd == 0:
        return "good", 0, k
    if v4 == 0:
        return f"I{vd}", vd, k
    if 3 * v4 < vd:
        return f"I{vd - 6}*", vd, k
    return next(name for name, e in _ADDITIVE.items() if e == vd), vd, k


def fiber_euler(label: str) -> int:
    if label == "good" or label in _ADDITIVE:
        return _ADDITIVE.get(label, 0)
    return int(label[1:-1]) + 6 if label.endswith("*") else int(label[1:])


@dataclass(frozen=True)
class FiberReport:
    place: str       # "t^2+1", "t-3", "inf", ...
    degree: int
    label: str       # "I4", "I1*", ...
    euler: int
    split: object    # True/False for I_n at rational places, else None
    tau: int         # Frobenius trace on the non-identity components


def _tau(n: int, split) -> int:
    """Trace of Frobenius on the non-identity components of an I_n fiber at
    a rational place, split or not; 0 for every other fiber (split None)."""
    if split is None:
        return 0
    # nonsplit: the involution on the I_n chain fixes one component iff the
    # chain length n - 1 is odd
    return n - 1 if split else 1 - n % 2


def _place_name(coeffs: list, var: str) -> str:
    """The monic polynomial with these symmetric coefficients as sympy
    prints it, e.g. "t**2 - 3*t + 1"."""
    out, n = "", len(coeffs) - 1
    for i, c in enumerate(coeffs):
        if c:
            d, a = n - i, abs(c)
            mono = var if d == 1 else f"{var}**{d}"
            term = str(a) if d == 0 else mono if a == 1 else f"{a}*{mono}"
            out += (" - " if c < 0 else " + ") + term
    return out[3:]


# ---- polynomials mod p: ZPoly (or lists) with coefficients in [0, p) -----

def _reduce(f, p: int) -> ZPoly:
    return ZPoly([c % p for c in f])


def _horner(f, x: int, p: int) -> int:
    value = 0
    for c in f:
        value = (value * x + c) % p
    return value


def _monic(f: ZPoly, p: int) -> ZPoly:
    inverse = pow(f[0], -1, p)
    return ZPoly([c * inverse % p for c in f])


def _divmod(f, g, p: int) -> tuple:
    """(quotient, remainder) of f by the monic g mod p, as lists."""
    f, k = list(f), max(len(f) - len(g) + 1, 0)
    tail = [(j, c) for j, c in enumerate(g) if j and c]  # g is often sparse
    for i in range(k):
        q = f[i] = f[i] % p
        if q:
            for j, c in tail:
                f[i + j] -= q * c
    return f[:k], [c % p for c in f[k:]]


def _powmod(f, e: int, modulus: ZPoly, p: int) -> ZPoly:
    """f^e mod the monic modulus, left to right: multiplying by a short f
    (t or t + a) is cheap."""
    f, result = ZPoly(_divmod(f, modulus, p)[1]), ZPoly((1,))
    for bit in bin(e)[2:]:
        result = ZPoly(_divmod(result * result, modulus, p)[1])
        if bit == "1":
            result = ZPoly(_divmod(result * f, modulus, p)[1])
    return result


def _gcd(f, g: ZPoly, p: int) -> ZPoly:
    """The monic gcd mod p; f != 0, g without leading zeros."""
    while g:
        g = _monic(g, p)
        f, g = g, _divmod(f, g, p)[1]
        g = g[next((i for i, c in enumerate(g) if c), len(g)):]
    return _monic(f, p)


def _roots(f: ZPoly, p: int) -> list:
    """The factors of f, a product of distinct monic linears mod p, split
    off by gcds with u^((p - 1)/2) - 1 for u = t + 1, t + 2, ..., t + p - 1
    in turn: for p >= 5 some such u splits any two roots."""
    done, todo, a = [], [f], 0
    while todo:
        a, pieces, todo = a + 1, todo, []
        if a == p:
            raise VerificationError("f is a product of distinct linears",
                                    dict(p=p, f=f), "a split", pieces)
        for g in pieces:
            u = _powmod(ZPoly((1, a)), (p - 1) // 2, g, p)
            h = _gcd(g, _reduce(u - 1, p), p)
            for q in ([h, ZPoly(_divmod(g, h, p)[0])]
                      if 0 < h.degree < g.degree else [g]):
                (done if q.degree == 1 else todo).append(q)
    return done


def _irreducible_factors(g: ZPoly, p: int) -> list:
    """The monic irreducible factors mod p of the squarefree g, whose part
    without roots has degree <= 3 (as every place's has), by degree and
    then coefficients (the order of sympy's gf_factor_sqf)."""
    f = _monic(g, p)
    if f.degree < 2:
        return [f]
    if f.degree == 2:
        # t^2 + b t + c = (t + (b + r)/2)(t + (b - r)/2), r^2 = b^2 - 4c
        r = _sqrt_mod(f[1] ** 2 - 4 * f[2], p)
        if not r:  # a non-residue (or 0, which squarefree g excludes)
            return [f]
        return sorted(ZPoly((1, (f[1] + s) * (p + 1) // 2 % p)) for s in (r, -r))
    # t^p - t = t (w - 1)(w + 1), w = t^((p - 1)/2): the roots by character
    t = ZPoly((1, 0))
    w = _powmod(t, (p - 1) // 2, f, p)
    factors = []
    for h in (t, w - 1, w + 1):
        part = _gcd(f, _reduce(h, p), p)
        if part.degree > 0:
            factors += (_irreducible_factors(part, p) if part.degree <= 2
                        else _roots(part, p))
            f = ZPoly(_divmod(f, part, p)[0])
    if f.degree > 3:  # it may be reducible
        raise VerificationError("a place without roots mod p has degree <= 3",
                                dict(p=p, g=g), 3, f.degree)
    return sorted(factors + [f] * (f.degree > 0), key=lambda f: (len(f), f))


def _classify_chart(family: WeierstrassFamily, p: int, chart: str):
    """The bad fibers of one chart over F_p, ordered by the symmetric
    coefficients of their monic factors, and the minimal (c4, c6) at each
    rational zero of Delta (keyed by the root; "inf" for s = 0)."""
    model = integral_model(family, chart)
    fibers, minimal = [], {}
    for h, label, euler, k, derivative, *remainders in model.places:
        # h is squarefree mod p and its leading coefficient a unit
        for pi in _irreducible_factors(_reduce(h, p), p):
            coeffs = [c - p if c > p // 2 else c for c in pi]
            degree, split = len(pi) - 1, None
            name = _place_name(coeffs, model.var) if chart == "zero" else "inf"
            if degree == 1:
                # the minimal model divides by pi^k: (h / pi)(root) = h'(root)
                root = -pi[1] % p
                w = pow(_horner(derivative, root, p), k, p)
                c4, c6 = (_horner(r, root, p) * pow(h[0], -e, p) * w ** n % p
                          for (r, e), n in zip(remainders, (4, 6)))
                minimal[root if chart == "zero" else "inf"] = c4, c6
                if label.startswith("I") and not label.endswith("*"):
                    # I_n is split iff -c6 is a square at the place; c6 is
                    # a unit there once the model is minimalized
                    if c6 == 0:
                        raise VerificationError(
                            "minimal c6 is a unit at a multiplicative place",
                            dict(family=family.name, p=p, place=name),
                            "c6 != 0", 0)
                    split = pow(-c6 % p, (p - 1) // 2, p) == 1  # Euler
            if label != "good":
                fibers.append(((degree, coeffs), FiberReport(
                    name, degree, label, euler, split, _tau(euler, split))))
    return [f for _, f in sorted(fibers, key=lambda x: x[0])], minimal


@dataclass(frozen=True)
class ScanReport:
    family: str
    p: int
    fibers: tuple
    euler_total: int
    #: (c4, c6) mod p of the minimal model at every rational zero t0 of the
    #: discriminant (key t0), good or bad, and at infinity (key "inf")
    minimal_values: dict = field(compare=False, repr=False)

    @property
    def euler_ok(self) -> bool:
        """Noether's e = 12 chi(O): chi = 1 (rational) or 2 (K3)."""
        return self.euler_total in (12, 24)

    @property
    def config(self) -> tuple:
        """Multiset of singular-fiber labels (with multiplicity by degree)."""
        return tuple(sorted((f.label for f in self.fibers
                             for _ in range(f.degree)), key=_label_sort_key))

    @property
    def ns_trace(self) -> int:
        """Frobenius trace on the algebraic lattice: the generic fiber and
        zero-section classes plus the extra fiber components."""
        return 2 + sum(f.tau for f in self.fibers)


def _label_sort_key(label: str):
    return (label.endswith("*"), -fiber_euler(label), label)


def scan(family: WeierstrassFamily, p: int) -> ScanReport:
    """Classify every singular fiber of the family over F_p."""
    if not is_prime(p) or p < 5:
        raise BadReductionError(f"need a prime p >= 5, got {p}")
    if p in family.bad_primes:
        raise BadReductionError(f"p={p} is a bad prime for {family.name}")
    fibers, minimal = _classify_chart(family, p, "zero")
    fibers_inf, minimal_inf = _classify_chart(family, p, "inf")
    fibers += fibers_inf
    total = sum(f.euler * f.degree for f in fibers)
    return ScanReport(family.name, p, tuple(fibers), total,
                      {**minimal, **minimal_inf})


def eigenspace_counts(config) -> tuple:
    """Eigenspace dimensions (n_plus, n_minus) of the algebraic lattice of
    an extremal semistable fibration with fibers I_{n_1}, ..., I_{n_k}.

    The hyperplane-type classes (general fiber and zero section) land in the
    plus part; each I_n fiber contributes floor(n/2) resp. floor((n-1)/2)
    classes split between the two parts.
    """
    n_plus, n_minus = 2, 0
    for label in config:
        if not (label.startswith("I") and not label.endswith("*")):
            raise ValueError(f"semistable configuration expected, got {label}")
        n = int(label[1:])
        n_plus, n_minus = n_plus + n // 2, n_minus + (n - 1) // 2
    return n_plus, n_minus


def ns_report(name: str) -> dict:
    """Cross-check of the stored Galois decomposition of the algebraic
    lattice against the fiber-configuration count."""
    family = preset(name)
    if family.ns_data is None:
        raise ValueError(f"{name} has no stored lattice decomposition")
    (np1, np2), (nm1, nm2) = family.ns_data.counts()
    n_plus, n_minus = eigenspace_counts(family.expected_config)
    return {
        "family": name,
        "plus": {"trivial": np1, "nontrivial": np2, "total": np1 + np2},
        "minus": {"trivial": nm1, "nontrivial": nm2, "total": nm1 + nm2},
        "config_plus": n_plus,
        "config_minus": n_minus,
        "counts_match": (np1 + np2, nm1 + nm2) == (n_plus, n_minus),
        "rank": family.ns_data.total_rank,
    }
