"""Singular-fiber analysis of the elliptic families over F_p (p >= 5).

``integral_model`` clears each chart, t or s = 1/t (a_i(1/s) reverses the
numerator and denominator of a_i(t)), to Z[var] by an admissible
(x, y) -> (u^2 x, u^3 y), u the lcm of the denominators, and classifies its
places over Q once per family (Tate in residue characteristic >= 5): each
Q-irreducible factor g of Delta on the t-chart, s on the s-chart, with its
Kodaira type, k shifts by (4, 6, 12) and c4 / g^(4k), c6 / g^(6k) over Z.
A prime >= 5 dividing lc(g), disc(g) or the resultant of g with the part of
c4, c6 or Delta prime to g must be bad; at every other p the factors stay
squarefree, coprime and of the same valuations mod p.  Per prime, ``scan``
only finds their roots, the minimal (c4, c6) there by Horner and split or
non-split from the Legendre symbol of -c6.  The Euler audit
sum(v(Delta_min) * deg) = 24 (resp. 12) pins the expected configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import sympy
from sympy.polys.densearith import dup_div, dup_exquo, dup_pow
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_discriminant, dup_resultant
from sympy.polys.factortools import dup_factor_list
from sympy.polys.fields import field as fraction_field
from sympy.polys.galoistools import (gf_diff, gf_eval, gf_factor_sqf,
                                     gf_from_int_poly, gf_to_int_poly)

from .arith import VerificationError, is_prime, legendre_symbol, sqrt_mod
from .families import (WeierstrassFamily, preset, t,
                       weierstrass_invariants)

_FIELDS = {"zero": fraction_field(t, ZZ)[0], "inf": fraction_field("s", ZZ)[0]}


class BadReductionError(ValueError):
    pass


@dataclass(frozen=True)
class IntegralModel:
    """Polynomial Weierstrass model with integer coefficients on one chart."""

    var: sympy.Symbol
    a_polys: tuple
    chart: str
    #: (c4, c6, Delta) over Z[var] as integer coefficient tuples, leading first
    invariants: tuple
    #: (factor, label, euler, k, c4 / factor^(4k), c6 / factor^(6k)) over Z
    #: at each Q-irreducible factor of Delta (t-chart) or at s (s-chart)
    places: tuple


def _valuation(f: list, g: list) -> tuple:
    """(v, f / g^v), g^v the largest power dividing f over Z; 10^9 if f = 0."""
    v = 0
    while f:
        q, r = dup_div(f, g, ZZ)
        if r:
            return v, f
        f, v = q, v + 1
    return 10 ** 9, f


@lru_cache(maxsize=None)
def integral_model(family: WeierstrassFamily, chart: str = "zero") -> IntegralModel:
    if chart not in _FIELDS:
        raise ValueError(f"unknown chart {chart!r}")
    K = _FIELDS[chart]
    fractions = [_FIELDS["zero"].from_expr(a) for a in family.a_invariants]
    if chart == "inf":
        s, rev = K.ring.gens[0], lambda f: K.ring.from_list(f.to_dense()[::-1])
        fractions = [K.new(rev(a.numer) * s ** max(a.denom.degree(), 0),
                           rev(a.denom) * s ** max(a.numer.degree(), 0))
                     for a in fractions]
    u = reduce(lambda x, y: x.lcm(y), (a.denom for a in fractions))
    polys = [a.numer * (u ** w).exquo(a.denom)
             for a, w in zip(fractions, (1, 2, 3, 4, 6))]
    c4, c6, disc = (f.to_dense() for f in weierstrass_invariants(*polys)[4:])
    factors = ([g for g, _ in dup_factor_list(disc, ZZ)[1]]
               if chart == "zero" else [[1, 0]])
    places, exceptional = [], set()
    for g in factors:
        (v4, h4), (v6, h6), (vd, hd) = (_valuation(f, g)
                                        for f in (c4, c6, disc))
        label, euler, k = _classify(v4, v6, vd)
        places.append((tuple(g), label, euler, k, *(
            tuple(dup_exquo(f, dup_pow(g, w * k, ZZ), ZZ))
            for f, w in ((c4, 4), (c6, 6)))))
        # a collision of c4 or c6 with g mod p changes nothing at a place
        # that is good after the shifts: only Delta's is asked there
        rest = (hd,) if label == "good" else (h4, h6, hd)
        for n in [g[0], dup_discriminant(g, ZZ)] + [
                dup_resultant(g, h, ZZ) for h in rest if h]:
            exceptional.update(sympy.primefactors(n))
    if exceptional - family.bad_primes:
        raise VerificationError(
            "the places of Delta over Q reduce at every good prime",
            dict(family=family.name, chart=chart), sorted(family.bad_primes),
            sorted(exceptional - family.bad_primes))
    return IntegralModel(K.symbols[0], tuple(f.as_expr() for f in polys),
                         chart, tuple(tuple(f) for f in (c4, c6, disc)),
                         tuple(places))


def _classify(v4: int, v6: int, vd: int):
    """Kodaira type from minimal valuations (residue char >= 5).

    Returns (label, vd_min, k) where k is the number of (4, 6, 12) shifts
    needed to minimalize; vd_min is also the Euler contribution.
    """
    k = min(v4 // 4, v6 // 6, vd // 12)
    v4, v6, vd = v4 - 4 * k, v6 - 6 * k, vd - 12 * k
    if vd == 0:
        return "good", 0, k
    if v4 == 0:
        return f"I{vd}", vd, k
    if 3 * v4 < vd:
        return f"I{vd - 6}*", vd, k
    label = {2: "II", 3: "III", 4: "IV", 6: "I0*",
             8: "IV*", 9: "III*", 10: "II*"}[vd]
    return label, vd, k


def fiber_euler(label: str) -> int:
    fixed = {"good": 0, "II": 2, "III": 3, "IV": 4,
             "IV*": 8, "III*": 9, "II*": 10}
    if label in fixed:
        return fixed[label]
    if label.endswith("*"):  # I_n*
        return int(label[1:-1]) + 6
    return int(label[1:])


@dataclass(frozen=True)
class FiberReport:
    place: str       # "t^2+1", "t-3", "inf", ...
    degree: int
    label: str       # "I4", "I1*", ...
    euler: int
    split: object    # True/False for I_n at rational places, else None
    tau: int         # Frobenius trace on the non-identity components


def _tau(label: str, split, degree: int) -> int:
    """Trace of Frobenius on the non-identity fiber components."""
    if degree > 1 or not label.startswith("I") or label.endswith("*"):
        return 0
    n = int(label[1:])
    if split:
        return n - 1
    # nonsplit: the involution on the I_n chain fixes one component
    # iff the chain length n-1 is odd
    return 1 if n % 2 == 0 else 0


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


def _classify_chart(family: WeierstrassFamily, p: int, chart: str):
    """The bad fibers of one chart over F_p, ordered by the symmetric
    coefficients of their monic factors, and the minimal (c4, c6) at each
    rational zero of Delta (keyed by the root; "inf" for s = 0)."""
    model = integral_model(family, chart)
    var, fibers, minimal = str(model.var), [], {}
    for factor, label, euler, k, q4, q6 in model.places:
        g = gf_from_int_poly(list(factor), p)
        # g is squarefree mod p: its discriminant is a unit
        inverse = pow(g[0], -1, p)
        monic = [c * inverse % p for c in g]
        if len(g) == 3 and (r := sqrt_mod(monic[1] ** 2 - 4 * monic[2],
                                          p)) is not None:
            # t^2 + b t + c = (t + (b + r)/2)(t + (b - r)/2), r^2 = b^2 - 4c
            factors = [[1, (monic[1] + s) * (p + 1) // 2 % p] for s in (r, -r)]
        elif len(g) <= 3:  # linear, or an irreducible quadratic
            factors = [monic]
        else:
            factors = gf_factor_sqf(g, p, ZZ)[1]
        for pi in factors:
            coeffs, degree, split = gf_to_int_poly(pi, p), len(pi) - 1, None
            name = _place_name(coeffs, var) if chart == "zero" else "inf"
            if degree == 1:
                # the minimal model divides by pi^k: (g / pi)(root) = g'(root)
                root = -pi[1] % p
                w = pow(gf_eval(gf_diff(g, p, ZZ), root, p, ZZ), k, p)
                c4, c6 = (gf_eval(q, root, p, ZZ) * w ** e % p
                          for q, e in ((q4, 4), (q6, 6)))
                minimal[root if chart == "zero" else "inf"] = c4, c6
                if label.startswith("I") and not label.endswith("*"):
                    # I_n is split iff -c6 is a square at the place; c6 is
                    # a unit there once the model is minimalized
                    if c6 == 0:
                        raise VerificationError(
                            "minimal c6 is a unit at a multiplicative place",
                            dict(family=family.name, p=p, place=name),
                            "c6 != 0", 0)
                    split = legendre_symbol(-c6 % p, p) == 1
            if label != "good":
                fibers.append(((degree, coeffs), FiberReport(
                    name, degree, label, euler, split,
                    _tau(label, split, degree))))
    return [f for _, f in sorted(fibers, key=lambda x: x[0])], minimal


@dataclass(frozen=True)
class ScanReport:
    family: str
    p: int
    fibers: tuple
    euler_total: int
    euler_expected: int
    #: (c4, c6) of the t-chart model as coefficient tuples mod p, leading
    #: coefficient first
    t_chart_c4_c6: tuple = field(compare=False, repr=False)
    #: (c4, c6) mod p of the minimal model at every rational zero t0 of the
    #: discriminant (key t0), good or bad, and at infinity (key "inf")
    minimal_values: dict = field(compare=False, repr=False)

    @property
    def euler_ok(self) -> bool:
        return self.euler_total == self.euler_expected

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


def expected_euler(family: WeierstrassFamily) -> int:
    return sum(fiber_euler(lab) for lab in family.expected_config)


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
    c4_c6 = tuple(tuple(gf_from_int_poly(list(f), p))
                  for f in integral_model(family, "zero").invariants[:2])
    return ScanReport(family.name, p, tuple(fibers), total,
                      expected_euler(family), c4_c6,
                      {**minimal, **minimal_inf})


def config_vs_expected(family: WeierstrassFamily, p: int,
                       report: ScanReport = None) -> dict:
    """Compare the scanned fiber configuration against the stored one;
    ``report`` is a scan of (family, p) already made, if any."""
    if report is None:
        report = scan(family, p)
    expected = tuple(sorted(family.expected_config, key=_label_sort_key))
    out = {
        "family": family.name,
        "p": p,
        "config": list(report.config),
        "expected": list(expected),
        "match": report.config == expected,
        "euler_total": report.euler_total,
        "euler_ok": report.euler_ok,
    }
    if family.name == "g82":
        # the stored configuration comes from the lattice data; a naive
        # 8+8+2*4+6 = 30 reading of two I8 + four I2 + extra fibers is
        # incompatible with the Euler number 24, which the scan confirms
        out["note"] = ("configuration fixed by the Euler-number audit; "
                       "any larger reading would overflow e = 24")
    return out


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
