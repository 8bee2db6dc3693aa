import json
import random
from fractions import Fraction

import pytest
import sympy
from sympy import Poly, Rational, cancel, fraction, together
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor_sqf, gf_from_int_poly, gf_sqf_p

from helpers import as_sympy, legendre_symbol, sympy_family, t
from modk3 import kodaira
from modk3.arith import VerificationError
from modk3.cli import SCAN_NOTES, run
from modk3.counting import good_primes
from modk3.families import FAMILY_NAMES, preset, weierstrass_invariants
from modk3.kodaira import (BadReductionError, FiberReport, ScanReport,
                           _classify, _irreducible_factors, _tau,
                           fiber_euler, integral_model,
                           eigenspace_counts, ns_report, scan)
from modk3.zpoly import ZPoly

EXPECTED = {
    "g4_legendre": ["I4"] * 6,
    "g62": ["I6"] * 3 + ["I2"] * 3,
    "g82": ["I8"] * 2 + ["I2"] * 4,
    "g8_412": ["I8"] + ["I4"] * 3 + ["I2"] * 2,
    "e1_7": ["I7"] * 3 + ["I1"] * 3,
    "e1_8": ["I8", "I8", "I4", "I2", "I1", "I1"],
    "e1_6": ["I6", "I3", "I2", "I1"],
    "e1_4": ["I4", "I1", "I1*"],
    "x0_12": ["I12", "I4", "I3", "I3", "I1", "I1"],
}


def good_primes_for(name, count=3):
    fam = preset(name)
    out = []
    p = 5
    while len(out) < count:
        if all(p % q for q in range(2, p)) and p not in fam.bad_primes:
            out.append(p)
        p += 2
    return out


def test_classification_table():
    assert _classify(0, 5)[:2] == ("I5", 5)
    assert _classify(2, 7)[:2] == ("I1*", 7)
    assert _classify(1, 2)[:2] == ("II", 2)
    assert _classify(1, 3)[:2] == ("III", 3)
    assert _classify(2, 4)[:2] == ("IV", 4)
    assert _classify(2, 6)[:2] == ("I0*", 6)
    assert _classify(10 ** 9, 6)[:2] == ("I0*", 6)  # c4 = 0
    assert _classify(3, 8)[:2] == ("IV*", 8)
    assert _classify(3, 9)[:2] == ("III*", 9)
    assert _classify(4, 10)[:2] == ("II*", 10)
    # non-minimal input is shifted before classification
    assert _classify(4, 12) == ("good", 0, 1)
    assert _classify(4, 17) == ("I5", 5, 1)
    assert _classify(9, 30) == ("I0*", 6, 2)


def test_shift_count_needs_no_c6_valuation():
    # 1728 Delta = c4^3 - c6^2 allows exactly the v6 with
    # 2 v6 >= min(3 v4, vd), equal when 3 v4 != vd; for each of them the
    # Tate shift count min(v4 // 4, v6 // 6, vd // 12) is _classify's k
    cases = 0
    for v4 in range(41):
        for vd in range(81):
            for v6 in range(121):
                low = min(3 * v4, vd)
                if 2 * v6 < low or (3 * v4 != vd and 2 * v6 != low):
                    continue
                assert (min(v4 // 4, v6 // 6, vd // 12)
                        == _classify(v4, vd)[2]), (v4, v6, vd)
                cases += 1
    assert cases > 1000


def test_tau_table():
    # n - 1 components fixed when split; when not, the involution on the
    # chain fixes one component iff n is even; nothing for other fibers
    for n in range(1, 13):
        assert _tau(n, True) == n - 1
        assert _tau(n, False) == (1 if n % 2 == 0 else 0)
        assert _tau(n, None) == 0


#: (class g, label, Euler number, k) of each class of zeros of Delta with
#: equal (v(c4), v(Delta)) on each chart's model: the places before the
#: split over Q, kept as reference data for PLACES
CLASSES = {
    ("g4_legendre", "zero"): [((1, 0, 0, 0, -1), "I4", 4, 0),
                              ((1, 0), "I4", 4, 1)],
    ("g4_legendre", "inf"): [((1, 0), "I4", 4, 1)],
    ("e1_4", "zero"): [((16, -1), "I1", 1, 0), ((1, 0), "I4", 4, 0)],
    ("e1_4", "inf"): [((1, 0), "I1*", 7, 0)],
    ("e1_6", "zero"): [((9, -10), "I1", 1, 0), ((1, -2), "I3", 3, 0),
                       ((1, -1), "I6", 6, 0)],
    ("e1_6", "inf"): [((1, 0), "I2", 2, 1)],
    ("e1_7", "zero"): [((1, -8, 5, 1), "I1", 1, 0), ((1, -1, 0), "I7", 7, 0)],
    ("e1_7", "inf"): [((1, 0), "I7", 7, 1)],
    ("e1_8", "zero"): [((8, -8, 1), "I1", 1, 0), ((2, -1), "I4", 4, 0),
                       ((1, -1, 0), "I8", 8, 0)],
    ("e1_8", "inf"): [((1, 0), "I2", 2, 1)],
    ("g62", "zero"): [((1, 0), "I2", 2, 0), ((1, 0, -1), "I6", 6, 0),
                      ((1, 0, -9), "I2", 2, 1)],
    ("g62", "inf"): [((1, 0), "I6", 6, 0)],
    ("g82", "zero"): [((1, 0, 1), "I2", 2, 0), ((1, 0, -1), "I8", 8, 0),
                      ((1, 0), "I2", 2, 3)],
    ("g82", "inf"): [((1, 0), "I2", 2, 3)],
    ("g8_412", "zero"): [((8, -8, 1), "I2", 2, 0), ((1, -1, 0), "I4", 4, 0),
                         ((2, -1), "I8", 8, 0)],
    ("g8_412", "inf"): [((1, 0), "I4", 4, 4)],
    ("x0_12", "zero"): [((9, 0, -1), "I1", 1, 0), ((1, 0, -1), "I3", 3, 0),
                        ((1, 0), "I12", 12, 0)],
    ("x0_12", "inf"): [((1, 0), "I4", 4, 2)],
}

#: (place h, label, Euler number, k) of every place of each chart's model:
#: each class split over Q into its linear factors and their cofactor
PLACES = {
    ("g4_legendre", "zero"): [((1, -1), "I4", 4, 0), ((1, 1), "I4", 4, 0),
                              ((1, 0, 1), "I4", 4, 0), ((1, 0), "I4", 4, 1)],
    ("g4_legendre", "inf"): [((1, 0), "I4", 4, 1)],
    ("e1_4", "zero"): [((16, -1), "I1", 1, 0), ((1, 0), "I4", 4, 0)],
    ("e1_4", "inf"): [((1, 0), "I1*", 7, 0)],
    ("e1_6", "zero"): [((9, -10), "I1", 1, 0), ((1, -2), "I3", 3, 0),
                       ((1, -1), "I6", 6, 0)],
    ("e1_6", "inf"): [((1, 0), "I2", 2, 1)],
    ("e1_7", "zero"): [((1, -8, 5, 1), "I1", 1, 0), ((1, 0), "I7", 7, 0),
                       ((1, -1), "I7", 7, 0)],
    ("e1_7", "inf"): [((1, 0), "I7", 7, 1)],
    ("e1_8", "zero"): [((8, -8, 1), "I1", 1, 0), ((2, -1), "I4", 4, 0),
                       ((1, 0), "I8", 8, 0), ((1, -1), "I8", 8, 0)],
    ("e1_8", "inf"): [((1, 0), "I2", 2, 1)],
    ("g62", "zero"): [((1, 0), "I2", 2, 0), ((1, -1), "I6", 6, 0),
                      ((1, 1), "I6", 6, 0), ((1, -3), "I2", 2, 1),
                      ((1, 3), "I2", 2, 1)],
    ("g62", "inf"): [((1, 0), "I6", 6, 0)],
    ("g82", "zero"): [((1, 0, 1), "I2", 2, 0), ((1, -1), "I8", 8, 0),
                      ((1, 1), "I8", 8, 0), ((1, 0), "I2", 2, 3)],
    ("g82", "inf"): [((1, 0), "I2", 2, 3)],
    ("g8_412", "zero"): [((8, -8, 1), "I2", 2, 0), ((1, 0), "I4", 4, 0),
                         ((1, -1), "I4", 4, 0), ((2, -1), "I8", 8, 0)],
    ("g8_412", "inf"): [((1, 0), "I4", 4, 4)],
    ("x0_12", "zero"): [((3, -1), "I1", 1, 0), ((3, 1), "I1", 1, 0),
                        ((1, -1), "I3", 3, 0), ((1, 1), "I3", 3, 0),
                        ((1, 0), "I12", 12, 0)],
    ("x0_12", "inf"): [((1, 0), "I4", 4, 2)],
}


def test_places_of_every_chart():
    # the pinned places; the pieces of each (label, k) multiply back to
    # the class; each stored remainder R of q = c4 / h^(4k) (resp. c6)
    # has deg R < deg h and lc(h)^e q = R mod h over Z
    for (name, chart), places in PLACES.items():
        model = integral_model(preset(name), chart)
        assert [(tuple(h), label, euler, k) for h, label, euler, k, *_
                in model.places] == places, (name, chart)
        for g, label, _, k in CLASSES[name, chart]:
            product = ZPoly((1,))
            for h, *rest in model.places:
                if (rest[0], rest[2]) == (label, k):
                    product *= h
            assert product == g, (name, chart, label, k)
        c4, c6 = model.invariants[:2]
        for h, _, _, k, derivative, (r4, e4), (r6, e6) in model.places:
            assert derivative == h.derivative()
            for f, w, r, e in ((c4, 4, r4, e4), (c6, 6, r6, e6)):
                assert len(r) < len(h), (name, chart, h)
                (ZPoly(f).exquo(h ** (w * k)) * h[0] ** e - r).exquo(h)
    assert len(PLACES) == len(CLASSES) == 2 * len(FAMILY_NAMES)


def test_no_place_of_degree_two_or_more_has_a_rational_root():
    # by the rational root test, a root a / b has b | lc(h) and a | h(0)
    for name, chart in PLACES:
        for h, *_ in integral_model(preset(name), chart).places:
            if len(h) < 3:
                continue
            assert h[-1], (name, h)
            for b in range(1, abs(h[0]) + 1):
                for a in range(-abs(h[-1]), abs(h[-1]) + 1):
                    if a and h[0] % b == 0 and h[-1] % a == 0:
                        x, value = Fraction(a, b), Fraction(0)
                        for c in h:
                            value = value * x + c
                        assert value, (name, h, x)


def test_rational_places_are_split_without_powmod(monkeypatch):
    # every place of a family but e1_7's cubic is linear or quadratic over
    # Q, so its scans take no powmod and no root split; e1_7 is the
    # negative control
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was split mod p")

    monkeypatch.setattr(kodaira, "_powmod", refuse)
    monkeypatch.setattr(kodaira, "_roots", refuse)
    for name in FAMILY_NAMES:
        fam = preset(name)
        for p in good_primes(fam, 5, 500):
            if name == "e1_7":
                with pytest.raises(AssertionError):
                    scan(fam, p)
            else:
                scan(fam, p)


def test_fiber_euler_numbers():
    assert fiber_euler("I7") == 7
    assert fiber_euler("I0*") == 6
    assert fiber_euler("I3*") == 9
    assert fiber_euler("II*") == 10
    assert fiber_euler("good") == 0


def test_integral_models_have_integer_coefficients():
    for name in ("g4_legendre", "g82", "e1_8"):
        m = integral_model(preset(name), "zero")
        for a in m.a_polys:
            assert all(type(c) is int for c in a) and a[:1] != (0,)


def test_reduced_invariants_match_per_prime_computation():
    # the invariants over Z[t], reduced mod p, against b/c/Delta computed
    # from the a-polynomials reduced mod p
    for name in FAMILY_NAMES:
        fam = preset(name)
        primes = good_primes(fam, 5, 499)
        for p in (primes[0], primes[len(primes) // 2], primes[-1]):
            for chart in ("zero", "inf"):
                model = integral_model(fam, chart)
                reduced = [gf_from_int_poly(list(f), p)
                           for f in model.invariants]
                a_polys = [Poly.from_list(list(a) or [0],
                                          sympy.symbols(model.var), modulus=p)
                           for a in model.a_polys]
                per_prime = [gf_from_int_poly([int(c) for c in f.all_coeffs()], p)
                             for f in weierstrass_invariants(*a_polys)[4:]]
                assert reduced == per_prime, (name, p, chart)


def _oracle_integral_model(family, chart):
    """The Expr ``cancel``/``expand`` construction of the integral model:
    (var, a_polys, invariants), a_polys as integer coefficient tuples."""
    if chart == "zero":
        var, exprs = t, as_sympy(family)
    else:
        var = sympy.symbols("s")
        exprs = tuple(cancel(a.subs(t, 1 / var)) for a in as_sympy(family))
    dens = [fraction(together(cancel(e)))[1] for e in exprs]
    u = Poly(1, var)
    for d in dens:
        u = u.lcm(Poly(d, var))
    u = u.as_expr()
    a_polys = [sympy.expand(cancel(e * u ** w))
               for e, w in zip(exprs, (1, 2, 3, 4, 6))]
    c = int(sympy.ilcm(1, *(Rational(x).q for ap in a_polys
                            for x in Poly(ap, var).all_coeffs())))
    a_polys = [sympy.expand(ap * c ** w)
               for ap, w in zip(a_polys, (1, 2, 3, 4, 6))]
    invariants = tuple(tuple(int(x) for x in f.all_coeffs())
                       for f in weierstrass_invariants(
                           *(Poly(ap, var) for ap in a_polys))[4:])
    a_polys = tuple(tuple(int(x) for x in Poly(ap, var).all_coeffs())
                    if ap != 0 else () for ap in a_polys)
    return str(var), a_polys, invariants


def test_integral_model_matches_expr_construction():
    for name in FAMILY_NAMES:
        fam = preset(name)
        for chart in ("zero", "inf"):
            model = integral_model(fam, chart)
            var, a_polys, invariants = _oracle_integral_model(fam, chart)
            assert model.var == var, (name, chart)
            assert model.a_polys == a_polys, (name, chart)
            assert model.invariants == invariants, (name, chart)


def _legendre(lam, level_primes=frozenset()):
    """y^2 = x (x - 1) (x - lam)."""
    return sympy_family(f"legendre({lam})", (0, -(1 + lam), 0, lam, 0),
                        ("I2",) * 6, level_primes)


def test_deterministic_split_matches_gf_factor_sqf():
    # squarefree polynomials of degree <= 8: half of them products of
    # distinct linear factors, so that the root splitter has work, half
    # random; compared with sympy where the part without roots has degree
    # <= 3, as at every place, and refused where it is larger
    rng = random.Random(11)
    for p in (5, 97, 2203, 100003):
        done = refused = 0
        while done < 40:
            if done % 2:
                g = [rng.randrange(p) for _ in range(rng.randint(2, 9))]
                g = gf_from_int_poly(g, p)
            else:
                g = [1]
                for r in rng.sample(range(p), rng.randint(1, min(8, p))):
                    g = Poly.from_list(g, t) * Poly(t - r, t)
                    g = gf_from_int_poly([int(c) for c in g.all_coeffs()], p)
            if len(g) < 2 or not gf_sqf_p(g, p, ZZ):
                continue
            expected = gf_factor_sqf(g, p, ZZ)[1]
            if sum(len(f) - 1 for f in expected if len(f) > 2) > 3:
                with pytest.raises(VerificationError) as exc:
                    _irreducible_factors(ZPoly(g), p)
                assert exc.value.identity == (
                    "a place without roots mod p has degree <= 3"), (g, p)
                refused += 1
                continue
            factors = [list(f) for f in _irreducible_factors(ZPoly(g), p)]
            assert factors == expected, (g, p)
            done += 1
        assert refused, p
    # (t^2 + 1)(t^2 + 2): a quartic without roots mod 7, reducible
    with pytest.raises(VerificationError, match="without roots"):
        _irreducible_factors(ZPoly((1, 0, 3, 0, 2)), 7)


def test_exceptional_prime_outside_the_bad_primes_raises():
    # 5t - 1 loses its leading coefficient mod 5; the roots 0 and 5 of
    # t (t - 5) meet mod 5
    for fam in (_legendre(5 * t), _legendre(t * (t - 5))):
        with pytest.raises(VerificationError) as exc:
            integral_model(fam, "zero")
        assert 5 in exc.value.observed, fam.name
    # the first is accepted once 5 is a level prime
    assert integral_model(_legendre(5 * t, frozenset({5})), "zero").places


# ---- the sympy Poly(modulus=p) classification, kept as the oracle ----------

def _oracle_valuation(poly, pi):
    if poly.is_zero:
        raise BadReductionError("identically vanishing invariant")
    v = 0
    while True:
        q, r = sympy.div(poly, pi, poly.gens[0])
        if not r.is_zero:
            return v
        poly, v = q, v + 1


def _oracle_minimal_value(poly, pi, shift, root, p):
    for _ in range(shift):
        poly, rem = sympy.div(poly, pi, poly.gens[0])
        assert rem.is_zero
    return int(poly.eval(root)) % p


def _oracle_classify_place(pi, c4, c6, vd, p, place_name):
    v4 = _oracle_valuation(c4, pi) if not c4.is_zero else 10 ** 9
    label, vdm, k = _classify(v4, vd)
    degree = pi.degree()
    split, minimal, tau = None, None, 0
    if degree == 1:
        lead = int(pi.LC()) % p
        root = (-int(pi.all_coeffs()[-1]) * pow(lead, -1, p)) % p
        c4_val = _oracle_minimal_value(c4, pi, 4 * k, root, p)
        c6_val = _oracle_minimal_value(c6, pi, 6 * k, root, p)
        minimal = root, (c4_val, c6_val)
        if label.startswith("I") and not label.endswith("*"):
            assert c6_val != 0
            split = legendre_symbol(-c6_val % p, p) == 1
            tau = vdm - 1 if split else 1 - vdm % 2
    return FiberReport(place_name, degree, label, vdm, split, tau), minimal


def _oracle_classify_chart(family, p, chart):
    model = integral_model(family, chart)
    var = sympy.symbols(model.var)
    c4, c6, disc = (Poly.from_list(f, var, modulus=p)
                    for f in model.invariants)
    if chart == "zero":
        places = sorted(disc.factor_list()[1],
                        key=lambda f: (f[0].degree(), f[0].all_coeffs()))
    else:
        s = Poly(var, var, modulus=p)
        places = [(s, _oracle_valuation(disc, s))]
    fibers, minimal = [], {}
    for pi, vd in places:
        name = str(pi.as_expr()) if chart == "zero" else "inf"
        fiber, values = _oracle_classify_place(pi, c4, c6, vd, p, name)
        if fiber.label != "good":
            fibers.append(fiber)
        if values is not None:
            root, c4c6 = values
            minimal[root if chart == "zero" else "inf"] = c4c6
    return fibers, minimal


def _assert_scan_matches_oracle(fam, p):
    fibers, minimal = _oracle_classify_chart(fam, p, "zero")
    fibers_inf, minimal_inf = _oracle_classify_chart(fam, p, "inf")
    rep = scan(fam, p)
    assert rep.fibers == tuple(fibers + fibers_inf), (fam.name, p)
    assert rep.minimal_values == {**minimal, **minimal_inf}, (fam.name, p)


def test_scan_matches_sympy_oracle():
    # every family at every good p <= 97 and three random good p in 101-2200
    rng = random.Random(20260)
    for name in FAMILY_NAMES:
        fam = preset(name)
        large = rng.sample(good_primes(fam, 101, 2200), 3)
        for p in good_primes(fam, 5, 97) + large:
            _assert_scan_matches_oracle(fam, p)


def test_scan_matches_sympy_oracle_at_non_minimal_places():
    # g4 in the model rescaled by u = (2t + 1)(t^2 + t + 1): good places
    # with k = 1 at a non-monic linear and at a quadratic factor, where the
    # minimal values carry g'(root)^(4k) and g'(root)^(6k); the primes
    # where u meets the other places over Q are declared bad.  The t-chart
    # only: the oracle's s-chart takes over a second per prime here
    fam = preset("g4_legendre")
    u = (2 * t + 1) * (t ** 2 + t + 1)
    rescaled = sympy_family(
        "g4_rescaled", tuple(a * u ** w for a, w in
                             zip(as_sympy(fam), (1, 2, 3, 4, 6))),
        fam.expected_config, {2, 5, 7, 13, 17, 37, 41})
    for p in good_primes(rescaled, 5, 100):
        fibers, minimal = _oracle_classify_chart(rescaled, p, "zero")
        rep = scan(rescaled, p)
        assert tuple(f for f in rep.fibers
                     if f.place != "inf") == tuple(fibers), p
        assert {r: v for r, v in rep.minimal_values.items()
                if r != "inf"} == minimal, p
        assert rep.fibers == scan(fam, p).fibers, p


def test_good_places_ask_only_the_discriminant_resultant():
    # g4 rescaled by u = 2t + 1: c4 / u^4 or c6 / u^6 vanishes at the good
    # place t = -1/2 mod 7, 13, 17, 37 and 41, which changes neither a
    # label nor a minimal value; Delta's other places meet it only mod 5
    fam = preset("g4_legendre")
    u = 2 * t + 1
    ai = tuple(a * u ** w for a, w in zip(as_sympy(fam), (1, 2, 3, 4, 6)))
    with pytest.raises(VerificationError) as exc:
        integral_model(sympy_family("g4_u", ai, fam.expected_config,
                                    fam.level_primes), "zero")
    assert exc.value.observed == [5]
    rescaled = sympy_family("g4_u", ai, fam.expected_config, {2, 5})
    for p in (7, 11, 13, 17, 19, 37, 41):
        fibers, minimal = _oracle_classify_chart(rescaled, p, "zero")
        rep = scan(rescaled, p)
        assert tuple(f for f in rep.fibers
                     if f.place != "inf") == tuple(fibers), p
        assert {r: v for r, v in rep.minimal_values.items()
                if r != "inf"} == minimal, p


@pytest.mark.slow
def test_scan_matches_sympy_oracle_to_2200():
    for name in FAMILY_NAMES:
        fam = preset(name)
        for p in good_primes(fam, 5, 2200):
            _assert_scan_matches_oracle(fam, p)


@pytest.mark.slow
def test_scan_matches_sympy_oracle_at_100003():
    for name in FAMILY_NAMES:
        _assert_scan_matches_oracle(preset(name), 100003)


def test_all_configurations_match_and_are_prime_independent():
    for name, cfg in EXPECTED.items():
        fam = preset(name)
        seen = set()
        for p in good_primes_for(name):
            rep = scan(fam, p)
            assert sorted(rep.config) == sorted(cfg), (name, p)
            assert rep.euler_ok, (name, p)
            seen.add(rep.config)
        assert len(seen) == 1, name


def test_euler_totals():
    for name, total in (("g4_legendre", 24), ("e1_6", 12), ("e1_4", 12),
                        ("x0_12", 24)):
        config = preset(name).expected_config
        assert sum(fiber_euler(label) for label in config) == total, name


def test_euler_audit_is_noethers_formula():
    # e = 12 chi(O): 12 for a rational surface, 24 for a K3; a scan that
    # read g82's two I8 and four I2 as 8 + 8 + 2 * 4 + 6 = 30 fails it
    rep = scan(preset("g82"), 13)
    assert rep.euler_ok and rep.euler_total == 24
    for total, ok in ((30, False), (12, True), (24, True), (0, False),
                      (36, False)):
        forged = ScanReport(rep.family, rep.p, rep.fibers, total,
                            rep.minimal_values)
        assert forged.euler_ok is ok, total


def test_bad_primes_rejected():
    with pytest.raises(BadReductionError):
        scan(preset("g4_legendre"), 2)
    with pytest.raises(BadReductionError):
        scan(preset("e1_7"), 7)
    with pytest.raises(BadReductionError):
        scan(preset("g62"), 9)


def test_split_multiplicative_detection():
    # split I_n contributes n-1 fixed components, nonsplit even n just one
    rep = scan(preset("g4_legendre"), 13)
    assert all(f.split is not None for f in rep.fibers)
    assert rep.ns_trace == 20
    rep7 = scan(preset("g4_legendre"), 7)
    assert rep7.ns_trace == 10


def test_discrepancy_note_for_g82(capsys):
    # g82's scan record carries the note, and no other family's does
    assert run(["surface", "scan", "--family", "g82", "--p", "13"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["euler_total"] == 24
    assert out["note"] == SCAN_NOTES["g82"]
    assert run(["surface", "scan", "--family", "g4", "--p", "13"]) == 0
    assert "note" not in json.loads(capsys.readouterr().out)


def test_eigenspace_counts_from_configurations():
    assert eigenspace_counts(EXPECTED["g4_legendre"]) == (14, 6)
    assert eigenspace_counts(EXPECTED["g62"]) == (14, 6)
    assert eigenspace_counts(EXPECTED["g82"]) == (14, 6)
    assert eigenspace_counts(EXPECTED["g8_412"]) == (14, 6)
    assert eigenspace_counts(EXPECTED["e1_7"]) == (11, 9)
    with pytest.raises(ValueError):
        eigenspace_counts(["I1*"])


def test_ns_reports_consistent():
    for name in ("g4_legendre", "g62", "g82", "g8_412"):
        r = ns_report(name)
        assert r["counts_match"], name
        assert r["rank"] == 20
        assert r["plus"]["total"] == 14 and r["minus"]["total"] == 6
    with pytest.raises(ValueError):
        ns_report("e1_7")
