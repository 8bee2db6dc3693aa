import random
from fractions import Fraction

import pytest

import sympy

from helpers import (SpecializationError, WeierstrassCurve, add_points,
                     fibred_product_identity, integer_data, multiply_point,
                     negate_point, parameter_map, specialize, t,
                     tate_multiples, torsion_order, two_isogeny_quotient)
from modk3.families import FAMILY_NAMES, SingularCurveError, preset


def sympy_presets() -> dict:
    """Each preset's (a1, a2, a3, a4, a6) as the sympy expressions in t
    that the integer data was expanded from."""
    lam = (t + 1 / t) ** 2 / 4
    a8 = (-2 * t ** 2 + 4 * t - 1) / t
    b8 = -2 * t ** 2 + 3 * t - 1
    a62 = (2 * t ** 2 - 10) / (t ** 2 - 9)
    b62 = -(a62 - 1) * (a62 - 2)
    q = 8 * t ** 4 - 16 * t ** 3 + 16 * t ** 2 - 8 * t + 1
    b12 = -t ** 2 * (t ** 2 - 1)
    presets = {
        "g4_legendre": (0, -(1 + lam), 0, lam, 0),
        "e1_4": (1, t, t, 0, 0),
        "e1_6": (t, -(t - 1) * (t - 2), -(t - 1) * (t - 2), 0, 0),
        "e1_7": (1 + t - t ** 2, t ** 2 - t ** 3, t ** 2 - t ** 3, 0, 0),
        "e1_8": (a8, b8, b8, 0, 0),
        "g62": (a62, b62, b62, 0, 0),
        "g82": (0, 2 + (t + 1 / t) ** 2 / 2, 0, (t - 1 / t) ** 4 / 16, 0),
        "g8_412": (0, -2 * q, 0,
                   (8 * t ** 2 - 8 * t + 1) * (2 * t - 1) ** 4, 0),
        "x0_12": (t ** 2 + 1, b12, b12, 0, 0),
    }
    return {name: tuple(sympy.sympify(a) for a in ai)
            for name, ai in presets.items()}


def test_integer_presets_are_the_cancelled_sympy_expressions():
    presets = sympy_presets()
    assert set(presets) == set(FAMILY_NAMES)
    for name, exprs in presets.items():
        assert preset(name).a_invariants == integer_data(exprs), name


def random_curve(rng, p):
    while True:
        E = WeierstrassCurve(rng.randrange(p), rng.randrange(p),
                             rng.randrange(p), rng.randrange(p),
                             rng.randrange(p), p=p)
        if not E._is_zero(E.discriminant()):
            return E


def random_point(rng, E):
    p = E.p
    while True:
        x = rng.randrange(p)
        for y in range(p):
            if E.is_on_curve((x, y)):
                return (x, y)


def test_invariant_syzygy_random():
    rng = random.Random(5)
    for _ in range(30):
        p = rng.choice([5, 7, 11, 13, 101])
        E = random_curve(rng, p)
        b2, b4, b6, b8, c4, c6, disc, j = E.invariants()
        assert (4 * b8 - b2 * b6 + b4 * b4) % p == 0
        assert (c4 ** 3 - c6 ** 2 - 1728 * disc) % p == 0
        assert (j * disc - c4 ** 3) % p == 0


def test_singular_curve_raises():
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0, 0, 0, 0, p=7).invariants()


def test_group_law_axioms_random():
    rng = random.Random(9)
    for _ in range(20):
        p = rng.choice([5, 7, 11, 13])
        E = random_curve(rng, p)
        P, Q, R = (random_point(rng, E) for _ in range(3))
        assert add_points(E, P, negate_point(E, P)) is None
        assert add_points(E, P, None) == P
        assert add_points(E, P, Q) == add_points(E, Q, P)
        assert add_points(E, add_points(E, P, Q), R) == add_points(
            E, P, add_points(E, Q, R))


def test_multiply_matches_repeated_addition():
    E = WeierstrassCurve(0, 0, 0, Fraction(-1), Fraction(0))
    P = (Fraction(0), Fraction(0))
    assert multiply_point(E, 2, P) is None  # 2-torsion point
    E7 = WeierstrassCurve(1, 2, 3, 4, 5, p=7)
    P = random_point(random.Random(1), E7)
    acc = None
    for n in range(1, 10):
        acc = add_points(E7, acc, P)
        assert multiply_point(E7, n, P) == acc


def test_torsion_sections():
    # each level-structure family carries (0,0) as a section of the stated
    # exact order, over Q and after good reduction
    expected = {"e1_4": 4, "e1_6": 6, "e1_7": 7, "e1_8": 8}
    for name, order in expected.items():
        fam = preset(name)
        E = specialize(fam, 5)
        assert torsion_order(E, (0, 0), bound=12) == order, name
        Ep = specialize(fam, 5, p=101)
        assert torsion_order(Ep, (0, 0), bound=12) == order, name


def test_tate_multiples_match_group_law():
    rng = random.Random(17)
    for _ in range(20):
        p = rng.choice([7, 11, 13, 101])
        a, b = rng.randrange(2, p), rng.randrange(1, p)
        E = WeierstrassCurve(a, b, b, 0, 0, p=p)
        if E._is_zero(E.discriminant()) or (1 - a) % p == 0:
            continue
        pts = tate_multiples(a, b, p=p)
        for n, key in ((1, "P"), (-1, "-P"), (2, "2P"), (-2, "-2P"),
                       (3, "3P"), (4, "4P")):
            assert multiply_point(E, n, (0, 0)) == pts[key], (n, a, b, p)


def test_two_isogeny_quotient_formula():
    lam = Fraction(1, 4)
    E = WeierstrassCurve(0, -(1 + lam), 0, lam, 0)
    Q = two_isogeny_quotient(E)
    assert Q.a2 == 2 * (1 + lam) and Q.a4 == (1 - lam) ** 2
    with pytest.raises(ValueError):
        two_isogeny_quotient(WeierstrassCurve(1, 0, 0, 1, 0))


def test_two_isogeny_preserves_counts():
    # quotienting by the rational 2-torsion point keeps #E(F_p)
    from modk3.counting import curve_count
    rng = random.Random(23)
    done = 0
    while done < 40:
        p = rng.choice([5, 7, 11, 13, 17])
        a, b = rng.randrange(p), rng.randrange(1, p)
        E = WeierstrassCurve(0, a, 0, b, 0, p=p)
        if E._is_zero(E.discriminant()):
            continue
        Q = two_isogeny_quotient(E)
        if Q._is_zero(Q.discriminant()):
            continue
        assert (curve_count(E.ainvs, E.p)
                == curve_count(Q.ainvs, Q.p)), (a, b, p)
        done += 1


def test_specialize_poles_and_infinity():
    g4 = preset("g4_legendre")
    # t = 0 is a pole of the raw coefficients but the cleared model exists
    E0 = specialize(g4, 0)
    with pytest.raises(SingularCurveError):
        E0.invariants()
    Einf = specialize(g4, "inf")
    with pytest.raises(SingularCurveError):
        Einf.invariants()
    # generic fibers are honest elliptic curves
    assert specialize(g4, 3).invariants()[6] != 0
    with pytest.raises(SpecializationError):
        specialize(g4, Fraction(1, 5), p=5)


def test_preset_catalog():
    assert set(FAMILY_NAMES) == {
        "g4_legendre", "e1_4", "e1_6", "e1_7", "e1_8",
        "g62", "g82", "g8_412", "x0_12"}
    for name in FAMILY_NAMES:
        fam = preset(name)
        assert len(fam.a_invariants) == 5
        assert 2 in fam.bad_primes and 3 in fam.bad_primes
    with pytest.raises(KeyError):
        preset("g5")


def test_ns_decompositions():
    for name, plus, minus in (("g4_legendre", (12, 2), (3, 3)),
                              ("g62", (14, 0), (6, 0)),
                              ("g82", (13, 1), (6, 0)),
                              ("g8_412", (13, 1), (5, 1))):
        ns = preset(name).ns_data
        assert ns.counts() == (plus, minus), name
        assert ns.total_rank == 20


def test_parameter_maps():
    assert parameter_map("u_to_a", 2) == 5
    assert parameter_map("xi_to_a", 1) == 1
    with pytest.raises(ZeroDivisionError):
        parameter_map("xi_to_a", 3)
    with pytest.raises(KeyError):
        parameter_map("bogus", 1)


def test_fibred_product_identity():
    assert fibred_product_identity()


def _evaluate(family, x: Fraction) -> list:
    """The family's a_i at t = x from its integer data."""
    def at(f):
        return sum(c * x ** (len(f) - 1 - i) for i, c in enumerate(f))
    return [at(n) / at(d) for n, d in family.a_invariants]


def test_g62_is_base_change_of_e1_6():
    # the degree-2 cover glues the level-6 family along xi -> a
    e16 = preset("e1_6")
    g62 = preset("g62")
    for xi in (Fraction(1), Fraction(2), Fraction(5, 2)):
        a = parameter_map("xi_to_a", xi)
        lhs = _evaluate(g62, xi)
        rhs = _evaluate(e16, Fraction(int(a.p), int(a.q)))
        assert lhs == rhs, xi
