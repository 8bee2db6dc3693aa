import random

from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_discriminant, dup_gcd, dup_resultant

from modk3.zpoly import ZPoly


def random_poly(rng, degree, bound=30):
    return ZPoly(rng.randint(-bound, bound) for _ in range(degree + 1))


def test_ring_operations():
    f, g = ZPoly((2, 0, -1)), ZPoly((1, 3))
    assert f + g == (2, 1, 2) and g - 1 == (1, 2) and -f == (-2, 0, 1)
    assert f * g == (2, 6, -1, -3) and 3 * g == (3, 9) and f - f == ()
    assert g ** 3 == g * g * g and g ** 0 == (1,)
    assert (f * g).exquo(g) == f and ZPoly(()).exquo(g) == ()
    assert ZPoly((0, 0, 4, 6)).content() == 2 and ZPoly((-4, 6)).content() == -2
    assert ZPoly((-4, 6)).primitive() == (2, -3)
    assert f.derivative() == (4, 0)


def test_exact_division_refuses_a_remainder():
    for f, g in (((1, 0, 1), (1, 1)), ((1, 1), (2, 1)), ((1,), (1, 0))):
        try:
            ZPoly(f).exquo(ZPoly(g))
        except ArithmeticError:
            continue
        raise AssertionError((f, g))


def test_gcd_resultant_discriminant_match_sympy():
    rng = random.Random(7)
    for _ in range(400):
        f, g = (random_poly(rng, rng.randint(0, 7)) for _ in range(2))
        if rng.random() < 0.4:
            h = random_poly(rng, rng.randint(1, 3), 5)
            f, g = f * h, rng.choice((1, 6)) * g * h
        F, G = list(f), list(g)
        assert f.gcd(g) == tuple(dup_gcd(F, G, ZZ)), (f, g)
        m, n = f.degree, g.degree
        if m >= n:
            assert f.resultant(g) == dup_resultant(F, G, ZZ), (f, g)
        # Res(f, g) = (-1)^(mn) Res(g, f)
        assert f.resultant(g) == (-1) ** (m * n) * g.resultant(f), (f, g)
        if m >= 1:
            assert f.discriminant() == dup_discriminant(F, ZZ), f
