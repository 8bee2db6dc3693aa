import random

import pytest
import sympy

from helpers import (QuadFieldElement, conjugate, legendre_symbol,
                     loop_norm_solutions, mul, norm, norm_equation_solutions,
                     sqrt_mod, unit_orbit)
from modk3 import arith
from modk3.arith import (FIELD_DISC, InvalidPrimeError, VerificationError,
                         is_fundamental_discriminant, is_prime,
                         kronecker_character, prime_factors, primes_up_to)

SUPPORTED_D = tuple(FIELD_DISC)


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n ** 0.5) + 1))


def test_is_prime_small_range():
    for n in range(-5, 2000):
        assert is_prime(n) == naive_is_prime(n), n
    # the sieve agrees with the test at every bound, including tiny ones
    for n in list(range(-2, 40)) + [1999, 2000]:
        assert primes_up_to(n) == [q for q in range(2, n + 1)
                                   if naive_is_prime(q)], n


def test_is_prime_large_values():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    # strong-pseudoprime classic
    assert not is_prime(3215031751)


def test_prime_factors_vs_sympy():
    # p - 1 for the generator search, and the resultants of kodaira with
    # the family's bad primes divided out
    for n in list(range(1, 3000)) + [2 ** 31 - 2, 100048, 2 * 3 * 10007 ** 2]:
        assert prime_factors(n) == set(sympy.primefactors(n)), n
        assert prime_factors(-n) == prime_factors(n), n
    assert prime_factors(-2 ** 5 * 3 * 5 ** 2 * 7, (2, 3)) == {5, 7}
    assert prime_factors(2 ** 9 * 3, (2, 3)) == set()
    assert prime_factors(0, (2, 3)) == {0}


def test_legendre_vs_euler():
    for p in (5, 7, 11, 13, 101):
        for a in range(2 * p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 0 if a % p == 0 else (1 if euler == 1 else -1)
            assert legendre_symbol(a, p) == expected


def test_fundamental_discriminants():
    fundamentals = [D for D in range(-50, 50) if is_fundamental_discriminant(D)]
    assert -4 in fundamentals and -3 in fundamentals and -8 in fundamentals
    assert -7 in fundamentals and 8 in fundamentals and 12 in fundamentals
    assert 24 in fundamentals and -24 in fundamentals
    for bad in (0, 2, 3, -12, -48, 16, 48):
        assert bad not in fundamentals, bad


def test_kronecker_matches_legendre_at_odd_primes():
    for D in (-3, -4, -7, -8, 8, 12, 24, -24):
        for p in (5, 7, 11, 13, 17, 97):
            if p == abs(D):
                continue
            assert kronecker_character(D, p) == legendre_symbol(D % p, p)


def test_kronecker_is_periodic_and_multiplicative():
    rng = random.Random(11)
    for D in (-3, -4, -8, 8, 12, -24):
        period = abs(D)
        for _ in range(50):
            n = rng.randrange(1, 10 ** 6)
            m = rng.randrange(1, 10 ** 6)
            assert (kronecker_character(D, n * m)
                    == kronecker_character(D, n) * kronecker_character(D, m))
            if n % 2 == 1 or D % 2 == 0:
                assert (kronecker_character(D, n)
                        == kronecker_character(D, n + period))


def test_sqrt_mod():
    for p in (3, 5, 7, 11, 13, 17, 97, 193):
        for a in range(p):
            r = sqrt_mod(a, p)
            if legendre_symbol(a, p) == -1:
                assert r is None
            else:
                assert r is not None and r * r % p == a
                assert r <= p - r  # canonical smaller root


def test_sqrt_mod_checks_the_prime_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)
    monkeypatch.setattr(arith, "is_prime", counted)
    # 2017 = 1 mod 4 takes Tonelli-Shanks and its non-residue search
    for a, p in ((4, 2017), (2016, 2017), (5, 2017), (4, 2003), (2, 2003)):
        calls.clear()
        r = sqrt_mod(a, p)
        assert r is None or r * r % p == a, (a, p)
        assert calls == [p], (a, p)


def test_quadfield_integrality_constraints():
    QuadFieldElement(3, 1, 1)
    QuadFieldElement(1, 2, 4)
    with pytest.raises(ValueError):
        QuadFieldElement(1, 1, 2)
    with pytest.raises(ValueError):
        QuadFieldElement(7, 2, 1)
    with pytest.raises(ValueError, match="unsupported field parameter d=5"):
        QuadFieldElement(5, 2, 0)
    # an element forged past the parity check fails every halving
    odd = QuadFieldElement(1, 2, 0)
    object.__setattr__(odd, "u", 1)
    for halving in (lambda: norm(odd), lambda: mul(odd, odd),
                    odd.trace_of_square):
        with pytest.raises(VerificationError):
            halving()


def test_quadfield_algebra():
    rng = random.Random(3)
    for _ in range(200):
        d = rng.choice(SUPPORTED_D)
        if d in (3, 7):
            u, v = rng.randrange(-9, 10), rng.randrange(-9, 10)
            u += (u - v) % 2
        else:
            u, v = 2 * rng.randrange(-5, 6), 2 * rng.randrange(-5, 6)
        x = QuadFieldElement(d, u, v)
        # x * conj(x) is the rational number N(x)
        prod = mul(x, conjugate(x))
        assert (prod.u, prod.v) == (2 * norm(x), 0)
        # norm is multiplicative
        y = QuadFieldElement(d, u, -v) if v else x
        assert norm(mul(x, y)) == norm(x) * norm(y)
        # tr(x^2) = tr(x)^2 - 2 N(x), the trace of (u + v sqrt(-d))/2 is u
        assert x.trace_of_square() == x.u ** 2 - 2 * norm(x)
        assert mul(x, x).u == x.trace_of_square()


def test_unit_orbit_sizes():
    assert len(unit_orbit(QuadFieldElement(1, 2, 4))) == 4
    assert len(unit_orbit(QuadFieldElement(3, 4, 2))) == 6
    assert len(unit_orbit(QuadFieldElement(2, 2, 2))) == 2
    assert len(unit_orbit(QuadFieldElement(7, 3, 1))) == 2
    for g in unit_orbit(QuadFieldElement(3, 4, 2)):
        assert norm(g) == norm(QuadFieldElement(3, 4, 2))


def brute_norm_solutions(d, p):
    out = set()
    for u in range(0, 4 * p):
        if u * u > 4 * p:
            break
        for v in range(-4 * p, 4 * p):
            if d * v * v > 4 * p:
                continue
            if u * u + d * v * v == 4 * p:
                if d in (3, 7) and (u - v) % 2 != 0:
                    continue
                if d in (1, 2) and (u % 2 or v % 2):
                    continue
                out.add((u, v))
    return out


def test_norm_equation_vs_brute_force():
    for d in SUPPORTED_D:
        for p in (2, 3, 5, 7, 11, 13, 29, 53):
            sols = norm_equation_solutions(d, p)
            assert {(s.u, s.v) for s in sols} == brute_norm_solutions(d, p)
            for s in sols:
                assert norm(s) == p


def test_norm_equation_split_inert():
    # splitting is governed by the field discriminant
    for d in SUPPORTED_D:
        D = FIELD_DISC[d]
        for p in (5, 7, 11, 13, 17, 19, 23, 29):
            sols = norm_equation_solutions(d, p)
            if kronecker_character(D, p) == -1:
                assert sols == []
            else:
                assert sols


def test_norm_equation_rejects_composites():
    with pytest.raises(InvalidPrimeError):
        norm_equation_solutions(1, 15)


def test_norm_solutions_match_the_loop_to_20000():
    # Cornacchia and the unit multiples against the O(sqrt p) search: every
    # element of norm p exactly once
    for d in SUPPORTED_D:
        for p in primes_up_to(20000):
            sols = arith._norm_solutions(d, p)
            loop = loop_norm_solutions(d, p)
            assert len(set(sols)) == len(sols), (d, p)
            assert set(sols) == set(loop) | {(-u, -v) for u, v in loop}, (d, p)


def test_unit_pairs_match_field_multiplication():
    # the integer rule against products by i, zeta_6 = (1 + sqrt(-3))/2 or 1
    generators = {1: QuadFieldElement(1, 0, 2), 3: QuadFieldElement(3, 1, 1)}
    for d in SUPPORTED_D:
        gen = generators.get(d, QuadFieldElement(d, 2, 0))
        for u in range(-9, 10):
            for v in range(-9, 10):
                if d in (1, 2) and (u % 2 or v % 2) or (u - v) % 2:
                    continue
                x, products = QuadFieldElement(d, u, v), set()
                for _ in range(6):
                    products |= {(x.u, x.v), (-x.u, -x.v)}
                    x = mul(x, gen)
                pairs = arith.unit_pairs(d, u, v)
                assert pairs[0] == (u, v) and set(pairs) == products, (d, u, v)
                assert len(set(pairs)) == len(pairs) or (u, v) == (0, 0)


def test_forged_square_root_fails_the_norm_check(monkeypatch):
    # 0 is no square root of -4 mod 13: Cornacchia then ends on
    # (u, v) = (0, 6), whose norm 36 is not 4p = 52
    monkeypatch.setattr(arith, "_sqrt_mod", lambda a, p: 0)
    with pytest.raises(VerificationError, match="4p") as exc:
        norm_equation_solutions(1, 13)
    assert (exc.value.expected, exc.value.observed) == (52, 36)
