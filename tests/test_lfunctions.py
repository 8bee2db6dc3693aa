import math
import random

import pytest
import sympy

from helpers import weight2_factor, weight3_factor
from modk3.arith import primes_up_to
from modk3.cmforms import WeilBoundError
from modk3.counting import ap_elliptic, good_primes, h3_trace
from modk3.families import preset
from modk3.lfunctions import (LocalFactor, _root_product_expansion,
                              assemble_h3, betti_hodge_report,
                              euler_to_dirichlet, h3_local_factor,
                              shifted_elliptic_factor, tensor_factor)

E_TEST = (0, 0, 0, -1, 0)


def test_quadratic_factors():
    assert weight2_factor(0, 5).coefficients == (1, 0, 5)
    assert weight3_factor(-6, 1, 5).coefficients == (1, 6, 25)
    assert weight3_factor(2, 1, 7).coefficients == (1, -2, 49)
    assert weight3_factor(3, 0, 7).coefficients == (1, -3)
    with pytest.raises(WeilBoundError):
        weight2_factor(5, 5)
    with pytest.raises(WeilBoundError):
        weight3_factor(11, 1, 5)
    with pytest.raises(ValueError):
        weight3_factor(1, 2, 5)


def test_tensor_factor_fixed_values():
    assert tensor_factor(1, 1, 1, 2).coefficients == (1, -1, -10, -8, 64)
    f = tensor_factor(0, 0, 1, 5)
    assert f.coefficients == (1, 0, -250, 0, 15625)
    assert f.coefficients[1] == f.coefficients[3] == 0


def test_tensor_factor_random_against_root_product():
    rng = random.Random(6)
    for _ in range(100):
        p = rng.choice([5, 7, 11, 13, 17, 19, 23, 29])
        A = rng.randint(-2 * math.isqrt(p), 2 * math.isqrt(p))
        B = rng.randint(-2 * p, 2 * p)
        eps = rng.choice([-1, 1])
        f = tensor_factor(A, B, eps, p)
        assert f.coefficients == _root_product_expansion(A, B, eps, p)
        assert f.coefficients[0] == 1 and f.coefficients[4] == p ** 6


def _charpoly_expansion(A, B, eps, p):
    """The quartic as the reversed characteristic polynomial of the
    Kronecker product of the two companion matrices, by sympy."""
    MA = sympy.Matrix([[0, -p], [1, A]])
    MB = sympy.Matrix([[0, -eps * p * p], [1, B]])
    kron = sympy.Matrix(4, 4, lambda i, j: MA[i // 2, j // 2] * MB[i % 2, j % 2])
    return tuple(int(c) for c in kron.charpoly().all_coeffs())


def test_root_product_expansion_against_charpoly():
    rng = random.Random(7)
    primes = primes_up_to(10 ** 4)
    for _ in range(300):
        p = rng.choice(primes)
        bound = math.isqrt(4 * p)
        A, B = rng.randint(-bound, bound), rng.randint(-2 * p, 2 * p)
        eps = rng.choice([-1, 1])
        assert (_root_product_expansion(A, B, eps, p)
                == _charpoly_expansion(A, B, eps, p)), (A, B, eps, p)


def _pure(quadratic, p, w):
    """1 - aT + bT^2 has both roots of modulus p^(-(w-1)/2) exactly when
    b = p^(w-1) and the roots are complex conjugates, a^2 <= 4b."""
    one, minus_a, b = quadratic
    return one == 1 and b == p ** (w - 1) and minus_a ** 2 <= 4 * b


def test_root_moduli_audit():
    for f in (weight2_factor(4, 11), weight3_factor(-6, 1, 5),
              shifted_elliptic_factor(2, 7)):
        assert _pure(f.coefficients, f.p, f.weight), f
    # the quartic is the root product of two pure quadratics
    A, B, eps, p = 3, 10, 1, 11
    assert _pure((1, -A, p), p, 2) and _pure((1, -B, eps * p * p), p, 3)
    assert (tensor_factor(A, B, eps, p).coefficients
            == _root_product_expansion(A, B, eps, p))
    # a non-pure factor fails the audit
    assert not _pure(LocalFactor(5, 2, (1, -6, 5)).coefficients, 5, 2)
    # every constructor accepts its bound and refuses one step past it
    for p in (5, 7, 11):
        a, b = math.isqrt(4 * p), 2 * p
        for sign in (1, -1):
            weight2_factor(sign * a, p)
            weight3_factor(sign * b, 1, p)
            tensor_factor(sign * a, sign * b, 1, p)
            shifted_elliptic_factor(sign * a, p)
            for make in (lambda: weight2_factor(sign * (a + 1), p),
                         lambda: weight3_factor(sign * (b + 1), 1, p),
                         lambda: tensor_factor(sign * (a + 1), 0, 1, p),
                         lambda: tensor_factor(0, sign * (b + 1), 1, p),
                         lambda: shifted_elliptic_factor(sign * (a + 1), p)):
                with pytest.raises(WeilBoundError):
                    make()


def test_factor_multiplication():
    f = weight2_factor(1, 5) * weight2_factor(-1, 5)
    assert f.coefficients == (1, 0, 9, 0, 25)


def test_euler_to_dirichlet_basics():
    seq = euler_to_dirichlet({2: LocalFactor(2, 1, (1, -1))}, 32)
    for k in (2, 4, 8, 16, 32):
        assert seq[k - 1] == 1
    assert seq[2] == 0  # prime 3 has no factor supplied
    assert seq[5] == 0


def test_euler_to_dirichlet_multiplicative():
    factors = {p: weight2_factor(ap_elliptic(E_TEST, p), p)
               for p in (5, 7, 11, 13, 17, 19, 23)}
    a = [0] + euler_to_dirichlet(factors, 180)
    assert a[1] == 1
    assert a[35] == a[5] * a[7]
    assert a[65] == a[5] * a[13]
    # p-power recursion: a_{p^2} = a_p^2 - p
    for p in (5, 7, 13):
        assert a[p * p] == a[p] ** 2 - p


def naive_inverse(c, nterms):
    """b with (c_0 + c_1 T + ...) b = 1 + O(T^nterms) for c_0 = 1, each b_k
    read off the full convolution sum_{j<=k} c_j b_{k-j}."""
    b = []
    for k in range(nterms):
        b.append((k == 0) - sum(c[j] * b[k - j]
                                for j in range(1, min(k, len(c) - 1) + 1)))
    return b


def full_inverse_dirichlet(factors, N):
    """a_n as the product over p^k || n of the T^k coefficient of
    1/L_p(T), each inverse solved term by term to N.bit_length() terms;
    0 when a prime of n has no factor."""
    inverse = {p: naive_inverse(factor.coefficients, N.bit_length())
               for p, factor in factors.items()}
    return [math.prod(inverse[p][k] if p in inverse else 0
                      for p, k in sympy.factorint(n).items())
            for n in range(1, N + 1)]


def test_euler_to_dirichlet_matches_full_inverses():
    # the inverses cut to the largest p^k <= N against full-length ones, for
    # random weight-3 and quartic factors, some primes without a factor
    rng = random.Random(13)
    for N in (1, 2, 30, 400):
        for _ in range(4):
            factors = {}
            for p in primes_up_to(N):
                kind = rng.randrange(3)
                if kind == 1:
                    factors[p] = weight3_factor(rng.randint(-2 * p, 2 * p),
                                                rng.choice((-1, 0, 1)), p)
                elif kind == 2:
                    factors[p] = LocalFactor(p, 5, (1,) + tuple(
                        rng.randint(-p ** 3, p ** 3) for _ in range(4)))
            assert (euler_to_dirichlet(factors, N)
                    == full_inverse_dirichlet(factors, N)), N


def test_euler_to_dirichlet_vs_naive_local_inverses():
    # random factors of degree up to 16, coefficients up to p^8, at N up to
    # 2000; primes with p^2 <= N < p^3 and with p^3 <= N both occur
    rng = random.Random(29)
    powers = set()
    for _ in range(25):
        N = rng.randint(1, 2000)
        small, every = primes_up_to(min(N, 40)), primes_up_to(N)
        primes = rng.sample(small, rng.randint(0, len(small)))
        primes += rng.sample(every, min(3, len(every)))
        factors = {p: LocalFactor(p, 9, (1,) + tuple(
            rng.randint(-p ** 8, p ** 8) for _ in range(rng.randint(0, 16))))
                   for p in primes}
        powers |= {(p * p <= N) + (p ** 3 <= N) for p in factors}
        assert (euler_to_dirichlet(factors, N)
                == full_inverse_dirichlet(factors, N)), N
    assert {1, 2} <= powers, powers


def test_h3_local_factor_reads_back_trace():
    fam = preset("g62")
    for p in (13, 17):
        f = h3_local_factor(fam, E_TEST, p)
        assert len(f.coefficients) == 4 + 2 * 6 + 1
        assert -f.coefficients[1] == h3_trace(fam, E_TEST, p)


def test_assemble_h3_matches_traces():
    fam = preset("g4_legendre")
    coeffs = assemble_h3(fam, E_TEST, 60)
    assert coeffs[0] == 1
    for p in good_primes(fam, 5, 60):
        assert coeffs[p - 1] == h3_trace(fam, E_TEST, p), p
    # bad primes contribute the empty factor
    assert coeffs[1] == coeffs[2] == 0


def test_betti_hodge_report():
    r = betti_hodge_report()
    assert r["B3_product"] == 44
    assert r["h03_product"] == 1 and r["h10_product"] == 1
    assert r["b2_threefold"] == 31
    assert r["b3_threefold"] == 16
    assert r["h21_threefold"] == 7
