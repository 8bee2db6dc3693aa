"""The degree-4 tensor factor and the L-series of the threefold's H^3.

Factors are ``LocalFactor`` polynomials in T = p^(-s), and
``euler_to_dirichlet`` turns them into every Dirichlet series here.  The
tensor factor is checked against an exact root-product expansion in integers
(power sums and Newton's identities), and every constructor checks its
Weil bound exactly, so no floating point enters any factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import VerificationError, kronecker_character
from .cmforms import WeilBoundError
from .counting import (ap_elliptic, attached_form, good_primes, h3_trace,
                       k3_point_count)
from .families import (SingularCurveError, WeierstrassFamily,
                       weierstrass_invariants)
from .qseries import series_power


@dataclass(frozen=True)
class LocalFactor:
    p: int
    weight: int
    coefficients: tuple  # polynomial in T, constant term first

    def __post_init__(self):
        if self.coefficients[0] != 1:
            raise VerificationError("a local factor has constant term 1",
                                    dict(p=self.p), 1, self.coefficients[0])

    def __mul__(self, other: "LocalFactor") -> "LocalFactor":
        if self.p != other.p:
            raise VerificationError("local factors at one prime multiply",
                                    dict(p=self.p), self.p, other.p)
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return LocalFactor(self.p, max(self.weight, other.weight), tuple(out))


def euler_to_dirichlet(factors: dict, N: int) -> list:
    """[a_1, ..., a_N] of prod_p L_p(p^-s)^-1; primes without a supplied
    factor contribute the factor 1 (their power coefficients vanish)."""
    a = [0] * (N + 1)
    a[1] = 1
    for p, factor in factors.items():
        # 1/L_p(T) past the largest p^k <= N (1 - c_1 T if p^2 > N), then
        # a_{m p^k} = a_m a_{p^k} for every m built from the earlier primes
        inv = (1, -factor.coefficients[1])
        if p * p <= N:
            inv = series_power(list(factor.coefficients), -1, N.bit_length())
        for m in [m for m in range(1, N // p + 1) if a[m]]:
            n, k = m * p, 1
            while n <= N:
                a[n] = a[m] * inv[k]
                n, k = n * p, k + 1
    return a[1:]


def _root_product_expansion(A: int, B: int, eps_p: int, p: int) -> tuple:
    """prod_{i,j} (1 - alpha_i beta_j T) = (1, -e1, e2, -e3, e4) for the
    roots alpha of x^2 - A x + p and beta of y^2 - B y + eps p^2, by
    Newton's identities k e_k = sum_i (-1)^(i-1) e_{k-i} s_i t_i on the
    power sums s_k = sum alpha_i^k and t_k = sum beta_j^k."""
    s, t = [2, A], [2, B]
    for _ in range(3):
        s.append(A * s[-1] - p * s[-2])
        t.append(B * t[-1] - eps_p * p * p * t[-2])
    e = [1]
    for k in range(1, 5):
        ke = sum((-1) ** (i - 1) * e[k - i] * s[i] * t[i]
                 for i in range(1, k + 1))
        if ke % k:
            raise VerificationError("Newton's identities divide exactly",
                                    dict(A=A, B=B, eps_p=eps_p, p=p, k=k),
                                    0, ke % k)
        e.append(ke // k)
    return tuple((-1) ** k * ek for k, ek in enumerate(e))


def tensor_factor(A: int, B: int, eps_p: int, p: int) -> LocalFactor:
    """Degree-4 factor of the tensor of a weight-2 and a weight-3 form:
    [1, -AB, (B^2 + eps p A^2 - 2 p^2 eps) p, -AB eps p^3, p^6]."""
    if A * A > 4 * p:
        raise WeilBoundError(f"|A|={abs(A)} exceeds 2 sqrt({p})")
    if B * B > 4 * p * p:
        raise WeilBoundError(f"|B|={abs(B)} exceeds 2p for p={p}")
    coeffs = (1, -A * B, (B * B + eps_p * p * A * A - 2 * p * p * eps_p) * p,
              -A * B * eps_p * p ** 3, p ** 6)
    expansion = _root_product_expansion(A, B, eps_p, p)
    if coeffs != expansion:
        raise VerificationError("tensor quartic = Kronecker root product",
                                dict(A=A, B=B, eps_p=eps_p, p=p),
                                expansion, coeffs)
    return LocalFactor(p, 4, coeffs)


def shifted_elliptic_factor(A: int, p: int, chi_p: int = 1) -> LocalFactor:
    """Local factor of L(E, s-1), optionally twisted: 1 - chi(p) p A T + p^3 T^2."""
    if A * A > 4 * p:
        raise WeilBoundError(f"|A|={abs(A)} exceeds 2 sqrt({p})")
    return LocalFactor(p, 4, (1, -chi_p * p * A, p ** 3))


def h3_local_factor(family: WeierstrassFamily, e_ainvs, p: int) -> LocalFactor:
    """Full local factor of the middle cohomology of the fibered threefold:
    the tensor quartic times the anti-invariant-cycle elliptic factors."""
    eps = kronecker_character(attached_form(family).disc, p)
    A = ap_elliptic(e_ainvs, p)
    B = k3_point_count(family, p).B
    factor = tensor_factor(A, B, eps, p)
    for d, mult in family.ns_data.minus_part:
        chi_p = 1 if d == 1 else kronecker_character(d, p)
        for _ in range(mult):
            factor = factor * shifted_elliptic_factor(A, p, chi_p)
    return factor


def h3_primes(family: WeierstrassFamily, e_ainvs, pmin: int, pmax: int) -> list:
    """The good primes of the family in [pmin, pmax] at which E has good
    reduction too; raises on a singular E."""
    e_disc = weierstrass_invariants(*e_ainvs)[6]
    if e_disc == 0:
        raise SingularCurveError("singular curve (Delta = 0)")
    return [p for p in good_primes(family, pmin, pmax) if e_disc % p]


def assemble_h3(family: WeierstrassFamily, e_ainvs, N: int) -> list:
    """Dirichlet coefficients a_1..a_N of L(H^3); bad primes contribute 1.

    At every good prime p the coefficient equals h3_trace(family, E, p).
    """
    factors = {p: h3_local_factor(family, e_ainvs, p)
               for p in h3_primes(family, e_ainvs, 5, N)}
    coeffs = euler_to_dirichlet(factors, N)
    for p in factors:
        trace = h3_trace(family, e_ainvs, p)
        if coeffs[p - 1] != trace:
            raise VerificationError("assembled a_p = h3_trace",
                                    dict(family=family.name, curve=e_ainvs,
                                         p=p), trace, coeffs[p - 1])
    return coeffs


def betti_hodge_report() -> dict:
    """The fixed Betti/Hodge bookkeeping of the construction: the product
    of the modular K3 with an elliptic curve, and the fibered threefold
    obtained as its blown-up quotient (n_plus = 14, n_minus = 6)."""
    n_plus, n_minus = 14, 6
    return {
        "B3_product": 2 * (2 + n_plus + n_minus),  # b2(K3) * b1(E)
        "h03_product": 1,
        "h10_product": 1,
        "b2_threefold": 17 + n_plus,        # 16 exceptional + 1 + N_+
        "b3_threefold": 4 + 2 * n_minus,    # tensor block + N_- x H^1(E)
        "h21_threefold": (4 + 2 * n_minus) // 2 - 1,
    }
