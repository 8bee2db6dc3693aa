"""Weight-3 CM newform coefficients from Hecke characters.

The four newforms h8, h7, h3, h4 are attached to Hecke characters of the
fields Q(sqrt(-d)) for d = 1, 3, 7, 2 with conductors (2), (2), (1), (1).
At a split prime p, a_p = tr(pi^2) = (u^2 - d v^2)/2 for pi = (u + v
sqrt(-d))/2 the generator above p (``arith``'s Cornacchia pairs) with
pi = +-1 mod c*O_K; the eta products of ``qseries`` are the ground truth.
``coefficient_sequence`` makes one pass over the sieve: one Kronecker symbol
per prime is the splitting that ``_ap`` (``ap`` without its primality test)
takes and the nebentypus value eps(p); a spec checks Disc K once.

Local Euler factors are integer polynomials in T = p^(-s); every Dirichlet
series here and in ``lfunctions`` is built from them by
``euler_to_dirichlet``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import (FIELD_DISC, InvalidPrimeError, QuadFieldElement,
                    VerificationError, _is_integral, _kronecker,
                    _norm_solutions, is_fundamental_discriminant, is_prime,
                    kronecker_character, primes_up_to)
from .qseries import form_series, series_power


class WeilBoundError(ValueError):
    pass


class BadPrimeError(ValueError):
    pass


class NoGeneratorError(ValueError):
    pass


class NormalizationFailureError(RuntimeError):
    pass


@dataclass(frozen=True)
class HeckeCharSpec:
    form_id: str
    d: int           # field parameter, K = Q(sqrt(-d))
    conductor_gen: int  # c with cond(chi) = c * O_K
    level: int

    @property
    def disc(self) -> int:
        return FIELD_DISC[self.d]

    def __post_init__(self):
        if not is_fundamental_discriminant(self.disc):
            raise VerificationError("Disc K is a fundamental discriminant",
                                    dict(form=self.form_id, d=self.d),
                                    "a fundamental discriminant", self.disc)
        # cond(h) = Nm(c) * |Disc(K)| must reproduce the level
        cond = self.conductor_gen ** 2 * abs(self.disc)
        if cond != self.level:
            raise VerificationError("Nm(c) |Disc K| = level",
                                    dict(form=self.form_id, d=self.d,
                                         c=self.conductor_gen), self.level, cond)


HECKE_SPECS = {
    "h8": HeckeCharSpec("h8", d=1, conductor_gen=2, level=16),
    "h7": HeckeCharSpec("h7", d=3, conductor_gen=2, level=12),
    "h3": HeckeCharSpec("h3", d=7, conductor_gen=1, level=7),
    "h4": HeckeCharSpec("h4", d=2, conductor_gen=1, level=8),
}


def splitting(spec: HeckeCharSpec, p: int) -> int:
    """kronecker(Disc K, p): 1 split, -1 inert, 0 ramified."""
    return kronecker_character(spec.disc, p)


def _generator_candidates(spec: HeckeCharSpec, p: int) -> list:
    # p is a prime checked by the caller; spec.d has a FIELD_DISC entry
    return [QuadFieldElement(spec.d, u, v)
            for u, v in _norm_solutions(spec.d, p)]


def normalized_generator(spec: HeckeCharSpec, p: int) -> QuadFieldElement:
    """A generator pi of a prime above p with pi = +-1 mod c*O_K."""
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    return _normalized_generator(spec, p)


def _normalized_generator(spec: HeckeCharSpec, p: int) -> QuadFieldElement:
    d, c = spec.d, spec.conductor_gen
    sols = _norm_solutions(d, p)
    if not sols:
        raise NoGeneratorError(f"p={p} is inert in Q(sqrt(-{d}))")
    # pi -+ 1 = (u -+ 2 + v sqrt(-d))/2 lies in c*O_K
    good = [(u, v) for u, v in sols if v % c == 0 and (
        (u - 2) % c == 0 and _is_integral(d, (u - 2) // c, v // c)
        or (u + 2) % c == 0 and _is_integral(d, (u + 2) // c, v // c))]
    if not good:
        raise NormalizationFailureError(
            f"no unit multiple of a generator above p={p} is +-1 mod {c}")
    # normalized candidates all share tr(pi^2); pick a deterministic one
    traces = {(u * u - d * v * v) // 2 for u, v in good}
    if len(traces) != 1:
        raise VerificationError("the normalized tr(pi^2) is unique",
                                dict(form=spec.form_id, p=p), "one value",
                                sorted(traces))
    return QuadFieldElement(d, *max(good))


def ap(spec: HeckeCharSpec, p: int) -> int:
    """p-th coefficient of the newform at a good (or tamely ramified) prime."""
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    return _ap(spec, p, splitting(spec, p))


def _ap(spec: HeckeCharSpec, p: int, s: int) -> int:
    # ap for a prime p already checked, s its splitting in K
    if s == -1:
        return 0
    if s == 0:
        if p == 2 and spec.conductor_gen % 2 == 0:
            raise BadPrimeError(f"p={p} divides the conductor of chi")
        # ramified: the generator with rational square
        cands = [g for g in _generator_candidates(spec, p) if g.u * g.v == 0]
        if not cands:
            raise BadPrimeError(f"no rational-square generator above p={p}")
        g = cands[0]
        n = g.u * g.u - spec.d * g.v * g.v
        if n % 4:
            raise VerificationError("the ramified pi^2 is a rational integer",
                                    dict(form=spec.form_id, p=p), "4 | n", n)
        return n // 4
    if spec.level % p == 0:
        raise BadPrimeError(f"p={p} is bad for level {spec.level}")
    return _normalized_generator(spec, p).trace_of_square()


@lru_cache(maxsize=None)
def _eta_coefficients(form_id: str, nmax: int) -> tuple:
    return tuple(form_series(form_id, nmax))


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


def weight3_factor(B: int, eps_p: int, p: int) -> LocalFactor:
    """1 - B T + eps(p) p^2 T^2 for a weight-3 newform."""
    if B * B > 4 * p * p:
        raise WeilBoundError(f"|B|={abs(B)} exceeds 2p for p={p}")
    if eps_p not in (-1, 0, 1):
        raise ValueError("nebentypus value must be -1, 0 or 1")
    if eps_p == 0:
        return LocalFactor(p, 3, (1, -B))
    return LocalFactor(p, 3, (1, -B, eps_p * p * p))


def euler_to_dirichlet(factors: dict, N: int) -> list:
    """[a_1, ..., a_N] of prod_p L_p(p^-s)^-1; primes without a supplied
    factor contribute the factor 1 (their power coefficients vanish)."""
    a = [0] * (N + 1)
    a[1] = 1
    for p, factor in factors.items():
        # 1/L_p(T) to T^k for the largest p^k <= N, then a_{m p^k} =
        # a_m a_{p^k} for every m built from the primes already multiplied in
        nterms = 2
        while p ** nterms <= N:
            nterms += 1
        inv = series_power(list(factor.coefficients), -1, nterms)
        for m in [m for m in range(1, N // p + 1) if a[m]]:
            n, k = m * p, 1
            while n <= N:
                a[n] = a[m] * inv[k]
                n, k = n * p, k + 1
    return a[1:]


def coefficient_sequence(spec: HeckeCharSpec, N: int) -> list:
    """[a_1, ..., a_N] of the product of the weight-3 Euler factors.

    Prime coefficients come from the Hecke character; primes where that is
    undefined (p | c^2 * d ... the true bad primes) are read off the eta
    expansion.  The factor at p is 1 - a_p T + eps(p) p^2 T^2 with eps the
    nebentypus as a character mod the level (0 at bad primes).
    """
    factors = {}
    for p in primes_up_to(N):
        s = _kronecker(spec.disc, p)
        try:
            app = _ap(spec, p, s)
        except BadPrimeError:
            app = _eta_coefficients(spec.form_id, p)[p - 1]
        eps = 0 if spec.level % p == 0 else s
        factors[p] = weight3_factor(app, eps, p)
    return euler_to_dirichlet(factors, N)


def verify_against_eta(spec: HeckeCharSpec, N: int) -> list:
    """Indices n <= N where the Hecke-character coefficients disagree with
    the eta expansion; empty on success."""
    hecke = coefficient_sequence(spec, N)
    eta = _eta_coefficients(spec.form_id, N)
    return [n for n in range(1, N + 1) if hecke[n - 1] != eta[n - 1]]
