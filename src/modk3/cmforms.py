"""Weight-3 CM newform coefficients from Hecke characters.

The four newforms h8, h7, h3, h4 are attached to Hecke characters psi of
the fields Q(sqrt(-d)) for d = 1, 3, 7, 2 with conductors c = 2, 2, 1, 1:
psi((alpha)) = alpha^2 for alpha = (u + v sqrt(-d))/2 = +-1 mod c*O_K.
``ap`` takes alpha above p from ``arith``'s Cornacchia pairs;
``coefficient_sequence`` is Hecke's theta series sum psi(a) q^N(a) (Ono,
The Web of Modularity, ch. 1), one pass over the lattice of normalised
alpha.  The eta products of ``qseries`` are the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .arith import (FIELD_DISC, InvalidPrimeError, QuadFieldElement,
                    VerificationError, _is_integral,
                    _norm_solutions, is_fundamental_discriminant, is_prime,
                    kronecker_character, primes_up_to)
from .qseries import form_series


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
    good = [(u, v) for u, v in sols if _is_normalized(d, c, u, v)]
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


def _is_normalized(d: int, c: int, u: int, v: int) -> bool:
    """Whether (u + v sqrt(-d))/2 = +-1 mod c*O_K: (u -+ 2 + v sqrt(-d))/2
    lies in c*O_K.  The value depends on (u mod 2c, v mod 2c) only."""
    return v % c == 0 and any((u - s) % c == 0 and _is_integral(
        d, (u - s) // c, v // c) for s in (2, -2))


def ap(spec: HeckeCharSpec, p: int) -> int:
    """p-th coefficient of the newform at a good (or tamely ramified) prime."""
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    s = splitting(spec, p)
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


def coefficient_sequence(spec: HeckeCharSpec, N: int) -> list:
    """[a_1, ..., a_N] of the theta series of psi: a_n sums (u^2 - d v^2)/4
    over one of each pair +-alpha (v > 0, or v = 0 < u) of the normalised
    alpha = (u + v sqrt(-d))/2 of norm n.  Ideals not prime to c have no
    normalised generator, so bad primes need no special case; each total
    must divide by 4 and keep the Weil bound |a_p| <= 2p."""
    d, c = spec.d, spec.conductor_gen
    m = 2 * c  # _is_normalized reads u and v mod m only
    classes = [[r for r in range(m) if _is_normalized(d, c, r, s)]
               for s in range(m)]
    total = [0] * (N + 1)
    for v in range(isqrt(4 * N // d) + 1):
        dvv = d * v * v
        top = isqrt(4 * N - dvv)
        lo = -top if v else 1
        for r in classes[v % m]:
            for u in range(lo + (r - lo) % m, top + 1, m):
                total[(u * u + dvv) >> 2] += u * u - dvv
    bad = [n for n in range(1, N + 1) if total[n] & 3]
    if bad:
        raise VerificationError("4 | the theta total at n", dict(
            form=spec.form_id, n=bad[0]), 0, total[bad[0]] & 3)
    a = [t >> 2 for t in total[1:]]
    for p in primes_up_to(N):
        if a[p - 1] ** 2 > 4 * p * p:
            raise WeilBoundError(f"|a_p|={abs(a[p - 1])} exceeds 2p for p={p}")
    return a


def verify_against_eta(spec: HeckeCharSpec, N: int) -> list:
    """(n, Hecke a_n, eta a_n) for each n <= N where the Hecke-character
    coefficients disagree with the eta expansion; empty on success."""
    hecke = coefficient_sequence(spec, N)
    eta = _eta_coefficients(spec.form_id, N)
    return [(n, h, e) for n, (h, e) in enumerate(zip(hecke, eta), 1) if h != e]
