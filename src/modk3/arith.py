"""Exact modular and imaginary-quadratic arithmetic primitives.

Everything here works on plain Python integers.  An element of a
class-number-one field Q(sqrt(-d)), d in {1, 2, 3, 7}, is (u + v*sqrt(-d))/2:
a ``QuadFieldElement``, or a plain (u, v) pair on the hot paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SUPPORTED_D = (1, 2, 3, 7)

#: field discriminant of Q(sqrt(-d)) for the supported d
FIELD_DISC = {1: -4, 2: -8, 3: -3, 7: -7}


class InvalidPrimeError(ValueError):
    pass


class InvalidDiscriminantError(ValueError):
    pass


class UnsupportedFieldError(ValueError):
    pass


class VerificationError(ValueError):
    """A verified identity failed: its inputs, expected and observed value."""

    def __init__(self, identity: str, inputs: dict, expected, observed):
        super().__init__(f"{identity} fails for {inputs}: "
                         f"expected {expected}, observed {observed}")
        self.identity, self.inputs = identity, inputs
        self.expected, self.observed = expected, observed


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the desk-scale range."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list:
    """The primes p <= n, by the sieve of Eratosthenes."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, f in enumerate(flags) if f]


def prime_factors(n: int, outside=()) -> set:
    """The prime factors of n outside ``outside``: none when n is +-1 once
    those are divided out, else by trial division (a cofactor with no factor
    below 10^6 is named as it stands)."""
    for q in outside:
        while n and n % q == 0:
            n //= q
    n, d, out = abs(n), 2, set()
    while n > 1 and d * d <= n and d < 10 ** 6:
        if n % d:
            d += 1
        else:
            n, out = n // d, out | {d}
    return out if n == 1 else out | {n}  # {0} for n = 0


def is_fundamental_discriminant(D: int) -> bool:
    if D == 1:
        return True
    if D == 0:
        return False
    if D % 4 == 1:
        return _is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def kronecker_character(D: int, n: int) -> int:
    """The Kronecker symbol (D|n) for a fundamental discriminant D, n >= 1."""
    if not is_fundamental_discriminant(D):
        raise InvalidDiscriminantError(f"{D} is not a fundamental discriminant")
    if n <= 0:
        raise ValueError("n must be positive")
    return _kronecker(D, n)


def _kronecker(a: int, n: int) -> int:
    # standard push-down of (a|n) via quadratic reciprocity
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _sqrt_mod(a: int, p: int):
    """Tonelli-Shanks for an odd prime p already checked; returns the
    smaller root, or None for a non-residue."""
    a %= p
    if a == 0:
        return 0
    # Euler's criterion by pow, so p is checked for primality only once
    half = (p - 1) // 2
    if pow(a, half, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, half, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


@dataclass(frozen=True)
class QuadFieldElement:
    """(u + v*sqrt(-d))/2 with the integrality condition of O_{Q(sqrt(-d))}."""

    d: int
    u: int
    v: int

    def __post_init__(self):
        if self.d not in SUPPORTED_D:
            raise UnsupportedFieldError(f"unsupported field parameter d={self.d}")
        if not _is_integral(self.d, self.u, self.v):
            raise ValueError(f"({self.u}, {self.v}) not integral, d={self.d}")

    def _halve(self, n: int, m: int, identity: str) -> int:
        if n % m:  # the encoding's parity conditions make it exact
            raise VerificationError(identity, dict(d=self.d, u=self.u,
                                                   v=self.v), 0, n % m)
        return n // m

    def trace_of_square(self) -> int:
        return self._halve(self.u * self.u - self.d * self.v * self.v, 2,
                           "2 | u^2 - d v^2")


def _is_integral(d: int, u: int, v: int) -> bool:
    """Whether (u + v*sqrt(-d))/2 lies in O_K, d in {1, 2, 3, 7}."""
    return (u - v) % 2 == 0 if d % 4 == 3 else u % 2 == v % 2 == 0


def unit_pairs(d: int, u: int, v: int) -> list:
    """The unit multiples of (u + v*sqrt(-d))/2 as (u, v) pairs, itself
    first: by -1, i for d = 1, and zeta_6 = (1 + sqrt(-3))/2 for d = 3."""
    pairs = [(u, v), (-u, -v)]
    if d == 1:
        pairs += [(-v, u), (v, -u)]
    elif d == 3:
        for _ in range(2):
            u, v = (u - 3 * v) // 2, (u + v) // 2
            pairs += [(u, v), (-u, -v)]
    return pairs


def _norm_solutions(d: int, p: int) -> list:
    """Every (u, v) with u^2 + d*v^2 = 4p, for a prime p already checked.

    Cornacchia (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 1.5.3) solves x^2 + |D| y^2 = 4p, D = -d or -4d the field
    discriminant, by Euclid on (2p, a root of D mod p of the parity of D)
    down to 2 sqrt(p).  Q(sqrt(-d)) has class number one, so the other
    solutions are the unit multiples of that one and their conjugates."""
    D = FIELD_DISC[d]
    if p == 2:  # Cohen's special case: D + 8 is a square unless 2 is inert
        x, y = math.isqrt(D + 8), 1
        if x * x != D + 8:
            return []
    else:
        x = _sqrt_mod(D, p)
        if x is None:
            return []
        if (x - D) % 2:
            x = p - x
        a, bound = 2 * p, math.isqrt(4 * p)
        while x > bound:
            a, x = x, a % x
        y = math.isqrt((4 * p - x * x) // -D)
    v = y if -D == d else 2 * y
    if x * x + d * v * v != 4 * p:
        raise VerificationError("u^2 + d v^2 = 4p", dict(d=d, p=p, u=x, v=v),
                                4 * p, x * x + d * v * v)
    pairs = unit_pairs(d, x, v)
    return list(dict.fromkeys(pairs + [(u, -w) for u, w in pairs]))
