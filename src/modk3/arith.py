"""Exact modular and imaginary-quadratic arithmetic primitives.

Everything here works on plain Python integers.  Elements of the four
class-number-one fields Q(sqrt(-d)), d in {1, 2, 3, 7}, are encoded as
(u + v*sqrt(-d))/2 with the usual half-integer congruence conditions.
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


def _check_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise InvalidPrimeError(f"need an odd prime, got {p}")


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) in {-1, 0, 1}, computed by Euler's criterion."""
    _check_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


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


def sqrt_mod(a: int, p: int):
    """Tonelli-Shanks; returns the smaller root, or None for a non-residue."""
    _check_odd_prime(p)
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
        if -self.d % 4 == 1:  # d in {3, 7}
            if (self.u - self.v) % 2 != 0:
                raise ValueError(f"u, v must have equal parity for d={self.d}")
        else:  # d in {1, 2}
            if self.u % 2 != 0 or self.v % 2 != 0:
                raise ValueError(f"u, v must both be even for d={self.d}")

    def _halve(self, n: int, m: int, identity: str) -> int:
        if n % m:  # the encoding's parity conditions make it exact
            raise VerificationError(identity, dict(d=self.d, u=self.u,
                                                   v=self.v), 0, n % m)
        return n // m

    @property
    def norm(self) -> int:
        return self._halve(self.u * self.u + self.d * self.v * self.v, 4,
                           "4 | u^2 + d v^2")

    @property
    def trace(self) -> int:
        return self.u

    def conjugate(self) -> "QuadFieldElement":
        return QuadFieldElement(self.d, self.u, -self.v)

    def __neg__(self) -> "QuadFieldElement":
        return QuadFieldElement(self.d, -self.u, -self.v)

    def __mul__(self, other: "QuadFieldElement") -> "QuadFieldElement":
        if self.d != other.d:
            raise ValueError("field mismatch")
        uu = self.u * other.u - self.d * self.v * other.v
        vv = self.u * other.v + self.v * other.u
        return QuadFieldElement(self.d, self._halve(uu, 2, "2 | u u' - d v v'"),
                                self._halve(vv, 2, "2 | u v' + v u'"))

    def square(self) -> "QuadFieldElement":
        return self * self

    def trace_of_square(self) -> int:
        return self._halve(self.u * self.u - self.d * self.v * self.v, 2,
                           "2 | u^2 - d v^2")

    def divisible_by(self, c: int) -> bool:
        """Whether self lies in c * O_K."""
        if self.u % c != 0 or self.v % c != 0:
            return False
        try:
            QuadFieldElement(self.d, self.u // c, self.v // c)
        except ValueError:
            return False
        return True

    def unit_orbit(self) -> list:
        """All unit multiples of self (4 for d=1, 6 for d=3, 2 otherwise)."""
        orbit = [self, -self]
        if self.d == 1:
            rot = QuadFieldElement(1, -self.v, self.u)  # multiplication by i
            orbit += [rot, -rot]
        elif self.d == 3:
            zeta = QuadFieldElement(3, 1, 1)  # primitive sixth root of unity
            cur = self
            for _ in range(2):
                cur = cur * zeta
                orbit += [cur, -cur]
        return orbit


def norm_equation_solutions(d: int, p: int) -> list:
    """All QuadFieldElements of norm p, i.e. u^2 + d*v^2 = 4p, with u >= 0.

    Both (u, v) and (u, -v) are listed when v != 0.  Empty iff p is inert.
    """
    if d not in SUPPORTED_D:
        raise UnsupportedFieldError(f"unsupported field parameter d={d}")
    if not is_prime(p):
        raise InvalidPrimeError(f"{p} is not prime")
    return _norm_solutions(d, p)


def _norm_solutions(d: int, p: int) -> list:
    # norm_equation_solutions for a d and a prime p already checked
    target = 4 * p
    out = []
    vmax = math.isqrt(target // d)
    for v in range(vmax + 1):
        rem = target - d * v * v
        u = math.isqrt(rem)
        if u * u != rem:
            continue
        try:
            el = QuadFieldElement(d, u, v)
        except ValueError:
            continue
        out.append(el)
        if v != 0:
            out.append(el.conjugate())
    return out
