"""Exact polynomials over Z, for the integral models of the families.

A ``ZPoly`` is a tuple of integer coefficients, leading coefficient first,
without leading zeros; () is 0.  It is a ring under +, -, * and ** (so
``families.weierstrass_invariants`` applies to it) with exact division,
content, the primitive-PRS gcd, and the resultant by the sub-resultant
algorithm (Cohen, A Course in Computational Algebraic Number Theory, 3.3).
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd


class ZPoly(tuple):
    def __new__(cls, coeffs=()):
        coeffs = tuple(coeffs)
        while coeffs and not coeffs[0]:
            coeffs = coeffs[1:]
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self) - 1

    def __add__(self, other):
        other = ZPoly((other,)) if isinstance(other, int) else other
        pairs = zip_longest(reversed(self), reversed(other), fillvalue=0)
        return ZPoly(reversed([a + b for a, b in pairs]))

    def __neg__(self):
        return ZPoly(-c for c in self)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
            return ZPoly(c * other for c in self)
        product = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            if a:  # the charts' polynomials are often sparse
                for j, b in enumerate(other, i):
                    product[j] += a * b
        return ZPoly(product)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result, power = ZPoly((1,)), self
        while n:
            if n & 1:
                result = result * power
            n >>= 1
            power = power * power if n else power
        return result

    def content(self) -> int:
        """gcd of the coefficients with the sign of the leading one; 0 for 0."""
        c = gcd(*self)
        return -c if self and self[0] < 0 else c

    def primitive(self):
        """self / content: positive leading coefficient, coprime coefficients."""
        c = self.content()
        return ZPoly(x // c for x in self) if c else self

    def derivative(self):
        return ZPoly(c * (self.degree - i) for i, c in enumerate(self[:-1]))

    def exquo(self, other):
        """self / other; ArithmeticError unless the quotient lies in Z[t]."""
        rem, n, quotient = list(self), len(other), []
        for i in range(len(self) - n + 1):
            q, r = divmod(rem[i], other[0])
            if r:
                raise ArithmeticError(f"{other} does not divide {self} over Z")
            quotient.append(q)
            if q:
                for j in range(1, n):
                    rem[i + j] -= q * other[j]
        if any(rem[len(quotient):]):
            raise ArithmeticError(f"{other} does not divide {self}")
        return ZPoly(quotient)

    def prem(self, other):
        """Pseudo-remainder: lc(other)^(deg self - deg other + 1) self mod other."""
        rem, n, steps = list(self), len(other), len(self) - len(other) + 1
        for i in range(steps):
            q, rem = rem[i], [c * other[0] for c in rem]
            for j in range(n):
                rem[i + j] -= q * other[j]
        return ZPoly(rem[max(steps, 0):])

    def gcd(self, other):
        """The gcd over Z with a positive leading coefficient (primitive PRS)."""
        c = gcd(self.content(), other.content())
        f, g = self.primitive(), other.primitive()
        while g:
            f, g = g, f.prem(g).primitive()
        return c * f

    def resultant(self, other) -> int:
        """Res(self, other) by the sub-resultant algorithm; 0 if either is 0."""
        if not self or not other:
            return 0
        A, B = self.primitive(), other.primitive()
        scale = self.content() ** B.degree * other.content() ** A.degree
        g = h = s = 1
        if A.degree < B.degree:
            A, B, s = B, A, (-1) ** (A.degree * B.degree)
        while B.degree > 0:
            d = A.degree - B.degree
            s *= (-1) ** (A.degree * B.degree)
            A, B = B, A.prem(B).exquo(ZPoly((g * h ** d,)))
            if not B:
                return 0
            g = A[0]
            h = g ** d // h ** (d - 1) if d else h
        if A.degree > 0:
            h = B[0] ** A.degree // h ** (A.degree - 1)
        return s * scale * h

    def discriminant(self) -> int:
        """(-1)^(n(n-1)/2) Res(f, f') / lc(f); 1 for a linear f."""
        n = self.degree
        return (-1) ** (n * (n - 1) // 2) * self.resultant(
            self.derivative()) // self[0]
