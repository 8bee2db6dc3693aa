"""Exact integer q-expansions of the nine weight-3 forms h1..h9.

An eta product prod_i eta(q^(m_i))^(r_i) is q^(sum_i m_i r_i / 24) times
prod_i P(q^(m_i))^(r_i), where P(x) = prod_{k>=1} (1 - x^k) comes from
Euler's pentagonal theorem, P^3 from Jacobi's identity and P(x)^2 / P(x^2)
from Gauss's.  Up the strides m, ``eta_product`` rewrites P(x^m)^r as r // 3
Jacobi cubes and one P if r % 3 == 1, or one phi(-x^m) and one more P at
stride 2m if r % 3 == 2: lacunary factors, with O(sqrt(n)) terms each.
Only positive net exponents expand, all that the nine holomorphic eta
products need; r <= 0 at a stride raises ValueError.
``form_series`` shifts the list by the leading exponent and returns the
coefficients at integral exponents.
"""

from __future__ import annotations

import math
from collections import Counter


def _pentagonal_coeffs(nterms: int) -> list:
    """Coefficients of prod_{n>=1} (1 - x^n) up to x^(nterms-1): Euler's
    pentagonal theorem, (-1)^k at x^(k(3k-1)/2) for every integer k."""
    out, m = [0] * nterms, math.isqrt(nterms) + 1
    for k in range(-m, m + 1):
        if k * (3 * k - 1) // 2 < nterms:
            out[k * (3 * k - 1) // 2] = (-1) ** (k % 2)
    return out


def _product(a, b, n: int) -> list:
    """First n >= 0 coefficients of a * b for integer lists a, b.

    Kronecker substitution (Harvey, J. Symb. Comp. 2009): x -> 2^w packs
    each factor into one int, so one big-int multiply does the convolution.
    Each product coefficient is a sum with at most one term per index of
    either factor, so its size is at most min(|a|_1 |b|_inf, |b|_1 |a|_inf);
    w is that bound's bit length plus a sign bit, in whole bytes.  Unless a
    factor is zero the bound is at least every input coefficient, so each
    input fits its slot too.
    """
    a, b = a[:n], b[:n]
    bound = min(sum(map(abs, a)) * max(map(abs, b), default=0),
                sum(map(abs, b)) * max(map(abs, a), default=0))
    if not bound:
        return [0] * n
    nb = (bound.bit_length() + 8) // 8

    def pack(c):
        zero = bytes(nb)
        pos = b"".join(x.to_bytes(nb, "little") if x > 0 else zero for x in c)
        neg = b"".join((-x).to_bytes(nb, "little") if x < 0 else zero
                       for x in c)
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    # the bias 2^(w-1) in every slot makes each slot a nonnegative w-bit digit
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")
    packed = (pack(a) * pack(b) + bias) & ((1 << (8 * nb * n)) - 1)
    raw, half = packed.to_bytes(nb * n, "little"), 1 << (8 * nb - 1)
    return [int.from_bytes(raw[k:k + nb], "little") - half
            for k in range(0, nb * n, nb)]


def _jacobi_cube(nterms: int) -> list:
    """nterms coefficients of P^3, (-1)^k (2k+1) at x^(k(k+1)/2) (Jacobi)."""
    out, k = [0] * nterms, 0
    while k * (k + 1) // 2 < nterms:
        out[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return out


def _gauss_phi(nterms: int) -> list:
    """nterms coefficients of P(x)^2 / P(x^2) = phi(-x), (-1)^k at x^(k^2)
    for every integer k (Gauss; Andrews, The Theory of Partitions, 2.2)."""
    out, m = [0] * nterms, math.isqrt(nterms) + 1
    for k in range(-m, m + 1):
        if k * k < nterms:
            out[k * k] += (-1) ** (k % 2)
    return out


def eta_product(factors, n: int) -> list:
    """First n >= 0 coefficients of prod P(x^m)^r over the nonempty (m, r)
    factors; the net exponent at every stride must be positive, so a
    factor whose powers cancel or turn negative raises ValueError.  The
    lacunary factors multiply two at a time, term by term; only the pair
    results and an unpaired factor go through the Kronecker kernel
    ``_product``, a factor at the coarser stride once per residue class of
    the finer one (h4's phi(-x^4) P^3(x^8) against the dense rest: four
    products of n/4 slots, not one of n slots with three in four empty)."""
    exponents, sparse = Counter(), []
    for m, r in factors:
        exponents[m] += r
    while exponents:
        m = min(exponents)
        r, nterms = exponents.pop(m), -(-n // m)
        if r < 1:
            raise ValueError("eta(q^m)^r: only positive powers expand")
        sparse += [(m, _jacobi_cube(nterms))] * (r // 3)
        if r % 3 == 1:
            sparse.append((m, _pentagonal_coeffs(nterms)))
        elif r % 3 == 2:  # P(x^m)^2 = phi(-x^m) P(x^(2m))
            sparse.append((m, _gauss_phi(nterms)))
            exponents[2 * m] += 1
    powers = sparse[len(sparse) // 2 * 2:]  # the unpaired factor, if any
    for (ma, a), (mb, b) in zip(sparse[::2], sparse[1::2]):
        g = math.gcd(ma, mb)  # a(x^ma) b(x^mb) term by term, in x^g
        out = [0] * -(-n // g)
        terms = [(j * mb // g, d) for j, d in enumerate(b) if d]
        for e, c in [(i * ma // g, c) for i, c in enumerate(a) if c]:
            for f, d in terms:
                if e + f >= len(out):
                    break
                out[e + f] += c * d
        powers.append((g, out))
    (g, out), *rest = powers
    for m, coeffs in rest:
        # out(x^g) at stride G = gcd(g, m) times coeffs(x^m), which fills
        # one slot in d = m / G: one _product per residue r mod d, of the
        # slots r, r + d, ... of out against coeffs, both at stride 1
        G = math.gcd(g, m)
        wide, d = [0] * -(-n // G), m // G
        wide[::g // G] = out
        out, g = [0] * len(wide), G
        for r in range(d):
            out[r::d] = _product(wide[r::d], coeffs,
                                 len(range(r, len(wide), d)))
    spread = [0] * n
    spread[::g] = out
    return spread


# The nine weight-3 forms.  h1..h5, h7, h8 are eta products, given as
# (m, r) factors of eta(q^m)^r; h9 is the half-period sign twist of h4 and
# h6 is h9 in the doubled variable, the only reading consistent with the
# scaling chain h6(tau) = h9(tau/2).
ETA_FORMS = {
    "h1": ((1, 6),),
    "h2": ((1, 3), (3, 3)),
    "h3": ((1, 3), (7, 3)),
    "h4": ((1, 2), (2, 1), (4, 1), (8, 2)),
    "h5": ((2, 6),),
    "h7": ((2, 3), (6, 3)),
    "h8": ((4, 6),),
}

FORM_IDS = ("h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8", "h9")


def form_series(form_id: str, n: int) -> list:
    """[a_1, ..., a_n], the coefficients of q^1..q^n of any of h1..h9; a
    form whose expansion sits on fractional exponents gives all zeros."""
    if form_id == "h9":
        return [-a if k % 2 else a
                for k, a in enumerate(form_series("h4", n), 1)]
    if form_id == "h6":
        return form_series("h9", 2 * n)[1::2]
    factors = ETA_FORMS[form_id]
    shift, frac = divmod(sum(m * r for m, r in factors), 24)
    if frac:
        return [0] * n
    coeffs = eta_product(factors, max(0, n + 1 - shift))
    return [coeffs[k - shift] if k >= shift else 0 for k in range(1, n + 1)]
