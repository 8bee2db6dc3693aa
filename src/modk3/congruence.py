"""Finite computations in SL(2, Z/N) for the nine index-24 groups.

Every check is an exhaustive enumeration inside SL(2, Z/N) (at most 3072
elements, N = 16).  A group H is given by a membership predicate on
matrices (a, b, c, d) mod N.  One pass over SL(2, Z/N) in lexicographic
order labels the right cosets of H, once per (N, predicate), so a preset
and its lift share it: an element without a label opens the coset Hg,
represented by its least element g, and labels all of it.  S, T and ST
act on the labels as permutations: the index is the S, T orbit of the
identity coset, the cusps are the cycles of T (widths their lengths), and
e2, e3 count the fixed points of S and of ST.  The projective group +-H
pairs the coset of g with that of -g and keeps the smaller label.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .arith import VerificationError

Mat = tuple  # (a, b, c, d) mod N


class ClosureViolationError(ValueError):
    pass


def _mul(x: Mat, y: Mat, N: int) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % N, (a * f + b * h) % N,
            (c * e + d * g) % N, (c * f + d * h) % N)


def _neg(x: Mat, N: int) -> Mat:
    return tuple(-t % N for t in x)


@lru_cache(maxsize=None)
def sl2_elements(N: int) -> tuple:
    """All of SL(2, Z/N), in lexicographic order."""
    ds = [[[] for _ in range(N)] for _ in range(N)]  # ds[a][a d % N] has d
    for a in range(N):
        for d in range(N):
            ds[a][a * d % N].append(d)
    return tuple((a, b, c, d) for a in range(N) for b in range(N)
                 for c in range(N) for d in ds[a][(1 + b * c) % N])


@lru_cache(maxsize=None)
def trace_minus_two_classes(N: int) -> frozenset:
    """Union of the SL(2,Z/N)-conjugacy classes of -U^k, all k mod N.

    For g with first column (a, c), -g U^k g^-1 = (kac-1, -ka^2; kc^2, -1-kac),
    so only the first columns of SL(2, Z/N) matter.
    """
    columns = {(g[0], g[2]) for g in sl2_elements(N)}
    return frozenset(((k * a * c - 1) % N, -k * a * a % N, k * c * c % N,
                      (-1 - k * a * c) % N)
                     for a, c in columns for k in range(N))


@dataclass(frozen=True)
class CuspData:
    representative: tuple  # (a, c) in P^1(Z/N): first column of a coset rep
    width: int


@dataclass(frozen=True)
class CongruenceGroupSpec:
    """Subgroup of SL(2, Z/N) by membership predicate.

    ``projective=True`` means the spec describes a subgroup of PSL: the
    group is taken together with -Id.  Specs compare (and are cached) by
    modulus, predicate and ``projective``; the name is only a label.
    """

    name: str = field(compare=False)
    modulus: int
    predicate: object
    projective: bool = True

    def members(self) -> frozenset:
        return _members(self.modulus, self.predicate)

    @property
    def contains_minus_id(self) -> bool:
        N = self.modulus
        return _neg((1 % N, 0, 0, 1 % N), N) in self.members()


@lru_cache(maxsize=None)
def _members(N: int, predicate) -> frozenset:
    H = frozenset(g for g in sl2_elements(N) if predicate(g))
    # H is a subgroup iff H = <S>, S taken greedily from H, grown from Id
    group, gens, todo = {(1 % N, 0, 0, 1 % N)}, [], []
    for h in H:
        if h not in group:
            gens.append(h)
            todo += [(x, [h]) for x in group]
        while todo:
            x, by = todo.pop()
            for y in (_mul(x, g, N) for g in by):
                if y not in H:
                    raise ClosureViolationError(f"{predicate!r} mod {N}: "
                                                "not closed")
                if y not in group:
                    group.add(y)
                    todo.append((y, gens))
    if group != H:
        raise ClosureViolationError(f"{predicate!r} mod {N}: not a subgroup")
    return H


@lru_cache(maxsize=None)
def _sl_action(N: int, predicate) -> tuple:
    """(reps, S, T, ST, neg) for the right cosets of H: the least element
    of each in increasing order, the generators as permutations of the
    labels (S[i] is the label of the coset reps[i] * S), and neg[i] the
    label of the coset of -reps[i]."""
    G, H = sl2_elements(N), _members(N, predicate)
    label, reps = {}, []
    for x in G:
        if x not in label:
            e, f, g, h = x
            i = len(reps)
            for a, b, c, d in H:  # label[h x] = i, the product written out
                label[(a * e + b * g) % N, (a * f + b * h) % N,
                      (c * e + d * g) % N, (c * f + d * h) % N] = i
            reps.append(x)
    S = (0, -1 % N, 1 % N, 0)
    T = (1 % N, 1 % N, 0, 1 % N)
    S_, T_, ST_ = (tuple(label[_mul(g, w, N)] for g in reps)
                   for w in (S, T, _mul(S, T, N)))
    orbit, size = {label[(1 % N, 0, 0, 1 % N)]}, 0
    while size < len(orbit):
        size = len(orbit)
        orbit |= {w[i] for w in (S_, T_) for i in orbit}
    inputs = dict(N=N, predicate=predicate)
    if len(G) != len(H) * len(orbit):
        raise VerificationError("|SL2(Z/N)| = |H| [SL2 : H]", inputs,
                                len(G), len(H) * len(orbit))
    if len(orbit) != len(reps):
        raise VerificationError("the S, T orbit holds every coset", inputs,
                                len(reps), len(orbit))
    neg = tuple(label[_neg(g, N)] for g in reps)
    return tuple(reps), S_, T_, ST_, neg


@lru_cache(maxsize=None)
def _coset_action(spec: CongruenceGroupSpec) -> tuple:
    """(reps, S, T, ST) on the cosets of H, or for a projective spec on
    those of +-H: +-Hg = Hg u H(-g) takes the smaller of the two labels,
    whose rep is the least element of +-Hg."""
    reps, S, T, ST, neg = _sl_action(spec.modulus, spec.predicate)
    if not spec.projective:
        return reps, S, T, ST
    keep = [i for i, j in enumerate(neg) if i <= j]
    new = {i: k for k, i in enumerate(keep)}
    merged = [new[min(i, j)] for i, j in enumerate(neg)]
    return (tuple(reps[i] for i in keep),
            *(tuple(merged[w[i]] for i in keep) for w in (S, T, ST)))


def index_in_modular_group(spec: CongruenceGroupSpec) -> int:
    """Index of the group (mod +-Id) in PSL(2, Z)."""
    return len(_coset_action(replace(spec, projective=True))[0])


def cusps_and_widths(spec: CongruenceGroupSpec) -> list:
    """Cusps as the cycles of T on the cosets, widths as their lengths."""
    reps, _, T, _ = _coset_action(spec)
    seen, out = set(), []
    for i, g in enumerate(reps):
        width, j = 0, i
        while j not in seen:
            seen.add(j)
            width, j = width + 1, T[j]
        if width:
            out.append(CuspData((g[0], g[2]), width))
    out.sort(key=lambda cd: -cd.width)
    return out


def elliptic_counts(spec: CongruenceGroupSpec):
    """(e2, e3): numbers of elliptic points of order 2 and 3, the cosets
    fixed by S and by ST."""
    _, S, _, ST = _coset_action(spec)
    return (sum(i == j for i, j in enumerate(S)),
            sum(i == j for i, j in enumerate(ST)))


def genus(spec: CongruenceGroupSpec) -> int:
    mu = index_in_modular_group(spec)
    (e2, e3), c = elliptic_counts(spec), len(cusps_and_widths(spec))
    num = 12 + mu - 3 * e2 - 4 * e3 - 6 * c
    if num % 12 != 0:
        raise VerificationError("12 | 12 + mu - 3 e2 - 4 e3 - 6 c",
                                dict(group=spec.name), 0, num % 12)
    return num // 12


def has_trace_minus_two(spec: CongruenceGroupSpec) -> bool:
    """Whether the preimage in SL(2, Z) contains an element of trace -2.

    ``spec`` must describe a lift (a subgroup of SL(2, Z/N), -Id not
    quotiented).  Exact by surjectivity of SL(2,Z) -> SL(2, Z/N); only
    members of trace -2 mod N can lie in a class.
    """
    N = spec.modulus
    candidates = [g for g in spec.members() if (g[0] + g[3] + 2) % N == 0]
    return bool(candidates) and not trace_minus_two_classes(N).isdisjoint(
        candidates)


# ---------------------------------------------------------------------------
# presets: the nine index-24 genus-zero groups and their torsion-free lifts
# ---------------------------------------------------------------------------

def _gamma4(m):
    a, b, c, d = m
    return a % 4 == 1 and d % 4 == 1 and b % 4 == 0 and c % 4 == 0


def _g2_g1_3(m):
    # lift of Gamma_0(3) n Gamma(2): Gamma(2) n Gamma_1(3), modulus 6
    a, b, c, d = m
    return (a % 2 == 1 and d % 2 == 1 and b % 2 == 0 and c % 2 == 0
            and c % 3 == 0 and a % 3 == 1 and d % 3 == 1)


def _gamma1_7(m):
    a, b, c, d = m
    return a % 7 == 1 and d % 7 == 1 and c % 7 == 0


def _gamma1_8(m):
    a, b, c, d = m
    return a % 8 == 1 and d % 8 == 1 and c % 8 == 0


def _g08_g2_lift(m):
    # lift of Gamma_0(8) n Gamma(2): fix the +- ambiguity by a = 1 mod 4
    a, b, c, d = m
    return b % 2 == 0 and c % 8 == 0 and a % 4 == 1


def _g1_8_412(m):
    # (1+4a, 2b; 4c, 1+4d) with a = c mod 2, no +-; modulus 8
    a, b, c, d = m
    return (a % 4 == 1 and d % 4 == 1 and b % 2 == 0 and c % 4 == 0
            and (a - 1 - c) % 8 == 0)


def _g0_12_g1_3(m):
    a, b, c, d = m
    return c % 12 == 0 and a % 3 == 1 and d % 3 == 1


def _g0_16_g1_4(m):
    a, b, c, d = m
    return c % 16 == 0 and a % 4 == 1 and d % 4 == 1


def _g1_16_1622(m):
    # (1+4a, b; 8c, 1+4d) with a = c mod 2, no +-; modulus 16
    a, b, c, d = m
    return (a % 4 == 1 and d % 4 == 1 and c % 8 == 0
            and ((a - 1) // 4 - c // 8) % 2 == 0)


_LIFT_DEFS = {
    1: ("Gamma(4)", 4, _gamma4),
    2: ("Gamma_0(3)&Gamma(2)", 6, _g2_g1_3),
    3: ("Gamma_1(7)", 7, _gamma1_7),
    4: ("Gamma_1(8)", 8, _gamma1_8),
    5: ("Gamma_0(8)&Gamma(2)", 8, _g08_g2_lift),
    6: ("Gamma_1(8;4,1,2)", 8, _g1_8_412),
    7: ("Gamma_0(12)", 12, _g0_12_g1_3),
    8: ("Gamma_0(16)", 16, _g0_16_g1_4),
    9: ("Gamma_1(16;16,2,2)", 16, _g1_16_1622),
}

#: expected cusp-width multisets, indexed by preset group number
PRESET_CUSP_WIDTHS = {
    1: (4, 4, 4, 4, 4, 4),
    2: (6, 6, 6, 2, 2, 2),
    3: (7, 7, 7, 1, 1, 1),
    4: (8, 8, 4, 2, 1, 1),
    5: (8, 8, 2, 2, 2, 2),
    6: (8, 4, 4, 4, 2, 2),
    7: (12, 4, 3, 3, 1, 1),
    8: (16, 4, 1, 1, 1, 1),
    9: (16, 2, 2, 2, 1, 1),
}


def preset_group(k: int) -> CongruenceGroupSpec:
    """Preset group #k as a subgroup of PSL (predicate closed under -Id)."""
    name, N, pred = _LIFT_DEFS[k]
    return CongruenceGroupSpec(name, N, pred, projective=True)


def preset_lift(k: int) -> CongruenceGroupSpec:
    """The chosen torsion-free lift of group #k to SL(2, Z)."""
    name, N, pred = _LIFT_DEFS[k]
    return CongruenceGroupSpec(name + "~", N, pred, projective=False)


def group_report(k: int) -> dict:
    """The ``groups verify`` record of preset group k: ok when the group
    has index 24, genus 0, no elliptic points and six cusps of the preset
    widths, and its lift holds neither -Id nor an element of trace -2 and
    has the doubled widths."""
    g, lift = preset_group(k), preset_lift(k)
    widths = [cd.width for cd in cusps_and_widths(g)]  # widest first
    # no trace -2 means each PSL cusp splits into two SL cusps of the
    # same width, so the lift's multiset is the doubled one
    lift_widths = sorted(cd.width for cd in cusps_and_widths(lift))
    r = {"target": g.name, "group": k, "index": index_in_modular_group(g),
         "genus": genus(g), "cusp_widths": widths,
         "torsion_free": elliptic_counts(g) == (0, 0),
         "lift_has_minus_id": lift.contains_minus_id,
         "lift_widths_unchanged": lift_widths == sorted(widths * 2),
         "trace_minus2_free": not has_trace_minus_two(lift)}
    return dict(r, ok=r["index"] == 24 and r["genus"] == 0
                and r["torsion_free"] and len(widths) == 6
                and tuple(widths) == PRESET_CUSP_WIDTHS[k]
                and not r["lift_has_minus_id"] and r["trace_minus2_free"]
                and r["lift_widths_unchanged"])
