import pytest

from helpers import psl2z
from modk3 import congruence
from modk3.arith import VerificationError
from modk3.congruence import (ClosureViolationError, CongruenceGroupSpec,
                              PRESET_CUSP_WIDTHS, _mul,
                              cusps_and_widths, elliptic_counts, genus,
                              group_report, has_trace_minus_two,
                              index_in_modular_group, is_torsion_free,
                              preset_group, preset_lift, sl2_elements,
                              trace_minus_two_classes)


def _inv(x, N):
    a, b, c, d = x  # det = 1
    return (d % N, -b % N, -c % N, a % N)


def sl2_order(N):
    out = N ** 3
    seen = set()
    n = N
    for p in range(2, N + 1):
        if n % p == 0:
            seen.add(p)
            while n % p == 0:
                n //= p
    for p in seen:
        out = out // p ** 2 * (p * p - 1)
    return out


def test_sl2_enumeration_sizes():
    for N in (2, 3, 4, 5, 6, 7, 8, 12, 16):
        assert len(sl2_elements(N)) == sl2_order(N)
        # the lexicographic order fixes the coset representatives
        assert sl2_elements(N) == tuple(
            (a, b, c, d) for a in range(N) for b in range(N)
            for c in range(N) for d in range(N) if (a * d - b * c) % N == 1)


def test_full_group_baseline():
    g = psl2z()
    assert index_in_modular_group(g) == 1
    assert genus(g) == 0
    e2, e3 = elliptic_counts(g)
    assert (e2, e3) == (1, 1)
    assert [c.width for c in cusps_and_widths(g)] == [1]


def test_closure_violation_detected():
    # not inverse-closed; inverse-closed but not product-closed
    # ((1, 1; 0, 1)^2 has b = 2); without the identity
    for predicate in (lambda m: m[1] % 8 in (0, 1, 3),
                      lambda m: m[1] % 8 in (0, 1, 7),
                      lambda m: m[0] == 3):
        bad = CongruenceGroupSpec("broken", 8, predicate)
        with pytest.raises(ClosureViolationError):
            bad.members()


def test_all_presets_match_reference_rows():
    for k in range(1, 10):
        g = preset_group(k)
        assert index_in_modular_group(g) == 24, k
        assert genus(g) == 0, k
        assert is_torsion_free(g), k
        widths = sorted((c.width for c in cusps_and_widths(g)), reverse=True)
        assert widths == sorted(PRESET_CUSP_WIDTHS[k], reverse=True), k
        assert sum(widths) == 24, k


def test_all_lifts_are_honest():
    # a lift must avoid -Id and every element of trace -2
    for k in range(1, 10):
        lift = preset_lift(k)
        assert not lift.contains_minus_id, k
        assert not has_trace_minus_two(lift), k
        # the lift projects onto the projective preset
        assert lift.members_pm() == preset_group(k).members_pm(), k


def test_lift_cusp_widths_double_without_changing():
    for k in (1, 5, 9):
        r = group_report(k)
        assert r["lift_widths_unchanged"], k


def test_gamma1_7_contains_expected_elements():
    g = preset_group(3)
    assert (1, 1, 0, 1) in g.members()
    assert (1, 0, 0, 1) in g.members()
    assert (2, 0, 0, 4) not in g.members()


def test_group_report_shape():
    r = group_report(4)
    assert r["modulus"] == 8
    assert r["index"] == 24
    assert len(r["cusp_widths"]) == 6
    assert r["widths_match_preset"]
    assert not r["lift_has_minus_id"]


def test_preset_bounds():
    with pytest.raises(KeyError):
        preset_group(10)
    with pytest.raises(KeyError):
        preset_lift(0)


# ---------------------------------------------------------------------------
# differential checks of the coset action against coset enumeration by BFS
# ---------------------------------------------------------------------------

def _oracle_coset(g, H, N):
    return min(_mul(h, g, N) for h in H)


def _oracle_action(spec):
    """(cosets, key): right cosets H\\G found by BFS under S, T and T^-1,
    each named by its least element."""
    N = spec.modulus
    H = spec.members_pm() if spec.projective else spec.members()
    S, T = (0, -1 % N, 1 % N, 0), (1 % N, 1 % N, 0, 1 % N)
    seen = {_oracle_coset((1, 0, 0, 1), H, N)}
    queue = list(seen)
    while queue:
        g = queue.pop()
        for gen in (S, T, _inv(T, N)):
            nxt = _oracle_coset(_mul(g, gen, N), H, N)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen), lambda g, w: _oracle_coset(_mul(g, w, N), H, N)


def _oracle_invariants(spec):
    """index, cusps as (representative, width) and (e2, e3) by BFS."""
    N = spec.modulus
    cosets, key = _oracle_action(spec)
    S, T = (0, N - 1, 1, 0), (1, 1, 0, 1)
    cusps, remaining = [], set(cosets)
    for g in cosets:
        if g in remaining:
            orbit = [g]
            while (nxt := key(orbit[-1], T)) != g:
                orbit.append(nxt)
            remaining -= set(orbit)
            cusps.append(((g[0], g[2]), len(orbit)))
    cusps.sort(key=lambda cd: -cd[1])
    elliptic = tuple(sum(key(g, w) == g for g in cosets)
                     for w in (S, _mul(S, T, N)))
    return len(cosets), cusps, elliptic


def _classical_groups():
    """Gamma_0(N), Gamma_1(N) and Gamma(N) for N <= 12, in PSL and in SL."""
    # entries are reduced mod N >= 2, so 1 mod N is 1; the names differ
    # from the presets', since specs are compared (and cached) by name
    predicates = {"Gamma_0": lambda m: m[2] == 0,
                  "Gamma_1": lambda m: m[2] == 0 and m[0] == 1,
                  "Gamma": lambda m: m[1] == m[2] == 0 and m[0] == 1}
    for N in range(2, 13):
        for name, predicate in predicates.items():
            for projective in (True, False):
                yield CongruenceGroupSpec(f"classical {name}({N})", N,
                                          predicate, projective)


def test_coset_action_matches_bfs_oracle():
    specs = [f(k) for k in range(1, 10) for f in (preset_group, preset_lift)]
    specs += list(_classical_groups())
    for spec in specs:
        index, cusps, elliptic = _oracle_invariants(spec)
        if spec.projective:
            assert index_in_modular_group(spec) == index, spec.name
        assert [(c.representative, c.width)
                for c in cusps_and_widths(spec)] == cusps, spec.name
        assert elliptic_counts(spec) == elliptic, spec.name


def test_trace_minus_two_closed_form_matches_conjugation():
    for N in range(2, 17):
        G = sl2_elements(N)
        conjugates = {_mul(_mul(g, (N - 1, -k % N, 0, N - 1), N),
                           _inv(g, N), N) for g in G for k in range(N)}
        assert trace_minus_two_classes(N) == conjugates, N


def test_orbit_missing_a_coset_raises(monkeypatch):
    # an ambient "SL(2, Z/3)" forged to hold the determinant -1 matrices
    # too: S and T never leave determinant 1, so half the cosets are missed
    forged = tuple((a, b, c, d) for a in range(3) for b in range(3)
                   for c in range(3) for d in range(3)
                   if (a * d - b * c) % 3 in (1, 2))
    monkeypatch.setattr(congruence, "sl2_elements", lambda N: forged)
    spec = CongruenceGroupSpec("forged Gamma(3)", 3,
                               lambda m: m == (1, 0, 0, 1))
    with pytest.raises(VerificationError, match=r"\[SL2 : H\]"):
        index_in_modular_group(spec)
