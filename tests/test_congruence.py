import itertools
from functools import lru_cache

import pytest

from helpers import members_pm, psl2z
from modk3 import congruence
from modk3.arith import VerificationError
from modk3.congruence import (ClosureViolationError, CongruenceGroupSpec,
                              PRESET_CUSP_WIDTHS, _mul,
                              cusps_and_widths, elliptic_counts, genus,
                              group_report, has_trace_minus_two,
                              index_in_modular_group,
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
    # every N from 1 (one matrix, all entries 0) to 16
    for N in range(1, 17):
        assert len(sl2_elements(N)) == sl2_order(N)
        # the lexicographic order fixes the coset representatives: all N^4
        # matrices with ad - bc = 1 mod N, filtered in that order
        assert sl2_elements(N) == tuple(
            (a, b, c, d) for a in range(N) for b in range(N)
            for c in range(N) for d in range(N)
            if (a * d - b * c - 1) % N == 0), N


def test_full_group_baseline():
    g = psl2z()
    assert index_in_modular_group(g) == 1
    assert genus(g) == 0
    e2, e3 = elliptic_counts(g)
    assert (e2, e3) == (1, 1)
    assert [c.width for c in cusps_and_widths(g)] == [1]


def test_non_integral_genus_raises(monkeypatch):
    # one elliptic point of order 2 forged into Gamma(4)'s counts leaves
    # 12 + 24 - 3 - 36 = -3, not a multiple of 12
    monkeypatch.setattr(congruence, "elliptic_counts", lambda spec: (1, 0))
    with pytest.raises(VerificationError) as exc:
        genus(preset_group(1))
    assert exc.value.identity == "12 | 12 + mu - 3 e2 - 4 e3 - 6 c"
    assert (exc.value.inputs, exc.value.expected, exc.value.observed) == (
        dict(group=preset_group(1).name), 0, 9)


def test_closure_violation_detected():
    # not inverse-closed; inverse-closed but not product-closed
    # ((1, 1; 0, 1)^2 has b = 2); without the identity; empty, which is
    # closed but holds no identity
    for predicate, reason in ((lambda m: m[1] % 8 in (0, 1, 3), "not closed"),
                              (lambda m: m[1] % 8 in (0, 1, 7), "not closed"),
                              (lambda m: m[0] == 3, "not closed"),
                              (lambda m: False, "not a subgroup")):
        bad = CongruenceGroupSpec("broken", 8, predicate)
        with pytest.raises(ClosureViolationError, match=f"mod 8: {reason}"):
            bad.members()


def test_all_presets_match_reference_rows():
    for k in range(1, 10):
        g = preset_group(k)
        assert index_in_modular_group(g) == 24, k
        assert genus(g) == 0, k
        assert elliptic_counts(g) == (0, 0), k
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
        assert members_pm(lift) == members_pm(preset_group(k)), k


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
    # the groups verify record, but for the suite label the CLI adds
    assert group_report(4) == {
        "target": "Gamma_1(8)", "group": 4, "index": 24, "genus": 0,
        "cusp_widths": [8, 8, 4, 2, 1, 1], "torsion_free": True,
        "lift_has_minus_id": False, "lift_widths_unchanged": True,
        "trace_minus2_free": True, "ok": True}


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
    H = members_pm(spec) if spec.projective else spec.members()
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
    # entries are reduced mod N >= 2, so 1 mod N is 1
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


def test_coset_outside_the_orbit_raises(monkeypatch):
    # a forged ambient of |SL(2, Z/3)| = 24 matrices for H = {T^k}: H, one
    # matrix of each of the 8 + 8 cosets H g of determinant 1 and -1, and
    # six more of determinant 1.  |G| = |H| [SL2 : H] = 3 * 8 holds, but S
    # and T never reach the cosets of determinant -1
    H = [(1, 0, 0, 1), (1, 1, 0, 1), (1, 2, 0, 1)]
    gl2 = [m for m in itertools.product(range(3), repeat=4)
           if (m[0] * m[3] - m[1] * m[2]) % 3]
    forged = sorted({min(_mul(h, m, 3) for h in H) for m in gl2} | set(H))
    forged += [m for m in sl2_elements(3) if m not in forged][:6]
    monkeypatch.setattr(congruence, "sl2_elements", lambda N: forged)
    spec = CongruenceGroupSpec("forged unipotent", 3, lambda m: m in H)
    with pytest.raises(VerificationError) as exc:
        index_in_modular_group(spec)
    assert exc.value.identity == "the S, T orbit holds every coset"


def test_specs_of_one_name_keep_their_own_groups():
    # a spec is its modulus, predicate and projectivity, and the caches
    # are keyed so; the name is a label two groups may share
    gamma0 = CongruenceGroupSpec("G", 8, lambda m: m[2] == 0)
    gamma1 = CongruenceGroupSpec("G", 8, lambda m: m[2] == 0 and m[0] == 1)
    assert (len(gamma0.members()), len(gamma1.members())) == (32, 8)
    assert index_in_modular_group(gamma0) == 12
    assert index_in_modular_group(gamma1) == 24
    assert len(cusps_and_widths(gamma0)) == 4
    assert len(cusps_and_widths(gamma1)) == 6
    assert gamma0 != gamma1
    assert gamma0 == CongruenceGroupSpec("Gamma_0(8)", 8, gamma0.predicate)


def test_one_labelling_pass_per_preset(monkeypatch):
    # the preset and its lift share one pass over SL(2, Z/N) and one
    # closure check; fresh caches, so earlier tests do not count
    for name in ("_members", "_sl_action", "_coset_action"):
        fresh = lru_cache(maxsize=None)(getattr(congruence, name).__wrapped__)
        monkeypatch.setattr(congruence, name, fresh)
    for k in range(1, 10):
        group_report(k)
    assert congruence._sl_action.cache_info().misses == 9
    assert congruence._members.cache_info().misses == 9
    assert congruence._coset_action.cache_info().misses == 18


def test_trace_minus_two_prefilter_matches_the_class_set(monkeypatch):
    specs = [preset_lift(k) for k in range(1, 10)]
    specs += list(_classical_groups())
    found = []
    for spec in specs:
        N = spec.modulus
        expected = not trace_minus_two_classes(N).isdisjoint(spec.members())
        assert has_trace_minus_two(spec) == expected, spec.name
        found.append(expected)
    assert True in found and False in found
    # Gamma(4)'s lift: its identity has trace 2 = -2 mod 4 but is no -U^k
    lift = preset_lift(1)
    assert (1, 0, 0, 1) in lift.members() and not has_trace_minus_two(lift)
    # the other eight lifts hold no member of trace -2 mod N, so the class
    # set is never built for them
    built = []
    monkeypatch.setattr(congruence, "trace_minus_two_classes", built.append)
    for k in range(2, 10):
        assert not has_trace_minus_two(preset_lift(k)), k
    assert built == []
