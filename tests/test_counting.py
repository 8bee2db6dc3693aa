import dataclasses
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (WeierstrassCurve, curve_count, h2_trace, hasse_count,
                     twist_fit)
from modk3 import counting
from modk3.arith import (InvalidPrimeError, VerificationError,
                         kronecker_character)
from modk3.cmforms import HECKE_SPECS, ap as form_ap
from modk3.counting import (CountReport, ModelMismatchError, ap_elliptic,
                            count_reports, good_primes, h3_trace,
                            k3_point_count)
from modk3.families import FAMILY_NAMES, preset
from modk3.kodaira import BadReductionError

E_TEST = (0, 0, 0, -1, 0)  # y^2 = x^3 - x, conductor 32
ROOT = Path(__file__).resolve().parent.parent


def exhaustive_count(E):
    p = E.p
    total = 1
    for x in range(p):
        for y in range(p):
            if E.is_on_curve((x, y)):
                total += 1
    return total


def test_curve_count_examples():
    assert 7 + 1 - ap_elliptic((0, 0, 0, -1, 0), 7) == 8
    # split node: y^2 = x^2 (x + 1) over F_5
    assert hasse_count((0, 1, 0, 0, 0), 5) == 5
    # cusp: y^2 = x^3 over F_5
    assert hasse_count((0, 0, 0, 0, 0), 5) == 6


def test_curve_count_vs_enumeration_random():
    # the numpy kernel, the oracle of the Hasse traces, by enumeration
    rng = random.Random(31)
    for _ in range(20):
        p = rng.choice([5, 7, 11, 13, 17, 101])
        E = WeierstrassCurve(rng.randrange(p), rng.randrange(p),
                             rng.randrange(p), rng.randrange(p),
                             rng.randrange(p), p=p)
        assert curve_count(E.ainvs, E.p) == exhaustive_count(E), E


def test_ap_elliptic():
    assert ap_elliptic(E_TEST, 7) == 0
    for p in (5, 7, 11, 13, 37):
        a = ap_elliptic(E_TEST, p)
        assert a * a <= 4 * p
    with pytest.raises(BadReductionError):
        ap_elliptic(E_TEST, 2)
    with pytest.raises(BadReductionError):
        ap_elliptic((0, 0, 0, 0, 5), 5)  # Delta = -432 * 25


def test_k3_count_report_invariant():
    fam = preset("g4_legendre")
    r = k3_point_count(fam, 5)
    assert r.total == 1 + 25 + 5 * r.ns_trace_used + r.B
    assert r.B == -6
    with pytest.raises(VerificationError):
        CountReport("x", 5, 0, 0, 1)


def test_count_report_identity_survives_python_O():
    # a forged report, an L-series assembled against a forged h3_trace, a
    # root-product expansion at a non-integer A, a tensor quartic checked
    # against a forged root-product expansion, a local factor with
    # constant term 2, a genus with forged elliptic counts, a coset count
    # in a forged ambient group, a family whose places collide at a prime
    # it does not declare bad, a forged Hasse table, a Cornacchia pair of
    # the wrong norm, a Hecke spec over a forged field discriminant, an
    # irreducible quadratic given to the root splitter and a scan whose
    # minimal c6 is forged to 0 raise even where assert statements are
    # stripped; one interpreter for all of them, each patch left behind
    # only where no later forgery reads it
    code = ("import itertools, sys\n"
            "from fractions import Fraction\n"
            "from modk3 import (arith, cmforms, congruence, counting, kodaira,\n"
            "                   lfunctions)\n"
            "from modk3.families import WeierstrassFamily, preset\n"
            "from modk3.arith import VerificationError\n"
            "from modk3.lfunctions import LocalFactor\n"
            "from modk3.counting import CountReport\n"
            "from modk3.zpoly import ZPoly\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "def forged_report(): CountReport('x', 5, 0, 0, 1)\n"
            "def forged_assembly():\n"
            "    lfunctions.h3_trace = lambda *a: 0\n"
            "    curve = (0, 0, 0, -1, 0)\n"
            "    lfunctions.assemble_h3(preset('g4_legendre'), curve, 13)\n"
            "def forged_newton():\n"
            "    lfunctions._root_product_expansion(Fraction(1, 2), 1, 1, 5)\n"
            "def forged_quartic():\n"
            "    lfunctions._root_product_expansion = lambda *a: (1, 0, 0, 0, 0)\n"
            "    lfunctions.tensor_factor(1, 2, 1, 5)\n"
            "def forged_factor(): LocalFactor(5, 3, (2, 1))\n"
            "def forged_genus():\n"
            "    congruence.elliptic_counts = lambda spec: (1, 0)\n"
            "    congruence.genus(congruence.preset_group(1))\n"
            "def forged_cosets():\n"
            "    # with det -1 in 'SL(2, Z/3)', S and T miss half the cosets\n"
            "    congruence.sl2_elements = lambda N: [\n"
            "        m for m in itertools.product(range(3), repeat=4)\n"
            "        if (m[0] * m[3] - m[1] * m[2]) % 3]\n"
            "    congruence.index_in_modular_group(congruence.CongruenceGroupSpec(\n"
            "        'forged', 3, lambda m: m == (1, 0, 0, 1)))\n"
            "def forged_places():\n"
            "    # y^2 = x(x - 1)(x - lam), lam = t(t - 5): roots 0 and 5\n"
            "    # meet mod 5\n"
            "    zero, lam = ((), (1,)), ((1, -5, 0), (1,))\n"
            "    minus = ((-1, 5, -1), (1,))  # -(1 + lam)\n"
            "    try:\n"
            "        kodaira.integral_model(WeierstrassFamily(\n"
            "            'forged', (zero, minus, zero, lam, zero), ()), 'zero')\n"
            "    except VerificationError as exc:\n"
            "        print('names 5:', 5 in exc.observed)\n"
            "        raise\n"
            "def forged_table():\n"
            "    # H(c, c) off by one power of c\n"
            "    pw, log, coefficients, shift, b_only, a_only = counting._table(101)\n"
            "    forged = (pw, log, coefficients, shift + 1, b_only, a_only)\n"
            "    counting._table = lambda p: forged\n"
            "    counting.k3_point_count(preset('g4_legendre'), 101)\n"
            "def forged_cornacchia():\n"
            "    # 0 is no square root of -4 mod 13: the pair is (0, 6)\n"
            "    arith._sqrt_mod = lambda a, p: 0\n"
            "    arith._norm_solutions(1, 13)\n"
            "def forged_field():\n"
            "    # -16 = 4 * (-4) is no field discriminant\n"
            "    cmforms.FIELD_DISC = {**cmforms.FIELD_DISC, 1: -16}\n"
            "    cmforms.HeckeCharSpec('h8', 1, 2, 64)\n"
            "def forged_split():\n"
            "    # t^2 + 1 has no root mod 7\n"
            "    kodaira._roots(ZPoly((1, 0, 1)), 7)\n"
            "def forged_minimal():\n"
            "    kodaira._horner = lambda *a: 0\n"
            "    kodaira.scan(preset('g4_legendre'), 5)\n"
            "for forgery in (forged_report, forged_assembly, forged_newton,\n"
            "                forged_quartic, forged_factor, forged_genus,\n"
            "                forged_cosets, forged_places, forged_table,\n"
            "                forged_cornacchia, forged_field, forged_split,\n"
            "                forged_minimal):\n"
            "    try:\n"
            "        forgery()\n"
            "    except VerificationError as exc:\n"
            "        print(exc.identity)\n"
            "    else:\n"
            "        sys.exit(4)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "total = 1 + p^2 + p * ns_trace_used + B",
        "assembled a_p = h3_trace",
        "Newton's identities divide exactly",
        "tensor quartic = Kronecker root product",
        "a local factor has constant term 1",
        "12 | 12 + mu - 3 e2 - 4 e3 - 6 c",
        "|SL2(Z/N)| = |H| [SL2 : H]",
        "names 5: True",
        "the places of Delta over Q reduce at every good prime",
        "a^2 <= 4p for the lifted Hasse invariant of every fibre",
        "u^2 + d v^2 = 4p",
        "Disc K is a fundamental discriminant",
        "f is a product of distinct linears",
        "minimal c6 is a unit at a multiplicative place"]


def test_k3_traces_match_forms_small_primes():
    cases = (("g4_legendre", "h8"), ("g62", "h7"),
             ("g82", "h8"), ("g8_412", "h4"))
    for name, fid in cases:
        fam = preset(name)
        spec = HECKE_SPECS[fid]
        for p in good_primes(fam, 5, 23):
            assert k3_point_count(fam, p).B == form_ap(spec, p), (name, p)


def test_inert_primes_kill_the_trace():
    fam = preset("g4_legendre")
    for p in (7, 11, 19, 23):
        assert k3_point_count(fam, p).B == 0, p


def test_twist_fit_results():
    # the fit over the good p <= 97 is the oracle of each stored twist
    stored = {}
    for name in FAMILY_NAMES:
        fam = preset(name)
        if fam.form_id:
            assert twist_fit(fam) == (fam.form_id, fam.twist_disc), name
            stored[name] = (fam.form_id, fam.twist_disc)
        else:
            assert fam.twist_disc == 0, name
    assert stored == {"g4_legendre": ("h8", 1), "g62": ("h7", 1),
                      "g82": ("h8", 1), "g8_412": ("h4", 1)}


def test_twist_fit_negative_control():
    # forcing the wrong CM field can never fit: the inert primes differ
    wrong = dataclasses.replace(preset("g62"), form_id="h8")
    with pytest.raises(ModelMismatchError):
        twist_fit(wrong, good_primes(wrong, 5, 60))
    with pytest.raises(ModelMismatchError):
        twist_fit(preset("e1_7"))  # no attached form


def test_twist_fit_needs_separating_primes():
    # at p = 5 alone four twists fit g4; D = -4 is the CM twin of D = 1
    # (D D' disc K = 16), but -24 and 24 are not, so the fit must refuse
    g4 = preset("g4_legendre")
    with pytest.raises(ModelMismatchError,
                       match=re.escape("[1, -4, -24, 24]")):
        twist_fit(g4, [5])
    # the CM twins alone are reported as the smaller discriminant
    assert twist_fit(g4, [5, 13]) == ("h8", 1)
    assert twist_fit(g4) == twist_fit(preset("g82")) == ("h8", 1)


def test_count_report_marks_ok():
    fam = preset("g62")
    (r,) = count_reports(fam, [13])
    assert r.ok and r.matched_form == "h7" and r.twist_disc == 1
    # the report checks the twist the family stores: chi_{-4}(7) = -1,
    # a_7 = 2, while chi_{-4}(5) = 1
    wrong = dataclasses.replace(fam, twist_disc=-4)
    ok, r = count_reports(wrong, [5, 7])
    assert ok.ok
    assert not r.ok and r.twist_disc == -4 and r.B == 2
    with pytest.raises(ModelMismatchError,
                       match="e1_7 has no attached weight-3 form"):
        count_reports(preset("e1_7"), [13])


def test_ns_trace_prediction_matches_geometry():
    for name in ("g4_legendre", "g62", "g82", "g8_412"):
        fam = preset(name)
        for p in good_primes(fam, 5, 23):
            assert (k3_point_count(fam, p).ns_trace_used
                    == fam.ns_data.trace(p)), (name, p)


def test_kummer_against_twisted_quotient_oracle():
    # #(A/-1)(F_p) = (#E1 #E2 + #E1' #E2')/2 with E' the quadratic twist
    p = 13
    a = ap_elliptic(E_TEST, p)
    n = p + 1 - a
    # y^2 = x^3 - x is its own twist statistics carrier: twist trace is -a
    n_tw = p + 1 + a
    r2 = 4 * 4  # full rational 2-torsion on both factors
    direct = (n * n + n_tw * n_tw) // 2 + p * r2
    # the closed form (p + 1)^2 + a1 a2 + p r2 of the blown-up quotient
    assert direct == (p + 1) ** 2 + a * a + p * r2


def test_h2_and_h3_traces():
    g62 = preset("g62")
    g4 = preset("g4_legendre")
    for p in (13, 17):
        assert h2_trace(g62, p) == 31 * p
    assert h2_trace(g4, 13) == 31 * 13
    assert h2_trace(g4, 7) == 27 * 7
    # all-rational minus part: AB + 6pA
    p = 13
    A = ap_elliptic(E_TEST, p)
    B = k3_point_count(g62, p).B
    assert h3_trace(g62, E_TEST, p) == A * B + 6 * p * A
    # chi_{-4} cycles flip sign at p = 3 mod 4
    A7 = ap_elliptic(E_TEST, 7)
    B7 = k3_point_count(g4, 7).B
    assert h3_trace(g4, E_TEST, 7) == A7 * B7 + 7 * A7 * (3 - 3)
    with pytest.raises(ValueError):
        h2_trace(preset("e1_7"), 13)


def test_bad_primes_rejected():
    with pytest.raises(BadReductionError):
        k3_point_count(preset("g62"), 3)
    with pytest.raises(BadReductionError):
        ap_elliptic((0, 0, 0, 1, 1), 3)
    # y^2 = x^3 - x over Z/nZ: no field, whatever the count would give
    for n in (1, 4, 9, 15):
        with pytest.raises(BadReductionError,
                           match=f"need a prime p >= 5, got {n}$"):
            ap_elliptic(E_TEST, n)


def test_ap_elliptic_refuses_primes_that_could_overflow(monkeypatch):
    # before the O(p) Python loop of the table build, and before Delta
    def unreachable(p):
        raise AssertionError(f"_table({p}) was built")

    monkeypatch.setattr(counting, "_table", unreachable)
    with pytest.raises(InvalidPrimeError):
        ap_elliptic((0, 0, 0, -1, 0), 2 ** 31 + 11)
    with pytest.raises(InvalidPrimeError):
        ap_elliptic((0, 0, 0, 0, 2 ** 31 + 11), 2 ** 31 + 11)
