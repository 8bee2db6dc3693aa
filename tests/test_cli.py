import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import argparse

import pytest

from modk3 import cli, congruence, counting, kodaira, lfunctions
from modk3.arith import InvalidPrimeError
from modk3.cli import COMMANDS, HECKE_SPECS, form_ap, run
from modk3.families import FAMILY_NAMES, preset

ROOT = Path(__file__).resolve().parent.parent


def records(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_groups_verify(capsys):
    assert run(["groups", "verify"]) == 0
    recs = records(capsys)
    assert len(recs) == 9
    assert all(r["ok"] for r in recs)
    assert {r["group"] for r in recs} == set(range(1, 10))
    assert all(r["lift_widths_unchanged"] for r in recs)


def test_groups_verify_needs_lift_widths(capsys, monkeypatch):
    # a lift whose cusp widths do not double fails the group: here each
    # cusp of a lift is counted once, as the cusp of the projective group
    widths = congruence.cusps_and_widths
    monkeypatch.setattr(congruence, "cusps_and_widths", lambda spec: widths(
        dataclasses.replace(spec, projective=True)))
    assert run(["groups", "verify"]) == 1
    recs = records(capsys)
    assert len(recs) == 9
    assert not any(r["ok"] or r["lift_widths_unchanged"] for r in recs)
    assert all(r["torsion_free"] and r["trace_minus2_free"] for r in recs)


def test_groups_verify_needs_the_preset_widths(capsys, monkeypatch):
    # a stored width multiset the group does not have fails that group only
    monkeypatch.setitem(congruence.PRESET_CUSP_WIDTHS, 4, (8, 8, 2, 2, 2, 2))
    assert run(["groups", "verify"]) == 1
    recs = records(capsys)
    assert [r["group"] for r in recs if not r["ok"]] == [4]
    assert recs[3]["cusp_widths"] == [8, 8, 4, 2, 1, 1]


def test_forms_check_single(capsys):
    assert run(["forms", "check", "--form", "h8", "--prec", "100"]) == 0
    recs = records(capsys)
    assert recs == [{"suite": "forms", "target": "h8", "n": 100,
                     "mismatches": [], "first_mismatch": None, "hecke": None,
                     "eta": None, "ok": True}]


def test_forms_qexp(capsys):
    assert run(["forms", "qexp", "--form", "h3", "--prec", "8"]) == 0
    recs = records(capsys)
    assert recs[0]["coefficients"] == [1, -3, 0, 5, 0, 0, -7, -3]
    # h1 sits on q^(1/4 + Z), so every integral coefficient is 0; h9 is the
    # sign twist of h4 and h6 reads h9 at even exponents
    for form, coefficients in (
            ("h1", [0] * 12),
            ("h6", [-2, 4, 4, -8, 0, -8, 0, 16, 10, 0, -28, 16]),
            ("h9", [-1, -2, 2, 4, 0, 4, 0, -8, 5, 0, -14, -8])):
        assert run(["forms", "qexp", "--form", form, "--prec", "12"]) == 0
        assert records(capsys) == [{"form": form, "n": 12,
                                    "coefficients": coefficients}]


def test_forms_ap(capsys):
    assert run(["forms", "ap", "--form", "h7", "--p", "7"]) == 0
    assert records(capsys) == [{"form": "h7", "p": 7, "ap": 2}]


def test_forms_ap_rejects_a_composite(capsys):
    with pytest.raises(InvalidPrimeError):
        form_ap(HECKE_SPECS["h3"], 9)
    assert run(["forms", "ap", "--form", "h3", "--p", "9"]) == 1
    err = capsys.readouterr().err
    assert err == '{"ok": false, "error": "9 is not prime"}\n'


def test_forms_ap_even_split_prime(capsys):
    assert run(["forms", "ap", "--form", "h3", "--pmin", "1",
                "--pmax", "30"]) == 0
    recs = records(capsys)
    assert recs[0] == {"form": "h3", "p": 2, "ap": -3}
    assert [r["p"] for r in recs] == [2, 3, 5, 11, 13, 17, 19, 23, 29]


def test_surface_scan_alias(capsys):
    assert run(["surface", "scan", "--family", "g4", "--p", "13"]) == 0
    recs = records(capsys)
    assert recs[0]["target"] == "g4_legendre"
    assert sorted(recs[0]["config"]) == ["I4"] * 6
    assert recs[0]["euler_total"] == 24


def test_surface_scan_needs_the_stored_configuration(capsys, monkeypatch):
    # the Euler audit passes, but the scan is not the stored multiset
    forged = dataclasses.replace(preset("g4_legendre"),
                                 expected_config=("I4",) * 5 + ("I5",))
    monkeypatch.setattr(cli, "_family", lambda name: forged)
    assert run(["surface", "scan", "--family", "g4", "--p", "13"]) == 1
    (rec,) = records(capsys)
    assert rec["config"] == ["I4"] * 6 and rec["euler_total"] == 24
    assert rec["ok"] is False


def test_surface_count(capsys):
    assert run(["surface", "count", "--family", "g62",
                "--pmin", "5", "--pmax", "13"]) == 0
    recs = records(capsys)
    assert [r["p"] for r in recs] == [5, 7, 11, 13]
    assert all(r["ok"] for r in recs)
    assert all(r["total"] == 1 + r["p"] ** 2 + r["p"] * r["ns_trace_used"]
               + r["B"] for r in recs)


def test_surface_count_ceiling(capsys):
    for action in ("count", "verify"):
        assert run(["surface", action, "--family", "g62",
                    "--pmin", "2201", "--pmax", "2221"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "refusing p > 2200 without --force\n"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def test_surface_count_refuses_p_past_2_31_before_any_array():
    # one int64 array over F_p at this p takes 16 GiB: the child runs
    # capped at 3 GiB of address space, so only a refusal made before the
    # first length-p array gives this record
    # one BLAS thread, so numpy's import fits under the cap on any core count
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-m", "modk3.cli", "surface",
                          "count", "--family", "g4", "--p", "2147483659",
                          "--force"], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=120,
                         preexec_fn=_cap_address_space)
    assert out.returncode == 1, out.stderr[-2000:]
    assert "Traceback" not in out.stderr
    assert out.stderr == ('{"ok": false, "error": "p=2147483659 >= 2^31 '
                          'would overflow the int64 fibre sum"}\n')


def test_surface_verify(capsys):
    assert run(["surface", "verify", "--family", "g82", "--pmax", "30"]) == 0
    rec = records(capsys)[0]
    assert rec["ok"] and rec["first_failure"] is None
    assert rec["form"] == "h8" and rec["twist_disc"] == 1
    assert all(rec[k] is None for k in ("B_expected", "B_observed",
                                        "ns_expected", "ns_observed"))


def test_surface_verify_reports_evidence_at_the_first_failure(capsys,
                                                              monkeypatch):
    # a wrong stored twist: chi_{-4}(5) = 1 passes, chi_{-4}(7) = -1 fails
    wrong = dataclasses.replace(preset("g62"), twist_disc=-4)
    monkeypatch.setattr(cli, "_family", lambda name: wrong)
    assert run(["surface", "verify", "--family", "g62", "--pmax", "30"]) == 1
    rec = records(capsys)[0]
    observed = counting.k3_point_count(wrong, 7)
    ns = counting.ns_trace_prediction(wrong, 7)
    assert rec == {"suite": "surface", "target": "g62", "form": "h7",
                   "twist_disc": -4, "primes": [5, 29], "first_failure": 7,
                   "B_expected": -form_ap(HECKE_SPECS["h7"], 7),
                   "B_observed": observed.B, "ns_expected": ns,
                   "ns_observed": observed.ns_trace_used, "ok": False}
    assert rec["B_expected"] != rec["B_observed"]
    assert rec["ns_expected"] == rec["ns_observed"]


def test_surface_commands_need_an_attached_form(capsys):
    for action, name in (("count", "e1_7"), ("verify", "x0_12")):
        assert run(["surface", action, "--family", name]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ('{"ok": false, "error": '
                                f'"{name} has no attached weight-3 form"}}\n')


def test_surface_verify_counts_only_its_primes(capsys, monkeypatch):
    counted = []
    k3_point_count = counting.k3_point_count

    def spy(family, p):
        counted.append(p)
        return k3_point_count(family, p)

    monkeypatch.setattr(counting, "k3_point_count", spy)
    assert run(["surface", "verify", "--family", "g62", "--pmax", "30"]) == 0
    assert sorted(set(counted)) == [5, 7, 11, 13, 17, 19, 23, 29]


def test_l3fold_euler(capsys):
    assert run(["l3fold", "euler", "--family", "g62",
                "--curve", "0,0,0,-1,0", "--p", "13"]) == 0
    rec = records(capsys)[0]
    assert rec["trace"] == 336
    assert rec["coefficients"][1] == -336


def test_l3fold_euler_counts_only_its_prime(capsys, monkeypatch):
    counted = []
    k3_point_count = counting.k3_point_count

    def spy(family, p):
        counted.append(p)
        return k3_point_count(family, p)

    monkeypatch.setattr(counting, "k3_point_count", spy)
    monkeypatch.setattr(lfunctions, "k3_point_count", spy)
    assert run(["l3fold", "euler", "--family", "g62",
                "--curve", "0,0,0,-1,0", "--p", "13"]) == 0
    assert set(counted) == {13}


def test_l3fold_euler_needs_an_attached_form(capsys):
    assert run(["l3fold", "euler", "--family", "e1_4",
                "--curve", "0,0,0,-1,0", "--p", "13"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ('{"ok": false, "error": '
                            '"e1_4 has no attached weight-3 form"}\n')


def test_l3fold_euler_range_skips_bad_primes_of_the_curve(capsys):
    # Delta(E) = -704 = -2^6 * 11: p = 11 is skipped, as l3fold series does
    curve = ["--curve", "0,1,0,-1,1"]
    assert run(["l3fold", "euler", "--family", "g62", *curve,
                "--pmin", "5", "--pmax", "20"]) == 0
    assert [r["p"] for r in records(capsys)] == [5, 7, 13, 17, 19]
    # an explicit bad prime is still an error
    assert run(["l3fold", "euler", "--family", "g62", *curve, "--p", "11"]) == 1


def test_l3fold_series(capsys):
    assert run(["l3fold", "series", "--family", "g62",
                "--curve", "0,0,0,-1,0", "--n", "20"]) == 0
    rec = records(capsys)[0]
    assert rec["coefficients"][12] == 336
    assert rec["betti"]["b2_threefold"] == 31


def test_pretty_and_csv_modes(capsys):
    assert run(["forms", "ap", "--form", "h8", "--p", "5", "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "ap=-6" in out
    assert run(["forms", "ap", "--form", "h8", "--p", "5", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "ap,form,p"


def test_usage_errors_exit_2(capsys):
    curve = ["--curve", "0,0,0,-1,0"]
    for argv in (["surface", "scan", "--family", "nope"],
                 ["bogus"],
                 ["l3fold", "series", "--family", "g62", *curve, "--n", "-3"],
                 ["l3fold", "series", "--family", "g62", *curve, "--n", "0"],
                 ["forms", "check", "--prec", "-1"],
                 ["forms", "check", "--prec", "0"],
                 ["forms", "qexp", "--form", "h3", "--prec", "x"],
                 ["forms", "ap", "--form", "h8", "--p", "0"],
                 ["surface", "count", "--family", "g62", "--pmin", "-5"],
                 ["surface", "verify", "--family", "g62", "--pmax", "0"],
                 ["verify", "all", "--pmax", "-1"],
                 ["surface", "scan", "--family", "g62", "--force"],
                 ["surface", "count", "--family", "g62", "--threads", "1"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    # an empty prime window is refused before any work, naming the window
    for argv, window in ((["surface", "verify", "--family", "g62",
                           "--pmin", "98", "--pmax", "100"], "[98, 100]"),
                         (["verify", "all", "--pmax", "4"], "[5, 4]"),
                         (["forms", "ap", "--form", "h8",
                           "--pmin", "98", "--pmax", "100"], "[98, 100]"),
                         (["l3fold", "euler", "--family", "g4", *curve,
                           "--pmin", "98", "--pmax", "100"], "[98, 100]")):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("no good prime of "), argv
        assert window in captured.err, argv


def test_bad_or_missing_commands_print_usage_and_exit_2(capsys):
    for argv in ([], ["surface"], ["surface", "bogus"], ["bogus", "verify"],
                 ["verify"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("usage: modk3 "), argv


def test_help_lists_the_commands_and_their_options(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(f"  {command} {action}\n" in out for command, action in COMMANDS)
    with pytest.raises(SystemExit) as exc:
        run(["surface", "count", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: modk3 surface count ")
    assert all(flag in out for flag in ("--family", "--force", "--pmax"))


def test_each_command_builds_only_its_own_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    assert run(["surface", "count", "--family", "g4", "--p", "1511",
                "--force"]) == 0
    assert built == ["modk3 surface count"]
    built.clear()
    cli._parser.cache_clear()
    assert run(["verify", "all", "--pmax", "13"]) == 0
    assert len(built) <= 5, built
    capsys.readouterr()


def test_verify_all_is_the_commands_it_stands_for(capsys):
    def out(*argv) -> str:
        assert run([str(a) for a in argv]) == 0, argv
        return capsys.readouterr().out

    def line(record: dict) -> str:
        return json.dumps(record, sort_keys=True) + "\n"

    expected = out("groups", "verify") + out("forms", "check")
    for name in FAMILY_NAMES:
        if name != "x0_12":
            p = counting.good_primes(preset(name), 5, 13)[0]
            expected += out("surface", "scan", "--family", name, "--p", p)
    for name in ("g4_legendre", "g62", "g82", "g8_412"):
        expected += out("surface", "verify", "--family", name, "--pmax", 13)
        ns = kodaira.ns_report(name)
        expected += line(dict(ns, suite="eigenspace", ok=ns["counts_match"]))
    expected += line(dict(lfunctions.betti_hodge_report(), suite="betti",
                          ok=True))
    assert out("verify", "all", "--pmax", 13).splitlines() == \
        expected.splitlines()


def test_verify_all_refuses_past_the_ceiling_before_any_work(capsys,
                                                            monkeypatch):
    def no_work(k):
        raise AssertionError("group_report ran before the refusal")
    monkeypatch.setattr(congruence, "group_report", no_work)
    monkeypatch.setattr(cli, "group_report", no_work)
    assert run(["verify", "all", "--pmax", "2300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refusing p > 2200 without --force\n"


def test_internal_errors_exit_1(capsys):
    # scanning at a bad prime is a domain error, not a usage error
    assert run(["surface", "scan", "--family", "g62", "--p", "3"]) == 1
    # an explicit --p is never filtered out: the library call reports it
    capsys.readouterr()
    assert run(["forms", "ap", "--form", "h8", "--p", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"ok": False,
                                        "error": "4 is not prime"}
    # a prime dividing the level is answered: at 2, which divides the
    # conductor of h8's character, a_2 = 0
    assert run(["forms", "ap", "--form", "h8", "--p", "2"]) == 0
    assert capsys.readouterr().out == '{"ap": 0, "form": "h8", "p": 2}\n'


def test_verify_all_smoke(capsys):
    assert run(["verify", "all", "--pmax", "60"]) == 0
    recs = records(capsys)
    assert len(recs) > 20
    assert all(r.get("ok", True) for r in recs)
    suites = {r.get("suite") for r in recs}
    assert {"groups", "forms", "scan", "surface", "eigenspace", "betti"} <= suites


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run([sys.executable, "-m", "modk3.cli", "forms", "ap",
                          "--form", "h8", "--p", "5"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0
    assert '"ap": -6' in out.stdout
