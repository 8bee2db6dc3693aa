"""The benchmark's correctness gate run in-process: each workload command's
stdout checked by ``bench/workloads.py``'s ``check`` against
``bench/reference.json``, so that an output drift fails here before it
fails a benchmark run.  ``workloads.py`` is executed from its source, so
that nothing is written under ``bench/``."""

import contextlib
import io
import types
from pathlib import Path

from modk3 import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads() -> types.ModuleType:
    module = types.ModuleType("workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"),
         module.__dict__)
    return module


def _run(argv: list) -> dict:
    """cli.run with stdout and stderr captured, as the bench worker does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"code": code, "exception": None, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_workload_outputs_pass_the_bench_check():
    wl = _load_workloads()
    pmin, pmax = wl.count_windows()[0]
    commands = [["verify", "all", "--pmax", "97"], ["groups", "verify"],
                ["forms", "check", "--prec", str(wl.FORMS_PREC)],
                ["surface", "count", "--family", "g4", "--pmin", str(pmin),
                 "--pmax", str(pmax), "--force"]] + [
        ["l3fold", "series", "--family", "g4", "--curve", curve,
         "--n", str(wl.SERIES_N)] for curve in wl.curve_pool()[:2]]
    reference = wl.load_reference()
    for command in commands:
        attempted, failures = wl.check(command, _run(command), reference)
        assert failures == [], command
        assert attempted > 1, command
