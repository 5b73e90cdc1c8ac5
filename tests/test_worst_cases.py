"""Worst-case command lines, each run alone as a subprocess under a CPU
limit, against the budgets in ``worst_cases.json``."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylkit

TABLE = json.loads((Path(__file__).with_name("worst_cases.json")).read_text())

# A forked child's peak RSS starts at its parent's, and Linux keeps it
# across exec, so the CLI is started from this small launcher rather
# than from the test process.  It prints the child's exit code and
# wait4 usage as one JSON line.
_LAUNCHER = """
import json, os, resource, subprocess, sys
flags, argv = json.loads(sys.argv[1]), json.loads(sys.argv[2])
cpu_limit_s, out, err = int(sys.argv[3]), sys.argv[4], sys.argv[5]

def limit():
    # SIGXCPU ends a runaway child soon after it passes its budget.
    resource.setrlimit(resource.RLIMIT_CPU, (cpu_limit_s, cpu_limit_s))

# Files, not pipes: a child blocked on a full pipe would never exit.
with open(out, "wb") as stdout, open(err, "wb") as stderr:
    proc = subprocess.Popen([sys.executable, *flags, "-m", "weylkit.cli", *argv],
                            stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
                            preexec_fn=limit)
    _, status, usage = os.wait4(proc.pid, 0)
print(json.dumps({"exit": os.waitstatus_to_exitcode(status),
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "rss_mb": usage.ru_maxrss / 1024}))  # KiB on Linux
"""


def _run(flags, argv, cpu_limit_s, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(weylkit.__file__).resolve().parents[1])
    err = tmp_path / "stderr"
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, json.dumps(flags), json.dumps(argv), str(cpu_limit_s),
         str(tmp_path / "stdout"), str(err)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(launched.stdout), err.read_text()


def _row_id(row):
    # Long arguments (a 5000-digit literal) are named by their length.
    args = [*row.get("python_flags", ()), *row["argv"]]
    return " ".join(a if len(a) <= 40 else f"{a[:8]}...({len(a)} chars)" for a in args)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("row", TABLE["rows"], ids=_row_id)
def test_worst_case_row_meets_its_budget(row, tmp_path):
    cpu_limit_s = math.ceil(row["cpu_budget_s"]) + 1
    got, stderr = _run(row.get("python_flags", []), row["argv"], cpu_limit_s, tmp_path)
    assert got["exit"] == row["exit"], stderr[-500:]
    assert (stderr.strip() != "") == (row["exit"] == 2), stderr[-500:]
    assert got["cpu_s"] <= row["cpu_budget_s"], f"{got['cpu_s']:.2f} s CPU"
    assert got["rss_mb"] <= row["rss_budget_mb"], f"{got['rss_mb']:.1f} MB peak RSS"


def test_worst_case_budgets_follow_their_baselines():
    # The stated margin, applied to the baseline measurements.
    for row in TABLE["rows"]:
        cpu = max(1.0, math.ceil(2 * row["baseline_cpu_s"] * 2) / 2)
        assert row["cpu_budget_s"] == cpu, row["argv"]
        assert row["rss_budget_mb"] == math.ceil(1.1 * row["baseline_rss_mb"] + 8), row["argv"]
        assert row["exit"] in (0, 2)
