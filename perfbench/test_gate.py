"""Self-test of the benchmark's correctness gate.

The gate must pass the program's real outputs and fail outputs altered by one
byte, by an injected ``nan`` row, by a lost row or by a nonzero exit code.
Run from the repository root:

    python3 perfbench/test_gate.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, run.SRC)
from d2dgames import cli  # noqa: E402

WORKLOAD = "pricing-power"  # the cheapest workload; it writes two CSVs
SCRATCH = os.path.join(run.OUT, "selftest")


def _outputs(seed: int) -> dict[str, bytes]:
    """Run one sample and return its CSVs by experiment."""
    sample = run.run_sample(cli, WORKLOAD, seed)
    assert sample.failures == 0, [c.problems for c in sample.checks]
    out = {}
    for step in run.WORKLOADS[WORKLOAD].steps:
        with open(os.path.join(run.OUT, WORKLOAD, step.experiment, step.csv), "rb") as fh:
            out[step.experiment] = fh.read()
    return out


def _check(experiment: str, data: bytes, golden_digest=None, rc=0, stdout="") -> gate.RunCheck:
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, f"{experiment}.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    step = next(s for s in run.WORKLOADS[WORKLOAD].steps if s.experiment == experiment)
    return gate.check_run(experiment, rc, path, stdout, step.expected, golden_digest)


def _golden(experiment: str) -> str:
    step = next(s for s in run.WORKLOADS[WORKLOAD].steps if s.experiment == experiment)
    return gate.load_golden()[WORKLOAD][step.csv]


def test_golden_outputs_pass():
    golden = gate.load_golden()
    sample = run.run_sample(cli, WORKLOAD, golden["seed"], golden=golden[WORKLOAD])
    assert sample.failures == 0, [c.problems for c in sample.checks]


def test_one_byte_change_fails_digest():
    data = _outputs(gate.load_golden()["seed"])["stackelberg"]
    assert _check("stackelberg", data, _golden("stackelberg")).failures == 0
    pos = data.index(b"\n", len(data) // 2) - 1  # last digit of a row in the middle
    altered = data[:pos] + (b"1" if data[pos:pos + 1] != b"1" else b"2") + data[pos + 1:]
    check = _check("stackelberg", altered, _golden("stackelberg"))
    assert check.failures == 1 and "sha256" in check.problems[0], check.problems


def test_nan_row_fails_at_any_seed():
    data = _outputs(12345)["power-control"]
    assert _check("power-control", data).failures == 0
    lines = data.split(b"\n")
    it, player, _, sinr_db = lines[5].split(b",")
    lines[5] = b",".join((it, player, b"nan", sinr_db))
    check = _check("power-control", b"\n".join(lines))
    assert check.error_rows == 1 and check.failures == 1, check.problems


def test_logged_error_counts_without_nan_row():
    data = _outputs(12345)["stackelberg"]
    check = _check("stackelberg", data, stdout="errors (1):\n  drop=0 scheme=x: boom\n")
    assert check.failures == 1


def test_lost_row_and_exit_code_fail():
    data = _outputs(12345)["stackelberg"]
    short = data[: data.rindex(b"\n", 0, len(data) - 1) + 1]
    assert _check("stackelberg", short).failures == 1
    assert _check("stackelberg", data, rc=2).failures == 1


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} gate self-tests passed")
