"""Correctness gate for one CLI run: exit code, CSV header and shape, error rows, digest.

The gate reads only what the command line wrote. It keeps its own copy of the
CSV headers (the README schema) instead of importing them from the package,
so a change to the harness cannot move both sides of the comparison.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field

HEADERS = {
    "sumrate-vs-pairs": "n_pairs,scheme,drop_seed,sum_rate_bps_hz,rounds,valuation_calls",
    "content-distribution": "round,scheme,drop_seed,cumulative_packets,total_value_bps_hz",
    "power-control": "iter,player,power_w,sinr_db",
    "stackelberg": "lambda,p_star_w,u_leader,u_follower",
}

# integer columns summed for the solver counters
SUMMED = {"sumrate-vs-pairs": ("rounds", "valuation_calls")}

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

_LOGGED_ERRORS = re.compile(r"^errors \((\d+)\):$", re.MULTILINE)


@dataclass
class RunCheck:
    """What the gate found in one CLI run's outputs."""

    digest: str = ""
    rows: int = 0
    totals: dict[str, int] = field(default_factory=dict)  # sums of SUMMED columns
    csv_bytes: int = 0
    error_rows: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failures(self) -> int:
        """Failed operations: error rows, or logged errors if more, plus failed checks."""
        return self.error_rows + len(self.problems)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _shape_problem(experiment: str, rows: list[list[str]], expected: int) -> str | None:
    """``expected`` is the row count, or the player count for power-control."""
    if experiment == "power-control":
        if len(rows) < 2 * expected or len(rows) % expected:
            return f"power-control: {len(rows)} rows is not a whole number of iterations"
        for r, row in enumerate(rows):
            if row[0] != str(r // expected) or row[1] != str(r % expected):
                return f"power-control: row {r} is {row[:2]}, expected iter/player order"
        return None
    if len(rows) != expected:
        return f"{experiment}: {len(rows)} rows, expected {expected}"
    return None


def check_run(
    experiment: str,
    rc: int,
    csv_path: str,
    stdout_text: str,
    expected: int,
    golden_digest: str | None = None,
) -> RunCheck:
    """Check one run; every problem found is one failed operation."""
    check = RunCheck()
    if rc != 0:
        check.problems.append(f"exit code {rc}")
    try:
        with open(csv_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        check.problems.append(f"no CSV: {exc}")
        return check
    check.csv_bytes = len(data)
    check.digest = hashlib.sha256(data).hexdigest()
    lines = data.decode("utf-8", errors="replace").splitlines()
    if not lines or lines[0] != HEADERS[experiment]:
        check.problems.append(f"bad header {lines[:1]}")
        return check
    rows = [line.split(",") for line in lines[1:]]
    check.rows = len(rows)
    check.error_rows = sum(
        1 for row in rows if any(cell.strip().lower() == "nan" for cell in row)
    )
    logged = sum(int(n) for n in _LOGGED_ERRORS.findall(stdout_text))
    check.error_rows = max(check.error_rows, logged)
    columns = lines[0].split(",")
    if any(len(row) != len(columns) for row in rows):
        check.problems.append(f"rows without {len(columns)} fields")
        return check
    try:
        for name in SUMMED.get(experiment, ()):
            col = columns.index(name)
            check.totals[name] = sum(int(row[col]) for row in rows)
    except ValueError as exc:
        check.problems.append(f"non-integer counter: {exc}")
    problem = _shape_problem(experiment, rows, expected)
    if problem:
        check.problems.append(problem)
    if golden_digest is not None and check.digest != golden_digest:
        check.problems.append(
            f"sha256 {check.digest} differs from golden {golden_digest}"
        )
    return check
