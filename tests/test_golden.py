"""Byte identity of the benchmark configs' CSVs at program seed 1.

``perfbench/golden.json`` holds the sha256 of each CSV that the benchmark's
workloads write at seed 1; a refactor that moves any number changes a digest.
This test only reads the configs and the digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from d2dgames import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))

# workload -> (config under perfbench/configs, CSV it writes), one per CLI run
RUNS = {
    "sumrate-exact": [("sumrate-exact.cfg", "sumrate.csv")],
    "sumrate-greedy": [("sumrate-greedy.cfg", "sumrate.csv")],
    "content": [("content.cfg", "content.csv")],
    "pricing-power": [("stackelberg.cfg", "stackelberg.csv"), ("power-control.cfg", "power.csv")],
}


@pytest.mark.parametrize("workload", sorted(RUNS))
def test_csv_digest_matches_golden(workload, tmp_path):
    assert set(GOLDEN[workload]) == {csv for _, csv in RUNS[workload]}
    for config, csv in RUNS[workload]:
        out = tmp_path / config
        argv = ["run", "--config", str(PERFBENCH / "configs" / config),
                "--seed", str(GOLDEN["seed"]), "--out", str(out)]
        assert cli.main(argv) == 0
        digest = hashlib.sha256((out / csv).read_bytes()).hexdigest()
        assert digest == GOLDEN[workload][csv], f"{workload}/{csv} moved"
