"""Byte identity of the benchmark configs' CSVs.

``perfbench/golden.json`` holds the sha256 of each CSV that the benchmark's
workloads write at program seed 1; a refactor that moves any number changes a
digest. The content CSV is also pinned at seeds 2 and 3, whose drops take
other paths through the content kernel, and so is the greedy sum-rate CSV,
whose auctions take other greedy walks. The paper-scale content run, the
default ``content-distribution`` config (50 drops x 50 rounds x 2 schemes), is
pinned as well, and so are the pricing-power CSVs at seeds 2 and 3, whose
channels give other price grids and other power-game iterates. The exact
sum-rate CSV is pinned at seeds 2 and 3, whose auctions take other clock paths
through the exhaustive demand tables. The content CSV and both sum-rate CSVs
are pinned in the uplink too, where the cellular transmitter and receiver of
every RB swap places. These tests only read the configs and the digests.
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

# content.csv of perfbench/configs/content.cfg at further program seeds
CONTENT_DIGESTS = {
    2: "1f11bcec50f7c475ea8ca9106cb460682295680ac0c6d0e1fc60b4497f647c5d",
    3: "1437bf807cca1836bafc1232218c6f021c815ba736e37220c3c2d014e38fa46c",
}

# content.csv of perfbench/configs/content.cfg with link_direction = uplink, program seed 1
UPLINK_CONTENT_DIGEST = "2729d8d244e29699f9788b12b3829c325c94d0fe0f0ab83dadf627772addd1f3"

# sumrate.csv of perfbench/configs/sumrate-exact.cfg at further program seeds
SUMRATE_EXACT_DIGESTS = {
    2: "9258ce769d2166fe50a56f068289b4feeb19a63679fd3bc1d54e7833549584f5",
    3: "a17024aafb89d655928bd2c83d46d49f7937eb7ed651fc9f294e766e2a388853",
}

# sumrate.csv of each sum-rate config with link_direction = uplink, program seed 1
UPLINK_SUMRATE_DIGESTS = {
    "sumrate-exact.cfg": "0898819ab3e97681c758aa1b8048b00493b698b1a354afeba44d5f9361b33713",
    "sumrate-greedy.cfg": "70d90f4b8438c3c0a7b26897bf80818429066c90af864cff24ef81d8301b10de",
}

# sumrate.csv of perfbench/configs/sumrate-greedy.cfg at further program seeds
SUMRATE_GREEDY_DIGESTS = {
    2: "8d55f7bb3ae96a122a8e9c1e8e8af69e75e16288d80272339e00d654e5746b72",
    3: "f2d09349b9f7fa7deb5cc5b3b616691e4dcd5ddccc5fffde9f5f5dcdcc2ba17e",
}

# (config, CSV) of the pricing-power workload -> digest at further program seeds
PRICING_POWER_DIGESTS = {
    ("stackelberg.cfg", "stackelberg.csv"): {
        2: "2fc2998436654203fa4fd5a064a3869d5ed64b0089d18f0e0181e62d343cfcc1",
        3: "1328b4aa5e2fd8a92650a5a240aa7ad7aa11bb44844c4c1f87993647182dc237",
    },
    ("power-control.cfg", "power.csv"): {
        2: "e54cad2dcabe2af611bc197092d739c6960f36407e9f210a0b3e23894884cdb2",
        3: "476a7bdeb419041a191657bb08081402b3e21487cbb1e623e84423ad3f9bf4b5",
    },
}

# content.csv of the default content-distribution config at master seed 1
PAPER_SCALE_CONTENT_DIGEST = "bad279dc68faf142e723f11725e9e7cde78ef701abf16a5fbd29adb01ecd722d"


def _run_digest(config, csv, seed, out):
    argv = ["run", "--config", str(PERFBENCH / "configs" / config),
            "--seed", str(seed), "--out", str(out)]
    assert cli.main(argv) == 0
    return hashlib.sha256((out / csv).read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", sorted(RUNS))
def test_csv_digest_matches_golden(workload, tmp_path):
    assert set(GOLDEN[workload]) == {csv for _, csv in RUNS[workload]}
    for config, csv in RUNS[workload]:
        digest = _run_digest(config, csv, GOLDEN["seed"], tmp_path / config)
        assert digest == GOLDEN[workload][csv], f"{workload}/{csv} moved"


@pytest.mark.parametrize("seed", sorted(CONTENT_DIGESTS))
def test_content_digest_at_more_seeds(seed, tmp_path):
    digest = _run_digest("content.cfg", "content.csv", seed, tmp_path)
    assert digest == CONTENT_DIGESTS[seed], f"content.csv moved at seed {seed}"


def _uplink_digest(config, csv, tmp_path):
    cfg = tmp_path / "uplink.cfg"
    base = (PERFBENCH / "configs" / config).read_text(encoding="utf-8")
    cfg.write_text(base + "[radio]\nlink_direction = uplink\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
    return hashlib.sha256((out / csv).read_bytes()).hexdigest()


def test_uplink_content_digest(tmp_path):
    digest = _uplink_digest("content.cfg", "content.csv", tmp_path)
    assert digest == UPLINK_CONTENT_DIGEST, "uplink content.csv moved"


@pytest.mark.parametrize("config", sorted(UPLINK_SUMRATE_DIGESTS))
def test_uplink_sumrate_digest(config, tmp_path):
    digest = _uplink_digest(config, "sumrate.csv", tmp_path)
    assert digest == UPLINK_SUMRATE_DIGESTS[config], f"uplink sumrate.csv of {config} moved"


@pytest.mark.parametrize("seed", sorted(SUMRATE_EXACT_DIGESTS))
def test_sumrate_exact_digest_at_more_seeds(seed, tmp_path):
    digest = _run_digest("sumrate-exact.cfg", "sumrate.csv", seed, tmp_path)
    assert digest == SUMRATE_EXACT_DIGESTS[seed], f"sumrate.csv moved at seed {seed}"


@pytest.mark.parametrize("seed", sorted(SUMRATE_GREEDY_DIGESTS))
def test_sumrate_greedy_digest_at_more_seeds(seed, tmp_path):
    digest = _run_digest("sumrate-greedy.cfg", "sumrate.csv", seed, tmp_path)
    assert digest == SUMRATE_GREEDY_DIGESTS[seed], f"sumrate.csv moved at seed {seed}"


@pytest.mark.parametrize(
    "run, seed",
    [(run, seed) for run, digests in PRICING_POWER_DIGESTS.items() for seed in sorted(digests)],
)
def test_pricing_power_digest_at_more_seeds(run, seed, tmp_path):
    config, csv = run
    digest = _run_digest(config, csv, seed, tmp_path)
    assert digest == PRICING_POWER_DIGESTS[run][seed], f"{csv} moved at seed {seed}"


def test_paper_scale_content_digest(tmp_path):
    cfg = tmp_path / "content.cfg"
    cfg.write_text("experiment = content-distribution\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "content.csv").read_bytes()).hexdigest()
    assert digest == PAPER_SCALE_CONTENT_DIGEST, "paper-scale content.csv moved"
