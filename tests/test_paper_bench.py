"""The paper-scale bench script's writer, on a two-drop config, and the
configs both benchmarks run."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from d2dgames import cli
from d2dgames.config import load_config, loads_config

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "paper_bench.py"
# read only: perfbench/run.py runs these files from each checkout
BENCH_CONFIGS = sorted((ROOT / "perfbench" / "configs").glob("*.cfg"))


def _load_script():
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("paper_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sys.path == path  # loading the writer leaves the import path alone
    return module


def test_writer_records_times_digest_and_host(tmp_path):
    paper_bench = _load_script()
    # one loop time before the run and one after: index (0.03 + 0.09) / 2 / 0.03
    loops = iter([(0.03, 0.0), (0.09, 0.0)])
    paper_bench.hostspeed.measure = lambda: next(loops)
    paper_bench.hostspeed.REFERENCE_S = 0.03
    text = "experiment = sumrate-vs-pairs\nsweep = 2,3\ndrops = 2\nm_cue = 2\n"
    path = tmp_path / "bench.json"
    paper_bench.write_bench(path, {"sumrate-vs-pairs": text}, 1, tmp_path / "work")
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(record) == {"repeats", "order", "threads", "host", "configs"}
    assert set(record["host"]) == {
        "nproc", "cpu_model", "python", "numpy", "blas", "commit", "src_modified"
    }
    summary = record["configs"]["sumrate-vs-pairs"]
    assert set(summary) == {
        "config", "csv", "csv_sha256", "wall_s", "cpu_s", "speed_index",
        "wall_s_median", "cpu_s_median",
    }
    assert len(summary["wall_s"]) == len(summary["cpu_s"]) == record["repeats"] == 1
    assert summary["speed_index"] == [2.0]
    assert summary["wall_s_median"] > 0 and summary["cpu_s_median"] > 0
    # the digest is that of the same config run in this process
    cfg = tmp_path / "direct.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "direct")]) == 0
    csv = (tmp_path / "direct" / summary["csv"]).read_bytes()
    assert summary["csv_sha256"] == hashlib.sha256(csv).hexdigest()


@pytest.mark.parametrize("path", BENCH_CONFIGS, ids=lambda path: path.name)
def test_benchmark_config_loads(path):
    load_config(str(path))


def test_paper_bench_configs_load():
    configs = _load_script().DEFAULT_CONFIGS
    assert configs
    for name, text in configs.items():
        assert loads_config(text).experiment == name
