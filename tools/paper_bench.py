"""Paper-scale wall and CPU time of the two default experiments.

Runs the default ``sumrate-vs-pairs`` and ``content-distribution`` configs
(each file sets only ``experiment``) ``REPEATS`` times each, alternating
between them, every run in a fresh interpreter through the package's CLI with
the BLAS and OpenMP thread pools pinned to one thread. Writes one JSON file
with each config's per-run and median wall and CPU seconds, the sha256 of the
CSV it wrote (every run must write the same bytes) and a host record::

    python tools/paper_bench.py --out bench.json

Raw seconds swing with the host's load, so compare runs taken in alternating
order in the same hour. Per-layer totals and solver counters are not
recorded yet.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))  # run as a script: the checkout's package

from d2dgames.harness import CSV_TABLES  # noqa: E402

# name -> config file text; the default experiments at paper scale
DEFAULT_CONFIGS = {
    "sumrate-vs-pairs": "experiment = sumrate-vs-pairs\n",
    "content-distribution": "experiment = content-distribution\n",
}
REPEATS = 3  # runs per config
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_run(experiment: str, config_text: str, workdir: Path) -> tuple[float, float, str]:
    """One CLI run in a fresh interpreter: (wall s, CPU s, sha256 of its CSV)."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "run.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    out = workdir / "out"
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "d2dgames", "run", "--config", str(cfg), "--out", str(out)]
    cpu0, wall0 = _child_cpu_s(), time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall, cpu = time.perf_counter() - wall0, _child_cpu_s() - cpu0
    if proc.returncode != 0:
        raise RuntimeError(f"{experiment} exited {proc.returncode}:\n{proc.stderr}")
    digest = hashlib.sha256((out / CSV_TABLES[experiment][0]).read_bytes()).hexdigest()
    return wall, cpu, digest


def host_record() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        src_modified = bool(subprocess.run(
            ["git", "status", "--porcelain", "--", "src"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        commit, src_modified = None, None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "commit": commit,
        "src_modified": src_modified,
    }


def write_bench(path: Path, configs: dict[str, str], repeats: int, workdir: Path) -> dict:
    """Run each config ``repeats`` times, alternating, and write the summary to ``path``."""
    runs: dict[str, list[tuple[float, float, str]]] = {name: [] for name in configs}
    for r in range(repeats):
        for name, text in configs.items():
            runs[name].append(time_run(name, text, workdir / f"{name}-{r}"))
    result = {}
    for name, timed in runs.items():
        walls, cpus, digests = zip(*timed)
        digests = set(digests)
        if len(digests) != 1:
            raise RuntimeError(f"{name}: runs wrote different CSVs: {sorted(digests)}")
        walls = [round(wall, 3) for wall in walls]
        cpus = [round(cpu, 3) for cpu in cpus]
        result[name] = {
            "config": configs[name],
            "csv": CSV_TABLES[name][0],
            "csv_sha256": digests.pop(),
            "wall_s": walls,
            "cpu_s": cpus,
            "wall_s_median": statistics.median(walls),
            "cpu_s_median": statistics.median(cpus),
        }
    record = {
        "repeats": repeats,
        "order": "alternating",
        "threads": {var: "1" for var in THREAD_VARS},
        "host": host_record(),
        "configs": result,
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        record = write_bench(Path(args.out), DEFAULT_CONFIGS, REPEATS, Path(tmp))
    for name, summary in record["configs"].items():
        print(
            f"{name}: wall {summary['wall_s_median']:.2f} s  cpu {summary['cpu_s_median']:.2f} s"
            f"  {summary['csv']} {summary['csv_sha256'][:12]}…"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
