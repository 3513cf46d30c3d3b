"""d2dgames benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sumrate-exact --seed 7 --seconds 20 --trace 0

Every sample is one or two in-process calls of the real entry point,
``d2dgames.cli.main(["run", "--config", ..., "--seed", K, "--out", ...])``,
from one process and one thread; the next sample starts when the previous one
has finished. ``--seed`` picks the sequence of program seeds K and reaches the
program only through ``--seed``. With ``--trace 0`` the run measures for
``--seconds`` seconds and reports end-to-end metrics. With ``--trace 1`` it
runs a fixed set of samples untraced, then traced, and reports per-layer
metrics. The last line of standard output is one JSON object with the result.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported anywhere.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy  # noqa: E402

import gate  # noqa: E402
import hostspeed  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9


@dataclass(frozen=True)
class Step:
    """One CLI run inside a sample."""

    experiment: str
    config: str  # file name under perfbench/configs
    csv: str
    expected: int  # CSV rows, or players for power-control
    ops: int  # operations attempted: drops x schemes


@dataclass(frozen=True)
class Workload:
    steps: tuple[Step, ...]
    drops: int  # drops per sample
    trace_samples: int  # fixed sample count of a traced run


WORKLOADS = {
    # 6 sweep points x 2 drops x 3 schemes; exhaustive demand on every auction
    "sumrate-exact": Workload(
        (Step("sumrate-vs-pairs", "sumrate-exact.cfg", "sumrate.csv", 36, 36),), 12, 12
    ),
    # 2 sweep points x 1 drop x 3 schemes; greedy demand above exact_cap
    "sumrate-greedy": Workload(
        (Step("sumrate-vs-pairs", "sumrate-greedy.cfg", "sumrate.csv", 6, 6),), 2, 8
    ),
    # 1 drop x 2 schemes x (50 rounds + round 0)
    "content": Workload(
        (Step("content-distribution", "content.cfg", "content.csv", 102, 2),), 1, 5
    ),
    # one seed: the 2000-point Stackelberg grid and the 4-player power game
    "pricing-power": Workload(
        (
            Step("stackelberg", "stackelberg.cfg", "stackelberg.csv", 2000, 1),
            Step("power-control", "power-control.cfg", "power.csv", 4, 1),
        ),
        1,
        200,
    ),
}


@dataclass
class Sample:
    seed: int
    wall_s: float
    cpu_s: float
    checks: list[gate.RunCheck]

    @property
    def failures(self) -> int:
        return sum(c.failures for c in self.checks)


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_sample(cli, name: str, seed: int, golden: dict | None = None, tracer=None) -> Sample:
    sample = Sample(seed, 0.0, 0.0, [])
    for step in WORKLOADS[name].steps:
        out = os.path.join(OUT, name, step.experiment)
        csv_path = os.path.join(out, step.csv)
        if os.path.exists(csv_path):
            os.remove(csv_path)
        argv = ["run", "--config", os.path.join(HERE, "configs", step.config),
                "--seed", str(seed), "--out", out]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            cpu0, t0 = _cpu_s(), time.perf_counter()
            try:
                rc = cli.main(argv) if tracer is None else tracer.root(cli.main, argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed run, reported by the gate
                rc = f"exception {exc!r}"
            t1, cpu1 = time.perf_counter(), _cpu_s()
        sample.wall_s += t1 - t0
        sample.cpu_s += cpu1 - cpu0
        sample.checks.append(gate.check_run(
            step.experiment, rc, csv_path, buf.getvalue(), step.expected,
            None if golden is None else golden[step.csv],
        ))
    return sample


def program_seeds(name: str, seed: int):
    rng = random.Random(f"{name}:{seed}")
    while True:
        yield rng.randrange(2, 2**31)


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def setup_times(name: str, speed: hostspeed.Index) -> tuple[list[float], int]:
    """Wall time of fresh interpreters that import the CLI and load the workload config."""
    cfg = os.path.join(HERE, "configs", WORKLOADS[name].steps[0].config)
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), cfg]
    times, failures = [], 0
    for _ in range(SETUP_PROBES):
        speed.measure()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        failures += proc.returncode != 0
    speed.measure()
    return times, failures


def host_record() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def combined_digest(samples: list[Sample]) -> str:
    h = hashlib.sha256()
    for s in samples:
        for c in s.checks:
            h.update(f"{s.seed}:{c.digest}\n".encode())
    return h.hexdigest()


def end_to_end(cli, name: str, seeds, seconds: float, report: dict) -> dict:
    wl = WORKLOADS[name]
    samples: list[Sample] = []
    speed = hostspeed.Index()
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        speed.measure_if_due()
        samples.append(run_sample(cli, name, next(seeds)))
    speed.measure()
    setup_speed = hostspeed.Index()
    setup, setup_failures = setup_times(name, setup_speed)
    report.update(samples=samples, setup_failures=setup_failures,
                  host_speed={"run": speed.wall, "run_cpu": speed.cpu, "setup": setup_speed.wall})

    drops = wl.drops * len(samples)
    wall = sum(s.wall_s for s in samples)
    cpu = sum(s.cpu_s for s in samples)
    # Throughput and CPU cost are totals over the window: per-sample figures
    # swing with each seed's input, and their median is the less steady estimate.
    # Times are scaled to the reference host speed (see hostspeed.py).
    metrics = {
        "drops_per_s": (drops / wall * speed.wall, "1/s"),
        "cpu_s_per_drop": (cpu / drops / speed.cpu, "s"),
        "setup_s": (statistics.median(setup) / setup_speed.wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report["raw"] = {"drops_per_s": drops / wall, "cpu_s_per_drop": cpu / drops,
                     "setup_s": statistics.median(setup)}
    report["stats"] = {
        "drops_per_s": quartiles([wl.drops / s.wall_s * speed.wall for s in samples]),
        "cpu_s_per_drop": quartiles([s.cpu_s / wl.drops / speed.cpu for s in samples]),
        "setup_s": quartiles([t / setup_speed.wall for t in setup]),
    }
    return {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}


def traced(cli, name: str, seeds, report: dict) -> dict:
    wl = WORKLOADS[name]
    tracer = Tracer()
    speed = hostspeed.Index()
    plain: list[Sample] = []
    samples: list[Sample] = []
    # Each seed runs untraced and traced back to back, in alternating order, so
    # a drift in host speed does not bias the overhead estimate.
    for i in range(wl.trace_samples):
        seed = next(seeds)
        tracer.sample = i
        speed.measure_if_due()
        for with_trace in (i % 2 == 1, i % 2 == 0):
            if not with_trace:
                plain.append(run_sample(cli, name, seed))
                continue
            tracer.install()
            try:
                samples.append(run_sample(cli, name, seed, tracer=tracer))
            finally:
                tracer.uninstall()
    speed.measure()
    # tracing must not change what the program writes
    mismatched = sum(
        [c.digest for c in p.checks] != [c.digest for c in t.checks]
        for p, t in zip(plain, samples)
    )
    report.update(samples=plain + samples, host_speed={"run": speed.wall},
                  trace_mismatches=mismatched)
    os.makedirs(OUT, exist_ok=True)
    span_path = os.path.join(OUT, f"{name}-seed{report['seed']}-spans.jsonl")
    tracer.write(span_path)
    report["span_file"] = os.path.relpath(span_path, ROOT)
    report["absent"] = tracer.absent_metrics()

    layer = tracer.layer_metrics(drops=wl.trace_samples * wl.drops)
    for k in layer:
        if layer_unit(k) == "ms":
            layer[k] /= speed.wall  # at reference host speed, as the end-to-end times
    checks = [c for s in samples for c in s.checks]
    layer["auction.rounds"] = sum(c.totals.get("rounds", 0) for c in checks)
    layer["auction.valuation_calls"] = sum(c.totals.get("valuation_calls", 0) for c in checks)
    layer["auction.rows_per_valuation_call"] = (
        layer["auction.batch_eval_rows"] / layer["auction.valuation_calls"]
        if layer["auction.valuation_calls"] else 0.0
    )
    layer["stackelberg.grid_points"] = sum(
        c.rows for s in samples for st, c in zip(wl.steps, s.checks)
        if st.experiment == "stackelberg"
    )
    layer["harness.csv_bytes"] = sum(c.csv_bytes for c in checks)
    layer["trace.overhead_frac"] = (
        sum(s.wall_s for s in samples) / sum(s.wall_s for s in plain) - 1.0
    )
    report["layer"] = layer
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layer.items())}


def layer_unit(metric: str) -> str:
    if metric.endswith("_ms") or "_ms." in metric:
        return "ms"
    if metric == "harness.csv_bytes":
        return "bytes"
    if metric == "auction.rows_per_valuation_call":
        return "rows/call"
    if metric == "trace.overhead_frac":
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "d2dgames", "cli.py")):
        print(f"d2dgames sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from d2dgames import cli

    name = args.workload
    report: dict = {"workload": name, "seed": args.seed, "trace": args.trace,
                    "host": host_record()}
    print(f"workload {name}  seed {args.seed}  trace {args.trace}")
    print("host " + json.dumps(report["host"], sort_keys=True))

    golden = gate.load_golden()
    golden_sample = run_sample(cli, name, golden["seed"], golden=golden[name])
    seeds = program_seeds(name, args.seed)
    if args.trace:
        metrics = traced(cli, name, seeds, report)
    else:
        metrics = end_to_end(cli, name, seeds, args.seconds, report)

    samples = report["samples"]
    wl = WORKLOADS[name]
    all_samples = [golden_sample] + samples
    attempted = sum(st.ops for _ in all_samples for st in wl.steps)
    failed = (sum(s.failures for s in all_samples) + report.get("setup_failures", 0)
              + report.get("trace_mismatches", 0))
    problems = [p for s in all_samples for c in s.checks for p in c.problems]
    first = samples[: wl.trace_samples]

    print(f"golden seed {golden['seed']}: "
          + ("OK" if not golden_sample.failures else "FAILED")
          + "  " + " ".join(f"{st.csv}={c.digest[:16]}"
                            for st, c in zip(wl.steps, golden_sample.checks)))
    print(f"digests of the first {len(first)} samples: sha256 {combined_digest(first)}")
    for p in problems[:20]:
        print(f"problem: {p}")
    if args.trace:
        for metric in report["absent"]:
            print(f"absent: {metric} (its wrapped function is gone; reads 0)")
        for k, m in metrics.items():
            print(f"{k:40s} {m['value']:14.6g} {m['unit']}")
        print(f"spans written to {report['span_file']}")
        print(f"host speed index (loop time / reference): {report['host_speed']['run']:.3f}")
    else:
        for k, m in metrics.items():
            q = report["stats"].get(k)
            per = "" if q is None else (
                f"  per sample: median {q['median']:.6g}, q1 {q['q1']:.6g}, "
                f"q3 {q['q3']:.6g}, n={q['n']}"
            )
            raw = report["raw"].get(k)
            raw = "" if raw is None else f"  raw {raw:.6g}"
            print(f"{k:16s} {m['value']:12.6g} {m['unit']:4s}{raw}{per}")
        hs = report["host_speed"]
        print(f"host speed index (loop time / reference): run {hs['run']:.3f} wall, "
              f"{hs['run_cpu']:.3f} cpu; set-up {hs['setup']:.3f}")
    error_rate = failed / attempted
    print(f"{'error_rate':16s} {error_rate:12.6g} ratio ({failed} failed / {attempted} attempted)")

    os.makedirs(OUT, exist_ok=True)
    detail = {k: v for k, v in report.items() if k != "samples"}
    detail["samples"] = [
        {"seed": s.seed, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
         "digests": [c.digest for c in s.checks], "failures": s.failures}
        for s in samples
    ]
    detail.update(attempted=attempted, failed=failed, error_rate=error_rate,
                  golden_ok=not golden_sample.failures, metrics=metrics)
    with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
