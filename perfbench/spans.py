"""In-memory span tracer that times calls into the d2dgames modules from outside.

The harness and the engines call each other through module attributes
(``radio.draw_gains``, ``coalition.switch_step``), looked up at call time, so
replacing those attributes with timing wrappers traces a run without touching
the package. Spans are kept in memory and written out when the run ends.

A span records its name, start, end, parent span and the drop it belongs to.
Self time is the span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter, defaultdict

# (module, attribute) timed as a span named "module.attribute". The third
# field marks a call that opens a new drop and says where its seed argument
# sits, (position, keyword), or NO_DROP for run-level work after the drops.
NO_DROP = ()
SPANNED = (
    ("cli", "load_config", None),
    ("cli", "run_experiment", None),
    ("harness", "write_outputs", NO_DROP),
    ("radio", "generate_topology", (3, "rng_seed")),
    ("radio", "draw_gains", None),
    ("radio", "sum_rate", None),
    ("auction", "auction_instance_from_radio", None),
    ("auction", "run_auction", None),
    ("auction", "random_allocation", None),
    ("auction", "all_cellular_allocation", None),
    ("coalition", "simulate_content_distribution", (4, "rng_seed")),
    ("coalition", "draw_content_gains", None),
    ("coalition", "make_value_fn", None),
    ("coalition", "run_switch_dynamics", None),
    ("coalition", "noncooperative_baseline", None),
    ("stackelberg", "stackelberg_from_radio", None),
    ("power_control", "power_game_from_radio", None),
    ("power_control", "run_power_game", None),
)

ROOT = "cli.main"

# per-layer metric -> spans whose self time it sums, in ms per drop
SELF_MS_PER_DROP = {
    "radio.generate_topology_ms": ("radio.generate_topology",),
    "radio.draw_gains_ms": ("radio.draw_gains",),
    "radio.sum_rate_ms": ("radio.sum_rate",),
    "auction.instance_build_ms": ("auction.auction_instance_from_radio",),
    "auction.baselines_ms": ("auction.random_allocation", "auction.all_cellular_allocation"),
    "coalition.draw_content_gains_ms": ("coalition.draw_content_gains",),
    "coalition.make_value_fn_ms": ("coalition.make_value_fn",),
    "coalition.run_switch_dynamics_ms": ("coalition.run_switch_dynamics",),
    "coalition.noncooperative_baseline_ms": ("coalition.noncooperative_baseline",),
    "coalition.simulate_self_ms": ("coalition.simulate_content_distribution",),
    "stackelberg.instance_build_ms": ("stackelberg.stackelberg_from_radio",),
    "power_control.instance_build_ms": ("power_control.power_game_from_radio",),
    "power_control.run_power_game_ms": ("power_control.run_power_game",),
    "harness.run_experiment_self_ms": ("cli.run_experiment",),
    "harness.write_outputs_ms": ("harness.write_outputs",),
    "harness.cli_self_ms": (ROOT,),
}

# counter -> the wrapped functions it needs, so a missing function shows as absent
COUNTER_SOURCES = {
    "radio.gain_entries": ("radio.draw_gains", "coalition.draw_content_gains"),
    "auction.batch_eval_calls": ("auction.AuctionInstance.batch_valuation",),
    "auction.batch_eval_rows": ("auction.AuctionInstance.batch_valuation",),
    "coalition.switch_steps": ("coalition.switch_step",),
    "coalition.switch_moves": ("coalition.switch_step",),
    "coalition.value_queries": ("coalition.make_value_fn",),
    "power_control.iterations": ("power_control.run_power_game",),
}

# metrics derived from spans in other ways: ms per CLI run, per-call quantiles
OTHER_SOURCES = {
    "harness.config_load_ms": ("cli.load_config",),
    "auction.run_auction_ms.p50": ("auction.run_auction",),
    "auction.run_auction_ms.p95": ("auction.run_auction",),
}


def _arg(args, kwargs, position, keyword):
    if keyword in kwargs:
        return kwargs[keyword]
    return args[position] if len(args) > position else None


class Tracer:
    """Span and counter recorder; ``install`` patches the modules, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, drop)
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.sample = 0
        self._drop = None
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        drop = self._drop
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, drop))

    def root(self, fn, *args):
        """Run one CLI call as the root span; drops inside it are labelled per sample."""
        self._drop = None
        return self._call(ROOT, fn, args, {})

    # -- patching --------------------------------------------------------
    def _patch(self, module, attr, wrapper):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_wrapper(self, name, fn, drop_arg):
        post = self._POST.get(name)

        def wrapper(*args, **kwargs):
            if drop_arg == NO_DROP:
                self._drop = None
            elif drop_arg is not None:
                self._drop = f"{self.sample}:{_arg(args, kwargs, *drop_arg)}"
            result = self._call(name, fn, args, kwargs)
            return result if post is None else post(self, result, args)

        return wrapper

    def _after_draw_gains(self, gains, args):
        topo = args[0]
        m, n = len(topo.cue), len(topo.d2d_pairs)
        # links modelled per RB: eNB<->CUE both ways; per pair dtx->eNB, eNB->drx,
        # dtx->CUE, CUE->drx, and dtx->drx to every pair's receiver
        self.counts["radio.gain_entries"] += (2 * m + n * (2 + 2 * m + n)) * m
        return gains

    def _after_content_gains(self, gains, args):
        inst = args[0]
        m, n = len(inst.cue_pos), len(inst.ue_pos)
        # as above with UEs in place of pairs, minus the UE->itself link
        self.counts["radio.gain_entries"] += (2 * m + n * (1 + 2 * m + n)) * m
        return gains

    def _after_instance_build(self, inst, args):
        batch = getattr(inst, "batch_valuation", None)
        if not callable(batch):
            self.absent.add("auction.AuctionInstance.batch_valuation")
            return inst
        counts = self.counts

        def counted(bidder, masks):
            counts["auction.batch_eval_calls"] += 1
            counts["auction.batch_eval_rows"] += len(masks)
            return batch(bidder, masks)

        try:
            inst.batch_valuation = counted
        except AttributeError:
            self.absent.add("auction.AuctionInstance.batch_valuation")
        return inst

    def _after_make_value_fn(self, value_fn, args):
        counts = self.counts

        def counted(anchor, members):
            counts["coalition.value_queries"] += 1
            return value_fn(anchor, members)

        return counted

    def _after_power_game(self, trace, args):
        self.counts["power_control.iterations"] += trace.iterations
        return trace

    # span name -> hook that counts on, and may wrap, the call's result
    _POST = {
        "radio.draw_gains": _after_draw_gains,
        "coalition.draw_content_gains": _after_content_gains,
        "auction.auction_instance_from_radio": _after_instance_build,
        "coalition.make_value_fn": _after_make_value_fn,
        "power_control.run_power_game": _after_power_game,
    }

    def install(self) -> None:
        for mod_name, attr, drop_arg in SPANNED:
            module = importlib.import_module(f"d2dgames.{mod_name}")
            name = f"{mod_name}.{attr}"
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(name)
                continue
            self._patch(module, attr, self._span_wrapper(name, fn, drop_arg))
        # switch_step runs too often for a span; it is only counted
        coalition = importlib.import_module("d2dgames.coalition")
        step = getattr(coalition, "switch_step", None)
        if step is None:
            self.absent.add("coalition.switch_step")
            return
        counts = self.counts

        def counted_step(*args, **kwargs):
            partition, moved = step(*args, **kwargs)
            counts["coalition.switch_steps"] += 1
            counts["coalition.switch_moves"] += int(moved)
            return partition, moved

        self._patch(coalition, "switch_step", counted_step)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- results ---------------------------------------------------------
    def self_ns(self) -> dict[int, int]:
        covered: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return {sid: end - start - covered[sid] for sid, _, start, end, _, _ in self.spans}

    def write(self, path: str) -> None:
        """One JSON object per line, ordered by start; times in ns from the first span."""
        own = self.self_ns()
        t0 = min((s[2] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, drop in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start - t0, "end_ns": end - t0,
                    "self_ns": own[sid], "parent": parent, "drop": drop,
                }) + "\n")

    def layer_metrics(self, drops: int) -> dict[str, float]:
        """Self-time metrics in ms per drop, run_auction per-call quantiles, and counters."""
        own = self.self_ns()
        by_name: dict[str, list[int]] = defaultdict(list)
        for sid, name, *_ in self.spans:
            by_name[name].append(own[sid])
        out = {
            metric: sum(sum(by_name[n]) for n in names) / 1e6 / drops
            for metric, names in SELF_MS_PER_DROP.items()
        }
        loads = by_name["cli.load_config"]
        out["harness.config_load_ms"] = sum(loads) / 1e6 / len(loads) if loads else 0.0
        auctions = sorted(by_name["auction.run_auction"])
        out["auction.run_auction_ms.p50"] = _quantile(auctions, 0.50) / 1e6
        out["auction.run_auction_ms.p95"] = _quantile(auctions, 0.95) / 1e6
        for counter in COUNTER_SOURCES:
            out[counter] = self.counts[counter]
        return out

    def absent_metrics(self) -> list[str]:
        """Metrics that need a wrapped function which no longer exists; they read 0."""
        sources = {**SELF_MS_PER_DROP, **OTHER_SOURCES, **COUNTER_SOURCES}
        return sorted(m for m, names in sources.items() if any(n in self.absent for n in names))


def _quantile(sorted_values: list[int], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    return float(sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)])
