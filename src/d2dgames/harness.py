"""Monte Carlo experiment runner, statistics, and CSV emission.

Every drop derives its own seed from (master_seed, sweep index, drop index)
through a stable hash, so results do not depend on execution order and every
scheme at a given (sweep, drop) point sees the identical channel realization.
Outputs are written in a fixed order with repr'd floats (``str`` of a Python
float equals its ``repr``, so a row is written with one ``%s`` format), which
makes reruns of the same configuration byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from d2dgames import auction as auction_mod
from d2dgames import coalition as coalition_mod
from d2dgames import oracle as oracle_mod
from d2dgames import power_control as power_mod
from d2dgames import radio
from d2dgames import stackelberg as stackelberg_mod
from d2dgames.config import ExperimentConfig, dump_config
from d2dgames.seeding import derive_seed

# experiment -> (CSV file name, header); oracle-check writes JSON instead
CSV_TABLES = {
    "sumrate-vs-pairs": (
        "sumrate.csv",
        ("n_pairs", "scheme", "drop_seed", "sum_rate_bps_hz", "rounds", "valuation_calls"),
    ),
    "content-distribution": (
        "content.csv",
        ("round", "scheme", "drop_seed", "cumulative_packets", "total_value_bps_hz"),
    ),
    "power-control": ("power.csv", ("iter", "player", "power_w", "sinr_db")),
    "stackelberg": ("stackelberg.csv", ("lambda", "p_star_w", "u_leader", "u_follower")),
}


@dataclass(frozen=True)
class GroupStats:
    mean: float
    stddev: float
    count: int


# two-sided 95% quantiles of Student's t by degrees of freedom; a df between
# two entries reads the smaller one, which gives the wider interval
_T975 = {
    **dict(enumerate((
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ), start=1)),
    40: 2.021, 50: 2.009, 60: 2.000, 80: 1.990, 100: 1.984, 120: 1.980,
    200: 1.972, 500: 1.965, 1000: 1.962,
}


def t975(df: int) -> float:
    """The tabulated two-sided 95% t quantile for ``df >= 1`` degrees of freedom."""
    return _T975[max(k for k in _T975 if k <= df)]


@dataclass(frozen=True)
class PairedStats:
    """Paired differences ``a - b`` over the drops both schemes completed.

    ``ci95`` is the paired-t 95% confidence half-width of ``mean_diff``,
    ``t975(n - 1) * stddev / sqrt(n)``; None for fewer than two pairs.
    """

    mean_diff: float
    wins_a: int
    wins_b: int
    ties: int
    count: int
    ci95: float | None = None


@dataclass
class RunSummary:
    experiment: str
    rows: list[tuple] = field(default_factory=list)
    groups: dict[tuple, GroupStats] = field(default_factory=dict)
    paired: dict[tuple, PairedStats] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    wall_clock_s: float = 0.0
    checks: dict | None = None


def rows_to_csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    """Cells hold Python ``int``, ``str`` and ``float``; ``str`` of a float is its ``repr``.

    Each row is one ``%s`` format; a row whose length is not the header's raises.
    """
    row_fmt = ",".join(["%s"] * len(header))
    try:
        lines = [row_fmt % tuple(row) for row in rows]
    except TypeError:
        for index, row in enumerate(rows):
            if len(row) != len(header):
                raise ValueError(
                    f"row {index} has {len(row)} cells, the header {len(header)}"
                ) from None
        raise
    lines.insert(0, ",".join(header))
    return "\n".join(lines) + "\n"


def _mean_std(lists: list[list[float]]) -> list[tuple[float, float | None]]:
    """``np.mean`` and ``np.std(ddof=1)`` of each list, in order, with one call of
    each per list length over the stacked lists; a list of one value is its
    own mean and has no std (None). Row by row, the axis-1 reductions give
    the floats the per-list calls give."""
    stats: list = [None] * len(lists)
    by_length: dict[int, list[int]] = {}
    for i, values in enumerate(lists):
        if len(values) == 1:
            stats[i] = (values[0], None)
        else:
            by_length.setdefault(len(values), []).append(i)
    for at in by_length.values():
        stack = np.array([lists[i] for i in at])
        means = np.mean(stack, axis=1).tolist()
        stds = np.std(stack, axis=1, ddof=1).tolist()
        for i, mean, std in zip(at, means, stds):
            stats[i] = (mean, std)
    return stats


def summarize(rows: list[tuple]) -> tuple[dict, dict]:
    """Per-(sweep, scheme) mean/stddev plus paired scheme-vs-scheme differences.

    Rows start ``(sweep, scheme, drop_seed, value, ...)``; ``nan`` values are skipped.
    """
    by_group: dict[tuple, list[float]] = {}
    # sweep -> drop seed -> scheme -> value, each level in first-seen order
    by_cell: dict = {}
    for sweep, scheme, seed, value, *_ in rows:
        value = float(value)
        if math.isnan(value):
            continue
        by_group.setdefault((sweep, scheme), []).append(value)
        by_cell.setdefault(sweep, {}).setdefault(seed, {})[scheme] = value
    keys = sorted(by_group)
    groups = {}
    for key, (mean, std) in zip(keys, _mean_std([by_group[key] for key in keys])):
        count = len(by_group[key])
        groups[key] = GroupStats(mean=mean, stddev=0.0 if std is None else std, count=count)
    schemes = sorted({key[1] for key in by_group})
    by_pair = {}
    for sweep in sorted(by_cell):
        cells = by_cell[sweep].values()
        for i, a in enumerate(schemes):
            for b in schemes[i + 1:]:
                diffs = [cell[a] - cell[b] for cell in cells if a in cell and b in cell]
                if diffs:
                    by_pair[(sweep, a, b)] = diffs
    paired = {}
    for key, (mean_diff, std) in zip(by_pair, _mean_std(list(by_pair.values()))):
        diffs = by_pair[key]
        n = len(diffs)
        paired[key] = PairedStats(
            mean_diff=mean_diff,
            wins_a=sum(1 for d in diffs if d > 0),
            wins_b=sum(1 for d in diffs if d < 0),
            ties=sum(1 for d in diffs if d == 0),
            count=n,
            ci95=None if std is None else t975(n - 1) * std / math.sqrt(n),
        )
    return groups, paired


def _sumrate_drop(config: ExperimentConfig, sweep_idx: int, n_pairs: int, drop: int):
    seed_topo = derive_seed(config.master_seed, sweep_idx, drop, 0)
    seed_gain = derive_seed(config.master_seed, sweep_idx, drop, 1)
    seed_rand = derive_seed(config.master_seed, sweep_idx, drop, 2)
    topo = radio.generate_topology(config.radio, config.m_cue, n_pairs, seed_topo)
    gains = radio.draw_gains(topo, config.radio, seed_gain)
    rows, errors = [], []
    for scheme in config.schemes:
        try:
            rounds = calls = 0
            if scheme == "rica":
                inst = auction_mod.auction_instance_from_radio(
                    topo, gains, config.radio, config.auction
                )
                state = auction_mod.run_auction(inst)
                alloc = auction_mod.allocation_from_auction(state)
                rounds, calls = state.rounds, state.valuation_calls
            elif scheme == "random":
                alloc = auction_mod.random_allocation(topo, seed_rand)
            else:  # all_cellular; validate() admits no other scheme
                alloc = auction_mod.all_cellular_allocation(topo)
            value = radio.sum_rate(alloc, gains, config.radio)
            rows.append((n_pairs, scheme, seed_topo, value, rounds, calls))
        except Exception as exc:  # error row, run continues
            rows.append((n_pairs, scheme, seed_topo, float("nan"), 0, 0))
            errors.append(f"sweep={n_pairs} drop={drop} scheme={scheme}: {exc}")
    return rows, errors


def _content_drop(config: ExperimentConfig, drop: int):
    """All schemes of one drop in lockstep; if that raises, each scheme alone.

    A scheme's curve depends only on the drop seed and the round, never on
    the other schemes, so the replay gives every scheme that does not raise
    alone the curve the lockstep run would have; a scheme that does raise
    gets a ``nan`` row and an error line.
    """
    seed = derive_seed(config.master_seed, 0, drop, 0)

    def simulate(schemes):
        # rng_seed by keyword: perfbench/spans.py reads the drop seed from it
        return coalition_mod.simulate_content_distribution(
            config.content, config.radio, schemes, rng_seed=seed
        )

    rows, errors = [], []
    try:
        outcomes = zip(config.schemes, simulate(config.schemes))
    except Exception:
        outcomes = []
        for scheme in config.schemes:
            try:
                (curve,) = simulate((scheme,))
            except Exception as exc:
                curve = exc
            outcomes.append((scheme, curve))
        if not any(isinstance(curve, Exception) for _, curve in outcomes):
            raise  # no scheme fails alone, so the failure cannot be isolated
    for scheme, curve in outcomes:
        if isinstance(curve, Exception):
            rows.append((0, scheme, seed, float("nan"), float("nan")))
            errors.append(f"drop={drop} scheme={scheme}: {curve}")
            continue
        for r, total in enumerate(curve.cumulative):
            value = curve.total_values[r - 1] if r >= 1 else 0.0
            rows.append((r, scheme, seed, total, value))
    return rows, errors


def _run_drops(tasks, worker):
    """Run drop tasks in order and concatenate their rows and errors."""
    rows, errors = [], []
    for args in tasks:
        r, e = worker(*args)
        rows.extend(r)
        errors.extend(e)
    return rows, errors


def run_experiment(config: ExperimentConfig) -> RunSummary:
    started = time.monotonic()
    summary = RunSummary(experiment=config.experiment)
    if config.experiment == "sumrate-vs-pairs":
        tasks = [
            (config, si, n_pairs, drop)
            for si, n_pairs in enumerate(config.sweep)
            for drop in range(config.drops)
        ]
        summary.rows, summary.errors = _run_drops(tasks, _sumrate_drop)
        summary.groups, summary.paired = summarize(summary.rows)
    elif config.experiment == "content-distribution":
        tasks = [(config, drop) for drop in range(config.drops)]
        summary.rows, summary.errors = _run_drops(tasks, _content_drop)
        summary.groups, summary.paired = summarize(summary.rows)
    elif config.experiment == "power-control":
        summary.rows = _power_rows(config)
    elif config.experiment == "stackelberg":
        summary.rows = _stackelberg_rows(config)
    else:  # oracle-check; validate() admits no other experiment
        summary.checks = oracle_check(config)
    summary.wall_clock_s = time.monotonic() - started
    if config.output_path:
        write_outputs(config, summary)
    return summary


def _power_rows(config: ExperimentConfig):
    seed = derive_seed(config.master_seed, 0, 0, 0)
    topo = radio.generate_topology(config.radio, config.m_cue, config.power.players, seed)
    gains = radio.draw_gains(topo, config.radio, derive_seed(config.master_seed, 0, 0, 1))
    pairs = list(range(config.power.players))
    inst = power_mod.power_game_from_radio(gains, config.radio, 0, pairs, config.power)
    trace = power_mod.run_power_game(inst, config.power)
    rows = []
    for it, p in enumerate(trace.iterates):
        sinrs = inst.sinr(p)
        for player in range(inst.n_players):
            gamma = float(sinrs[player])
            sinr_db = 10.0 * math.log10(gamma) if gamma > 0 else float("-inf")
            rows.append((it, player, float(p[player]), sinr_db))
    return rows


def _stackelberg_rows(config: ExperimentConfig):
    seed = derive_seed(config.master_seed, 0, 0, 0)
    topo = radio.generate_topology(config.radio, config.m_cue, config.stackelberg.pair + 1, seed)
    gains = radio.draw_gains(topo, config.radio, derive_seed(config.master_seed, 0, 0, 1))
    inst = stackelberg_mod.stackelberg_from_radio(gains, config.radio, config.stackelberg)
    return stackelberg_mod.price_sweep(inst)


def oracle_check(config: ExperimentConfig) -> dict:
    """Cross-validate every engine against its brute-force reference.

    The instances are small and fixed (at most 64 enumerated states each), so
    the oracles' default budget always suffices.
    """
    params = config.radio
    checks: dict[str, bool] = {}

    ok = True
    for seed in range(5):
        topo = radio.generate_topology(params, 3, 3, derive_seed(config.master_seed, 90, seed))
        gains = radio.draw_gains(topo, params, derive_seed(config.master_seed, 91, seed))
        inst = auction_mod.auction_instance_from_radio(topo, gains, params)
        state = auction_mod.run_auction(inst)
        if not state.terminated:
            ok = False
            continue
        alloc = auction_mod.allocation_from_auction(state)
        got = radio.sum_rate(alloc, gains, params)
        # without this agreement an under-reporting sum_rate passes best >= got
        assignment = [alloc.rb_of_d2d.get(j, -1) for j in range(topo.n_pairs)]
        direct = oracle_mod._assignment_sum_rate(assignment, topo, gains, params)
        _, best = oracle_mod.exhaustive_best_allocation(topo, gains, params)
        ok = ok and math.isclose(got, direct, rel_tol=1e-9) and best >= got - 1e-9
    checks["auction_below_exhaustive_optimum"] = ok

    ok = True
    for seed in range(5):
        scen = coalition_mod.ContentScenario(n_d2d=4, k_seeds=2, m_cue=2)
        inst = coalition_mod.generate_content_instance(
            scen, params, derive_seed(config.master_seed, 92, seed)
        )
        gains = coalition_mod.draw_content_gains(
            inst, params, derive_seed(config.master_seed, 93, seed)
        )
        value_fn = coalition_mod.make_value_fn(coalition_mod.ContentRound(inst, gains, params))
        stable = coalition_mod.run_switch_dynamics(
            coalition_mod.initial_partition(inst), value_fn
        )
        # scored by the oracle, so a value function that misjudges every
        # coalition alike cannot vouch for its own partition
        anchors = [stable.anchor_of(ue) for ue in range(scen.n_d2d)]
        value = oracle_mod._partition_value(anchors, inst, gains, params)
        ok = ok and math.isclose(stable.total_value(value_fn), value, rel_tol=1e-9)
        for ue in range(scen.n_d2d):
            for dst in range(scen.m_cue):
                if dst != anchors[ue]:
                    moved = anchors[:ue] + [dst] + anchors[ue + 1 :]
                    moved_value = oracle_mod._partition_value(moved, inst, gains, params)
                    ok = ok and moved_value - value <= 1e-9
        _, best = oracle_mod.exhaustive_best_partition(inst, gains, params)
        ok = ok and value <= best + 1e-9
    checks["switch_stable_and_below_optimum"] = ok

    ok = True
    rng = np.random.default_rng(derive_seed(config.master_seed, 94))
    feasible_seen = 0
    while feasible_seen < 5:
        g = rng.uniform(0.0, 0.15, (3, 3))
        np.fill_diagonal(g, rng.uniform(0.5, 2.0, 3))
        inst = power_mod.PowerGameInstance(
            gains=g,
            targets=rng.uniform(0.5, 3.0, 3),
            noise_w=rng.uniform(0.1, 1.0, 3),
            p_max_w=1e4,
        )
        sol = oracle_mod.solve_min_power(inst)
        if not sol.feasible:
            continue
        feasible_seen += 1
        trace = power_mod.run_power_game(
            inst, power_mod.PowerConfig(max_iters=10_000, tol_w=1e-14)
        )
        ok = ok and trace.converged
        ok = ok and bool(np.all(np.abs(trace.final - sol.powers) <= 1e-6 * np.abs(sol.powers)))
    checks["power_iteration_matches_direct_solve"] = ok

    ok = True
    for seed in range(5):
        topo = radio.generate_topology(params, 2, 1, derive_seed(config.master_seed, 95, seed))
        gains = radio.draw_gains(topo, params, derive_seed(config.master_seed, 96, seed))
        s_inst = stackelberg_mod.stackelberg_from_radio(
            gains, params, stackelberg_mod.StackelbergConfig(lambda_points=500)
        )
        out = stackelberg_mod.leader_optimize(s_inst)
        ok = ok and stackelberg_mod.verify_equilibrium(s_inst, out, eps=1e-9)
        # the leader scored by the oracle, at (lambda*, p*) and at every grid
        # price with the engine's follower response: a leader utility the
        # engine gets wrong cannot vouch for its own optimum
        value = oracle_mod._leader_utility(s_inst, out.lambda_star, out.p_star_w)
        ok = ok and math.isclose(out.u_leader, value, rel_tol=1e-9)
        lams = s_inst.lambda_grid()
        responses = stackelberg_mod.follower_best_response(s_inst, lams)
        for lam, p in zip(lams.tolist(), responses.tolist()):
            ok = ok and oracle_mod._leader_utility(s_inst, lam, p) - value <= 1e-9
    checks["stackelberg_equilibrium_verified"] = ok

    checks["all_passed"] = all(checks.values())
    return checks


def _write_new(path: str, text: str, newline: str | None = None) -> None:
    """Write ``text`` to ``path`` as a new file, removing the file there first.

    On ext4, opening an existing file for writing truncates it in place,
    which waits for the writeback of its old contents: rewriting a 60 KB
    file every 5-200 ms, each truncating ``open`` took a median 23-36 ms,
    against 0.1 ms for an ``open`` after the file was removed.
    """
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)


def write_outputs(config: ExperimentConfig, summary: RunSummary) -> None:
    os.makedirs(config.output_path, exist_ok=True)
    _write_new(os.path.join(config.output_path, "effective_config.txt"), dump_config(config))
    if summary.experiment == "oracle-check":
        text = json.dumps(summary.checks, indent=2, sort_keys=True) + "\n"
        _write_new(os.path.join(config.output_path, "oracle_check.json"), text)
        return
    filename, header = CSV_TABLES[summary.experiment]
    text = rows_to_csv(header, summary.rows)
    _write_new(os.path.join(config.output_path, filename), text, newline="")
