"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Monte Carlo scales, tolerances and thresholds are
pinned here and are not meant to be tuned.
"""

import math
import time

import numpy as np
import pytest

from d2dgames import coalition, radio
from d2dgames.auction import (
    AuctionConfig,
    AuctionInstance,
    allocation_from_auction,
    auction_instance_from_radio,
    run_auction,
)
from d2dgames.coalition import (
    ContentRound,
    ContentScenario,
    draw_content_gains,
    generate_content_instance,
    initial_partition,
    make_value_fn,
    merge_split,
    simulate_content_distribution,
    switch_step,
)
from d2dgames.config import loads_config
from d2dgames.harness import run_experiment, rows_to_csv
from d2dgames.oracle import exhaustive_best_allocation, grid_equilibrium, solve_min_power
from d2dgames.power_control import PowerConfig, PowerGameInstance, run_power_game
from d2dgames.seeding import derive_seed
from d2dgames.stackelberg import (
    LN2,
    follower_best_response,
    leader_optimize,
    verify_equilibrium,
)

PARAMS = radio.RadioParams().validate()
MASTER_SEED = 1


def _report(name: str, ok: bool, detail: str) -> str:
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    return line


def test_criterion_1_scheme_ordering():
    started = time.monotonic()
    config = loads_config(
        f"""
        experiment = sumrate-vs-pairs
        sweep = 10
        drops = 200
        master_seed = {MASTER_SEED}
        m_cue = 10
        schemes = rica,random,all_cellular
        """
    )
    summary = run_experiment(config)
    wall = time.monotonic() - started
    assert not summary.errors, summary.errors[:3]

    means = {scheme: summary.groups[(10, scheme)].mean for scheme in config.schemes}
    per_drop = {}
    for n_pairs, scheme, seed, value, *_ in summary.rows:
        per_drop.setdefault(seed, {})[scheme] = value
    rica_beats_random = sum(
        1 for cell in per_drop.values() if cell["rica"] > cell["random"]
    )
    frac = rica_beats_random / len(per_drop)

    clauses = {
        "mean(rica) > mean(all_cellular)": means["rica"] > means["all_cellular"],
        "mean(random) > mean(all_cellular)": means["random"] > means["all_cellular"],
        "rica > random on >= 95% of drops": frac >= 0.95,
        "runtime <= 2 min": wall <= 120.0,
    }
    detail = (
        f"mean(rica) > mean(random) > mean(all_cellular): {means['rica']:.1f} > "
        f"{means['random']:.1f} > {means['all_cellular']:.1f}; "
        f"rica>random on {frac:.0%} of drops; {wall:.0f}s"
    )
    line = _report("1 scheme ordering", all(clauses.values()), detail)
    failed = [name for name, ok in clauses.items() if not ok]
    assert not failed, f"{line}; failed clauses: {failed}"


def test_criterion_2_saturation_shape():
    config = loads_config(
        f"""
        experiment = sumrate-vs-pairs
        sweep = 2,4,6,8,10,12,14,16
        drops = 200
        master_seed = {MASTER_SEED}
        m_cue = 10
        schemes = rica
        """
    )
    summary = run_experiment(config)
    assert not summary.errors, summary.errors[:3]
    stats = {n: summary.groups[(n, "rica")] for n in config.sweep}
    means = {n: st.mean for n, st in stats.items()}
    stderr = {n: st.stddev / math.sqrt(st.count) for n, st in stats.items()}

    monotone = all(
        means[b] >= means[a] - stderr[a] for a, b in [(2, 4), (4, 6), (6, 8), (8, 10)]
    )
    gain_early = means[6] - means[2]
    gain_late = means[16] - means[12]
    saturating = gain_late < 0.5 * gain_early
    detail = (
        f"means {', '.join(f'{n}:{means[n]:.0f}' for n in config.sweep)}; "
        f"late/early gain {gain_late:.1f}/{gain_early:.1f} = {gain_late / gain_early:.2f}"
    )
    line = _report("2 saturation shape", monotone and saturating, detail)
    assert monotone, f"{line}; mean sum-rate not non-decreasing within 1 stderr"
    assert saturating, f"{line}; marginal gain 12->16 not < 50% of 2->6"


def _random_auction_values(rng, n_items, bidders):
    values = {}
    for b in bidders:
        base = float(rng.uniform(0.0, 2.0))
        item_vals = rng.uniform(-0.5, 3.0, n_items)
        pen = rng.uniform(0.0, 1.0, (n_items, n_items))
        for r in range(2**n_items):
            pkg = frozenset(i for i in range(n_items) if (r >> i) & 1)
            v = base + sum(item_vals[i] for i in pkg)
            for i in pkg:
                for j in pkg:
                    if i < j:
                        v -= pen[i, j]
            values[(b, pkg)] = v
    return values


def test_criterion_3_auction_properties():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 3))
    price_decreases = 0
    unterminated = 0
    over_budget_calls = 0
    conflicts = 0
    negative_surpluses = 0
    for _ in range(1000):
        n_items = int(rng.integers(0, 6))
        n_bidders = int(rng.integers(1, 5))
        bidders = tuple(range(n_bidders))
        values = _random_auction_values(rng, n_items, bidders)

        def batch_valuation(b, masks, _v=values):
            # 0/1 mask rows -> frozenset lookups
            return np.array(
                [_v[(b, frozenset(np.flatnonzero(row > 0.5).tolist()))] for row in masks]
            )

        inst = AuctionInstance(
            items=tuple(range(n_items)),
            bidders=bidders,
            batch_valuation=batch_valuation,
            config=AuctionConfig(
                epsilon=float(rng.uniform(0.1, 0.5)), p0=float(rng.choice([0.0, 0.2]))
            ),
        )
        state = run_auction(inst)
        v_max = max(values.values())
        bound = math.ceil(max(v_max - inst.config.p0, 0.0) / inst.config.epsilon) * n_items + 1
        if not (state.terminated and state.rounds <= bound):
            unterminated += 1
        for a, b in zip(state.price_history, state.price_history[1:]):
            if np.any(b < a):
                price_decreases += 1
        limit = n_bidders * (2**n_items - 1)
        for calls in state.per_round_calls:
            if calls > limit:
                over_budget_calls += 1
        owners = {}
        for b in bidders:
            for item in state.demand.get(b, frozenset()):
                if item in owners:
                    conflicts += 1
                owners[item] = b
        for b in bidders:
            pkg = state.demand.get(b, frozenset())
            surplus = values[(b, pkg)] - sum(state.prices[i] for i in pkg)
            if surplus < -1e-9:
                negative_surpluses += 1
    ok = (
        price_decreases == 0
        and unterminated == 0
        and over_budget_calls == 0
        and conflicts == 0
        and negative_surpluses == 0
    )
    detail = (
        f"1000 instances: {price_decreases} price decreases, {unterminated} beyond the "
        f"round bound, {over_budget_calls} call-budget breaches, {conflicts} conflicts, "
        f"{negative_surpluses} negative surpluses"
    )
    line = _report("3 auction properties", ok, detail)
    assert ok, line


def test_criterion_4_auction_near_optimality():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 4))
    ratios = []
    for _ in range(100):
        m = int(rng.integers(2, 4))  # bidders <= 3
        n = int(rng.integers(2, 5))  # items <= 4
        topo = radio.generate_topology(PARAMS, m, n, int(rng.integers(0, 2**31)))
        gains = radio.draw_gains(topo, PARAMS, int(rng.integers(0, 2**31)))
        inst = auction_instance_from_radio(topo, gains, PARAMS)
        state = run_auction(inst)
        assert state.terminated
        got = radio.sum_rate(allocation_from_auction(state, topo), gains, PARAMS)
        _, best = exhaustive_best_allocation(topo, gains, PARAMS)
        ratios.append(got / best)
    mean_ratio = float(np.mean(ratios))
    ok = mean_ratio >= 0.85
    line = _report(
        "4 auction near-optimality",
        ok,
        f"mean(rica/optimum) = {mean_ratio:.4f} over 100 instances (threshold 0.85)",
    )
    assert ok, line


def test_criterion_5_coalition_dynamics():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 5))
    switch_violations = 0
    unstable = 0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        scen = ContentScenario(n_d2d=n, k_seeds=k, m_cue=m, file_packets=10)
        inst = generate_content_instance(scen, PARAMS, int(rng.integers(0, 2**31)))
        gains = draw_content_gains(inst, PARAMS, int(rng.integers(0, 2**31)))
        value_fn = make_value_fn(ContentRound(inst, gains, PARAMS))
        part = initial_partition(inst)
        for _step in range(10_000):
            new, moved = switch_step(part, value_fn)
            if not moved:
                break
            if not new.total_value(value_fn) > part.total_value(value_fn):
                switch_violations += 1
            part = new
        for ue in range(n):
            src = part.anchor_of(ue)
            for dst in range(m):
                if dst == src:
                    continue
                delta = (
                    value_fn(src, part.members[src] - {ue})
                    + value_fn(dst, part.members[dst] | {ue})
                    - value_fn(src, part.members[src])
                    - value_fn(dst, part.members[dst])
                )
                if delta > 1e-9:
                    unstable += 1

    merge_split_failures = 0
    for _ in range(50):
        n_players = int(rng.integers(4, 9))  # synthetic games up to 8 players
        table = {frozenset(): 0.0}
        for r in range(1, 2**n_players):
            c = frozenset(i for i in range(n_players) if (r >> i) & 1)
            table[c] = float(rng.uniform(0.0, len(c) ** float(rng.uniform(0.5, 1.5))))

        def v(c, _t=table):
            return _t[frozenset(c)]

        result = merge_split([frozenset({p}) for p in range(n_players)], v)
        for i, a in enumerate(result):
            for b in result[i + 1:]:
                if v(a | b) > v(a) + v(b) + 1e-9:
                    merge_split_failures += 1
        for c in result:
            if len(c) < 2:
                continue
            rest = sorted(c - {min(c)})
            for pick in range(1, 2 ** len(rest)):
                s1 = frozenset({min(c)} | {rest[i] for i in range(len(rest)) if (pick >> i) & 1})
                s2 = c - s1
                if s2 and v(s1) + v(s2) > v(c) + 1e-9:
                    merge_split_failures += 1

    ok = switch_violations == 0 and unstable == 0 and merge_split_failures == 0
    detail = (
        f"500 radio instances: {switch_violations} non-increasing switches, "
        f"{unstable} unstable results; 50 synthetic merge/split games: "
        f"{merge_split_failures} stability failures"
    )
    line = _report("5 coalition dynamics", ok, detail)
    assert ok, line


def test_criterion_6_content_distribution():
    started = time.monotonic()
    scen = ContentScenario(
        n_d2d=20, k_seeds=4, m_cue=6, file_packets=500, packets_per_rate_unit=10.0, rounds=50
    )
    drops = 50
    coal_curves, nonc_curves = [], []
    strict_final = 0
    for drop in range(drops):
        seed = derive_seed(MASTER_SEED, 0, drop, 0)
        coop, selfish = simulate_content_distribution(
            scen, PARAMS, ("coalition", "noncooperative"), seed
        )
        coal_curves.append(coop.cumulative)
        nonc_curves.append(selfish.cumulative)
        if coop.cumulative[-1] > selfish.cumulative[-1]:
            strict_final += 1
    wall = time.monotonic() - started
    coal_mean = np.mean(coal_curves, axis=0)
    nonc_mean = np.mean(nonc_curves, axis=0)
    every_round = bool(np.all(coal_mean >= nonc_mean - 1e-9))
    frac = strict_final / drops
    clauses = {
        "mean curve >= at every round": every_round,
        "strictly greater at final round on >= 90% of drops": frac >= 0.90,
        "runtime <= 2 min": wall <= 120.0,
    }
    detail = (
        f"final means coalition={coal_mean[-1]:.0f} noncoop={nonc_mean[-1]:.0f} "
        f"(cap {scen.n_d2d * scen.file_packets}); strict finals {frac:.0%}; {wall:.0f}s"
    )
    line = _report("6 content distribution", all(clauses.values()), detail)
    failed = [name for name, ok in clauses.items() if not ok]
    assert not failed, f"{line}; failed clauses: {failed}"


def test_criterion_6_fails_when_a_scheme_raises(monkeypatch):
    def failing_baseline(*args, **kwargs):
        raise RuntimeError("baseline failed on purpose")

    monkeypatch.setattr(coalition, "noncooperative_baseline", failing_baseline)
    with pytest.raises(RuntimeError, match="baseline failed on purpose"):
        test_criterion_6_content_distribution()


def test_criterion_7_power_control():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 7))
    feasible_checked = 0
    infeasible_checked = 0
    mismatches = 0
    unmet_targets = 0
    false_convergences = 0
    while feasible_checked < 200 or infeasible_checked < 30:
        n = int(rng.integers(2, 6))
        g = rng.uniform(0.0, float(rng.uniform(0.02, 0.6)), (n, n))
        np.fill_diagonal(g, rng.uniform(0.5, 2.0, n))
        inst = PowerGameInstance(
            gains=g,
            targets=rng.uniform(0.5, 4.0, n),
            noise_w=rng.uniform(0.1, 1.0, n),
            p_max_w=1e5,
        )
        sol = solve_min_power(inst)
        if sol.feasible and sol.spectral_radius <= 0.95 and feasible_checked < 200:
            feasible_checked += 1
            trace = run_power_game(inst, PowerConfig(max_iters=20_000, tol_w=1e-14))
            if not trace.converged:
                false_convergences += 1
                continue
            rel = np.max(np.abs(trace.final - sol.powers) / np.abs(sol.powers))
            if rel > 1e-6:
                mismatches += 1
            if not np.all(inst.sinr(trace.final) >= inst.targets * (1 - 1e-6)):
                unmet_targets += 1
        elif not sol.feasible and sol.spectral_radius >= 1.05 and infeasible_checked < 30:
            infeasible_checked += 1
            trace = run_power_game(inst, PowerConfig(max_iters=500, tol_w=1e-12))
            if trace.converged:
                false_convergences += 1
    ok = mismatches == 0 and unmet_targets == 0 and false_convergences == 0
    detail = (
        f"200 feasible: {mismatches} beyond 1e-6 of the direct solve, "
        f"{unmet_targets} unmet targets; 30 infeasible: "
        f"{false_convergences} convergence misreports"
    )
    line = _report("7 power control", ok, detail)
    assert ok, line


def _random_stackelberg_instance(rng, lambda_points=500):
    from d2dgames.stackelberg import StackelbergInstance

    return StackelbergInstance(
        g_dd=float(rng.uniform(0.2, 3.0)),
        g_db=float(rng.uniform(0.01, 0.5)),
        g_cc=float(rng.uniform(0.2, 3.0)),
        g_cd=float(rng.uniform(0.01, 0.5)),
        p_c_w=float(rng.uniform(0.1, 2.0)),
        sigma_w=float(rng.uniform(0.05, 0.5)),
        p_max_w=float(rng.uniform(0.5, 4.0)),
        lambda_points=lambda_points,
    )


def test_criterion_8_stackelberg():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 8))
    follower_misses = 0
    leader_misses = 0
    unverified = 0
    for _ in range(100):
        inst = _random_stackelberg_instance(rng, lambda_points=500)
        # follower closed form vs grid oracle, within one grid cell
        lam = float(rng.uniform(0.0, 1.5 * inst.g_dd / (inst.sigma_w * LN2)))
        grid = np.linspace(0.0, inst.p_max_w, 10_000)
        utilities = (
            np.log2(1.0 + grid * inst.g_dd / inst.follower_interference_w) - lam * grid
        )
        p_grid = float(grid[int(np.argmax(utilities))])
        if abs(follower_best_response(inst, lam) - p_grid) > inst.p_max_w / 9999 + 1e-12:
            follower_misses += 1
        # leader vs exhaustive 2-D oracle
        out = leader_optimize(inst)
        ref = grid_equilibrium(inst, grid_points=inst.lambda_points)
        lam_step = (inst.lambda_max - inst.lambda_min) / (inst.lambda_points - 1)
        p_step = inst.p_max_w / (inst.lambda_points - 1)
        slope_p = inst.lambda_max + inst.g_db * inst.p_c_w * inst.g_cc / (
            inst.sigma_w**2 * LN2
        )
        one_cell = lam_step * inst.p_max_w + p_step * slope_p
        if not (
            abs(out.lambda_star - ref.lambda_star) <= lam_step + 1e-12
            or abs(out.u_leader - ref.u_leader) <= one_cell
        ):
            leader_misses += 1
        if not verify_equilibrium(inst, out, eps=1e-9):
            unverified += 1
    ok = follower_misses == 0 and leader_misses == 0 and unverified == 0
    detail = (
        f"100 instances: {follower_misses} follower misses, {leader_misses} leader "
        f"misses, {unverified} unverified equilibria"
    )
    line = _report("8 stackelberg", ok, detail)
    assert ok, line


def test_criterion_9_determinism(tmp_path):
    configs = {
        "sumrate": "experiment = sumrate-vs-pairs\nsweep = 2,4\ndrops = 5\nm_cue = 4\n",
        "content": (
            "experiment = content-distribution\ndrops = 2\n"
            "[content]\nn_d2d = 6\nk_seeds = 2\nm_cue = 2\nfile_packets = 60\nrounds = 4\n"
        ),
        "power": "experiment = power-control\n[power]\nplayers = 3\nmax_iters = 40\n",
        "stackelberg": "experiment = stackelberg\n[stackelberg]\nlambda_points = 64\n",
    }
    mismatched = []
    for name, text in configs.items():
        config = loads_config(text)
        first = run_experiment(config)
        second = run_experiment(config)
        csv_first = rows_to_csv(first.header, first.rows)
        csv_second = rows_to_csv(second.header, second.rows)
        if csv_first != csv_second:
            mismatched.append(name)
    ok = not mismatched
    line = _report(
        "9 determinism",
        ok,
        f"4 experiments, reruns byte-identical; mismatches: {mismatched or 'none'}",
    )
    assert ok, line
