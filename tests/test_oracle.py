from dataclasses import replace

import numpy as np
import pytest

from d2dgames import radio
from d2dgames.auction import (
    allocation_from_auction,
    auction_instance_from_radio,
    random_allocation,
    run_auction,
)
from d2dgames.coalition import (
    ContentRound,
    ContentScenario,
    draw_content_gains,
    generate_content_instance,
    initial_partition,
    make_value_fn,
    run_switch_dynamics,
)
from d2dgames.oracle import (
    OracleBudget,
    _assignment_sum_rate,
    _partition_value,
    exhaustive_best_allocation,
    exhaustive_best_partition,
    grid_equilibrium,
    solve_min_power,
)
from d2dgames.power_control import PowerGameInstance
from d2dgames.stackelberg import StackelbergInstance

PARAMS = radio.RadioParams().validate()
BOTH_DIRECTIONS = tuple(
    replace(PARAMS, link_direction=d).validate() for d in (radio.DOWNLINK, radio.UPLINK)
)


class TestExhaustiveBestAllocation:
    def test_zero_pairs_baseline(self):
        topo = radio.generate_topology(PARAMS, m=2, n=0, rng_seed=1)
        gains = radio.draw_gains(topo, PARAMS, rng_seed=2)
        alloc, value = exhaustive_best_allocation(topo, gains, PARAMS)
        assert alloc.rb_of_d2d == {}
        assert value == pytest.approx(radio.sum_rate(radio.Allocation(), gains, PARAMS))

    def test_one_pair_two_rbs_enumerates_three_states(self):
        topo = radio.generate_topology(PARAMS, m=2, n=1, rng_seed=3)
        gains = radio.draw_gains(topo, PARAMS, rng_seed=4)
        alloc, value = exhaustive_best_allocation(topo, gains, PARAMS)
        candidates = [
            radio.Allocation(),
            radio.Allocation(rb_of_d2d={0: 0}),
            radio.Allocation(rb_of_d2d={0: 1}),
        ]
        best = max(radio.sum_rate(c, gains, PARAMS) for c in candidates)
        assert value == pytest.approx(best, rel=1e-12)
        assert radio.sum_rate(alloc, gains, PARAMS) == pytest.approx(best, rel=1e-12)

    def test_budget_refusal(self):
        topo = radio.generate_topology(PARAMS, m=3, n=5, rng_seed=5)
        gains = radio.draw_gains(topo, PARAMS, rng_seed=6)
        with pytest.raises(ValueError, match="budget"):
            exhaustive_best_allocation(topo, gains, PARAMS, OracleBudget(max_assignments=10))

    def test_random_allocation_sum_rate_matches_link_by_link_oracle(self):
        for direction in (radio.DOWNLINK, radio.UPLINK):
            params = replace(PARAMS, link_direction=direction).validate()
            for seed in range(10):
                topo = radio.generate_topology(params, m=3, n=6, rng_seed=300 + seed)
                gains = radio.draw_gains(topo, params, rng_seed=400 + seed)
                alloc = random_allocation(topo, rng_seed=500 + seed)
                assignment = [alloc.rb_of_d2d.get(j, -1) for j in range(topo.n_pairs)]
                assert radio.sum_rate(alloc, gains, params) == pytest.approx(
                    _assignment_sum_rate(assignment, topo, gains, params), rel=1e-9
                )

    def test_dominates_auction(self):
        for params in BOTH_DIRECTIONS:
            for seed in range(10):
                topo = radio.generate_topology(params, m=2, n=3, rng_seed=100 + seed)
                gains = radio.draw_gains(topo, params, rng_seed=200 + seed)
                inst = auction_instance_from_radio(topo, gains, params)
                state = run_auction(inst)
                assert state.terminated
                auction_rate = radio.sum_rate(
                    allocation_from_auction(state, topo), gains, params
                )
                _, best = exhaustive_best_allocation(topo, gains, params)
                assert best >= auction_rate - 1e-9

    def test_auction_valuation_matches_assignment_sum_rate(self):
        # bidder valuations plus signaling cost, summed over RBs, recompose
        # the oracle's link-by-link sum rate of the same assignment
        c0 = 0.05
        rng = np.random.default_rng(7)
        for params in BOTH_DIRECTIONS:
            for seed in range(6):
                topo = radio.generate_topology(params, m=3, n=4, rng_seed=600 + seed)
                gains = radio.draw_gains(topo, params, rng_seed=700 + seed)
                inst = auction_instance_from_radio(topo, gains, params, c0=c0)
                for _ in range(5):
                    assignment = [int(a) for a in rng.integers(-1, 3, topo.n_pairs)]
                    total = 0.0
                    for rb in inst.bidders:
                        pkg = frozenset(j for j, a in enumerate(assignment) if a == rb)
                        mask = np.zeros((1, topo.n_pairs))
                        mask[0, sorted(pkg)] = 1.0
                        total += float(inst.batch_valuation(rb, mask)[0]) + c0 * len(pkg)
                    assert total == pytest.approx(
                        _assignment_sum_rate(assignment, topo, gains, params), rel=1e-9
                    )


class TestExhaustiveBestPartition:
    def test_single_ue_best_of_m(self):
        from d2dgames.coalition import Partition

        for params in BOTH_DIRECTIONS:
            scenario = ContentScenario(n_d2d=1, k_seeds=1, m_cue=3)
            inst = generate_content_instance(scenario, params, rng_seed=7)
            gains = draw_content_gains(inst, params, rng_seed=8)
            part, value = exhaustive_best_partition(inst, gains, params)
            value_fn = make_value_fn(ContentRound(inst, gains, params))
            candidates = []
            for rb in range(3):
                members = tuple(
                    frozenset({0}) if r == rb else frozenset() for r in range(3)
                )
                candidates.append(Partition(members=members).total_value(value_fn))
            assert value == pytest.approx(max(candidates), rel=1e-12)

    def test_three_ues_two_anchors_direct_enumeration(self):
        for params in BOTH_DIRECTIONS:
            scenario = ContentScenario(n_d2d=3, k_seeds=1, m_cue=2)
            inst = generate_content_instance(scenario, params, rng_seed=9)
            gains = draw_content_gains(inst, params, rng_seed=10)
            part, value = exhaustive_best_partition(inst, gains, params)
            value_fn = make_value_fn(ContentRound(inst, gains, params))
            assert part.total_value(value_fn) == pytest.approx(value, rel=1e-9)

    def test_value_fn_matches_partition_value(self):
        from d2dgames.coalition import Partition

        rng = np.random.default_rng(11)
        for params in BOTH_DIRECTIONS:
            for seed in range(6):
                scenario = ContentScenario(n_d2d=5, k_seeds=2, m_cue=3)
                inst = generate_content_instance(scenario, params, rng_seed=500 + seed)
                gains = draw_content_gains(inst, params, rng_seed=510 + seed)
                value_fn = make_value_fn(ContentRound(inst, gains, params))
                for _ in range(5):
                    anchors = [int(a) for a in rng.integers(0, 3, 5)]
                    part = Partition(
                        members=tuple(
                            frozenset(u for u, a in enumerate(anchors) if a == rb)
                            for rb in range(3)
                        )
                    )
                    assert part.total_value(value_fn) == pytest.approx(
                        _partition_value(anchors, inst, gains, params, inst.seeds), rel=1e-12
                    )

    def test_dominates_switch_dynamics(self):
        for params in BOTH_DIRECTIONS:
            for seed in range(8):
                scenario = ContentScenario(n_d2d=4, k_seeds=2, m_cue=2)
                inst = generate_content_instance(scenario, params, rng_seed=300 + seed)
                gains = draw_content_gains(inst, params, rng_seed=400 + seed)
                value_fn = make_value_fn(ContentRound(inst, gains, params))
                stable = run_switch_dynamics(initial_partition(inst), value_fn)
                _, best = exhaustive_best_partition(inst, gains, params)
                assert stable.total_value(value_fn) <= best + 1e-9

    def test_budget_refusal(self):
        scenario = ContentScenario(n_d2d=8, k_seeds=2, m_cue=3)
        inst = generate_content_instance(scenario, PARAMS, rng_seed=11)
        gains = draw_content_gains(inst, PARAMS, rng_seed=12)
        with pytest.raises(ValueError, match="budget"):
            exhaustive_best_partition(inst, gains, PARAMS, OracleBudget(max_assignments=100))


class TestSolveMinPower:
    def test_single_player_scalar(self):
        inst = PowerGameInstance(
            gains=np.array([[2.0]]),
            targets=np.array([3.0]),
            noise_w=np.array([0.4]),
            p_max_w=10.0,
        )
        sol = solve_min_power(inst)
        assert sol.feasible
        assert sol.powers[0] == pytest.approx(3.0 * 0.4 / 2.0, rel=1e-12)

    def test_two_symmetric_players_hand_elimination(self):
        inst = PowerGameInstance(
            gains=np.array([[1.0, 0.25], [0.25, 1.0]]),
            targets=np.array([1.5, 1.5]),
            noise_w=np.array([0.2, 0.2]),
            p_max_w=100.0,
        )
        sol = solve_min_power(inst)
        f = 1.5 * 0.25
        u = 1.5 * 0.2
        p_hand = u / (1.0 - f)  # symmetric 2x2 elimination
        np.testing.assert_allclose(sol.powers, [p_hand, p_hand], rtol=1e-12)

    def test_residual_check_on_random_feasible(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 10:
            g = rng.uniform(0.0, 0.1, (4, 4))
            np.fill_diagonal(g, rng.uniform(0.5, 2.0, 4))
            inst = PowerGameInstance(
                gains=g,
                targets=rng.uniform(0.5, 3.0, 4),
                noise_w=rng.uniform(0.1, 1.0, 4),
                p_max_w=1e4,
            )
            sol = solve_min_power(inst)
            if not sol.feasible:
                continue
            done += 1
            np.testing.assert_allclose(inst.sinr(sol.powers), inst.targets, atol=1e-10, rtol=1e-10)

    def test_infeasible_reported(self):
        inst = PowerGameInstance(
            gains=np.array([[1.0, 1.5], [1.5, 1.0]]),
            targets=np.array([1.0, 1.0]),
            noise_w=np.array([0.1, 0.1]),
            p_max_w=100.0,
        )
        sol = solve_min_power(inst)
        assert not sol.feasible
        assert sol.powers is None

    def test_power_cap_infeasibility(self):
        inst = PowerGameInstance(
            gains=np.array([[1.0]]),
            targets=np.array([10.0]),
            noise_w=np.array([1.0]),
            p_max_w=0.5,  # needs 10 W
        )
        sol = solve_min_power(inst)
        assert not sol.feasible


class TestGridEquilibrium:
    def test_huge_price_zero_power(self):
        inst = StackelbergInstance(
            g_dd=1.0, g_db=0.1, g_cc=1.0, g_cd=0.1,
            p_c_w=1.0, sigma_w=0.2, p_max_w=1.0,
            lambda_min=50.0, lambda_max=100.0, lambda_points=100,
        )
        out = grid_equilibrium(inst, grid_points=200)
        assert out.p_star_w == 0.0

    def test_free_channel_full_power(self):
        inst = StackelbergInstance(
            g_dd=1.0, g_db=1e-9, g_cc=1.0, g_cd=0.1,
            p_c_w=1.0, sigma_w=0.2, p_max_w=1.0,
            lambda_min=0.0, lambda_max=1e-9, lambda_points=10,
        )
        out = grid_equilibrium(inst, grid_points=50)
        assert out.p_star_w == pytest.approx(1.0)

    def test_rejects_tiny_grid(self):
        inst = StackelbergInstance(
            g_dd=1.0, g_db=0.1, g_cc=1.0, g_cd=0.1,
            p_c_w=1.0, sigma_w=0.2, p_max_w=1.0,
        )
        with pytest.raises(ValueError):
            grid_equilibrium(inst, grid_points=1)
