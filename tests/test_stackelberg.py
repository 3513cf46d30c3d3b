import math

import numpy as np
import pytest

from d2dgames import radio
from d2dgames.oracle import grid_equilibrium
from d2dgames.stackelberg import (
    LN2,
    StackelbergConfig,
    StackelbergInstance,
    StackelbergOutcome,
    choose_channel,
    follower_best_response,
    leader_optimize,
    stackelberg_from_radio,
    verify_equilibrium,
)


def _instance(**kw):
    base = dict(
        g_dd=1.0,
        g_db=0.05,
        g_cc=0.8,
        g_cd=0.02,
        p_c_w=1.0,
        sigma_w=0.1,
        p_max_w=2.0,
        lambda_points=400,
    )
    base.update(kw)
    return StackelbergInstance(**base)


def _random_instance(rng, **kw):
    base = dict(
        g_dd=float(rng.uniform(0.2, 3.0)),
        g_db=float(rng.uniform(0.01, 0.5)),
        g_cc=float(rng.uniform(0.2, 3.0)),
        g_cd=float(rng.uniform(0.01, 0.5)),
        p_c_w=float(rng.uniform(0.1, 2.0)),
        sigma_w=float(rng.uniform(0.05, 0.5)),
        p_max_w=float(rng.uniform(0.5, 4.0)),
        lambda_points=300,
    )
    base.update(kw)
    return StackelbergInstance(**base)


class TestFollowerBestResponse:
    def test_huge_price_gives_zero_power(self):
        inst = _instance()
        lam = inst.g_dd / (inst.follower_interference_w * LN2)
        assert follower_best_response(inst, lam) == 0.0
        assert follower_best_response(inst, lam * 10) == 0.0

    def test_zero_price_gives_full_power(self):
        inst = _instance()
        assert follower_best_response(inst, 0.0) == inst.p_max_w

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            follower_best_response(_instance(), -0.1)

    def test_matches_fine_grid_maximization(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 100_000)
        for _ in range(20):
            inst = _random_instance(rng)
            lam = float(rng.uniform(0.01, 2.0 * inst.g_dd / (inst.sigma_w * LN2)))
            powers = grid * inst.p_max_w
            utilities = (
                np.log2(1.0 + powers * inst.g_dd / inst.follower_interference_w)
                - lam * powers
            )
            p_grid = powers[int(np.argmax(utilities))]
            p_closed = follower_best_response(inst, lam)
            assert abs(p_closed - p_grid) <= inst.p_max_w / 99_999 + 1e-12

    def test_non_increasing_in_price(self):
        inst = _instance()
        lams = np.linspace(0.0, inst.lambda_max, 500)
        ps = [follower_best_response(inst, float(l)) for l in lams]
        for a, b in zip(ps, ps[1:]):
            assert b <= a + 1e-12


class TestLeaderOptimize:
    def test_no_interference_maximizes_pure_revenue(self):
        inst = _instance(g_db=1e-30)
        out = leader_optimize(inst)
        revenues = [
            float(l) * follower_best_response(inst, float(l))
            for l in inst.lambda_grid()
        ]
        lam_best = float(inst.lambda_grid()[int(np.argmax(revenues))])
        assert out.lambda_star == pytest.approx(lam_best, abs=1e-12)

    def test_degenerate_follower_ties_to_lambda_min(self):
        inst = _instance(p_max_w=0.0)
        out = leader_optimize(inst)
        assert out.lambda_star == inst.lambda_min
        assert out.p_star_w == 0.0
        assert out.u_leader == pytest.approx(
            inst.leader_utility(inst.lambda_min, 0.0), rel=1e-12
        )

    def test_matches_two_dimensional_grid_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            inst = _random_instance(rng)
            out = leader_optimize(inst)
            ref = grid_equilibrium(inst, grid_points=inst.lambda_points)
            lam_step = (inst.lambda_max - inst.lambda_min) / (inst.lambda_points - 1)
            p_step = inst.p_max_w / (inst.lambda_points - 1)
            # leader-utility sensitivity to moving one grid cell in each axis
            slope_p = inst.lambda_max + inst.g_db * inst.p_c_w * inst.g_cc / (
                inst.sigma_w**2 * LN2
            )
            one_cell = lam_step * inst.p_max_w + p_step * slope_p
            assert (
                abs(out.lambda_star - ref.lambda_star) <= lam_step + 1e-12
                or abs(out.u_leader - ref.u_leader) <= one_cell
            )

    def test_leader_utility_dominates_grid(self):
        rng = np.random.default_rng(7)
        inst = _random_instance(rng)
        out = leader_optimize(inst)
        for lam in inst.lambda_grid():
            lam = float(lam)
            p = follower_best_response(inst, lam)
            assert inst.leader_utility(lam, p) <= out.u_leader + 1e-12


class TestParticipation:
    def test_follower_never_worse_than_opting_out(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            inst = _random_instance(rng)
            out = leader_optimize(inst)
            assert out.u_follower >= -1e-12
            assert 0.0 <= out.p_star_w <= inst.p_max_w


class TestVerifyEquilibrium:
    def test_produced_outcome_verifies(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst = _random_instance(rng)
            out = leader_optimize(inst)
            assert verify_equilibrium(inst, out, eps=1e-9)

    def test_perturbed_price_fails(self):
        inst = _instance(lambda_points=2000)
        out = leader_optimize(inst)
        step = (inst.lambda_max - inst.lambda_min) / (inst.lambda_points - 1)
        lam_bad = out.lambda_star + 10 * step
        p_bad = follower_best_response(inst, lam_bad)
        bad = StackelbergOutcome(
            lambda_star=lam_bad,
            p_star_w=p_bad,
            u_leader=inst.leader_utility(lam_bad, p_bad),
            u_follower=inst.follower_utility(p_bad, lam_bad),
        )
        assert not verify_equilibrium(inst, bad, eps=1e-6)

    def test_infinite_eps_vacuous(self):
        inst = _instance()
        junk = StackelbergOutcome(lambda_star=0.0, p_star_w=0.0, u_leader=-5.0, u_follower=-5.0)
        assert verify_equilibrium(inst, junk, eps=math.inf)


class TestChannelChoice:
    def test_picks_best_follower_utility(self):
        rng = np.random.default_rng(13)
        instances = [_random_instance(rng) for _ in range(4)]
        idx, out = choose_channel(instances)
        utilities = [leader_optimize(i).u_follower for i in instances]
        assert utilities[idx] == pytest.approx(max(utilities), rel=1e-12)
        assert out.u_follower == pytest.approx(max(utilities), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            choose_channel([])


class TestFromRadio:
    def test_instance_fields(self):
        params = radio.RadioParams().validate()
        topo = radio.generate_topology(params, m=2, n=1, rng_seed=21)
        gains = radio.draw_gains(topo, params, rng_seed=22)
        inst = stackelberg_from_radio(topo, gains, params, StackelbergConfig(pair=0, rb=1))
        assert inst.g_dd == pytest.approx(gains.get(("dtx", 0), ("drx", 0), 1))
        assert inst.p_max_w == pytest.approx(params.p_d2d_w)
        out = leader_optimize(inst)
        assert verify_equilibrium(inst, out, eps=1e-9)
