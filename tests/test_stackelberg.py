import math
from dataclasses import replace

import numpy as np
import pytest

from d2dgames import radio
from d2dgames import stackelberg
from d2dgames.config import loads_config
from d2dgames.harness import CSV_HEADERS, rows_to_csv, run_experiment
from d2dgames.oracle import grid_equilibrium
from d2dgames.stackelberg import (
    LN2,
    StackelbergConfig,
    StackelbergInstance,
    StackelbergOutcome,
    choose_channel,
    follower_best_response,
    leader_optimize,
    price_sweep,
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


class _Plateau(StackelbergInstance):
    """Leader utility ``min(lam, 1)``: every grid price from 1 up ties at the maximum."""

    def leader_utility(self, lam, p_w):
        return np.minimum(lam, 1.0)  # price_sweep passes the whole grid


class TestPriceSweep:
    def test_rows_are_the_stackelberg_csv_rows(self, tmp_path, monkeypatch):
        built = []
        from_radio = stackelberg.stackelberg_from_radio

        def capture(*args, **kwargs):
            built.append(from_radio(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(stackelberg, "stackelberg_from_radio", capture)
        text = "experiment = stackelberg\n[stackelberg]\nlambda_points = 60\n"
        summary = run_experiment(replace(loads_config(text), output_path=str(tmp_path)))
        (inst,) = built
        rows = price_sweep(inst)
        assert summary.rows == rows and len(rows) == 60
        csv = (tmp_path / "stackelberg.csv").read_text(encoding="utf-8")
        assert csv == rows_to_csv(CSV_HEADERS["stackelberg"], rows)
        for (lam, p, u_l, u_f), grid_lam in zip(rows, inst.lambda_grid()):
            assert lam == float(grid_lam) and p == follower_best_response(inst, lam)
            assert (u_l, u_f) == (inst.leader_utility(lam, p), inst.follower_utility(p, lam))

    def test_leader_takes_the_first_row_of_largest_leader_utility(self):
        inst = _Plateau(**{**_instance().__dict__, "lambda_max": 3.0, "lambda_points": 7})
        rows = price_sweep(inst)
        assert [row[2] for row in rows] == [0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0]
        out = leader_optimize(inst)
        assert (out.lambda_star, out.p_star_w, out.u_leader, out.u_follower) == rows[2]


def _reference_sweep(inst):
    """Per-point sweep with the scalar formulas on Python floats and ``math.log2``."""
    interf = inst.sigma_w + inst.p_c_w * inst.g_cd
    rows = []
    for lam in inst.lambda_grid().tolist():
        if lam == 0.0:
            p = inst.p_max_w
        else:
            p = min(max(1.0 / (lam * LN2) - interf / inst.g_dd, 0.0), inst.p_max_w)
        u_l = math.log2(1.0 + inst.p_c_w * inst.g_cc / (inst.sigma_w + p * inst.g_db)) + lam * p
        u_f = math.log2(1.0 + p * inst.g_dd / interf) - lam * p
        rows.append((lam, p, u_l, u_f))
    return rows


def _bits(rows):
    return [tuple(float.hex(v) for v in row) for row in rows]


class TestArraySweep:
    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    def test_sweep_matches_per_point_reference_bit_for_bit(self, direction):
        params = replace(radio.RadioParams(), link_direction=direction).validate()
        config = StackelbergConfig(lambda_points=2000)
        seen = {"lambda_zero": 0, "clamped_zero": 0, "clamped_p_max": 0}
        for seed in range(50):
            topo = radio.generate_topology(params, 2, 1, rng_seed=1000 + seed)
            gains = radio.draw_gains(topo, params, rng_seed=2000 + seed)
            inst = stackelberg_from_radio(topo, gains, params, config)
            # the default grid rarely reaches p_max above lambda = 0, so also price a
            # grid whose first quarter lies below the price where p_max is the best response
            lam_full = 1.0 / (LN2 * (inst.p_max_w + inst.follower_interference_w / inst.g_dd))
            for grid_inst in (inst, replace(inst, lambda_max=4.0 * lam_full)):
                rows = price_sweep(grid_inst)
                assert all(type(v) is float for row in rows for v in row)
                assert _bits(rows) == _bits(_reference_sweep(grid_inst))
                for lam, p, _, _ in rows:
                    seen["lambda_zero"] += lam == 0.0
                    seen["clamped_zero"] += p == 0.0
                    seen["clamped_p_max"] += lam > 0.0 and p == inst.p_max_w
        assert all(seen.values()), seen

    def test_scalar_and_array_calls_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            inst = _random_instance(rng)
            lams = np.concatenate(([0.0], rng.uniform(0.0, 2.0 * inst.lambda_max, 50)))
            powers = rng.uniform(0.0, inst.p_max_w, lams.size)
            p_star = follower_best_response(inst, lams)
            u_l = inst.leader_utility(lams, powers)
            u_f = inst.follower_utility(powers, lams)
            for i, (lam, p) in enumerate(zip(lams.tolist(), powers.tolist())):
                scalar = (
                    follower_best_response(inst, lam),
                    inst.leader_utility(lam, p),
                    inst.follower_utility(p, lam),
                )
                assert all(type(v) is float for v in scalar)
                assert _bits([scalar]) == _bits([(p_star[i], u_l[i], u_f[i])])

    def test_one_negative_price_in_an_array_rejected(self):
        inst = _instance()
        lams = inst.lambda_grid()
        lams[7] = -1e-12
        with pytest.raises(ValueError):
            follower_best_response(inst, lams)

    def test_zero_price_in_an_array_gives_full_power_without_warning(self):
        inst = _instance()
        with np.errstate(all="raise"):
            p = follower_best_response(inst, np.array([0.0, 1.0]))
        assert p[0] == inst.p_max_w
