import numpy as np
import pytest

from d2dgames import radio
from d2dgames.oracle import solve_min_power
from d2dgames.power_control import (
    PowerConfig,
    PowerGameInstance,
    best_response_step,
    power_game_from_radio,
    run_power_game,
)


def _two_player_symmetric(cross=0.2):
    return PowerGameInstance(
        gains=np.array([[1.0, cross], [cross, 1.0]]),
        targets=np.array([2.0, 2.0]),
        noise_w=np.array([0.5, 0.5]),
        p_max_w=100.0,
    )


def _random_instance(rng, n, cross_scale=0.1, p_max=1e3):
    direct = rng.uniform(0.5, 2.0, n)
    g = rng.uniform(0.0, cross_scale, (n, n))
    np.fill_diagonal(g, direct)
    return PowerGameInstance(
        gains=g,
        targets=rng.uniform(0.5, 4.0, n),
        noise_w=rng.uniform(0.1, 1.0, n),
        p_max_w=p_max,
    )


class TestBestResponseStep:
    def test_single_player_closed_form(self):
        inst = PowerGameInstance(
            gains=np.array([[2.0]]),
            targets=np.array([4.0]),
            noise_w=np.array([0.5]),
            p_max_w=10.0,
        )
        p1 = best_response_step(inst, np.zeros(1))
        assert p1[0] == pytest.approx(4.0 * 0.5 / 2.0, rel=1e-12)
        # already the fixed point: returned unchanged
        p2 = best_response_step(inst, p1)
        assert p2[0] == pytest.approx(p1[0], rel=1e-12)

    def test_fixed_point_returned_unchanged(self):
        inst = _two_player_symmetric()
        sol = solve_min_power(inst)
        assert sol.feasible
        p_next = best_response_step(inst, sol.powers)
        np.testing.assert_allclose(p_next, sol.powers, rtol=1e-12)

    def test_two_player_matches_linear_solve(self):
        # oracle: hand 2x2 elimination of (I - F) p = u
        inst = _two_player_symmetric(cross=0.2)
        f = 2.0 * 0.2 / 1.0
        u = 2.0 * 0.5 / 1.0
        p_hand = u * (1 + f) / (1 - f * f)  # symmetric solution
        trace = run_power_game(inst, PowerConfig(max_iters=5000, tol_w=1e-15))
        assert trace.converged
        np.testing.assert_allclose(trace.final, [p_hand, p_hand], rtol=1e-6)

    def test_zero_direct_gain_rejected(self):
        with pytest.raises(ValueError):
            PowerGameInstance(
                gains=np.array([[0.0]]),
                targets=np.array([1.0]),
                noise_w=np.array([1.0]),
                p_max_w=1.0,
            )

    def test_out_of_range_power_rejected(self):
        inst = _two_player_symmetric()
        with pytest.raises(ValueError):
            best_response_step(inst, np.array([-1.0, 0.0]))


class TestRunPowerGame:
    def test_zero_players_trivially_converged(self):
        inst = PowerGameInstance(
            gains=np.zeros((0, 0)),
            targets=np.zeros(0),
            noise_w=np.zeros(0),
            p_max_w=1.0,
        )
        trace = run_power_game(inst)
        assert trace.converged
        assert trace.iterations == 0

    def test_feasible_instance_meets_targets(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 20:
            inst = _random_instance(rng, 4)
            sol = solve_min_power(inst)
            if not sol.feasible:
                continue
            done += 1
            trace = run_power_game(inst, PowerConfig(max_iters=5000, tol_w=1e-14))
            assert trace.converged
            assert np.all(inst.sinr(trace.final) >= inst.targets * (1 - 1e-6))

    def test_infeasible_instance_reports_nonconvergence(self):
        # spectral radius > 1 by construction: strong symmetric cross gains
        inst = PowerGameInstance(
            gains=np.array([[1.0, 0.9], [0.9, 1.0]]),
            targets=np.array([2.0, 2.0]),
            noise_w=np.array([0.5, 0.5]),
            p_max_w=50.0,
        )
        sol = solve_min_power(inst)
        assert not sol.feasible
        assert sol.spectral_radius > 1.0
        trace = run_power_game(inst, PowerConfig(max_iters=2000, tol_w=1e-12))
        assert not trace.converged

    def test_iterates_stay_in_bounds(self):
        rng = np.random.default_rng(11)
        inst = _random_instance(rng, 5, cross_scale=0.3, p_max=2.0)
        trace = run_power_game(inst, PowerConfig(max_iters=500))
        for p in trace.iterates:
            assert np.all(p >= 0.0)
            assert np.all(p <= inst.p_max_w + 1e-15)

    def test_monotone_from_zero_on_feasible_instance(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 10:
            inst = _random_instance(rng, 3)
            sol = solve_min_power(inst)
            if not sol.feasible:
                continue
            done += 1
            trace = run_power_game(inst, PowerConfig(max_iters=5000, tol_w=1e-14))
            for a, b in zip(trace.iterates, trace.iterates[1:]):
                assert np.all(b >= a - 1e-15)
            np.testing.assert_allclose(trace.final, sol.powers, rtol=1e-6)

    def test_lowering_a_target_never_raises_minimal_powers(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 10:
            inst = _random_instance(rng, 3)
            sol = solve_min_power(inst)
            if not sol.feasible:
                continue
            done += 1
            lowered = PowerGameInstance(
                gains=inst.gains.copy(),
                targets=inst.targets * np.array([0.5, 1.0, 1.0]),
                noise_w=inst.noise_w.copy(),
                p_max_w=inst.p_max_w,
            )
            sol_low = solve_min_power(lowered)
            assert sol_low.feasible
            assert np.all(sol_low.powers <= sol.powers + 1e-12)

    def test_interior_fixed_point_sinr_equals_target(self):
        inst = _two_player_symmetric()
        trace = run_power_game(inst, PowerConfig(max_iters=5000, tol_w=1e-15))
        np.testing.assert_allclose(inst.sinr(trace.final), inst.targets, rtol=1e-9)


class TestDirectGains:
    def test_gains_are_a_read_only_copy(self):
        g = np.array([[1.0, 0.2], [0.3, 2.0]])
        inst = PowerGameInstance(
            gains=g, targets=np.array([2.0, 2.0]), noise_w=np.array([0.5, 0.5]), p_max_w=10.0
        )
        with pytest.raises(ValueError):
            inst.gains[0, 0] = 5.0
        g[1, 1] = 7.0
        assert inst.gains[1, 1] == 2.0
        # the second player's direct gain is still 2.0: interference 0.5 + 0.3
        np.testing.assert_allclose(inst.sinr(np.array([1.0, 1.0])), [1.0 / 0.7, 2.0 / 0.8])

    def test_bit_identical_to_the_np_diag_expressions(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 4, 7):
            for _ in range(5):
                inst = _random_instance(rng, n)
                diag = np.diag(inst.gains)
                p = rng.uniform(0.0, inst.p_max_w, n)
                interference = inst.noise_w + inst.gains @ p - diag * p
                np.testing.assert_array_equal(inst.interference_w(p), interference)
                np.testing.assert_array_equal(inst.sinr(p), diag * p / interference)
                np.testing.assert_array_equal(
                    best_response_step(inst, p),
                    np.minimum(inst.targets * interference / diag, inst.p_max_w),
                )


class TestFromRadio:
    def test_builds_co_channel_game(self):
        params = radio.RadioParams().validate()
        topo = radio.generate_topology(params, m=3, n=4, rng_seed=5)
        gains = radio.draw_gains(topo, params, rng_seed=6)
        inst = power_game_from_radio(gains, params, rb=1, pair_indices=[0, 2, 3])
        assert inst.n_players == 3
        assert inst.p_max_w == pytest.approx(params.p_d2d_w)
        # direct gains on the diagonal
        assert inst.gains[0, 0] == pytest.approx(gains.get(("dtx", 0), ("drx", 0), 1))
        assert inst.gains[1, 0] == pytest.approx(gains.get(("dtx", 0), ("drx", 2), 1))
        assert np.all(inst.noise_w > radio.effective_noise_w(params))

    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    def test_every_entry_matches_raw_gains(self, direction):
        # unsorted pairs on a nonzero RB pin the orientation: row a is pair
        # pairs[a]'s receiver, column b is pair pairs[b]'s transmitter
        params = radio.RadioParams(link_direction=direction).validate()
        topo = radio.generate_topology(params, m=3, n=4, rng_seed=7)
        gains = radio.draw_gains(topo, params, rng_seed=8)
        rb, pairs = 2, [3, 0, 2]
        inst = power_game_from_radio(gains, params, rb=rb, pair_indices=pairs)
        if direction == radio.DOWNLINK:
            cell_tx, p_cell = ("enb", 0), params.p_enb_w
        else:
            cell_tx, p_cell = ("cue", rb), params.p_cue_w
        sigma = radio.effective_noise_w(params)
        assert inst.gains.shape == (3, 3) and inst.noise_w.shape == (3,)
        for a, rx in enumerate(pairs):
            for b, tx in enumerate(pairs):
                assert inst.gains[a, b] == gains.get(("dtx", tx), ("drx", rx), rb)
            assert inst.noise_w[a] == sigma + p_cell * gains.get(cell_tx, ("drx", rx), rb)

    def test_no_pairs_gives_an_empty_game(self):
        params = radio.RadioParams().validate()
        topo = radio.generate_topology(params, m=2, n=2, rng_seed=9)
        gains = radio.draw_gains(topo, params, rng_seed=10)
        inst = power_game_from_radio(gains, params, rb=1, pair_indices=[])
        assert inst.gains.shape == (0, 0) and inst.noise_w.shape == (0,)
        assert run_power_game(inst).converged


class TestInvalidInputs:
    @pytest.mark.parametrize(
        "field, index, message",
        [
            # off the diagonal, where the > 0 check of the direct gains does not look
            ("gains", (0, 1), "gains must be >= 0"),
            ("targets", 1, "SINR targets must be > 0"),
            ("noise_w", 1, "noise-plus-external-interference must be > 0 W"),
        ],
    )
    def test_nan_instance_data_rejected(self, field, index, message):
        data = {
            "gains": np.array([[1.0, 0.2], [0.2, 1.0]]),
            "targets": np.array([2.0, 2.0]),
            "noise_w": np.array([0.5, 0.5]),
        }
        data[field][index] = np.nan
        with pytest.raises(ValueError, match=message):
            PowerGameInstance(**data, p_max_w=100.0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"sinr_target_db": np.nan}, "sinr_target_db must be finite"),
            ({"sinr_target_db": np.inf}, "sinr_target_db must be finite"),
            ({"max_iters": 0}, "max_iters must be >= 1"),
            ({"max_iters": -5}, "max_iters must be >= 1"),
            ({"tol_w": -1.0}, "tol_w must be finite and > 0"),
            ({"tol_w": 0.0}, "tol_w must be finite and > 0"),
            ({"tol_w": np.nan}, "tol_w must be finite and > 0"),
        ],
    )
    def test_invalid_config_rejected_by_both_entry_points(self, bad, message):
        params = radio.RadioParams().validate()
        topo = radio.generate_topology(params, m=2, n=2, rng_seed=7)
        gains = radio.draw_gains(topo, params, rng_seed=8)
        config = PowerConfig(**bad)
        with pytest.raises(ValueError, match=message):
            power_game_from_radio(gains, params, rb=0, pair_indices=[0, 1], config=config)
        with pytest.raises(ValueError, match=message):
            run_power_game(_two_player_symmetric(), config)
