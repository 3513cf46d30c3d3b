import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from d2dgames import coalition, radio
from d2dgames.coalition import (
    ContentScenario,
    content_pathloss,
    draw_content_gains,
    generate_content_instance,
)
from d2dgames.radio import (
    Allocation,
    GainTensor,
    RadioParams,
    Topology,
    dbm_to_watt,
    draw_gains,
    effective_noise_w,
    generate_topology,
    pathloss_db,
    rate,
    sinr,
    sum_rate,
)

PARAMS = RadioParams().validate()


class TestDbmToWatt:
    def test_zero_dbm_is_one_milliwatt(self):
        assert dbm_to_watt(0.0) == pytest.approx(1.0e-3, rel=1e-12)

    def test_23_dbm(self):
        # frozen from 10 ** ((23 - 30) / 10)
        assert dbm_to_watt(23.0) == pytest.approx(0.19952623149688797, rel=1e-12)

    def test_noise_floor(self):
        # frozen from 10 ** ((-104 - 30) / 10)
        assert dbm_to_watt(-104.0) == pytest.approx(3.9810717055349693e-14, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dbm_to_watt(float("nan"))
        with pytest.raises(ValueError):
            dbm_to_watt(float("inf"))

    @given(st.floats(-150, 60), st.floats(0.01, 50))
    def test_strictly_increasing(self, p, dp):
        assert dbm_to_watt(p + dp) > dbm_to_watt(p)


class TestEffectiveNoise:
    def test_zero_figure(self):
        p = RadioParams(noise_dbm=-104.0, noise_figure_db=0.0)
        assert effective_noise_w(p) == pytest.approx(dbm_to_watt(-104.0), rel=1e-12)

    def test_default_figure(self):
        # -104 dBm + 7 dB = -97 dBm, frozen
        assert effective_noise_w(PARAMS) == pytest.approx(1.9952623149688827e-13, rel=1e-12)

    def test_three_db_figure(self):
        p = RadioParams(noise_dbm=0.0, noise_figure_db=3.0)
        assert effective_noise_w(p) == pytest.approx(0.001995262314968879, rel=1e-12)


class TestPathloss:
    def test_los_at_clamp_point(self):
        # frozen from 22 + 28 + 20*log10(2)
        assert pathloss_db(10.0, 2.0, los=True) == pytest.approx(56.020599913279625, rel=1e-12)

    def test_los_at_100m_log_identity(self):
        assert pathloss_db(100.0, 2.0, los=True) == pytest.approx(78.02059991327963, rel=1e-12)

    def test_clamp_below_10m(self):
        assert pathloss_db(3.0, 2.0, los=True) == pathloss_db(10.0, 2.0, los=True)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            pathloss_db(0.0, 2.0, los=True)
        with pytest.raises(ValueError):
            pathloss_db(-5.0, 2.0, los=False)

    @given(
        st.floats(0.1, 5000.0),
        st.floats(0.1, 5000.0),
        st.booleans(),
    )
    def test_monotone_in_distance(self, d1, d2, los):
        lo, hi = min(d1, d2), max(d1, d2)
        assert pathloss_db(lo, 2.0, los) <= pathloss_db(hi, 2.0, los)

    def test_nlos_formula(self):
        expected = 36.7 * math.log10(250.0) + 22.7 + 26.0 * math.log10(2.0)
        assert pathloss_db(250.0, 2.0, los=False) == pytest.approx(expected, rel=1e-12)


class TestGenerateTopology:
    def test_no_pairs(self):
        topo = generate_topology(PARAMS, m=3, n=0, rng_seed=1)
        assert len(topo.cue) == 3
        assert topo.n_pairs == 0
        assert topo.rb_count == 3

    def test_deterministic(self):
        a = generate_topology(PARAMS, m=5, n=4, rng_seed=42)
        b = generate_topology(PARAMS, m=5, n=4, rng_seed=42)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_topology(PARAMS, m=5, n=4, rng_seed=42)
        b = generate_topology(PARAMS, m=5, n=4, rng_seed=43)
        assert a != b

    def test_geometry_invariants(self):
        for seed in range(30):
            topo = generate_topology(PARAMS, m=10, n=10, rng_seed=seed)
            for p in topo.cue:
                assert math.hypot(*p) <= PARAMS.cell_radius_m + 1e-9
            for tx, rx in topo.d2d_pairs:
                assert math.hypot(*tx) <= PARAMS.cell_radius_m + 1e-9
                assert math.hypot(*rx) <= PARAMS.cell_radius_m + 1e-9
                d = math.hypot(tx[0] - rx[0], tx[1] - rx[1])
                assert d <= PARAMS.max_d2d_distance_m + 1e-9

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            generate_topology(PARAMS, m=0, n=1, rng_seed=0)
        with pytest.raises(ValueError):
            generate_topology(PARAMS, m=1, n=-1, rng_seed=0)


class TestDrawGains:
    def test_all_positive(self):
        topo = generate_topology(PARAMS, m=3, n=2, rng_seed=2)
        gains = draw_gains(topo, PARAMS, rng_seed=3)
        assert all(g > 0 for _, g in gains.entries())

    def test_deterministic(self):
        topo = generate_topology(PARAMS, m=3, n=2, rng_seed=2)
        a = draw_gains(topo, PARAMS, rng_seed=3)
        b = draw_gains(topo, PARAMS, rng_seed=3)
        assert a.tx_nodes == b.tx_nodes and a.rx_nodes == b.rx_nodes
        assert np.array_equal(a.g, b.g, equal_nan=True)

    def test_fading_factor_unit_mean(self):
        # Monte Carlo over >= 1e4 draws: gain / pathloss should average to 1.
        topo = Topology(
            enb_pos=(0.0, 0.0),
            cue=tuple((50.0 * (i + 1), 0.0) for i in range(2)),
            d2d_pairs=(((100.0, 0.0), (110.0, 0.0)),),
        )
        pl_lin = {}
        for tx, tx_pos, rx, rx_pos in radio._topology_links(topo):
            d = max(math.hypot(tx_pos[0] - rx_pos[0], tx_pos[1] - rx_pos[1]), 1e-9)
            pl_lin[(tx, rx)] = 10.0 ** (
                -pathloss_db(d, PARAMS.carrier_ghz, radio.is_los(tx, rx)) / 10.0
            )
        factors = []
        for seed in range(1200):
            gains = draw_gains(topo, PARAMS, rng_seed=seed)
            for (tx, rx, rb), g in gains.entries():
                factors.append(g / pl_lin[(tx, rx)])
        assert len(factors) >= 10_000
        assert np.mean(factors) == pytest.approx(1.0, abs=0.05)

    def test_los_policy(self):
        assert radio.is_los(("dtx", 0), ("drx", 1))
        assert radio.is_los(("ue", 0), ("ue", 1))
        assert not radio.is_los(("enb", 0), ("drx", 0))
        assert not radio.is_los(("cue", 0), ("drx", 0))
        assert not radio.is_los(("dtx", 0), ("cue", 2))


def _reference_gains(links, rb_count, params, rng_seed):
    # the per-link loop the dense draw replaced: one fading draw of rb_count
    # values per link, in link order
    rng = np.random.default_rng(rng_seed)
    ref = {}
    for tx, tx_pos, rx, rx_pos in links:
        d = max(math.hypot(tx_pos[0] - rx_pos[0], tx_pos[1] - rx_pos[1]), 1e-9)
        pl_lin = 10.0 ** (-pathloss_db(d, params.carrier_ghz, radio.is_los(tx, rx)) / 10.0)
        fading = rng.exponential(1.0, size=rb_count)
        for rb in range(rb_count):
            ref[(tx, rx, rb)] = pl_lin * float(fading[rb])
    return ref


class TestDenseGainTensor:
    DIRECTIONS = (radio.DOWNLINK, radio.UPLINK)

    def test_draw_gains_matches_per_link_loop(self):
        for direction in self.DIRECTIONS:
            params = RadioParams(link_direction=direction).validate()
            for seed in range(6):
                topo = generate_topology(params, m=1 + seed % 4, n=seed, rng_seed=60 + seed)
                gains = draw_gains(topo, params, rng_seed=70 + seed)
                ref = _reference_gains(radio._topology_links(topo), topo.rb_count, params, 70 + seed)
                assert dict(gains.entries()) == ref

    def test_draw_content_gains_matches_per_link_loop(self):
        for direction in self.DIRECTIONS:
            params = RadioParams(link_direction=direction).validate()
            for seed in range(6):
                scenario = ContentScenario(n_d2d=2 + seed, k_seeds=1, m_cue=1 + seed % 3)
                inst = generate_content_instance(scenario, params, rng_seed=80 + seed)
                gains = draw_content_gains(inst, params, rng_seed=90 + seed)
                ref = _reference_gains(
                    coalition._content_links(inst), scenario.m_cue, params, 90 + seed
                )
                assert dict(gains.entries()) == ref
                reused = draw_content_gains(
                    inst, params, 90 + seed, pathloss=content_pathloss(inst, params)
                )
                assert np.array_equal(reused.g, gains.g, equal_nan=True)

    def test_unmodelled_link_raises_key_error(self):
        topo = generate_topology(PARAMS, m=3, n=2, rng_seed=61)
        gains = draw_gains(topo, PARAMS, rng_seed=62)
        with pytest.raises(KeyError):
            gains.get(("cue", 0), ("cue", 1), 0)
        with pytest.raises(KeyError):
            gains.get(("dtx", 5), ("drx", 0), 0)
        for rb in (-1, 3):
            with pytest.raises(KeyError):
                gains.get(("enb", 0), ("cue", 0), rb)
        with pytest.raises(KeyError):
            gains.gather(gains.tx_indices([("cue", 0)]), gains.rx_indices([("cue", 1)]))
        inst = generate_content_instance(ContentScenario(n_d2d=3, k_seeds=1, m_cue=2), PARAMS, 63)
        content = draw_content_gains(inst, PARAMS, rng_seed=64)
        with pytest.raises(KeyError):
            content.get(("ue", 1), ("ue", 1), 0)
        assert content.get(("ue", 0), ("ue", 1), 1) > 0

    @pytest.mark.parametrize("bad", [0.0, -1e-9, math.nan, math.inf])
    def test_bad_gain_rejected(self, bad):
        entries = {(("dtx", 0), ("drx", 0), 0): 1e-9, (("enb", 0), ("drx", 0), 0): bad}
        with pytest.raises(ValueError, match="positive and finite"):
            GainTensor.from_entries(entries, rb_count=1)
        if not math.isnan(bad):  # NaN in the dense array marks an unmodelled link
            g = np.full((1, 1, 2), 1e-9)
            g[0, 0, 1] = bad
            with pytest.raises(ValueError, match="positive and finite"):
                GainTensor((("dtx", 0),), (("drx", 0),), g)


def _synthetic_gains(entries, rb_count):
    return GainTensor.from_entries(dict(entries), rb_count)


class TestSinr:
    def test_unit_sinr_when_signal_equals_noise(self):
        sigma = effective_noise_w(PARAMS)
        g_dd = sigma / PARAMS.p_d2d_w
        gains = _synthetic_gains(
            {
                (("dtx", 0), ("drx", 0), 0): g_dd,
                (("enb", 0), ("cue", 0), 0): 1e-12,
                # cellular interferer present but on another pair's RB, so the
                # D2D link on RB 0 only sees it through this entry:
                (("enb", 0), ("drx", 0), 0): 1e-30,
            },
            rb_count=1,
        )
        # make cross-tier interference negligible (1e-30 gain)
        alloc = Allocation(rb_of_d2d={0: 0})
        got = sinr(alloc, gains, PARAMS, ("drx", 0), 0)
        assert got == pytest.approx(1.0, rel=1e-6)

    def test_hand_computed_uplink_case(self):
        # One CUE and one D2D pair share RB 0 in uplink: frozen independent
        # evaluation of (p_d * 1e-9) / (sigma + p_c * 1e-10).
        params = RadioParams(link_direction=radio.UPLINK).validate()
        gains = _synthetic_gains(
            {
                (("dtx", 0), ("drx", 0), 0): 1e-9,
                (("cue", 0), ("drx", 0), 0): 1e-10,
                (("cue", 0), ("enb", 0), 0): 1e-11,
                (("dtx", 0), ("enb", 0), 0): 1e-12,
            },
            rb_count=1,
        )
        alloc = Allocation(rb_of_d2d={0: 0})
        got = sinr(alloc, gains, params, ("drx", 0), 0)
        assert got == pytest.approx(9.900990099009903, rel=1e-12)

    def test_interferer_strictly_decreases_sinr(self):
        topo = generate_topology(PARAMS, m=2, n=2, rng_seed=11)
        gains = draw_gains(topo, PARAMS, rng_seed=12)
        alone = Allocation(rb_of_d2d={0: 0})
        shared = Allocation(rb_of_d2d={0: 0, 1: 0})
        assert sinr(shared, gains, PARAMS, ("drx", 0), 0) < sinr(
            alone, gains, PARAMS, ("drx", 0), 0
        )
        assert sinr(shared, gains, PARAMS, ("cue", 0), 0) < sinr(
            alone, gains, PARAMS, ("cue", 0), 0
        )

    def test_inactive_receiver_rejected(self):
        topo = generate_topology(PARAMS, m=2, n=1, rng_seed=13)
        gains = draw_gains(topo, PARAMS, rng_seed=14)
        alloc = Allocation(rb_of_d2d={0: 1})
        with pytest.raises(ValueError):
            sinr(alloc, gains, PARAMS, ("drx", 0), 0)
        with pytest.raises(ValueError):
            sinr(alloc, gains, PARAMS, ("cue", 1), 0)


class TestRate:
    def test_known_points(self):
        assert rate(0.0) == 0.0
        assert rate(1.0) == pytest.approx(1.0, rel=1e-12)
        assert rate(3.0) == pytest.approx(2.0, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rate(-0.1)

    @given(st.floats(0, 1e9), st.floats(0.001, 1e9))
    def test_strictly_increasing(self, g, dg):
        assert rate(g + dg) > rate(g)


class TestSumRate:
    def test_no_pairs_reduces_to_cellular(self):
        topo = generate_topology(PARAMS, m=4, n=0, rng_seed=21)
        gains = draw_gains(topo, PARAMS, rng_seed=22)
        alloc = Allocation()
        expected = sum(
            rate(sinr(alloc, gains, PARAMS, radio.cellular_rx_node(PARAMS, rb), rb))
            for rb in range(4)
        )
        assert sum_rate(alloc, gains, PARAMS) == pytest.approx(expected, rel=1e-12)

    def test_isolated_pair_decomposition(self):
        topo = generate_topology(PARAMS, m=3, n=1, rng_seed=23)
        gains = draw_gains(topo, PARAMS, rng_seed=24)
        baseline = sum_rate(Allocation(), gains, PARAMS)
        with_pair = Allocation(rb_of_d2d={0: 2})
        total = sum_rate(with_pair, gains, PARAMS)
        pair_rate = rate(sinr(with_pair, gains, PARAMS, ("drx", 0), 2))
        cell2_with = rate(sinr(with_pair, gains, PARAMS, radio.cellular_rx_node(PARAMS, 2), 2))
        cell2_without = rate(sinr(Allocation(), gains, PARAMS, radio.cellular_rx_node(PARAMS, 2), 2))
        assert total == pytest.approx(
            baseline - cell2_without + cell2_with + pair_rate, rel=1e-12
        )

    def test_matches_link_by_link_oracle(self):
        # independent re-summation over every active link
        params = PARAMS
        topo = generate_topology(params, m=3, n=4, rng_seed=25)
        gains = draw_gains(topo, params, rng_seed=26)
        alloc = Allocation(rb_of_d2d={0: 0, 1: 0, 2: 2, 3: 1})
        sigma = effective_noise_w(params)
        total = 0.0
        for rb in range(3):
            on_rb = [j for j in range(4) if alloc.rb_of_d2d.get(j) == rb]
            sig = params.p_enb_w * gains.get(("enb", 0), ("cue", rb), rb)
            interf = sum(
                params.p_d2d_w * gains.get(("dtx", j), ("cue", rb), rb) for j in on_rb
            )
            total += math.log2(1.0 + sig / (sigma + interf))
            for j in on_rb:
                sig_j = params.p_d2d_w * gains.get(("dtx", j), ("drx", j), rb)
                interf_j = params.p_enb_w * gains.get(("enb", 0), ("drx", j), rb)
                interf_j += sum(
                    params.p_d2d_w * gains.get(("dtx", k), ("drx", j), rb)
                    for k in on_rb
                    if k != j
                )
                total += math.log2(1.0 + sig_j / (sigma + interf_j))
        assert sum_rate(alloc, gains, params) == pytest.approx(total, rel=1e-12)

    def test_rb_relabeling_invariance(self):
        params = PARAMS
        topo = generate_topology(params, m=3, n=3, rng_seed=27)
        gains = draw_gains(topo, params, rng_seed=28)
        alloc = Allocation(rb_of_d2d={0: 1, 1: 1, 2: 0})
        perm = [2, 0, 1]  # new rb p maps to old rb perm[p]
        cue_perm = tuple(topo.cue[perm[p]] for p in range(3))
        topo_p = Topology(enb_pos=topo.enb_pos, cue=cue_perm, d2d_pairs=topo.d2d_pairs)

        def remap(node):
            if node[0] == "cue":
                return ("cue", perm.index(node[1]))
            return node

        gains_p = GainTensor.from_entries(
            {
                (remap(tx), remap(rx), perm.index(rb)): g
                for (tx, rx, rb), g in gains.entries()
            },
            rb_count=3,
        )
        alloc_p = Allocation(
            rb_of_d2d={j: perm.index(rb) for j, rb in alloc.rb_of_d2d.items()}
        )
        assert sum_rate(alloc_p, gains_p, params) == pytest.approx(
            sum_rate(alloc, gains, params), rel=1e-12
        )
        assert topo_p.rb_count == 3


class TestParamsValidation:
    def test_defaults_valid(self):
        RadioParams().validate()

    def test_bad_radius(self):
        with pytest.raises(ValueError, match="cell_radius"):
            RadioParams(cell_radius_m=-1.0).validate()

    def test_bad_pair_distance(self):
        with pytest.raises(ValueError, match="max_d2d_distance"):
            RadioParams(max_d2d_distance_m=600.0).validate()

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="link_direction"):
            RadioParams(link_direction="sideways").validate()
