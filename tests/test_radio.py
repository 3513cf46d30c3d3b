import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from d2dgames import auction, radio
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

PARAMS = RadioParams()
_DEVICE_KINDS = frozenset({"dtx", "drx", "ue"})


def _los(tx, rx):
    # device-to-device links are line-of-sight; everything touching the eNB,
    # and the links between cellular users and devices, are not
    return tx[0] in _DEVICE_KINDS and rx[0] in _DEVICE_KINDS


def _modeled_links(enb_pos, cue, devices):
    """Every modeled link of a cell as ``(tx, tx_pos, rx, rx_pos)``, in draw order:
    eNB<->CUE, then per device tx->eNB, eNB->rx, tx->each CUE, each CUE->rx,
    and tx->every device receiver but itself."""
    enb = ("enb", 0)
    links = []
    for i, cpos in enumerate(cue):
        links.append((enb, enb_pos, ("cue", i), cpos))
        links.append((("cue", i), cpos, enb, enb_pos))
    for (tx, tx_pos), (rx, rx_pos) in devices:
        links.append((tx, tx_pos, enb, enb_pos))
        links.append((enb, enb_pos, rx, rx_pos))
        for i, cpos in enumerate(cue):
            links.append((tx, tx_pos, ("cue", i), cpos))
            links.append((("cue", i), cpos, rx, rx_pos))
        links.extend((tx, tx_pos, node, pos) for _, (node, pos) in devices if node != tx)
    return links


def _topology_links(topo):
    pairs = enumerate(topo.d2d_pairs)
    devices = [((("dtx", j), tx), (("drx", j), rx)) for j, (tx, rx) in pairs]
    return _modeled_links(topo.enb_pos, topo.cue, devices)


def _ue_links(enb_pos, cue_pos, ue_pos):
    ues = [(("ue", i), pos) for i, pos in enumerate(ue_pos)]
    return _modeled_links(enb_pos, cue_pos, list(zip(ues, ues)))


def _content_links(inst):
    return _ue_links(inst.enb_pos, inst.cue_pos, inst.ue_pos)


def _link_pathloss(tx, tx_pos, rx, rx_pos, fc_ghz):
    """One link's linear path loss through pathloss_db, as the per-link loop had it."""
    d = max(math.hypot(tx_pos[0] - rx_pos[0], tx_pos[1] - rx_pos[1]), 1e-9)
    return 10.0 ** (-pathloss_db(d, fc_ghz, _los(tx, rx)) / 10.0)


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

    def test_rejects_nan_distance(self):
        with pytest.raises(ValueError, match="distance must be > 0 m"):
            pathloss_db(math.nan, 2.0, los=True)

    def test_rejects_nan_carrier(self):
        with pytest.raises(ValueError, match="carrier frequency must be finite and > 0 GHz"):
            pathloss_db(100.0, math.nan, los=False)

    def test_rejects_infinite_carrier(self):
        with pytest.raises(ValueError, match="carrier frequency must be finite and > 0 GHz"):
            pathloss_db(100.0, math.inf, los=True)

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
        assert a.plan is b.plan  # one link plan per cell shape
        assert list(a.entries()) == list(b.entries())

    def test_fading_factor_unit_mean(self):
        # Monte Carlo over >= 1e4 draws: gain / pathloss should average to 1.
        topo = Topology(
            enb_pos=(0.0, 0.0),
            cue=tuple((50.0 * (i + 1), 0.0) for i in range(2)),
            d2d_pairs=(((100.0, 0.0), (110.0, 0.0)),),
        )
        pl_lin = {}
        for tx, tx_pos, rx, rx_pos in _topology_links(topo):
            pl_lin[(tx, rx)] = _link_pathloss(tx, tx_pos, rx, rx_pos, PARAMS.carrier_ghz)
        factors = []
        for seed in range(1200):
            gains = draw_gains(topo, PARAMS, rng_seed=seed)
            for (tx, rx, rb), g in gains.entries():
                factors.append(g / pl_lin[(tx, rx)])
        assert len(factors) >= 10_000
        assert np.mean(factors) == pytest.approx(1.0, abs=0.05)

    def test_los_policy(self):
        enb, cue = (0.0, 0.0), [(100.0, 0.0), (0.0, 100.0), (-100.0, 0.0)]
        pairs = [(0.0, -100.0), (0.0, -200.0), (-100.0, -200.0), (-100.0, -300.0)]
        ues = [(0.0, -150.0), (50.0, -250.0)]
        pos = {("enb", 0): enb, **{("cue", i): p for i, p in enumerate(cue)}}
        for j in range(2):
            pos[("dtx", j)], pos[("drx", j)] = pairs[2 * j], pairs[2 * j + 1]
            pos[("ue", j)] = ues[j]
        lookup = {}
        for pl in (
            radio.link_pathloss(PARAMS, enb, cue, pairs, paired=True),
            radio.link_pathloss(PARAMS, enb, cue, ues, paired=False),
        ):
            plan = pl.plan
            for l, value in enumerate(pl.pathloss.tolist()):
                lookup[(plan.tx_nodes[plan.tx[l]], plan.rx_nodes[plan.rx[l]])] = value

        def check(tx, rx, los):
            (ax, ay), (bx, by) = pos[tx], pos[rx]
            d = math.hypot(ax - bx, ay - by)
            assert lookup[(tx, rx)] == 10.0 ** (-pathloss_db(d, PARAMS.carrier_ghz, los) / 10.0)

        check(("dtx", 0), ("drx", 1), True)
        check(("ue", 0), ("ue", 1), True)
        check(("enb", 0), ("drx", 0), False)
        check(("cue", 0), ("drx", 0), False)
        check(("dtx", 0), ("cue", 2), False)
        check(("ue", 1), ("enb", 0), False)


def _reference_gains(links, rb_count, params, rng_seed):
    # the per-link loop the dense draw replaced: one fading draw of rb_count
    # values per link, in link order
    rng = np.random.default_rng(rng_seed)
    ref = {}
    for tx, tx_pos, rx, rx_pos in links:
        pl_lin = _link_pathloss(tx, tx_pos, rx, rx_pos, params.carrier_ghz)
        fading = rng.exponential(1.0, size=rb_count)
        for rb in range(rb_count):
            ref[(tx, rx, rb)] = pl_lin * float(fading[rb])
    return ref


class TestDenseGainTensor:
    DIRECTIONS = (radio.DOWNLINK, radio.UPLINK)

    def test_draw_gains_matches_per_link_loop(self):
        for direction in self.DIRECTIONS:
            params = RadioParams(link_direction=direction)
            for seed in range(6):
                topo = generate_topology(params, m=1 + seed % 4, n=seed, rng_seed=60 + seed)
                gains = draw_gains(topo, params, rng_seed=70 + seed)
                ref = _reference_gains(_topology_links(topo), topo.rb_count, params, 70 + seed)
                assert dict(gains.entries()) == ref
                assert all(gains.get(*key) == value for key, value in ref.items())

    def test_draw_content_gains_matches_per_link_loop(self):
        for direction in self.DIRECTIONS:
            params = RadioParams(link_direction=direction)
            for seed in range(6):
                scenario = ContentScenario(n_d2d=2 + seed, k_seeds=1, m_cue=1 + seed % 3)
                inst = generate_content_instance(scenario, params, rng_seed=80 + seed)
                gains = draw_content_gains(inst, params, rng_seed=90 + seed)
                ref = _reference_gains(_content_links(inst), scenario.m_cue, params, 90 + seed)
                assert dict(gains.entries()) == ref
                assert all(gains.get(*key) == value for key, value in ref.items())
                reused = draw_content_gains(
                    inst, params, 90 + seed, pathloss=content_pathloss(inst, params)
                )
                assert list(reused.entries()) == list(gains.entries())

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
        link = {(("dtx", 0), ("drx", 0), rb): 1e-9 for rb in range(2)}
        plan = GainTensor.from_entries(link, rb_count=2).plan
        values = np.full((1, 2), 1e-9)
        values[0, 1] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            GainTensor(plan, values)

    def test_a_link_without_every_rb_rejected(self):
        entries = {(("dtx", 0), ("drx", 0), 0): 1e-9, (("enb", 0), ("drx", 0), 1): 1e-9}
        with pytest.raises(ValueError, match="every link needs a gain on each RB 0..1"):
            GainTensor.from_entries(entries, rb_count=2)
        with pytest.raises(ValueError, match="entry RB outside 0..1"):
            GainTensor.from_entries({(("dtx", 0), ("drx", 0), 2): 1e-9}, rb_count=2)


class TestRedraw:
    """LinkPathLoss.draw keeps its product of path loss and fading, in link order,
    as the tensor's values; its checks and its readers are those of the plain
    construction."""

    @staticmethod
    def _layouts(direction):
        params = RadioParams(link_direction=direction)
        topo = generate_topology(params, m=3, n=4, rng_seed=31)
        inst = generate_content_instance(
            ContentScenario(n_d2d=5, k_seeds=2, m_cue=3), params, rng_seed=32
        )
        ends = [point for pair in topo.d2d_pairs for point in pair]
        links = {
            "sumrate": radio.link_pathloss(params, topo.enb_pos, topo.cue, ends, paired=True),
            "content": content_pathloss(inst, params),
        }
        return params, links

    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    def test_matches_full_and_scatter_construction(self, direction):
        _, links = self._layouts(direction)
        for pl in links.values():
            plan = pl.plan
            for seed in (0, 7, 7, 123):  # a repeated seed redraws over the shared plan
                fading = np.random.default_rng(seed).exponential(
                    1.0, size=(len(pl.pathloss), plan.rb_count)
                )
                want = pl.pathloss[:, None] * fading
                gains = pl.draw(seed)
                assert np.array_equal(gains.values, want)
                by_link = {
                    (plan.tx_nodes[plan.tx[l]], plan.rx_nodes[plan.rx[l]], rb): want[l, rb]
                    for l in range(len(plan.tx))
                    for rb in range(plan.rb_count)
                }
                assert dict(gains.entries()) == by_link
                assert all(gains.get(*key) == value for key, value in by_link.items())

    @pytest.mark.parametrize("bad", [0.0, math.inf])
    def test_zero_or_infinite_pathloss_raises_value_error(self, bad):
        _, links = self._layouts(radio.DOWNLINK)
        for pl in links.values():
            good = pl.draw(1)
            pathloss = pl.pathloss.copy()
            pathloss[3] = bad
            broken = dataclasses.replace(pl, pathloss=pathloss)
            want = f"gains must be positive and finite, got {bad} ({pl.plan.rb_count} bad entries)"
            with pytest.raises(ValueError, match=re.escape(want)):
                broken.draw(1)
            assert list(pl.draw(1).entries()) == list(good.entries())  # the shared plan holds

    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    def test_unmodelled_link_raises_key_error(self, direction):
        params, links = self._layouts(direction)
        for name, pl in links.items():
            gains = pl.draw(5)
            with pytest.raises(KeyError):
                gains.get(("cue", 0), ("cue", 1), 0)
            # a CUE that sends to another CUE's cellular receiver, or hears the
            # other CUE's cellular transmitter: not modeled in either layout
            tx, rx = ([("cue", 1)], []) if direction == radio.DOWNLINK else ([], [("cue", 0)])
            with pytest.raises(KeyError):
                radio.co_channel(gains, params, tx, rx, 3)


def _layout_gains(layout, direction, n, m=3, seed=150):
    """Parameters, one gain draw and co_channel's device lists for an engine's layout.

    ``auction``: a sum-rate cell, ``("dtx", j)`` against ``("drx", j)``;
    ``content``: standalone UEs, ``("ue", i)`` on both axes.
    """
    params = RadioParams(link_direction=direction)
    if layout == "auction":
        topo = generate_topology(params, m=m, n=n, rng_seed=seed + n)
        gains = draw_gains(topo, params, rng_seed=seed + n + 1)
        return params, gains, [("dtx", j) for j in range(n)], [("drx", j) for j in range(n)]
    rng = np.random.default_rng(seed + n)
    ue_pos = [tuple(p) for p in rng.uniform(300.0, 330.0, (n, 2))]
    cue_pos = [tuple(p) for p in rng.uniform(-300.0, 300.0, (m, 2))]
    pathloss = radio.link_pathloss(params, (0.0, 0.0), cue_pos, ue_pos, paired=False)
    gains = pathloss.draw(seed + n + 1)
    ue = [("ue", i) for i in range(n)]
    return params, gains, ue, ue


def _cell_nodes(direction, rb):
    if direction == radio.DOWNLINK:
        return ("enb", 0), ("cue", rb)
    return ("cue", rb), ("enb", 0)


class TestCoChannel:
    """radio.co_channel entry by entry against GainTensor.get, in both engines' layouts."""

    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    @pytest.mark.parametrize("layout", ["auction", "content"])
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_matches_per_entry_reference(self, direction, layout, n):
        params, gains, tx, rx = _layout_gains(layout, direction, n)
        m = gains.rb_count
        power = {
            "enb": params.p_enb_w,
            "cue": params.p_cue_w,
            "dtx": params.p_d2d_w,
            "ue": params.p_d2d_w,
        }
        block = radio.co_channel(gains, params, tx, rx, m)
        assert block.shape == (m, 1 + n, 1 + n)
        for rb in range(m):
            cell_tx, cell_rx = _cell_nodes(direction, rb)
            want = [
                [0.0 if a == b else power[a[0]] * gains.get(a, b, rb) for b in [cell_rx, *rx]]
                for a in [cell_tx, *tx]
            ]
            assert block[rb].tolist() == want, rb
        # the auction's diagonal is each pair's direct link, the content one a UE at itself
        diagonal = np.diagonal(block[:, 1:, 1:], axis1=1, axis2=2)
        assert ((diagonal == 0.0) if layout == "content" else (diagonal > 0.0)).all()

    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    @pytest.mark.parametrize("layout", ["auction", "content"])
    def test_a_missing_link_raises_key_error(self, direction, layout):
        params, gains, tx, rx = _layout_gains(layout, direction, 3)
        radio.co_channel(gains, params, tx, rx, 3)  # builds the plan on a complete tensor
        cell_tx, cell_rx = _cell_nodes(direction, 1)
        for a, b in [(cell_tx, cell_rx), (cell_tx, rx[2]), (tx[0], cell_rx), (tx[0], rx[2])]:
            entries = {key: g for key, g in gains.entries() if key[:2] != (a, b)}
            missing = GainTensor.from_entries(entries, gains.rb_count)
            with pytest.raises(KeyError):
                radio.co_channel(missing, params, tx, rx, 3)
        with pytest.raises(KeyError):
            radio.co_channel(gains, params, [*tx, ("dtx", 9)], rx, 3)

    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    def test_a_missing_link_raises_when_the_plan_is_built(self, direction):
        params, gains, tx, rx = _layout_gains("content", direction, 3)
        # UE 2 no longer hears UE 0: the plan names the first entry that reads it
        entries = {key: g for key, g in gains.entries() if key[:2] != (tx[0], rx[2])}
        missing = GainTensor.from_entries(entries, gains.rb_count)
        with pytest.raises(KeyError) as raised:
            radio._co_channel_plan(params, missing.plan, tuple(tx), tuple(rx), 3)
        assert raised.value.args == ((tx[0], rx[2], 0),)

    def test_fewer_rbs_than_read_raises_value_error(self):
        params, gains, tx, rx = _layout_gains("auction", radio.DOWNLINK, 2)
        with pytest.raises(ValueError, match="4 RBs are read, but the gain tensor holds only 3"):
            radio.co_channel(gains, params, tx, rx, 4)


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
        params = RadioParams(link_direction=radio.UPLINK)
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
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="SINR must be >= 0"):
            rate(math.nan)

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
        RadioParams()

    def test_bad_radius(self):
        with pytest.raises(ValueError, match="cell_radius"):
            RadioParams(cell_radius_m=-1.0)

    def test_bad_pair_distance(self):
        with pytest.raises(ValueError, match="max_d2d_distance"):
            RadioParams(max_d2d_distance_m=600.0)

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="link_direction"):
            RadioParams(link_direction="sideways")


def _disc_point(rng, center, radius):
    # the per-point draw the block reader replaced: two scalar uniform() calls
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return (center[0] + r * math.cos(theta), center[1] + r * math.sin(theta))


def _per_point_topology(params, m, n, rng_seed):
    """generate_topology's layout drawn point by point; also the receiver redraw count."""
    rng = np.random.default_rng(rng_seed)
    cue = tuple(_disc_point(rng, (0.0, 0.0), params.cell_radius_m) for _ in range(m))
    pairs, redraws = [], 0
    for _ in range(n):
        tx = _disc_point(rng, (0.0, 0.0), params.cell_radius_m)
        rx = _disc_point(rng, tx, params.max_d2d_distance_m)
        while math.hypot(*rx) > params.cell_radius_m:
            rx = _disc_point(rng, tx, params.max_d2d_distance_m)
            redraws += 1
        pairs.append((tx, rx))
    return Topology((0.0, 0.0), cue, tuple(pairs)), redraws


def _per_point_content(scenario, params, rng_seed):
    """generate_content_instance's positions drawn point by point; also the rejection count."""
    rng = np.random.default_rng(rng_seed)
    center = (0.8 * params.cell_radius_m, 0.0)
    ue, rejected = [], 0
    while len(ue) < scenario.n_d2d:
        p = _disc_point(rng, center, scenario.hotspot_radius_m)
        if math.hypot(*p) <= params.cell_radius_m:
            ue.append(p)
        else:
            rejected += 1
    cue = tuple(_disc_point(rng, (0.0, 0.0), params.cell_radius_m) for _ in range(scenario.m_cue))
    return tuple(ue), cue, rejected


def _hex_points(points):
    return [(x.hex(), y.hex()) for x, y in points]


def _per_link_sum_rate(alloc, gains, params):
    # the sum the one-pass scoring replaced: rate(sinr(...)) per receiver
    total = 0.0
    for rb in range(gains.rb_count):
        total += rate(sinr(alloc, gains, params, radio.cellular_rx_node(params, rb), rb))
    for j in sorted(j for j in alloc.rb_of_d2d if j not in alloc.relay_d2d):
        total += rate(sinr(alloc, gains, params, ("drx", j), alloc.rb_of_d2d[j]))
    sigma = effective_noise_w(params)
    for j in sorted(alloc.relay_d2d):
        rb = alloc.rb_of_d2d[j]
        up = rate(params.p_d2d_w * gains.get(("dtx", j), ("enb", 0), rb) / sigma)
        down = rate(params.p_enb_w * gains.get(("enb", 0), ("drx", j), rb) / sigma)
        total += 0.5 * min(up, down)
    return total


class TestRadioLayerBits:
    """The buffered disc draws, the per-layout link plan and the one-pass
    scoring give the floats of the per-point, per-link and per-receiver code
    they replaced, compared with ``==`` on every float."""

    SMALL = dict(cell_radius_m=12.0, max_d2d_distance_m=5.0)

    @pytest.mark.parametrize("cell", [{}, SMALL], ids=["default", "small"])
    def test_topology_matches_per_point_draws(self, cell):
        params = RadioParams(**cell)
        redraws = 0
        for seed in range(200):
            m, n = 1 + seed % 10, seed % 17
            want, extra = _per_point_topology(params, m, n, seed)
            got = generate_topology(params, m, n, seed)
            assert _hex_points(got.cue) == _hex_points(want.cue)
            assert list(map(_hex_points, got.d2d_pairs)) == list(map(_hex_points, want.d2d_pairs))
            redraws += extra
        if cell:  # receivers near the small cell's edge redraw, refilling the block
            assert redraws > 100

    @pytest.mark.parametrize("cell", [{}, SMALL], ids=["default", "small"])
    def test_content_instance_matches_per_point_draws(self, cell):
        params = RadioParams(**cell)
        rejected = 0
        for seed in range(100):
            scenario = ContentScenario(
                n_d2d=2 + seed % 20,
                k_seeds=1,
                m_cue=1 + seed % 6,
                hotspot_radius_m=min(30.0, params.cell_radius_m),
            )
            ue, cue, extra = _per_point_content(scenario, params, seed)
            inst = generate_content_instance(scenario, params, seed)
            assert _hex_points(inst.ue_pos) == _hex_points(ue)
            assert _hex_points(inst.cue_pos) == _hex_points(cue)
            rejected += extra
        if cell:  # the hotspot reaches past the small cell's edge
            assert rejected > 100

    @pytest.mark.parametrize("carrier_ghz", [2.0, 5.9])
    def test_link_pathloss_matches_pathloss_db(self, carrier_ghz):
        params = RadioParams(carrier_ghz=carrier_ghz)
        enb, cue = (0.0, 0.0), [(3.0, 4.0), (120.5, -7.25), (0.0, 0.0)]  # CUE 2 sits on the eNB
        pairs = [
            ((30.0, 40.0), (30.0, 40.0)),  # coincident ends
            ((3.0, 4.0), (6.0, 4.0)),  # the transmitter on CUE 0, 3 m from its receiver
            ((-250.0, 111.0), (-262.5, 115.75)),
        ]
        ues = [(30.0, 40.0), (31.0, 40.0), (3.0, 4.0), (-400.0, 0.5)]
        topo = Topology(enb, tuple(cue), tuple(pairs))
        ends = [p for pair in pairs for p in pair]
        for pl, links in (
            (radio.link_pathloss(params, enb, cue, ends, paired=True), _topology_links(topo)),
            (radio.link_pathloss(params, enb, cue, ues, paired=False), _ue_links(enb, cue, ues)),
        ):
            plan = pl.plan
            got = pl.pathloss.tolist()
            assert len(got) == len(links)
            kinds = set()
            for l, (tx, tx_pos, rx, rx_pos) in enumerate(links):
                assert (plan.tx_nodes[plan.tx[l]], plan.rx_nodes[plan.rx[l]]) == (tx, rx)
                assert got[l].hex() == _link_pathloss(tx, tx_pos, rx, rx_pos, carrier_ghz).hex()
                kinds.add((_los(tx, rx), math.dist(tx_pos, rx_pos) < 10.0))
            assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    def test_link_pathloss_rejects_a_nan_distance(self):
        topo = Topology((0.0, 0.0), ((100.0, 0.0),), (((math.nan, 0.0), (5.0, 0.0)),))
        with pytest.raises(ValueError, match="distance must be > 0 m, got nan"):
            draw_gains(topo, PARAMS, rng_seed=1)

    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    def test_sum_rate_matches_per_receiver_sum(self, direction):
        params = RadioParams(link_direction=direction)
        checked = 0
        for seed in range(60):
            m, n = 1 + seed % 6, seed % 9
            topo = generate_topology(params, m, n, 400 + seed)
            gains = draw_gains(topo, params, 500 + seed)
            rng = np.random.default_rng(seed)
            allocs = [
                Allocation(),
                Allocation({j: 0 for j in range(n)}),  # every pair on one RB
                Allocation({j: m - 1 for j in range(n)}, frozenset(range(0, n, 2))),
                auction.random_allocation(topo, seed),
                auction.all_cellular_allocation(topo),
            ]
            for _ in range(4):  # some pairs silent, some relayed, some RBs empty
                rb_of = {j: int(rng.integers(0, m)) for j in range(n) if rng.random() < 0.7}
                allocs.append(Allocation(rb_of, frozenset(j for j in rb_of if rng.random() < 0.3)))
            for alloc in allocs:
                got = sum_rate(alloc, gains, params)
                assert got.hex() == _per_link_sum_rate(alloc, gains, params).hex()
                checked += 1
        assert checked == 60 * 9

    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    def test_sum_rate_adds_interference_in_ascending_pair_order(self, direction):
        """One RB and four direct pairs, where every rate but one listener's is
        below the last bit of the total: the total is then that listener's
        rate, whose denominator adds the co-channel pairs in ascending order,
        and at a D2D receiver the cellular transmitter after them."""
        params = RadioParams(link_direction=direction)
        sigma = effective_noise_w(params)
        p_d = params.p_d2d_w
        p_c = params.p_enb_w if direction == radio.DOWNLINK else params.p_cue_w
        cell_tx, cell_rx = _cell_nodes(direction, 0)
        n = 4
        alloc = Allocation({j: 0 for j in range(n)})
        shows = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            for listener in (cell_rx, ("drx", 0)):
                # received powers span six decades, so their order shows in the last bits
                entries = {(cell_tx, cell_rx, 0): 1e-40}
                for j in range(n):
                    entries[(("dtx", j), cell_rx, 0)] = 10.0 ** rng.uniform(-14, -8)
                    entries[(cell_tx, ("drx", j), 0)] = 10.0 ** rng.uniform(-14, -8)
                    for k in range(n):
                        gain = 1e-40 if j == k else 10.0 ** rng.uniform(-14, -8)
                        entries[(("dtx", j), ("drx", k), 0)] = gain
                if listener == cell_rx:
                    signal_key, p_signal = (cell_tx, cell_rx, 0), p_c
                    terms = [p_d * entries[(("dtx", k), cell_rx, 0)] for k in range(n)]
                else:
                    signal_key, p_signal = (("dtx", 0), ("drx", 0), 0), p_d
                    terms = [p_d * entries[(("dtx", k), ("drx", 0), 0)] for k in range(1, n)]
                    terms.append(p_c * entries[(cell_tx, ("drx", 0), 0)])
                denom = sigma
                for term in terms:
                    denom += term
                # signal set for an SINR in [0.3, 0.9]
                entries[signal_key] = rng.uniform(0.3, 0.9) * denom / p_signal
                gains = GainTensor.from_entries(entries, rb_count=1)
                want = rate(p_signal * gains.get(*signal_key) / denom)
                got = sum_rate(alloc, gains, params)
                assert got.hex() == want.hex()
                assert got.hex() == _per_link_sum_rate(alloc, gains, params).hex()
                reverse = sigma
                for term in reversed(terms):
                    reverse += term
                shows += rate(p_signal * gains.get(*signal_key) / reverse) != want
        assert shows > 20  # the check can tell the two orders apart

    def test_all_cellular_takes_the_first_nearest_cue(self):
        cue = ((0.0, 100.0), (100.0, 0.0), (0.0, -100.0), (-100.0, 0.0))
        pairs = (
            ((0.0, 0.0), (1.0, 0.0)),  # all four equidistant: RB 0
            ((50.0, -50.0), (51.0, -50.0)),  # CUEs 1 and 2 tie: RB 1
            ((-50.0, -50.0), (-51.0, -50.0)),  # CUEs 2 and 3 tie: RB 2
            ((-60.0, 0.0), (-61.0, 0.0)),  # CUE 3 alone
        )
        topo = Topology((0.0, 0.0), cue, pairs)
        alloc = auction.all_cellular_allocation(topo)
        assert alloc.rb_of_d2d == {0: 0, 1: 1, 2: 2, 3: 3}
        assert alloc.relay_d2d == frozenset(range(4))
        for j, (tx, _) in enumerate(pairs):
            dists = [math.hypot(tx[0] - c[0], tx[1] - c[1]) for c in cue]
            assert alloc.rb_of_d2d[j] == int(np.argmin(dists))

    def test_random_allocation_matches_per_pair_draws(self):
        for seed in range(300):
            m, n = 1 + seed % 12, seed % 17
            topo = generate_topology(PARAMS, m, n, seed)
            rng = np.random.default_rng(seed + 1)
            want = {j: int(rng.integers(0, m)) for j in range(n)}
            assert auction.random_allocation(topo, seed + 1).rb_of_d2d == want
