import itertools
import math
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dgames import coalition, radio
from d2dgames.coalition import (
    ContentInstance,
    ContentRound,
    ContentScenario,
    Partition,
    _coalition_detail,
    _serving_seed,
    _sinr,
    _transmitting,
    draw_content_gains,
    generate_content_instance,
    initial_partition,
    make_value_fn,
    merge_split,
    noncooperative_baseline,
    run_switch_dynamics,
    simulate_content_distribution,
    switch_step,
)
from d2dgames.seeding import derive_seed

PARAMS = radio.RadioParams().validate()


def _instance(n=5, k=2, m=2, seed=0):
    scenario = ContentScenario(n_d2d=n, k_seeds=k, m_cue=m)
    return generate_content_instance(scenario, PARAMS, rng_seed=seed)


class TestCoalitionValue:
    def test_empty_members_is_cellular_rate(self):
        inst = _instance(seed=1)
        gains = draw_content_gains(inst, PARAMS, rng_seed=2)
        sigma = radio.effective_noise_w(PARAMS)
        for rb in range(2):
            got = make_value_fn(ContentRound(inst, gains, PARAMS))(rb, frozenset())
            want = math.log2(
                1.0
                + PARAMS.p_enb_w * gains.get(("enb", 0), ("cue", rb), rb) / sigma
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_seed_and_normal_decomposition(self):
        inst = _instance(n=2, k=1, m=2, seed=3)
        gains = draw_content_gains(inst, PARAMS, rng_seed=4)
        sigma = radio.effective_noise_w(PARAMS)
        got = make_value_fn(ContentRound(inst, gains, PARAMS))(0, frozenset({0, 1}))
        # one seed (0) serving one normal (1): cellular link suffers the seed,
        # the normal suffers only cross-tier interference from the eNB
        cell = math.log2(
            1.0
            + PARAMS.p_enb_w
            * gains.get(("enb", 0), ("cue", 0), 0)
            / (sigma + PARAMS.p_d2d_w * gains.get(("ue", 0), ("cue", 0), 0))
        )
        d2d = math.log2(
            1.0
            + PARAMS.p_d2d_w
            * gains.get(("ue", 0), ("ue", 1), 0)
            / (sigma + PARAMS.p_enb_w * gains.get(("enb", 0), ("ue", 1), 0))
        )
        assert got == pytest.approx(cell + d2d, rel=1e-12)

    def test_no_seed_contributes_nothing(self):
        inst = _instance(n=3, k=1, m=2, seed=5)
        gains = draw_content_gains(inst, PARAMS, rng_seed=6)
        # coalition of normals only (UE 1, 2): value equals the bare cellular rate
        got = make_value_fn(ContentRound(inst, gains, PARAMS))(1, frozenset({1, 2}))
        want = make_value_fn(ContentRound(inst, gains, PARAMS))(1, frozenset())
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_link_by_link_oracle(self):
        inst = _instance(n=5, k=2, m=2, seed=7)
        gains = draw_content_gains(inst, PARAMS, rng_seed=8)
        sigma = radio.effective_noise_w(PARAMS)
        members = frozenset({0, 1, 2, 3, 4})
        anchor = 1
        got = make_value_fn(ContentRound(inst, gains, PARAMS))(anchor, members)
        # independent recomputation: nearest-seed pairing and explicit sums
        pos = inst.ue_pos
        seeds = sorted(members & inst.seeds)
        normals = sorted(members - inst.seeds)
        serving = {
            u: min(seeds, key=lambda s: (math.dist(pos[s], pos[u]), s))
            for u in normals
        }
        tx_seeds = sorted(set(serving.values()))
        interf_c = sigma + sum(
            PARAMS.p_d2d_w * gains.get(("ue", s), ("cue", anchor), anchor)
            for s in tx_seeds
        )
        want = math.log2(
            1.0 + PARAMS.p_enb_w * gains.get(("enb", 0), ("cue", anchor), anchor) / interf_c
        )
        for u in normals:
            s = serving[u]
            interf = sigma + PARAMS.p_enb_w * gains.get(("enb", 0), ("ue", u), anchor)
            interf += sum(
                PARAMS.p_d2d_w * gains.get(("ue", t), ("ue", u), anchor)
                for t in tx_seeds
                if t != s
            )
            want += math.log2(
                1.0 + PARAMS.p_d2d_w * gains.get(("ue", s), ("ue", u), anchor) / interf
            )
        assert got == pytest.approx(want, rel=1e-12)


def _lookup_value_fn(table):
    def value_fn(anchor, members):
        return table[(anchor, frozenset(members))]

    return value_fn


class TestSwitchStep:
    def test_improving_switch_executed(self):
        # moving UE 0 from coalition 0 to 1: source 3->2, dest 4->6
        table = {
            (0, frozenset({0})): 3.0,
            (0, frozenset()): 2.0,
            (1, frozenset({1})): 4.0,
            (1, frozenset({0, 1})): 6.0,
        }
        part = Partition(members=(frozenset({0}), frozenset({1})))
        new, moved = switch_step(part, _lookup_value_fn(table))
        assert moved
        assert new.members == (frozenset(), frozenset({0, 1}))

    def test_tie_rejected(self):
        table = {
            (0, frozenset({0})): 3.0,
            (0, frozenset()): 2.0,
            (1, frozenset({1})): 4.0,
            (1, frozenset({0, 1})): 5.0,  # combined 7 -> 7
            (1, frozenset()): 0.0,
            (0, frozenset({0, 1})): 3.0,  # UE 1's move: combined 7 -> 3
        }
        part = Partition(members=(frozenset({0}), frozenset({1})))
        new, moved = switch_step(part, _lookup_value_fn(table))
        assert not moved
        assert new == part

    def test_move_strictly_increases_total(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            inst = _instance(n=4, k=2, m=2, seed=100 + trial)
            gains = draw_content_gains(inst, PARAMS, rng_seed=200 + trial)
            value_fn = make_value_fn(ContentRound(inst, gains, PARAMS))
            part = initial_partition(inst)
            new, moved = switch_step(part, value_fn)
            if moved:
                assert new.total_value(value_fn) > part.total_value(value_fn)


class TestSwitchDynamics:
    def test_stable_partition_unchanged(self):
        table = {
            (0, frozenset({0})): 5.0,
            (0, frozenset()): 0.0,
            (1, frozenset({1})): 5.0,
            (1, frozenset()): 0.0,
            (1, frozenset({0, 1})): 5.0,
            (0, frozenset({0, 1})): 5.0,
        }
        part = Partition(members=(frozenset({0}), frozenset({1})))
        result = run_switch_dynamics(part, _lookup_value_fn(table))
        assert result == part

    def test_result_is_switch_stable(self):
        for seed in range(25):
            inst = _instance(n=3, k=1, m=2, seed=300 + seed)
            gains = draw_content_gains(inst, PARAMS, rng_seed=400 + seed)
            value_fn = make_value_fn(ContentRound(inst, gains, PARAMS))
            result = run_switch_dynamics(initial_partition(inst), value_fn)
            result.validate(3)
            # exhaustive deviation check
            for ue in range(3):
                src = result.anchor_of(ue)
                for dst in range(2):
                    if dst == src:
                        continue
                    delta = (
                        value_fn(src, result.members[src] - {ue})
                        + value_fn(dst, result.members[dst] | {ue})
                        - value_fn(src, result.members[src])
                        - value_fn(dst, result.members[dst])
                    )
                    assert delta <= 1e-9

    def test_local_optimum_below_global(self):
        from d2dgames.oracle import exhaustive_best_partition

        for direction in (radio.DOWNLINK, radio.UPLINK):
            params = radio.RadioParams(link_direction=direction).validate()
            for seed in range(10):
                inst = _instance(n=4, k=2, m=2, seed=500 + seed)
                gains = draw_content_gains(inst, params, rng_seed=600 + seed)
                value_fn = make_value_fn(ContentRound(inst, gains, params))
                result = run_switch_dynamics(initial_partition(inst), value_fn)
                _, best = exhaustive_best_partition(inst, gains, params)
                assert result.total_value(value_fn) <= best + 1e-9


class TestMergeSplit:
    def test_superadditive_reaches_grand_coalition(self):
        players = range(5)
        result = merge_split(
            [frozenset({p}) for p in players], lambda c: len(c) ** 2
        )
        assert result == [frozenset(players)]

    def test_additive_unchanged(self):
        start = [frozenset({0, 1}), frozenset({2}), frozenset({3, 4})]
        result = merge_split(start, lambda c: float(len(c)))
        assert sorted(result, key=sorted) == sorted(start, key=sorted)

    def test_random_value_outputs_stable(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = 5
            values = {
                frozenset(c): float(rng.uniform(0.0, len(c) ** 0.8))
                for r in range(1, 2**n)
                for c in [tuple(i for i in range(n) if (r >> i) & 1)]
            }
            values[frozenset()] = 0.0

            def v(c):
                return values[frozenset(c)]

            result = merge_split([frozenset({p}) for p in range(n)], v)
            # no improving merge
            for a, b in itertools.combinations(result, 2):
                assert v(a | b) <= v(a) + v(b) + 1e-9
            # no improving bipartition split
            for c in result:
                if len(c) < 2:
                    continue
                rest = sorted(c - {min(c)})
                for pick in range(1, 2 ** len(rest)):
                    s1 = frozenset({min(c)} | {rest[i] for i in range(len(rest)) if (pick >> i) & 1})
                    s2 = c - s1
                    if s2:
                        assert v(s1) + v(s2) <= v(c) + 1e-9


class TestNoncooperativeBaseline:
    def test_single_rb_identical_to_coalition(self):
        inst = _instance(n=2, k=1, m=1, seed=13)
        gains = draw_content_gains(inst, PARAMS, rng_seed=14)
        noncoop = noncooperative_baseline(ContentRound(inst, gains, PARAMS))
        value_fn = make_value_fn(ContentRound(inst, gains, PARAMS))
        coop = run_switch_dynamics(initial_partition(inst), value_fn)
        assert noncoop == coop

    def test_zero_normals_cellular_only(self):
        inst = _instance(n=2, k=2, m=2, seed=15)
        gains = draw_content_gains(inst, PARAMS, rng_seed=16)
        part = noncooperative_baseline(ContentRound(inst, gains, PARAMS))
        part.validate(2)
        value_fn = make_value_fn(ContentRound(inst, gains, PARAMS))
        # nobody transmits: every coalition is worth its bare cellular rate
        for anchor, members in enumerate(part.members):
            assert value_fn(anchor, members) == pytest.approx(
                value_fn(anchor, frozenset()), rel=1e-12
            )

    def test_selfish_total_never_beats_switch_stable(self):
        wins = 0
        for seed in range(15):
            inst = _instance(n=6, k=2, m=3, seed=700 + seed)
            gains = draw_content_gains(inst, PARAMS, rng_seed=800 + seed)
            value_fn = make_value_fn(ContentRound(inst, gains, PARAMS))
            coop = run_switch_dynamics(initial_partition(inst), value_fn)
            noncoop = noncooperative_baseline(ContentRound(inst, gains, PARAMS))
            if coop.total_value(value_fn) >= noncoop.total_value(value_fn) - 1e-9:
                wins += 1
        assert wins == 15


def _noncoop_reference(gains, params, inst, seeds, partition0, max_sweeps=50):
    """Selfish channel selection written out link by link from the docstring."""
    sigma = radio.effective_noise_w(params)
    downlink = params.link_direction == radio.DOWNLINK
    pos = inst.ue_pos
    m = inst.scenario.m_cue
    rb_of = {u: a for a, ms in enumerate(partition0.members) for u in ms}

    def own_sinr(u, rb):
        members = [v for v in rb_of if rb_of[v] == rb and v != u] + [u]
        seed_list = sorted(v for v in members if v in seeds)
        if not seed_list:
            return 0.0
        serving = {}
        for v in sorted(v for v in members if v not in seeds):
            serving[v] = min(seed_list, key=lambda s: (math.dist(pos[s], pos[v]), s))
        cell_tx = ("enb", 0) if downlink else ("cue", rb)
        p_cell = params.p_enb_w if downlink else params.p_cue_w
        interf = p_cell * gains.get(cell_tx, ("ue", u), rb)
        for t in sorted(set(serving.values())):
            if t != serving[u]:
                interf += params.p_d2d_w * gains.get(("ue", t), ("ue", u), rb)
        signal = params.p_d2d_w * gains.get(("ue", serving[u]), ("ue", u), rb)
        return signal / (sigma + interf)

    normals = [u for u in range(inst.scenario.n_d2d) if u not in seeds]
    for _ in range(max_sweeps):
        moved = False
        for u in normals:
            current = rb_of[u]
            best_r, best_g = current, own_sinr(u, current)
            for r in range(m):
                if r == current:
                    continue
                g = own_sinr(u, r)
                if g > best_g * (1.0 + 1e-12) and g > best_g:
                    best_r, best_g = r, g
            rb_of[u] = best_r
            moved = moved or best_r != current
        if not moved:
            break
    return tuple(frozenset(u for u in rb_of if rb_of[u] == r) for r in range(m))


class TestNoncooperativeReference:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(2024)
        moved = 0
        for direction in (radio.DOWNLINK, radio.UPLINK):
            params = radio.RadioParams(link_direction=direction).validate()
            for seed in range(16):
                n = int(rng.integers(3, 10))
                k = int(rng.integers(1, n))
                m = int(rng.integers(2, 5))
                inst = generate_content_instance(
                    ContentScenario(n_d2d=n, k_seeds=k, m_cue=m, hotspot_radius_m=60.0),
                    params,
                    900 + seed,
                )
                # round 1: initial seeds spread over random coalitions
                rbs = rng.integers(0, m, n)
                start = Partition(
                    tuple(frozenset(np.flatnonzero(rbs == r).tolist()) for r in range(m))
                )
                gains = draw_content_gains(inst, params, rng_seed=950 + seed)
                got = noncooperative_baseline(ContentRound(inst, gains, params), partition0=start)
                want = _noncoop_reference(gains, params, inst, inst.seeds, start)
                assert got.members == want, (direction, seed)
                # round 2: a grown seed set, warm-started from round 1's partition
                grown = inst.seeds | frozenset(u for u in range(k, n) if rng.random() < 0.3)
                gains = draw_content_gains(inst, params, rng_seed=990 + seed)
                rnd = ContentRound(inst, gains, params, grown)
                got2 = noncooperative_baseline(rnd, partition0=got)
                want2 = _noncoop_reference(gains, params, inst, grown, got)
                assert got2.members == want2, (direction, seed)
                got2.validate(n)
                moved += (got != start) + (got2 != got)
        # half of the 64 runs move some UE, so the scan and the tie test are exercised
        assert moved >= 32, moved


def _tie_instance():
    """Seeds 0 and 1 mirror-symmetric about normal UE 2, so both are bitwise equally near.

    Seed 3 sits alone on the other RB.
    """
    return ContentInstance(
        scenario=ContentScenario(n_d2d=4, k_seeds=3, m_cue=2),
        ue_pos=((195.0, 50.0), (205.0, 50.0), (200.0, 50.0), (200.0, 58.0)),
        cue_pos=((-100.0, 20.0), (30.0, -150.0)),
        enb_pos=(0.0, 0.0),
        seeds=frozenset({0, 1, 3}),
    )


def _reference_sinr(gains, params, inst, anchor, members, u):
    """Normal UE u's SINR in a coalition, link by link, nearest seed by (math.dist, index)."""
    sigma = radio.effective_noise_w(params)
    downlink = params.link_direction == radio.DOWNLINK
    pos = inst.ue_pos
    seed_list = sorted(members & inst.seeds)
    if not seed_list:
        return 0.0
    serving = {
        v: min(seed_list, key=lambda s: (math.dist(pos[s], pos[v]), s))
        for v in sorted(members - inst.seeds)
    }
    cell_tx = ("enb", 0) if downlink else ("cue", anchor)
    p_cell = params.p_enb_w if downlink else params.p_cue_w
    interf = p_cell * gains.get(cell_tx, ("ue", u), anchor)
    for t in sorted(set(serving.values())):
        if t != serving[u]:
            interf += params.p_d2d_w * gains.get(("ue", t), ("ue", u), anchor)
    signal = params.p_d2d_w * gains.get(("ue", serving[u]), ("ue", u), anchor)
    return signal / (sigma + interf)


class TestSeedTies:
    def test_equidistant_seeds_serve_from_smaller_index(self):
        inst = _tie_instance()
        dist = inst.distances()
        pos = inst.ue_pos
        assert dist[0, 2] == dist[1, 2]
        assert math.dist(pos[0], pos[2]) == math.dist(pos[1], pos[2])
        serving = min((0, 1), key=lambda s: (math.dist(pos[s], pos[2]), s))
        assert serving == 0
        grand = frozenset({0, 1, 2})
        start = Partition(members=(grand, frozenset({3})))
        moves = stays = 0
        for gain_seed in range(40):
            gains = draw_content_gains(inst, PARAMS, rng_seed=gain_seed)
            sigma = radio.effective_noise_w(PARAMS)
            cell = PARAMS.p_enb_w * gains.get(("enb", 0), ("cue", 0), 0)
            signal = PARAMS.p_d2d_w * gains.get(("ue", serving), ("ue", 2), 0)
            interf = PARAMS.p_enb_w * gains.get(("enb", 0), ("ue", 2), 0)
            to_cell = PARAMS.p_d2d_w * gains.get(("ue", serving), ("cue", 0), 0)
            want_value = math.log2(1.0 + cell / (sigma + to_cell)) + math.log2(
                1.0 + signal / (sigma + interf)
            )
            assert make_value_fn(ContentRound(inst, gains, PARAMS))(0, grand) == pytest.approx(
                want_value, rel=1e-12
            )
            # the delivery loop reads the SINRs of this call
            want_sinr = _reference_sinr(gains, PARAMS, inst, 0, grand, 2)
            rnd = ContentRound(inst, gains, PARAMS)
            assert _coalition_detail(rnd, 0, grand)[1] == {2: want_sinr}
            got = noncooperative_baseline(ContentRound(inst, gains, PARAMS), partition0=start)
            assert got.members == _noncoop_reference(gains, PARAMS, inst, inst.seeds, start)
            # the check above tells the seeds apart only on draws where serving
            # from seed 1 would flip UE 2's choice; both outcomes must occur there
            other = PARAMS.p_d2d_w * gains.get(("ue", 1), ("ue", 2), 0) / (sigma + interf)
            alone = _reference_sinr(gains, PARAMS, inst, 1, frozenset({2, 3}), 2)
            if (alone > want_sinr) != (alone > other):
                moves += got != start
                stays += got == start
        assert moves >= 3 and stays >= 3, (moves, stays)


class TestJoinQuery:
    """The noncooperative scan scores a UE on an RB from the coalition's transmitting set."""

    def test_matches_full_evaluation(self):
        rng = np.random.default_rng(77)
        cases = {"no_seed": 0, "transmitting": 0, "new_transmitter": 0, "after_new": 0}

        def score(rnd, anchor, members, u):
            s = _serving_seed(rnd.ranked[u], members)
            return _sinr(rnd, anchor, u, s, _transmitting(rnd, members))

        for direction in (radio.DOWNLINK, radio.UPLINK):
            params = radio.RadioParams(link_direction=direction).validate()
            for trial in range(20):
                n = int(rng.integers(4, 12))
                m = int(rng.integers(1, 4))
                inst = generate_content_instance(
                    ContentScenario(n_d2d=n, k_seeds=1, m_cue=m, hotspot_radius_m=150.0),
                    params,
                    1300 + trial,
                )
                seeds = frozenset(np.flatnonzero(rng.random(n) < 0.4).tolist())
                gains = draw_content_gains(inst, params, rng_seed=1400 + trial)
                rnd = ContentRound(inst, gains, params, seeds)
                anchor = int(rng.integers(m))
                # a random start (without seeds in every fourth trial), then the
                # other normal UEs join one at a time
                p_member = np.where([u in seeds for u in range(n)], 0.7 * (trial % 4 > 0), 0.15)
                members = frozenset(np.flatnonzero(rng.random(n) < p_member).tolist())
                added_new = False
                for u in rng.permutation(sorted(set(range(n)) - members - seeds)).tolist():
                    sinr = score(rnd, anchor, members, u)
                    want = _coalition_detail(rnd, anchor, members | {u})[1][u]
                    assert sinr.hex() == want.hex(), (direction, trial, u)
                    joined = _transmitting(rnd, members | {u})
                    if seeds.isdisjoint(members):
                        assert sinr == 0.0
                        cases["no_seed"] += 1
                    elif joined == _transmitting(rnd, members):
                        cases["transmitting"] += 1
                        cases["after_new"] += added_new
                    else:
                        # u's serving seed is scored without being in the set
                        cases["new_transmitter"] += 1
                        cases["after_new"] += added_new
                        added_new = True
                    members = members | {u}
                # a member scored against its own coalition keeps its SINR there,
                # its serving seed now inside the transmitting set
                full = _coalition_detail(rnd, anchor, members)[1]
                for u, want in full.items():
                    assert score(rnd, anchor, members, u).hex() == want.hex()
        assert min(cases.values()) >= 10, cases


class TestContentInstance:
    @pytest.mark.parametrize("radius", [0.0, -5.0])
    def test_nonpositive_hotspot_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="hotspot_radius_m"):
            generate_content_instance(ContentScenario(hotspot_radius_m=radius), PARAMS, 0)


class TestPartitionValidation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Partition(members=(frozenset({0}), frozenset({0}))).validate(1)

    def test_coverage_required(self):
        with pytest.raises(ValueError):
            Partition(members=(frozenset({0}), frozenset())).validate(2)

    def test_operations_preserve_validity(self):
        inst = _instance(n=5, k=2, m=3, seed=17)
        gains = draw_content_gains(inst, PARAMS, rng_seed=18)
        value_fn = make_value_fn(ContentRound(inst, gains, PARAMS))
        part = initial_partition(inst).validate(5)
        result = run_switch_dynamics(part, value_fn)
        result.validate(5)
        noncooperative_baseline(ContentRound(inst, gains, PARAMS)).validate(5)


class TestContentSimulation:
    def test_everyone_a_seed_flat_curve(self):
        scenario = ContentScenario(n_d2d=4, k_seeds=4, m_cue=2, file_packets=100, rounds=5)
        (curve,) = simulate_content_distribution(scenario, PARAMS, ("coalition",), rng_seed=19)
        assert curve.cumulative == [400] * 6

    def test_zero_pacing_flat_at_initial(self):
        scenario = ContentScenario(
            n_d2d=5, k_seeds=2, m_cue=2, file_packets=100, packets_per_rate_unit=0.0, rounds=5
        )
        (curve,) = simulate_content_distribution(
            scenario, PARAMS, ("noncooperative",), rng_seed=20
        )
        assert curve.cumulative == [200] * 6

    def test_curves_monotone_and_bounded(self):
        scenario = ContentScenario(n_d2d=8, k_seeds=2, m_cue=3, file_packets=50, rounds=8)
        for allocator in ("coalition", "noncooperative"):
            (curve,) = simulate_content_distribution(scenario, PARAMS, (allocator,), rng_seed=21)
            assert len(curve.cumulative) == 9
            for a, b in zip(curve.cumulative, curve.cumulative[1:]):
                assert a <= b
            assert curve.cumulative[-1] <= 8 * 50

    def test_paired_channels_across_allocators(self, monkeypatch):
        scenario = ContentScenario(n_d2d=6, k_seeds=2, m_cue=2, file_packets=1000, rounds=3)
        (a,) = simulate_content_distribution(scenario, PARAMS, ("coalition",), rng_seed=22)
        (b,) = simulate_content_distribution(scenario, PARAMS, ("coalition",), rng_seed=22)
        assert a.cumulative == b.cumulative  # determinism
        assert a.total_values == b.total_values
        # one draw per round, and both allocators play that round's draw
        drawn, played = [], []
        draw = coalition.draw_content_gains

        def recording_draw(*args, **kwargs):
            drawn.append(draw(*args, **kwargs))
            return drawn[-1]

        class RecordingRound(ContentRound):
            def __init__(self, inst, gains, params, seeds=None):
                super().__init__(inst, gains, params, seeds)
                self.gains = gains

            def with_seeds(self, seeds):
                played.append(super().with_seeds(seeds))
                return played[-1]

        monkeypatch.setattr(coalition, "draw_content_gains", recording_draw)
        monkeypatch.setattr(coalition, "ContentRound", RecordingRound)
        simulate_content_distribution(
            scenario, PARAMS, ("coalition", "noncooperative"), rng_seed=22
        )
        assert len(drawn) == 3 and len(played) == 6
        for t, gains in enumerate(drawn):
            coop, selfish = played[2 * t : 2 * t + 2]
            assert coop.gains is gains and selfish.gains is gains
            assert coop.uu is selfish.uu  # the slices are shared, not rebuilt

    def test_coalition_outpaces_noncoop_on_average(self):
        scenario = ContentScenario(n_d2d=10, k_seeds=2, m_cue=3, file_packets=400, rounds=10)
        coop_final, selfish_final = 0, 0
        for seed in range(8):
            coop, selfish = simulate_content_distribution(
                scenario, PARAMS, ("coalition", "noncooperative"), rng_seed=seed
            )
            coop_final += coop.cumulative[-1]
            selfish_final += selfish.cumulative[-1]
        assert coop_final >= selfish_final


def _reference_curve(scenario, params, allocator, rng_seed):
    """One scheme alone, solving every round: the loop the lockstep run must match."""
    inst = generate_content_instance(scenario, params, derive_seed(rng_seed, 0))
    packets = [scenario.file_packets if u in inst.seeds else 0 for u in range(scenario.n_d2d)]
    seeds = set(inst.seeds)
    partition = initial_partition(inst)
    cumulative, values = [sum(packets)], []
    for t in range(1, scenario.rounds + 1):
        gains = draw_content_gains(inst, params, derive_seed(rng_seed, t))
        rnd = ContentRound(inst, gains, params, seeds)
        if allocator == "coalition":
            partition = run_switch_dynamics(partition, make_value_fn(rnd))
        else:
            partition = noncooperative_baseline(rnd, partition0=partition)
        total = 0.0
        for anchor, members in enumerate(partition.members):
            value, sinrs = _coalition_detail(rnd, anchor, members)
            total += value
            for u, sinr in sinrs.items():
                gained = int(math.floor(scenario.packets_per_rate_unit * math.log2(1.0 + sinr)))
                packets[u] = min(scenario.file_packets, packets[u] + gained)
        seeds |= {u for u in range(scenario.n_d2d) if packets[u] >= scenario.file_packets}
        cumulative.append(sum(packets))
        values.append(total)
    return cumulative, values


BOTH = ("coalition", "noncooperative")


class TestLockstep:
    """Both schemes of a drop play one channel per round."""

    SCENARIOS = {
        "saturates_early": ContentScenario(
            n_d2d=8, k_seeds=2, m_cue=3, file_packets=40, rounds=10
        ),
        "never_saturates": ContentScenario(
            n_d2d=8, k_seeds=2, m_cue=3, file_packets=10**6, rounds=5
        ),
        "all_seeds": ContentScenario(n_d2d=5, k_seeds=5, m_cue=2, file_packets=100, rounds=4),
    }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_two_scheme_run_equals_each_scheme_alone(self, name, monkeypatch):
        scenario = self.SCENARIOS[name]
        cap = scenario.n_d2d * scenario.file_packets
        draws, solves = [], []
        draw, switch = coalition.draw_content_gains, coalition.run_switch_dynamics

        def counting_draw(*args, **kwargs):
            draws.append(None)
            return draw(*args, **kwargs)

        def counting_switch(*args, **kwargs):
            solves.append(None)
            return switch(*args, **kwargs)

        for seed in (31, 32):
            alone = [
                simulate_content_distribution(scenario, PARAMS, (a,), rng_seed=seed)[0]
                for a in BOTH
            ]
            with monkeypatch.context() as mp:
                mp.setattr(coalition, "draw_content_gains", counting_draw)
                mp.setattr(coalition, "run_switch_dynamics", counting_switch)
                draws.clear()
                solves.clear()
                together = simulate_content_distribution(scenario, PARAMS, BOTH, rng_seed=seed)
            assert len(draws) == scenario.rounds
            for allocator, one, both in zip(BOTH, alone, together):
                assert both.allocator == allocator
                assert both.cumulative == one.cumulative
                assert both.total_values == one.total_values
                want = _reference_curve(scenario, PARAMS, allocator, seed)
                assert (both.cumulative, both.total_values) == want
            coop_final = together[0].cumulative
            if name == "saturates_early":
                # saturated rounds run no switch dynamics
                assert coop_final.index(cap) < scenario.rounds
                assert len(solves) == coop_final.index(cap)
            elif name == "never_saturates":
                assert coop_final[-1] < cap and len(solves) == scenario.rounds
            else:
                assert coop_final == [cap] * (scenario.rounds + 1) and not solves

    def test_with_seeds_matches_a_fresh_round(self):
        rng = np.random.default_rng(34)
        inst = _instance(n=7, k=2, m=3, seed=35)
        gains = draw_content_gains(inst, PARAMS, rng_seed=36)
        channel = ContentRound(inst, gains, PARAMS)
        cached = [k for k, v in vars(ContentRound).items() if isinstance(v, cached_property)]
        for name in cached:  # read before re-seeding: the copy must not keep them
            getattr(channel, name)
        for _ in range(5):
            seeds = frozenset(rng.choice(7, size=int(rng.integers(1, 8)), replace=False).tolist())
            got, want = channel.with_seeds(seeds), ContentRound(inst, gains, PARAMS, seeds)
            for name in cached:
                getattr(got, name), getattr(want, name)
            assert vars(got).keys() == vars(want).keys()
            for key, value in vars(want).items():
                if key == "inst":
                    assert got.inst is inst
                elif key == "uu":  # rows are converted on first read
                    for r in range(3):
                        assert [got.uu[r][t] for t in range(7)] == [value[r][t] for t in range(7)]
                else:
                    assert vars(got)[key] == value, key
            assert got.cell_signal is channel.cell_signal and got.uu is channel.uu

    def test_a_failing_scheme_raises_its_own_error(self, monkeypatch):
        scenario = self.SCENARIOS["never_saturates"]
        baseline = coalition.noncooperative_baseline
        calls = []

        def failing_in_round_3(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("baseline failed on purpose")
            return baseline(*args, **kwargs)

        monkeypatch.setattr(coalition, "noncooperative_baseline", failing_in_round_3)
        with pytest.raises(RuntimeError, match="^baseline failed on purpose$") as failure:
            simulate_content_distribution(scenario, PARAMS, BOTH, rng_seed=33)
        assert type(failure.value) is RuntimeError and len(calls) == 3

    def test_bare_string_rejected(self):
        scenario = ContentScenario(n_d2d=4, k_seeds=2, m_cue=2, rounds=1)
        with pytest.raises(TypeError, match="tuple of scheme names"):
            simulate_content_distribution(scenario, PARAMS, "coalition", rng_seed=0)
        with pytest.raises(ValueError, match="unknown allocator"):
            simulate_content_distribution(scenario, PARAMS, ("coalition", "rica"), rng_seed=0)


class TestEverySeedInvariant:
    """With every UE a seed the value ignores the members, so no switch can gain."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 7),
        k=st.integers(1, 7),
        m=st.integers(1, 4),
        uplink=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    def test_value_constant_and_switch_step_idle(self, n, k, m, uplink, seed, data):
        params = radio.RadioParams(
            link_direction=radio.UPLINK if uplink else radio.DOWNLINK
        ).validate()
        scenario = ContentScenario(n_d2d=n, k_seeds=min(k, n), m_cue=m, hotspot_radius_m=60.0)
        inst = generate_content_instance(scenario, params, seed)
        gains = draw_content_gains(inst, params, rng_seed=seed + 1)
        rnd = ContentRound(inst, gains, params).with_seeds(range(n))
        value_fn = make_value_fn(rnd)
        subsets = st.frozensets(st.integers(0, n - 1))
        for anchor in range(m):
            want = value_fn(anchor, frozenset())
            for members in data.draw(st.lists(subsets, min_size=1, max_size=6)):
                assert value_fn(anchor, members) == want
        owner = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        part = Partition(
            members=tuple(frozenset(u for u in range(n) if owner[u] == a) for a in range(m))
        )
        assert switch_step(part, value_fn) == (part, False)
