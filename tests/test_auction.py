import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from d2dgames import radio
from d2dgames.auction import (
    AuctionConfig,
    AuctionInstance,
    _DemandEngine,
    _tie_order,
    all_cellular_allocation,
    allocation_from_auction,
    auction_instance_from_radio,
    bidder_demand,
    random_allocation,
    run_auction,
)

PARAMS = radio.RadioParams().validate()


def _lookup_batch(values):
    """Batch valuation that maps each 0/1 mask row to its frozenset lookup."""

    def batch_valuation(bidder, masks):
        return np.array(
            [values[(bidder, frozenset(np.flatnonzero(row > 0.5).tolist()))] for row in masks]
        )

    return batch_valuation


def _table_instance(values, n_items, bidders=(0,), epsilon=0.5, p0=0.0, **kw):
    """Instance whose valuation is a lookup on frozensets (synthetic tests)."""
    return AuctionInstance(
        items=tuple(range(n_items)),
        bidders=tuple(bidders),
        batch_valuation=_lookup_batch(values),
        config=AuctionConfig(epsilon=epsilon, p0=p0, **kw),
    )


def _one_row_value(inst, bidder, package):
    """Value of one package of item labels: a one-row ``batch_valuation`` call."""
    mask = np.zeros((1, inst.n_items))
    mask[0, [inst.items.index(item) for item in package]] = 1.0
    return float(inst.batch_valuation(bidder, mask)[0])


def _random_values(rng, n_items, bidders, base_scale=2.0, item_scale=3.0):
    values = {}
    for b in bidders:
        base = float(rng.uniform(0.0, base_scale))
        item_vals = rng.uniform(-0.5, item_scale, n_items)
        pair_pen = rng.uniform(0.0, 1.0, (n_items, n_items))
        for r in range(2**n_items):
            pkg = frozenset(i for i in range(n_items) if (r >> i) & 1)
            v = base + sum(item_vals[i] for i in pkg)
            for i in pkg:
                for j in pkg:
                    if i < j:
                        v -= pair_pen[i, j]
            values[(b, pkg)] = v
    return values


def _demand_oracle(values, bidder, prices, n_items):
    # independent exhaustive enumeration with the same tie-break order
    best = None
    for r in range(2**n_items):
        pkg = frozenset(i for i in range(n_items) if (r >> i) & 1)
        surplus = values[(bidder, pkg)] - sum(prices[i] for i in pkg)
        key = (-surplus, len(pkg), sorted(pkg))
        if best is None or key < best[0]:
            best = (key, pkg)
    return best[1]


class TestBidderDemand:
    def test_empty_when_prices_exceed_values(self):
        values = {(0, frozenset()): 1.0, (0, frozenset({0})): 1.5}
        inst = _table_instance(values, n_items=1)
        assert bidder_demand(inst, np.array([10.0]), 0) == frozenset()

    def test_single_item_positive_surplus(self):
        values = {(0, frozenset()): 0.0, (0, frozenset({0})): 5.0}
        inst = _table_instance(values, n_items=1)
        assert bidder_demand(inst, np.array([3.0]), 0) == frozenset({0})

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(40):
            n = int(rng.integers(1, 5))
            values = _random_values(rng, n, bidders=(0,))
            inst = _table_instance(values, n_items=n)
            prices = rng.uniform(0.0, 2.0, n)
            got = bidder_demand(inst, prices, 0)
            want = _demand_oracle(values, 0, prices, n)
            assert got == want, f"trial {trial}"

    def test_tie_breaks_toward_smaller_package(self):
        values = {
            (0, frozenset()): 0.0,
            (0, frozenset({0})): 2.0,
            (0, frozenset({1})): 2.0,
            (0, frozenset({0, 1})): 2.0,
        }
        inst = _table_instance(values, n_items=2)
        # zero prices: {0}, {1} and {0,1} all give surplus 2.0
        assert bidder_demand(inst, np.zeros(2), 0) == frozenset({0})

    @pytest.mark.parametrize("n", range(7))
    def test_tie_order_rows_are_their_bitmasks(self, n):
        # exact demand maps a table column c to the package bitmask order[c],
        # which holds only if mask row r has bit i equal to (r >> i) & 1
        items = (7, 3, 11, 5, 2, 9)[:n]
        masks, order = _tie_order(items)
        assert masks.shape == (2**n, n)
        for r, row in enumerate(masks):
            assert sum(1 << i for i in range(n) if row[i] == 1.0) == r
            assert set(row.tolist()) <= {0.0, 1.0}
        assert sorted(order.tolist()) == list(range(2**n))
        labels = [sorted(items[i] for i in range(n) if (r >> i) & 1) for r in order]
        assert labels == sorted(labels, key=lambda pkg: (len(pkg), pkg))

    def test_greedy_mode_reasonable(self):
        # additive values: greedy is exact, so it must match enumeration
        rng = np.random.default_rng(2)
        n = 5
        item_vals = rng.uniform(0.5, 2.0, n)
        values = {}
        for r in range(2**n):
            pkg = frozenset(i for i in range(n) if (r >> i) & 1)
            values[(0, pkg)] = sum(item_vals[i] for i in pkg)
        inst = _table_instance(values, n_items=n, exact_cap=2)  # force greedy
        prices = rng.uniform(0.0, 1.0, n)
        want = _demand_oracle(values, 0, prices, n)
        assert bidder_demand(inst, prices, 0) == want


    def test_greedy_ties_and_zero_marginal_by_hand(self):
        # exact_cap = 0 walks greedily at any n. Items 1 and 2 tie at marginal
        # 3.0, so item 1 (the smaller index) goes first; from {1} both items
        # left have marginal exactly 0.0 (3.5 - 3.0 - 0.5 and 3.0 - 3.0 - 0.0),
        # which is not positive, so the walk stops there.
        values = {
            (0, frozenset()): 0.0,
            (0, frozenset({0})): 1.0,
            (0, frozenset({1})): 3.0,
            (0, frozenset({2})): 3.0,
            (0, frozenset({0, 1})): 3.5,
            (0, frozenset({1, 2})): 3.0,
        }
        inst = _table_instance(values, n_items=3, exact_cap=0)
        assert bidder_demand(inst, np.array([0.5, 0.0, 0.0]), 0) == frozenset({1})


class TestRunAuction:
    def test_single_bidder_single_item(self):
        values = {(0, frozenset()): 0.0, (0, frozenset({0})): 5.0}
        inst = _table_instance(values, n_items=1, p0=1.0)
        state = run_auction(inst)
        assert state.terminated
        assert state.rounds == 1
        assert state.assignment == {0: 0}

    def test_no_items_terminates_immediately(self):
        inst = _table_instance({(0, frozenset()): 1.0}, n_items=0)
        state = run_auction(inst)
        assert state.terminated
        assert state.rounds == 1
        assert state.assignment == {}

    def test_identical_bidders_compete_until_drop(self):
        values = {}
        for b in (0, 1):
            values[(b, frozenset())] = 0.0
            values[(b, frozenset({0}))] = 4.0
        inst = _table_instance(values, n_items=1, bidders=(0, 1), epsilon=0.5)
        state = run_auction(inst)
        assert state.terminated
        v_max = 4.0
        assert state.rounds <= (v_max - inst.config.p0) / inst.config.epsilon + 1
        # both dropped at the same price, so the item went unassigned
        assert state.assignment[0] is None
        # prices rose monotonically
        for a, b in zip(state.price_history, state.price_history[1:]):
            assert np.all(b >= a)

    def test_max_rounds_reported_not_silent(self):
        values = {}
        for b in (0, 1):
            values[(b, frozenset())] = 0.0
            values[(b, frozenset({0}))] = 1000.0
        inst = _table_instance(values, n_items=1, bidders=(0, 1), epsilon=1e-3, max_rounds=10)
        state = run_auction(inst)
        assert not state.terminated
        with pytest.raises(ValueError):
            allocation_from_auction(state)

    def test_final_demands_are_argmax_at_final_prices(self):
        # the stale-bidder optimization must be invisible: cached final
        # demands equal fresh demand computations at the final prices
        rng = np.random.default_rng(17)
        for trial in range(60):
            n_items = int(rng.integers(1, 5))
            n_bidders = int(rng.integers(1, 4))
            bidders = tuple(range(n_bidders))
            values = _random_values(rng, n_items, bidders)
            exact_cap = int(rng.choice([12, 1]))  # exercise greedy mode too
            inst = _table_instance(
                values,
                n_items=n_items,
                bidders=bidders,
                epsilon=float(rng.uniform(0.1, 0.4)),
                exact_cap=exact_cap,
            )
            state = run_auction(inst)
            assert state.terminated
            fresh = _table_instance(
                values, n_items=n_items, bidders=bidders, epsilon=inst.config.epsilon,
                exact_cap=exact_cap,
            )
            prices = np.array([state.prices[i] for i in inst.items])
            for b in bidders:
                assert bidder_demand(fresh, prices, b) == state.demand[b], trial

    def test_property_battery_random_instances(self):
        rng = np.random.default_rng(3)
        for trial in range(150):
            n_items = int(rng.integers(0, 5))
            n_bidders = int(rng.integers(1, 4))
            bidders = tuple(range(n_bidders))
            values = _random_values(rng, n_items, bidders)
            # clamp empty-package value to be >= 0 (it is by construction)
            inst = _table_instance(
                values,
                n_items=n_items,
                bidders=bidders,
                epsilon=float(rng.uniform(0.1, 0.5)),
                p0=float(rng.choice([0.0, 0.2])),
            )
            state = run_auction(inst)
            assert state.terminated
            v_max = max(values.values())
            bound = math.ceil(max(v_max - inst.config.p0, 0.0) / inst.config.epsilon) * n_items + 1
            assert state.rounds <= bound, f"trial {trial}"
            # price monotonicity
            for a, b in zip(state.price_history, state.price_history[1:]):
                assert np.all(b >= a - 1e-15)
            # per-round valuation-call accounting (exact mode here)
            for calls in state.per_round_calls:
                assert calls <= n_bidders * (2**n_items - 1) if n_items else calls == 0
            # conflict freedom
            assigned = [i for i, b in state.assignment.items() if b is not None]
            owners = {}
            for b in bidders:
                for item in state.demand.get(b, frozenset()):
                    assert item not in owners
                    owners[item] = b
            assert sorted(owners) == sorted(assigned)
            # individual rationality
            for b in bidders:
                pkg = state.demand.get(b, frozenset())
                surplus = values[(b, pkg)] - sum(state.prices[i] for i in pkg)
                assert surplus >= -1e-9


def _greedy_reference(batch_valuation, n, bidder, prices):
    """Cache-free greedy demand, as item indices, and the candidate rows it valued.

    From the empty package, add the outside item of largest marginal surplus
    (value gain minus price; the smallest index on ties) while that marginal
    is positive.
    """
    package = []
    value = float(batch_valuation(bidder, np.zeros((1, n)))[0])
    calls = 0
    while len(package) < n:
        out = [i for i in range(n) if i not in package]
        rows = np.zeros((len(out), n))
        rows[:, package] = 1.0
        for r, i in enumerate(out):
            rows[r, i] = 1.0
        vals = batch_valuation(bidder, rows)
        calls += len(out)
        marginals = [vals[r] - value - prices[i] for r, i in enumerate(out)]
        best = max(range(len(out)), key=lambda r: (marginals[r], -r))
        if marginals[best] <= 0.0:
            break
        package.append(out[best])
        value = vals[best]
    return frozenset(package), calls


class TestGreedyMemo:
    """Memoized greedy demand equals a cache-free greedy on one warm engine."""

    @staticmethod
    def _replay(inst, price_seq):
        # one engine over the whole non-decreasing price sequence, so later
        # queries are served from the memo; returns (demand queries, batch
        # calls the engine made, whether some bidder's demand changed)
        reference = inst.batch_valuation
        batch_calls = 0

        def counted(bidder, masks):
            nonlocal batch_calls
            batch_calls += 1
            return reference(bidder, masks)

        inst.batch_valuation = counted
        engine = _DemandEngine(inst, inst.bidders)
        assert not engine.exact
        seen = {b: set() for b in inst.bidders}
        for prices in price_seq:
            for b in inst.bidders:
                want, want_calls = _greedy_reference(reference, inst.n_items, b, prices)
                before = engine.calls
                got = engine._demand_greedy(b, prices)
                assert got == sum(1 << i for i in want)
                assert engine.calls - before == want_calls
                seen[b].add(got)
        queries = len(price_seq) * len(inst.bidders)
        return queries, batch_calls, any(len(pkgs) > 1 for pkgs in seen.values())

    @staticmethod
    def _rising_prices(rng, n, steps, step_scale, share):
        prices = np.zeros(n)
        seq = []
        for _ in range(steps):
            seq.append(prices.copy())
            prices = prices + step_scale * rng.uniform(0.0, 1.0, n) * (rng.random(n) < share)
        return seq

    def test_synthetic_instances_match_cache_free_greedy(self):
        rng = np.random.default_rng(23)
        queries = batch_calls = changed = 0
        n_instances = 40
        for _ in range(n_instances):
            n_items = int(rng.integers(3, 8))
            bidders = tuple(range(int(rng.integers(1, 4))))
            values = _random_values(rng, n_items, bidders)
            inst = _table_instance(
                values, n_items=n_items, bidders=bidders,
                exact_cap=int(rng.integers(0, n_items)),
            )
            seq = self._rising_prices(rng, n_items, 25, 0.4, 0.4)
            q, c, moved = self._replay(inst, seq)
            queries, batch_calls, changed = queries + q, batch_calls + c, changed + moved
        # without the memo every query makes at least two batch calls
        assert batch_calls < queries
        assert changed >= n_instances // 2

    def test_radio_instances_match_cache_free_greedy(self):
        rng = np.random.default_rng(29)
        for direction in (radio.DOWNLINK, radio.UPLINK):
            params = replace(PARAMS, link_direction=direction).validate()
            topo = radio.generate_topology(params, m=3, n=14, rng_seed=61)
            gains = radio.draw_gains(topo, params, rng_seed=62)
            inst = auction_instance_from_radio(topo, gains, params)
            # the clock's own price path, then random rises beyond it
            history = run_auction(inst).price_history
            seq = history + [
                history[-1] + p
                for p in self._rising_prices(rng, 14, 20, 5 * inst.config.epsilon, 0.5)
            ]
            queries, batch_calls, moved = self._replay(inst, seq)
            assert batch_calls < queries
            assert moved


def _reference_clock(inst, max_rounds):
    """The clock one bidder and one item at a time, and how many demands tied.

    Each stale bidder's exact demand is an exhaustive argmax over its table,
    ties going to the smallest package, then the lexicographically smallest
    sorted tuple of item labels; greedy demand is the cache-free greedy.
    Over-demanded items are counted with a ``Counter``.
    """
    n = inst.n_items
    exact = n <= inst.config.exact_cap
    masks = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float) if exact else None
    tables = {}
    calls = ties = 0

    def demand(bidder, prices):
        nonlocal calls, ties
        if not exact:
            pkg, greedy_calls = _greedy_reference(inst.batch_valuation, n, bidder, prices)
            calls += greedy_calls
            return frozenset(inst.items[i] for i in pkg)
        if bidder not in tables:
            tables[bidder] = np.asarray(inst.batch_valuation(bidder, masks), dtype=float)
            calls += 2**n - 1
        surplus = tables[bidder] - masks @ prices
        best = np.flatnonzero(surplus == surplus.max())
        ties += len(best) > 1
        packages = [frozenset(inst.items[i] for i in np.flatnonzero(masks[r])) for r in best]
        return min(packages, key=lambda pkg: (len(pkg), sorted(pkg)))

    prices = np.full(n, float(inst.config.p0))
    demands, stale = {}, set(inst.bidders)
    history, per_round_calls = [], []
    rounds, terminated = 0, False
    while rounds < max_rounds:
        rounds += 1
        before = calls
        for b in inst.bidders:
            if b in stale:
                demands[b] = demand(b, prices)
        per_round_calls.append(calls - before)
        history.append(prices.copy())
        counts = Counter(item for pkg in demands.values() for item in pkg)
        over = {item for item, c in counts.items() if c >= 2}
        if not over:
            terminated = True
            break
        for i, item in enumerate(inst.items):
            if item in over:
                prices[i] += inst.config.epsilon
        stale = {b for b, pkg in demands.items() if pkg & over}
    outcome = {
        "rounds": rounds,
        "prices": {item: float(prices[i]) for i, item in enumerate(inst.items)},
        "demand": demands,
        "valuation_calls": calls,
        "per_round_calls": per_round_calls,
        "terminated": terminated,
    }
    return outcome, history, ties


class TestArrayClock:
    """The bitmask clock equals a step-by-step reference clock, field by field.

    The reference keeps prices in a float64 array and packages as frozensets,
    so each round's price raises and over-demand count are checked against
    array sums and set counts.
    """

    @staticmethod
    def _assert_matches_reference(inst, max_rounds=10_000):
        # every untruncated instance here ends within a few hundred rounds, so
        # a clock that never stops fails the comparison instead of hanging
        want, history, ties = _reference_clock(inst, max_rounds)
        state = run_auction(replace(inst, config=replace(inst.config, max_rounds=max_rounds)))
        for name, value in want.items():
            assert getattr(state, name) == value, name
        assert len(state.price_history) == len(history)
        for got, ref in zip(state.price_history, history):
            assert np.array_equal(got, ref)
        return state, ties

    @staticmethod
    def _integer_instance(rng, items, n_bidders, exact_cap=12):
        # small integer values with integer epsilon: surpluses tie exactly
        n = len(items)
        values = {
            (b, frozenset(i for i in range(n) if (r >> i) & 1)): float(rng.integers(0, 6))
            for b in range(n_bidders)
            for r in range(2**n)
        }
        return AuctionInstance(
            items=items,
            bidders=tuple(range(n_bidders)),
            batch_valuation=_lookup_batch(values),
            config=AuctionConfig(epsilon=1.0, p0=float(rng.integers(0, 2)), exact_cap=exact_cap),
        )

    def test_radio_instances_both_directions(self):
        rng = np.random.default_rng(41)
        count = 0
        for direction in (radio.DOWNLINK, radio.UPLINK):
            params = replace(PARAMS, link_direction=direction).validate()
            for k in range(55):
                n = 2 + k % 11
                seed, m = 1000 + 2 * k, int(rng.integers(2, 5))
                topo = radio.generate_topology(params, m=m, n=n, rng_seed=seed)
                gains = radio.draw_gains(topo, params, rng_seed=seed + 1)
                state, _ = self._assert_matches_reference(
                    auction_instance_from_radio(topo, gains, params)
                )
                assert state.terminated
                count += 1
        assert count >= 100

    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    def test_default_size_radio_instances(self, direction):
        # the default m_cue = 10 RBs at the largest exact size and at two
        # greedy sizes, one of them 16 items as in the paper's sweep
        params = replace(PARAMS, link_direction=direction).validate()
        for n, seed in ((12, 1101), (13, 1103), (16, 1105)):
            topo = radio.generate_topology(params, m=10, n=n, rng_seed=seed)
            gains = radio.draw_gains(topo, params, rng_seed=seed + 1)
            inst = auction_instance_from_radio(topo, gains, params)
            state, _ = self._assert_matches_reference(inst)
            assert state.terminated and state.rounds > 1

    def test_integer_tables_with_ties(self):
        rng = np.random.default_rng(43)
        ties = 0
        for _ in range(60):
            n = int(rng.integers(1, 6))
            inst = self._integer_instance(rng, tuple(range(n)), int(rng.integers(1, 5)))
            _, tied = self._assert_matches_reference(inst)
            ties += tied
        assert ties > 0

    def test_item_labels_order_ties_not_indices(self):
        # labels sort differently from positions, so a wrong permutation
        # would break a tie toward the wrong package
        rng = np.random.default_rng(47)
        ties = 0
        for _ in range(40):
            inst = self._integer_instance(rng, (7, 3, 11, 5), int(rng.integers(1, 4)))
            _, tied = self._assert_matches_reference(inst)
            ties += tied
        assert ties > 0
        values = {(0, pkg): float(len(pkg) > 0) for pkg in map(frozenset, ([], [0], [1], [0, 1]))}
        inst = AuctionInstance(
            items=(9, 4),
            bidders=(0,),
            batch_valuation=_lookup_batch(values),
            config=AuctionConfig(epsilon=1.0),
        )
        assert bidder_demand(inst, np.zeros(2), 0) == frozenset({4})
        assert run_auction(inst).demand == {0: frozenset({4})}

    def test_truncated_runs(self):
        rng = np.random.default_rng(53)
        topo = radio.generate_topology(PARAMS, m=3, n=6, rng_seed=71)
        gains = radio.draw_gains(topo, PARAMS, rng_seed=72)
        inst = auction_instance_from_radio(topo, gains, PARAMS)
        full = run_auction(inst)
        assert full.rounds > 2
        for max_rounds in (1, full.rounds // 2, full.rounds - 1):
            state, _ = self._assert_matches_reference(inst, max_rounds)
            assert not state.terminated and state.rounds == max_rounds
            assert all(owner is None for owner in state.assignment.values())
        for _ in range(20):
            inst = self._integer_instance(rng, (7, 3, 11, 5), 3)
            self._assert_matches_reference(inst, max_rounds=int(rng.integers(1, 4)))

    def test_greedy_mode(self):
        topo = radio.generate_topology(PARAMS, m=3, n=14, rng_seed=73)
        gains = radio.draw_gains(topo, PARAMS, rng_seed=74)
        state, _ = self._assert_matches_reference(auction_instance_from_radio(topo, gains, PARAMS))
        assert state.terminated and state.rounds > 1
        rng = np.random.default_rng(59)
        for _ in range(10):
            inst = self._integer_instance(rng, (7, 3, 11, 5), 3, exact_cap=2)
            self._assert_matches_reference(inst)
        # more items than an int64 bitmask holds: additive values, two bidders
        item_values = rng.uniform(0.0, 2.0, (2, 70))
        inst = AuctionInstance(
            items=tuple(range(70)),
            bidders=(0, 1),
            batch_valuation=lambda b, masks: np.asarray(masks) @ item_values[b],
            config=AuctionConfig(epsilon=0.25),
        )
        state, _ = self._assert_matches_reference(inst)
        assert state.terminated and state.rounds > 1


class TestInvalidLimits:
    def test_max_rounds_below_one_rejected(self):
        inst = _table_instance({(0, frozenset()): 0.0, (0, frozenset({0})): 1.0}, n_items=1)
        for max_rounds in (0, -1):
            with pytest.raises(ValueError, match="max_rounds"):
                run_auction(replace(inst, config=replace(inst.config, max_rounds=max_rounds)))

    def test_auto_epsilon_rejected_by_the_instance(self):
        values = {(0, frozenset()): 0.0, (0, frozenset({0})): 1.0}
        with pytest.raises(ValueError, match="epsilon must be resolved"):
            AuctionInstance((0,), (0,), _lookup_batch(values), AuctionConfig())

    def test_negative_exact_cap_rejected(self):
        values = {(0, frozenset()): 0.0, (0, frozenset({0})): 1.0}
        with pytest.raises(ValueError, match="exact_cap"):
            _table_instance(values, n_items=1, exact_cap=-3)
        _table_instance(values, n_items=1, exact_cap=0)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["epsilon", "p0"])
    def test_instance_rejects_non_finite_price_steps(self, name, bad):
        values = {(0, frozenset()): 0.0, (0, frozenset({0})): 1.0}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            _table_instance(values, n_items=1, **{name: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["c0", "epsilon"])
    def test_radio_instance_rejects_non_finite_costs(self, name, bad):
        topo = radio.generate_topology(PARAMS, m=2, n=3, rng_seed=81)
        gains = radio.draw_gains(topo, PARAMS, rng_seed=82)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            auction_instance_from_radio(topo, gains, PARAMS, AuctionConfig(**{name: bad}))

    @pytest.mark.parametrize("exact_cap", [3, 0])  # above n: tables; below: greedy
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_valuation_names_its_bidder(self, exact_cap, bad):
        # bidder 5 values item 1 alone at ``bad``; the first greedy step and
        # the exact table both value that package
        values = _random_values(np.random.default_rng(83), 3, bidders=(0, 5))
        values[(5, frozenset({1}))] = bad
        inst = _table_instance(values, n_items=3, bidders=(0, 5), exact_cap=exact_cap)
        with pytest.raises(ValueError, match="bidder 5: valuation is not finite"):
            run_auction(inst)
        with pytest.raises(ValueError, match="bidder 5: valuation is not finite"):
            bidder_demand(inst, np.zeros(3), 5)
        bidder_demand(inst, np.zeros(3), 0)  # a finite bidder is unaffected

    @pytest.mark.parametrize("exact_cap", [2, 0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bidder_demand_rejects_bad_prices(self, exact_cap, bad):
        values = _random_values(np.random.default_rng(89), 2, bidders=(0,))
        inst = _table_instance(values, n_items=2, exact_cap=exact_cap)
        with pytest.raises(ValueError, match="prices must be finite and >= 0"):
            bidder_demand(inst, np.array([0.0, bad]), 0)


class TestRadioBackedAuction:
    def test_valuation_matches_sum_rate_bookkeeping(self):
        topo = radio.generate_topology(PARAMS, m=3, n=3, rng_seed=31)
        gains = radio.draw_gains(topo, PARAMS, rng_seed=32)
        c0 = 0.05
        inst = auction_instance_from_radio(topo, gains, PARAMS, AuctionConfig(c0=c0))
        state = run_auction(inst)
        assert state.terminated
        alloc = allocation_from_auction(state)
        total = radio.sum_rate(alloc, gains, PARAMS)
        rebuilt = 0.0
        for rb in inst.bidders:
            pkg = frozenset(
                i for i, b in state.assignment.items() if b == rb
            )
            rebuilt += _one_row_value(inst, rb, pkg) + c0 * len(pkg)
        assert total == pytest.approx(rebuilt, rel=1e-9)

    def test_batch_and_scalar_valuations_agree(self):
        topo = radio.generate_topology(PARAMS, m=2, n=4, rng_seed=33)
        gains = radio.draw_gains(topo, PARAMS, rng_seed=34)
        inst = auction_instance_from_radio(topo, gains, PARAMS)
        rng = np.random.default_rng(0)
        # a one-row call values a package as its row inside a stacked batch
        masks = rng.integers(0, 2, (20, 4)).astype(float)
        stacked = inst.batch_valuation(1, masks)
        for mask, batch in zip(masks, stacked):
            pkg = frozenset(i for i in range(4) if mask[i] > 0.5)
            assert _one_row_value(inst, 1, pkg) == pytest.approx(batch, rel=1e-12)

    def test_empty_package_value_nonnegative(self):
        topo = radio.generate_topology(PARAMS, m=3, n=2, rng_seed=35)
        gains = radio.draw_gains(topo, PARAMS, rng_seed=36)
        inst = auction_instance_from_radio(topo, gains, PARAMS)
        for rb in inst.bidders:
            assert _one_row_value(inst, rb, frozenset()) >= 0.0

    def test_default_epsilon_positive(self):
        topo = radio.generate_topology(PARAMS, m=2, n=3, rng_seed=37)
        gains = radio.draw_gains(topo, PARAMS, rng_seed=38)
        inst = auction_instance_from_radio(topo, gains, PARAMS)
        assert inst.config.epsilon > 0


class TestRandomAllocation:
    def test_zero_pairs_all_cellular(self):
        topo = radio.generate_topology(PARAMS, m=3, n=0, rng_seed=41)
        alloc = random_allocation(topo, rng_seed=1)
        assert alloc.rb_of_d2d == {}

    def test_deterministic(self):
        topo = radio.generate_topology(PARAMS, m=4, n=5, rng_seed=42)
        a = random_allocation(topo, rng_seed=7)
        b = random_allocation(topo, rng_seed=7)
        assert a.rb_of_d2d == b.rb_of_d2d

    def test_uniform_within_three_sigma(self):
        topo = radio.generate_topology(PARAMS, m=4, n=1, rng_seed=43)
        n_draws = 10_000
        counts = np.zeros(4)
        for seed in range(n_draws):
            counts[random_allocation(topo, rng_seed=seed).rb_of_d2d[0]] += 1
        expected = n_draws / 4
        sigma = math.sqrt(n_draws * 0.25 * 0.75)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)


class TestAllCellularAllocation:
    def test_zero_pairs_matches_cellular_baseline(self):
        topo = radio.generate_topology(PARAMS, m=3, n=0, rng_seed=51)
        gains = radio.draw_gains(topo, PARAMS, rng_seed=52)
        alloc = all_cellular_allocation(topo)
        assert radio.sum_rate(alloc, gains, PARAMS) == pytest.approx(
            radio.sum_rate(radio.Allocation(), gains, PARAMS), rel=1e-12
        )

    def test_two_hop_rate_bounded_by_single_hop(self):
        # Recomputed from raw gains in both link directions: relayed flows
        # leave every cellular link undisturbed and each adds half its
        # bottleneck hop.
        for direction in (radio.DOWNLINK, radio.UPLINK):
            params = replace(PARAMS, link_direction=direction).validate()
            topo = radio.generate_topology(params, m=2, n=3, rng_seed=53)
            gains = radio.draw_gains(topo, params, rng_seed=54)
            alloc = all_cellular_allocation(topo)
            sigma = radio.effective_noise_w(params)
            cellular = 0.0
            for rb in range(topo.rb_count):
                if direction == radio.DOWNLINK:
                    s = params.p_enb_w * gains.get(("enb", 0), ("cue", rb), rb)
                else:
                    s = params.p_cue_w * gains.get(("cue", rb), ("enb", 0), rb)
                cellular += math.log2(1 + s / sigma)
            assert radio.sum_rate(radio.Allocation(), gains, params) == pytest.approx(
                cellular, rel=1e-9
            )
            two_hop = single_hop = 0.0
            for j, rb in alloc.rb_of_d2d.items():
                up = math.log2(1 + params.p_d2d_w * gains.get(("dtx", j), ("enb", 0), rb) / sigma)
                down = math.log2(1 + params.p_enb_w * gains.get(("enb", 0), ("drx", j), rb) / sigma)
                two_hop += 0.5 * min(up, down)
                single_hop += max(up, down)
            relay = radio.sum_rate(alloc, gains, params) - cellular
            assert relay == pytest.approx(two_hop, rel=1e-9)
            assert relay <= single_hop

    def test_relay_source_hop_priced_at_transmitter_power(self):
        # the source hop (D2D transmitter -> eNB) follows p_d2d_dbm, and not
        # the cellular users' p_cue_dbm
        topo = radio.generate_topology(PARAMS, m=3, n=4, rng_seed=55)
        gains = radio.draw_gains(topo, PARAMS, rng_seed=56)
        alloc = all_cellular_allocation(topo)

        def relay(params, allocation=alloc):
            return radio.sum_rate(allocation, gains, params) - radio.sum_rate(
                radio.Allocation(), gains, params
            )

        def expected(params, p_src):
            sigma = radio.effective_noise_w(params)
            total = 0.0
            for j, rb in alloc.rb_of_d2d.items():
                up = math.log2(1 + p_src(j) * gains.get(("dtx", j), ("enb", 0), rb) / sigma)
                down = math.log2(1 + params.p_enb_w * gains.get(("enb", 0), ("drx", j), rb) / sigma)
                total += 0.5 * min(up, down)
            return total

        base = relay(PARAMS)
        quiet = replace(PARAMS, p_d2d_dbm=0.0).validate()
        assert relay(quiet) == pytest.approx(expected(quiet, lambda j: quiet.p_d2d_w), rel=1e-12)
        assert relay(quiet) < base
        loud_cue = replace(PARAMS, p_cue_dbm=0.0).validate()
        assert relay(loud_cue) == base

    def test_nearest_rb_chosen(self):
        topo = radio.Topology(
            enb_pos=(0.0, 0.0),
            cue=((100.0, 0.0), (-100.0, 0.0)),
            d2d_pairs=(((90.0, 5.0), (95.0, 5.0)),),
        )
        alloc = all_cellular_allocation(topo)
        assert alloc.rb_of_d2d[0] == 0
        assert alloc.relay_d2d == frozenset({0})
