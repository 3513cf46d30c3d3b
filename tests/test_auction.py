import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from d2dgames import auction, radio
from d2dgames.auction import (
    PRUNE_ABOVE_PACKAGES,
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
    """Batch valuation that maps each 0/1 mask row of block k to bidder k's frozenset lookup."""

    def batch_valuation(bidders, masks):
        width = len(masks) // len(bidders)
        return np.array([
            values[(bidders[r // width], frozenset(np.flatnonzero(row > 0.5).tolist()))]
            for r, row in enumerate(masks)
        ])

    return batch_valuation


def _blockwise(valuation):
    """The batch interface over a one-bidder ``valuation(bidder, masks)``: one call per block."""

    def batch_valuation(bidders, masks):
        blocks = np.split(np.asarray(masks), len(bidders))
        return np.concatenate([valuation(b, block) for b, block in zip(bidders, blocks)])

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
    return float(inst.batch_valuation((bidder,), mask)[0])


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
        masks, order, block = _tie_order(items)
        assert masks.shape == (2**n, n)
        for r, row in enumerate(masks):
            assert sum(1 << i for i in range(n) if row[i] == 1.0) == r
            assert set(row.tolist()) <= {0.0, 1.0}
        assert sorted(order.tolist()) == list(range(2**n))
        labels = [sorted(items[i] for i in range(n) if (r >> i) & 1) for r in order]
        assert labels == sorted(labels, key=lambda pkg: (len(pkg), pkg))
        # the unpruned price-sum block: the masks in tie order, then zero rows
        assert len(block) % 4 == 0 and not block[2**n :].any()
        assert (block[: 2**n] == masks[order]).all()

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

    @pytest.mark.parametrize("exact_cap", [12, 0])
    def test_no_bidders_leaves_every_item_unsold(self, exact_cap):
        # an exact engine with no table rows still derives its prune margin
        inst = _table_instance({}, n_items=2, bidders=(), exact_cap=exact_cap)
        state = run_auction(inst)
        assert state.terminated and state.rounds == 1
        assert state.assignment == {0: None, 1: None}

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
        with pytest.raises(ValueError, match="auction hit max_rounds=10 without terminating"):
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
    value = float(batch_valuation((bidder,), np.zeros((1, n)))[0])
    calls = 0
    while len(package) < n:
        out = [i for i in range(n) if i not in package]
        rows = np.zeros((len(out), n))
        rows[:, package] = 1.0
        for r, i in enumerate(out):
            rows[r, i] = 1.0
        vals = batch_valuation((bidder,), rows)
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

        def counted(bidders, masks):
            nonlocal batch_calls
            batch_calls += 1
            return reference(bidders, masks)

        inst.batch_valuation = counted
        engine = _DemandEngine(inst, inst.bidders)
        assert not engine.exact
        seen = {b: set() for b in inst.bidders}
        for prices in price_seq:
            for k, b in enumerate(inst.bidders):
                want, want_calls = _greedy_reference(reference, inst.n_items, b, prices)
                before = engine.calls
                got = engine.demand([k], np.asarray(prices))[0]
                assert got == sum(1 << i for i in want)
                assert engine.calls - before == want_calls
                seen[b].add(got)
        # one memo per bidder position, keyed by the package bitmask
        assert len(engine._steps) == len(inst.bidders)
        assert all(type(mask) is int for memo in engine._steps for mask in memo)
        assert batch_calls == sum(len(memo) for memo in engine._steps)
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


def _zero_built_rows(n, mask):
    """Candidate rows of a greedy step from ``mask``, built as a zero matrix.

    A leading all-zero row for the empty package when ``mask == 0``, then one
    row per item outside the mask, in index order: the mask's columns and
    that item's column set to 1.0.
    """
    out_idx = [i for i in range(n) if not (mask >> i) & 1]
    lead = int(mask == 0)
    rows = np.zeros((lead + len(out_idx), n))
    rows[lead:, [i for i in range(n) if (mask >> i) & 1]] = 1.0
    rows[lead + np.arange(len(out_idx)), out_idx] = 1.0
    return rows


def _blocks(bidders, masks):
    """The ``(bidder, rows)`` blocks of one batch call, in order."""
    return list(zip(bidders, np.split(masks, len(bidders))))


class TestGreedyMissRows:
    """Every greedy miss passes the valuation its zero-built rows, one block per bidder, in order."""

    def test_every_mask_size(self):
        # the valuation writes over its input, as a user-supplied one may, so
        # a shared identity handed out by the engine would break later calls
        rng = np.random.default_rng(97)
        bidders = (4, 9, 2)
        for n in (1, 5, 13):
            item_values = {b: rng.uniform(0.0, 2.0, n) for b in bidders}
            calls = []

            def scribbling(bids, masks):
                calls.append((bids, masks.copy()))
                values = np.concatenate([rows @ item_values[b] for b, rows in _blocks(bids, masks)])
                masks[...] = 7.0
                return values

            inst = AuctionInstance(
                items=tuple(range(n)), bidders=bidders, batch_valuation=scribbling,
                config=AuctionConfig(epsilon=0.1, exact_cap=0),
            )
            engine = _DemandEngine(inst, inst.bidders)
            valued = 0
            for size in range(n):
                if n <= 5:  # every mask of this size (the full one has no step)
                    masks = [mask for mask in range(2**n - 1) if mask.bit_count() == size]
                else:
                    masks = [sum(1 << int(i) for i in rng.permutation(n)[:size]) for _ in range(3)]
                groups = []
                for j in range(len(masks)):
                    # position k takes mask j + k, so every position gets every
                    # mask; the three cut into one or two groups, in any order.
                    # The empty mask goes to all three at once, so a shared
                    # root block shows
                    pairs = [(k, masks[(j + k) % len(masks)]) for k in rng.permutation(3).tolist()]
                    cut = 3 if size == 0 else int(rng.integers(1, 4))
                    groups += [group for group in (pairs[:cut], pairs[cut:]) if group]
                for group in groups:
                    engine._value_steps(group)
                    valued += 1
                    assert len(calls) == valued
                    bids, rows = calls[-1]
                    assert bids == tuple(bidders[k] for k, _ in group)
                    want = np.concatenate([_zero_built_rows(n, mask) for _, mask in group])
                    assert rows.dtype == want.dtype and np.array_equal(rows, want)
                    for k, mask in group:
                        block = _zero_built_rows(n, mask)
                        values = (block @ item_values[bidders[k]]).tolist()
                        out = [i for i in range(n) if not (mask >> i) & 1]
                        empty = values.pop(0) if mask == 0 else None
                        assert engine._steps[k][mask] == (empty, list(zip(out, values)))
                covered = {(k, mask) for group in groups for k, mask in group}
                assert covered == {(k, mask) for k in range(3) for mask in masks}
            if n <= 5:
                assert all(set(memo) == set(range(2**n - 1)) for memo in engine._steps)
            assert np.array_equal(engine._eye, np.eye(n + 1, n, k=-1))

    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    def test_clock_walk_misses(self, direction):
        # the misses of a whole price path: each bidder's blocks, call by
        # call, are the zero-built rows of its memo's masks in the order the
        # memo stored them, and the blocks of one call are of one package size
        params = replace(PARAMS, link_direction=direction).validate()
        topo = radio.generate_topology(params, m=4, n=14, rng_seed=113)
        gains = radio.draw_gains(topo, params, rng_seed=114)
        inst = auction_instance_from_radio(topo, gains, params)
        history = run_auction(inst).price_history
        valuation = inst.batch_valuation
        calls = []

        def recorded(bidders, masks):
            calls.append((bidders, masks.copy()))
            return valuation(bidders, masks)

        inst.batch_valuation = recorded
        engine = _DemandEngine(inst, inst.bidders)
        for prices in history:
            engine.demand(list(range(len(inst.bidders))), prices)
        blocks = [block for bidders, masks in calls for block in _blocks(bidders, masks)]
        assert len(blocks) == sum(len(memo) for memo in engine._steps) > len(calls)
        for bidders, masks in calls:
            assert len(set(bidders)) == len(bidders)
            assert len({int(rows[-1].sum()) for _, rows in _blocks(bidders, masks)}) == 1
        for k, bidder in enumerate(inst.bidders):
            got = [rows for b, rows in blocks if b == bidder]
            want = [_zero_built_rows(14, mask) for mask in engine._steps[k]]
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
            tables[bidder] = np.asarray(inst.batch_valuation((bidder,), masks), dtype=float)
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
            batch_valuation=_blockwise(lambda b, masks: masks @ item_values[b]),
            config=AuctionConfig(epsilon=0.25),
        )
        state, _ = self._assert_matches_reference(inst)
        assert state.terminated and state.rounds > 1


def _radio_instance(direction, n, m, seed):
    params = replace(PARAMS, link_direction=direction).validate()
    topo = radio.generate_topology(params, m=m, n=n, rng_seed=seed)
    gains = radio.draw_gains(topo, params, rng_seed=seed + 1)
    return auction_instance_from_radio(topo, gains, params)


class TestEveryBidderArgmax:
    """One argmax over every bidder per round gives the stale-row clock's outcome, bit for bit.

    ``run_auction`` takes every bidder's exact demand in one argmax while the
    live table holds at most ``PRUNE_ABOVE_PACKAGES`` packages. A cut of 0
    forces the stale rows on every exact auction (and a prune on every
    table), a cut of ``2**13`` the every-bidder argmax (and no prune).
    """

    @staticmethod
    def _clock_instances():
        # TestArrayClock's instances, then radio ones whose rule switches after a prune
        rng = np.random.default_rng(41)
        for direction in (radio.DOWNLINK, radio.UPLINK):
            for k in range(55):
                m = int(rng.integers(2, 5))
                yield _radio_instance(direction, 2 + k % 11, m, 1000 + 2 * k)
            for n, seed in ((12, 1101), (13, 1103)):
                yield _radio_instance(direction, n, 10, seed)
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            yield TestArrayClock._integer_instance(rng, tuple(range(n)), int(rng.integers(1, 5)))
        rng = np.random.default_rng(47)
        for _ in range(40):
            yield TestArrayClock._integer_instance(rng, (7, 3, 11, 5), int(rng.integers(1, 4)))
        inst = _radio_instance(radio.DOWNLINK, 6, 3, 71)
        for max_rounds in (1, 20, 40):
            yield replace(inst, config=replace(inst.config, max_rounds=max_rounds))

    @staticmethod
    def _switch_instances():
        for direction in (radio.DOWNLINK, radio.UPLINK):
            for n, seed in ((9, 1301), (10, 1303), (12, 1301)):
                yield _radio_instance(direction, n, 10, seed)

    @staticmethod
    def _outcome(inst, monkeypatch, cut):
        """Every field of the outcome under cut ``cut``, floats by their bits, and each round's rule.

        A round's rule is True when it took every bidder's demand in one argmax.
        """
        rules = []
        demand = _DemandEngine.demand

        def recorded(self, rows, prices):
            rules.append(isinstance(rows, slice))
            return demand(self, rows, prices)

        with monkeypatch.context() as patch:
            patch.setattr(auction, "PRUNE_ABOVE_PACKAGES", cut)
            patch.setattr(_DemandEngine, "demand", recorded)
            state = run_auction(inst)
        fields = {name: getattr(state, name) for name in vars(state)}
        fields["prices"] = {item: float.hex(p) for item, p in state.prices.items()}
        fields["price_history"] = [prices.tobytes() for prices in state.price_history]
        return fields, rules

    def test_both_rules_agree(self, monkeypatch):
        switches = []
        for inst in [*self._clock_instances(), *self._switch_instances()]:
            exact = inst.n_items <= inst.config.exact_cap
            stale, stale_rules = self._outcome(inst, monkeypatch, 0)
            everyone, every_rules = self._outcome(inst, monkeypatch, 2**13)
            default, rules = self._outcome(inst, monkeypatch, PRUNE_ABOVE_PACKAGES)
            assert everyone == stale and default == stale
            assert not any(stale_rules) and all(every_rules) == exact
            assert rules == sorted(rules)  # the stale rows until a prune, then everyone
            switches.append(not rules[0] and rules[-1])
        assert all(switches[-6:]) and sum(switches) > 6


def _slow_prune(engine, prices, neighbour):
    """Keep mask of the candidates under a loop-by-loop dominance test.

    A candidate goes when, for every bidder, some candidate ``neighbour(r,
    bit)`` (None when there is none) has a surplus higher by more than the
    engine's margin. The real rule's neighbour is the package one item smaller.
    Surpluses are the engine's bits; the test itself is plain Python loops.
    """
    surplus = (engine._tables - (engine._masks @ prices)[engine._cand]).tolist()
    cand = engine._cand.tolist()
    column = {r: c for c, r in enumerate(cand)}
    keep = []
    for c, r in enumerate(cand):
        others = [column[s] for s in (neighbour(r, 1 << i) for i in range(engine.n)) if s in column]
        dropped = all(any(row[s] - row[c] > engine._margin for s in others) for row in surplus)
        keep.append(not dropped)
    return np.array(keep, dtype=bool)


def _one_smaller(r, bit):
    return r ^ bit if r & bit else None


def _one_larger(r, bit):
    return None if r & bit else r | bit


def _audit_exact_demand(monkeypatch):
    """Check every exact demand call against the full-table argmax in tie order.

    The engine's tables and candidates are copied before the first prune;
    each call's packages are compared with the argmax over all columns of
    ``tables - (masks @ prices)[order]``, the unpruned rule, and its
    candidates' price sums with ``(masks @ prices)[cand]``, bit for bit.
    Each prune the engine makes is compared with :func:`_slow_prune`.
    Returns counters.
    """
    init, demand, prune = _DemandEngine.__init__, _DemandEngine.demand, _DemandEngine.prune
    seen = Counter()

    def audited_init(self, instance, bidders):
        init(self, instance, bidders)
        if self.exact:
            self.full_tables, self.order, self.prunes = self._tables.copy(), self._cand, 0

    def audited_demand(self, rows, prices):
        got = demand(self, rows, prices)
        if self.exact:
            surplus = self.full_tables[rows] - (self._masks @ prices)[self.order]
            want = self.order[surplus.argmax(axis=1)].tolist()
            seen["calls"] += 1
            pruned = len(self._cand) < len(self.order)
            seen["pruned calls"] += pruned
            seen["mismatches"] += got != want
            sums = (self._masks @ prices)[self._cand]
            seen["price sum mismatches"] += self._price_sums(prices).tobytes() != sums.tobytes()
            seen["empty demanded after a prune"] += pruned and 0 in want
        return got

    def audited_prune(self, prices):
        keep = _slow_prune(self, prices, _one_smaller)
        cand = self._cand
        prune(self, prices)
        self.prunes += 1
        seen["prunes"] += 1
        seen["many-candidate prunes"] += 2 * len(cand) > len(self.order)
        seen["two prunes dropped"] += self.prunes == 2 and len(self._cand) < len(self.order)
        seen["prune mismatches"] += not np.array_equal(self._cand, cand[keep])

    monkeypatch.setattr(_DemandEngine, "__init__", audited_init)
    monkeypatch.setattr(_DemandEngine, "demand", audited_demand)
    monkeypatch.setattr(_DemandEngine, "prune", audited_prune)
    return seen


def _quadratic_instance(rng, n, n_bidders, epsilon):
    """Values ``base + masks @ a - masks Q masks / 2``: random item values, pair costs."""
    bidders = tuple(range(n_bidders))
    base = rng.uniform(0.0, 2.0, n_bidders)
    alone = rng.uniform(-0.5, 3.0, (n_bidders, n))
    pairs = rng.uniform(0.0, 1.0, (n_bidders, n, n))
    pairs = np.triu(pairs, 1) + np.triu(pairs, 1).transpose(0, 2, 1)

    def valuation(bidder, masks):
        masks = np.asarray(masks, dtype=float)
        return base[bidder] + masks @ alone[bidder] - ((masks @ pairs[bidder]) * masks).sum(axis=1) / 2

    return AuctionInstance(
        items=tuple(range(n)), bidders=bidders, batch_valuation=_blockwise(valuation),
        config=AuctionConfig(epsilon=epsilon),
    )


def _integer_tie_instance(rng, n, n_bidders):
    """Integer item values less one per pair, plus 0 or 1 per package; epsilon 1/16.

    Prices and surpluses are exact multiples of 1/16, so demands tie exactly.
    """
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    size = bits.sum(axis=1)
    tables = [
        bits @ rng.integers(0, 9, n) - size * (size - 1) // 2 + rng.integers(0, 2, 2**n)
        for _ in range(n_bidders)
    ]
    weights = 1 << np.arange(n)
    return AuctionInstance(
        items=tuple(range(n)), bidders=tuple(range(n_bidders)),
        batch_valuation=_blockwise(lambda b, masks: tables[b][(masks @ weights).astype(int)] * 1.0),
        config=AuctionConfig(epsilon=1.0 / 16),
    )


def _prune_instances():
    """Exact auctions at 8-12 items that run past rounds 32 and 64.

    Those of 9 items or more prune at both; those of 8 are below the prune's
    table size and never prune.
    """
    rng = np.random.default_rng(61)
    for n_bidders in (3, 5, 8, 10):  # the more bidders, the more are priced out
        yield _quadratic_instance(rng, int(rng.integers(8, 11)), n_bidders, epsilon=0.01)
    for direction in (radio.DOWNLINK, radio.UPLINK):
        params = replace(PARAMS, link_direction=direction).validate()
        for n, m, seed in ((8, 10, 1201), (10, 4, 1203), (9, 6, 1205), (12, 10, 1207)):
            topo = radio.generate_topology(params, m=m, n=n, rng_seed=seed)
            gains = radio.draw_gains(topo, params, rng_seed=seed + 1)
            yield auction_instance_from_radio(topo, gains, params)
    for _ in range(4):
        yield _integer_tie_instance(rng, int(rng.integers(8, 10)), int(rng.integers(3, 7)))


class TestDominatedPrune:
    """The prune at rounds 32, 64, ... never changes an exact demand."""

    def test_every_demand_equals_the_full_argmax(self, monkeypatch):
        seen = _audit_exact_demand(monkeypatch)
        pruned, unpruned = set(), set()
        for inst in _prune_instances():
            before = seen["prunes"]
            state = run_auction(inst)
            assert state.terminated and state.rounds > 64
            # one prune at each of rounds 32, 64, 128, ... that the clock
            # reached, on tables of more than 256 packages only
            if 2**inst.n_items > PRUNE_ABOVE_PACKAGES:
                assert seen["prunes"] - before == state.rounds.bit_length() - 5
                pruned.add(inst.n_items)
            else:
                assert seen["prunes"] == before
                unpruned.add(inst.n_items)
        assert pruned == {9, 10, 12} and unpruned == {8}
        assert seen["mismatches"] == 0 and seen["prune mismatches"] == 0
        assert seen["price sum mismatches"] == 0
        assert seen["pruned calls"] > seen["calls"] // 2
        assert seen["two prunes dropped"] > 0 and seen["empty demanded after a prune"] > 0
        # prunes over the full table and over fewer candidates both ran
        assert 0 < seen["many-candidate prunes"] < seen["prunes"]

    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    def test_kept_set_matches_the_plain_rule(self, direction, monkeypatch):
        # an under-prune leaves every demand as it was, so only the kept set
        # itself shows it
        prune = _DemandEngine.prune
        kept = []

        def recorded(self, prices):
            size, want = len(self._cand), self._cand[_slow_prune(self, prices, _one_smaller)]
            prune(self, prices)
            kept.append((size, want, self._cand))

        monkeypatch.setattr(_DemandEngine, "prune", recorded)
        params = replace(PARAMS, link_direction=direction).validate()
        for n, seed in ((9, 1301), (10, 1303), (12, 1305)):
            topo = radio.generate_topology(params, m=10, n=n, rng_seed=seed)
            gains = radio.draw_gains(topo, params, rng_seed=seed + 1)
            kept.clear()
            assert run_auction(auction_instance_from_radio(topo, gains, params)).terminated
            for size, want, got in kept:
                assert np.array_equal(got, want), (n, size)
            # the full-table prune, then one over fewer candidates; both drop some
            (first, want, _), (later, want_later, _) = kept[:2]
            assert first == 2**n > later == len(want) > len(want_later)

    def test_eight_items_or_fewer_never_prune(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_DemandEngine, "prune", lambda self, prices: calls.append(prices))
        rng = np.random.default_rng(67)
        small = [inst for inst in _prune_instances() if inst.n_items <= 8]
        small += [_quadratic_instance(rng, n, 6, epsilon=0.002) for n in (2, 4, 6)]
        for inst in small:
            assert run_auction(inst).rounds > 64  # past two of the prune rounds
        assert len(small) == 7 and calls == []

    def test_bidder_demand_never_prunes(self, monkeypatch):
        # only the clock knows that prices never fall
        calls = []
        monkeypatch.setattr(_DemandEngine, "prune", lambda self, prices: calls.append(prices))
        inst = next(_prune_instances())
        for price in (0.0, 1.0, 10.0):
            bidder_demand(inst, np.full(inst.n_items, price), 0)
        assert calls == []

    @pytest.mark.parametrize("mutant", ["superset", "negative margin", "empty package"])
    def test_wrong_prunes_are_caught(self, mutant, monkeypatch):
        prune = _DemandEngine.prune
        if mutant == "superset":
            def mutated(self, prices):
                self._keep(_slow_prune(self, prices, _one_larger))
        elif mutant == "negative margin":
            margin = auction._prune_margin
            monkeypatch.setattr(
                auction, "_prune_margin", lambda tables, n, eps, p0: -margin(tables, n, eps, p0) - eps
            )
            mutated = prune
        else:
            def mutated(self, prices):
                prune(self, prices)
                if self._cand[0] == 0:  # the empty package leads the tie order
                    self._keep(np.arange(len(self._cand)) > 0)
        monkeypatch.setattr(_DemandEngine, "prune", mutated)
        seen = _audit_exact_demand(monkeypatch)
        for inst in _prune_instances():
            run_auction(replace(inst, config=replace(inst.config, max_rounds=400)))
        assert seen["mismatches"] > 0


def _numpy_blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


class TestCandidatePriceSums:
    """Exact demand's padded candidate block gives ``(masks @ prices)[cand]`` bit for bit."""

    def test_padded_block_matches_the_full_product(self):
        rng = np.random.default_rng(2803)
        remainders = Counter()
        for n in range(13):
            items = tuple(range(n))
            masks, _, _ = _tie_order(items)
            inst = AuctionInstance(
                items=items, bidders=(0,), batch_valuation=lambda b, rows: np.zeros(len(rows)),
                config=AuctionConfig(epsilon=1.0),
            )
            for share in (0.02, 0.1, 0.3, 0.6, 0.9) * 12:
                engine = _DemandEngine(inst, (0,))
                # item prices spread over six decades, so the summation order shows
                prices = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
                want = (masks @ prices)[engine._cand]  # every package, before a prune
                assert engine._price_sums(prices).tobytes() == want.tobytes(), n
                engine._keep(rng.random(2**n) < share)  # a random set, still in tie order
                assert len(engine._block) % 4 == 0
                prices = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
                want = (masks @ prices)[engine._cand]
                assert engine._price_sums(prices).tobytes() == want.tobytes(), (n, engine._cand)
                remainders[len(engine._cand) % 4] += 1
        assert all(remainders[r] > 50 for r in range(4))  # counts off a multiple of 4 too

    def test_under_an_older_dgemv_kernel(self):
        if not _numpy_blas_is_openblas():
            pytest.skip("numpy's BLAS is not OpenBLAS, so OPENBLAS_CORETYPE would pick nothing")
        env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge")
        test = f"{__file__}::TestCandidatePriceSums::test_padded_block_matches_the_full_product"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
            cwd=os.path.dirname(os.path.dirname(__file__)), env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


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


class TestValuationLength:
    """A valuation must return exactly one value per mask row, in both modes."""

    @pytest.mark.parametrize("exact_cap", [4, 0])  # tables; greedy
    @pytest.mark.parametrize("cut", ["short", "long", "2-D"])
    def test_wrong_count_names_bidders_and_length(self, exact_cap, cut):
        # 4 items, 2 bidders; a short result would pair the values that are
        # left with the wrong packages
        values = _random_values(np.random.default_rng(107), 4, bidders=(0, 1))
        lookup = _lookup_batch(values)
        wrong = {
            "short": lambda bidders, masks: lookup(bidders, masks)[:-1],
            "long": lambda bidders, masks: np.append(lookup(bidders, masks), 0.0),
            "2-D": lambda bidders, masks: lookup(bidders, masks)[:, None],
        }[cut]
        inst = AuctionInstance(
            items=tuple(range(4)), bidders=(0, 1), batch_valuation=wrong,
            config=AuctionConfig(epsilon=0.5, exact_cap=exact_cap),
        )
        # greedy round 1 values both bidders' empty packages in one call of
        # 2 x 5 rows; exact mode values each bidder's table of 16 alone
        expected = r"bidders \[0\]: .*expected \(16,\)" if exact_cap else (
            r"bidders \[0, 1\]: .*expected \(10,\)"
        )
        with pytest.raises(ValueError, match=expected):
            run_auction(inst)
        with pytest.raises(ValueError, match=r"bidders \[1\]: .*one value per mask row"):
            bidder_demand(inst, np.zeros(4), 1)


def _reference_radio_valuation(topo, gains, params, c0):
    """The radio-backed valuation as plain allocating numpy expressions.

    Every received power is read link by link with ``GainTensor.get``, then a
    new array is made for every intermediate: member rates under
    ``errstate(divide="ignore")`` and the package size as ``masks.sum(axis=1)``.
    """
    items = tuple(range(topo.n_pairs))
    bidders = tuple(range(topo.rb_count))
    n = len(items)
    sigma = radio.effective_noise_w(params)
    p_d = params.p_d2d_w
    s_c = np.zeros(len(bidders))
    w, direct, cross = (np.zeros((len(bidders), n)) for _ in range(3))
    m = np.zeros((len(bidders), n, n))
    for k, rb in enumerate(bidders):
        cell_tx = radio.cellular_tx_node(params, rb)
        cell_rx = radio.cellular_rx_node(params, rb)
        p_cell = radio.default_power_w(params, cell_tx)
        s_c[k] = p_cell * gains.get(cell_tx, cell_rx, rb)
        for i in items:
            w[k, i] = p_d * gains.get(("dtx", i), cell_rx, rb)
            direct[k, i] = p_d * gains.get(("dtx", i), ("drx", i), rb)
            cross[k, i] = p_cell * gains.get(cell_tx, ("drx", i), rb)
            for j in items:
                if j != i:
                    m[k, i, j] = p_d * gains.get(("dtx", i), ("drx", j), rb)

    def valuation(bidder, masks):
        k = bidders.index(bidder)
        masks = np.asarray(masks, dtype=float)
        cell = np.log2(1.0 + float(s_c[k]) / (sigma + masks @ w[k]))
        i_d2d = masks @ m[k]
        with np.errstate(divide="ignore"):
            member_rates = np.log2(1.0 + direct[k] / (sigma + cross[k] + i_d2d))
        d2d = (member_rates * masks).sum(axis=1)
        return cell + d2d - c0 * masks.sum(axis=1)

    return valuation


class TestRadioValuationBits:
    """The in-place radio valuation gives the reference expression's floats.

    Runs under ``errstate(divide="raise", invalid="raise")``: the valuation
    sets no error state of its own, and none of its operations may trip one.
    """

    @staticmethod
    def _instances(n, m=3, seed=131):
        for direction in (radio.DOWNLINK, radio.UPLINK):
            params = replace(PARAMS, link_direction=direction).validate()
            topo = radio.generate_topology(params, m=m, n=n, rng_seed=seed + n)
            gains = radio.draw_gains(topo, params, rng_seed=seed + n + 1)
            with np.errstate(divide="raise", invalid="raise"):
                inst = auction_instance_from_radio(topo, gains, params)
            yield inst, _reference_radio_valuation(topo, gains, params, inst.config.c0)

    @pytest.mark.parametrize("n", [0, 2, 7, 12])
    def test_full_tables(self, n):
        masks, _, _ = _tie_order(tuple(range(n)))
        for inst, reference in self._instances(n):
            for bidder in inst.bidders:
                with np.errstate(divide="raise", invalid="raise"):
                    got = inst.batch_valuation((bidder,), masks)
                assert np.array_equal(got, reference(bidder, masks))

    @pytest.mark.parametrize("n", [13, 16])
    def test_greedy_step_rows(self, n):
        for inst, reference in self._instances(n, m=4):
            valuation = inst.batch_valuation
            calls = []

            def recorded(bidders, masks):
                calls.append((bidders, masks.copy(), valuation(bidders, masks)))
                return calls[-1][2]

            inst.batch_valuation = recorded
            with np.errstate(divide="raise", invalid="raise"):
                assert run_auction(inst).terminated
            assert len(calls) > 1
            assert max(len(bidders) for bidders, _, _ in calls) == len(inst.bidders)
            for bidders, masks, got in calls:
                want = np.concatenate([reference(b, rows) for b, rows in _blocks(bidders, masks)])
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(17))
    def test_auto_epsilon_matches_two_call_reference(self, n):
        for inst, reference in self._instances(n):
            single = []
            for rb in inst.bidders:
                empty_v = float(reference(rb, np.zeros((1, n)))[0])
                single.extend(max(v - empty_v, 0.0) for v in reference(rb, np.eye(n)))
            mean_standalone = float(np.mean(single)) if single else 0.0
            assert inst.config.epsilon == max(0.01 * mean_standalone, 1e-6)
            # the closed form against the instance's own valuation, one call per RB
            standalone, valued = np.eye(n + 1, n, k=-1), []
            for rb in inst.bidders:
                empty_v, *alone = inst.batch_valuation((rb,), standalone).tolist()
                valued.extend(max(v - empty_v, 0.0) for v in alone)
            assert [v.hex() for v in valued] == [v.hex() for v in single]


class TestStackedValuationBits:
    """Each block of a several-bidder radio valuation call keeps the bits of a one-bidder call."""

    def test_blocks_match_one_bidder_calls(self):
        rng = np.random.default_rng(3307)
        remainders = Counter()
        for n in range(17):
            for inst, reference in TestRadioValuationBits._instances(n, m=10, seed=3300):
                for k in range(1, 11):
                    # k consecutive bidders, and any k of them in any order
                    start = int(rng.integers(0, 11 - k))
                    for bidders in (
                        inst.bidders[start : start + k],
                        tuple(rng.permutation(inst.bidders)[:k].tolist()),
                    ):
                        rows = int(rng.integers(1, 18))
                        remainders[rows % 4] += 1
                        masks = (rng.random((k * rows, n)) < rng.uniform(0.1, 0.9)).astype(float)
                        with np.errstate(divide="raise", invalid="raise"):
                            got = inst.batch_valuation(bidders, masks)
                            alone = [
                                inst.batch_valuation((b,), block)
                                for b, block in _blocks(bidders, masks)
                            ]
                        want = [reference(b, block) for b, block in _blocks(bidders, masks)]
                        assert got.shape == (k * rows,)
                        hexes = [v.hex() for v in got.tolist()]
                        assert hexes == [v.hex() for v in np.concatenate(alone).tolist()], (n, k)
                        assert hexes == [v.hex() for v in np.concatenate(want).tolist()], (n, k)
        assert all(remainders[r] > 50 for r in range(4))  # rows per block off a multiple of 4 too

    def test_under_an_older_dgemv_kernel(self):
        if not _numpy_blas_is_openblas():
            pytest.skip("numpy's BLAS is not OpenBLAS, so OPENBLAS_CORETYPE would pick nothing")
        env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge")
        test = f"{__file__}::TestStackedValuationBits::test_blocks_match_one_bidder_calls"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
            cwd=os.path.dirname(os.path.dirname(__file__)), env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class _OneCallPerMiss(_DemandEngine):
    """The demand engine with every greedy miss valued in its own one-bidder call.

    Each stale bidder walks to its end before the next starts, and a miss is
    valued on the spot: the engine as it was before misses were batched.
    """

    def _demand_greedy(self, rows, prices):
        full = (1 << self.n) - 1
        packages = []
        for k in rows:
            steps, mask = self._steps[k], 0
            while mask != full:
                if mask not in steps:
                    self._value_steps([(k, mask)])
                empty_value, candidates = steps[mask]
                if mask == 0:
                    value = empty_value
                self.calls += len(candidates)
                best, top = -1, 0.0
                for i, v in candidates:
                    marginal = v - value - prices[i]
                    if marginal > top:
                        best, top, best_value = i, marginal, v
                if best < 0:
                    break
                mask |= 1 << best
                value = best_value
            packages.append(mask)
        return packages


class TestBatchedGreedyMisses:
    """Greedy misses batched per package size: fewer calls, the same auction bit for bit."""

    @staticmethod
    def _counted(inst):
        calls = []
        valuation = inst.batch_valuation

        def counted(bidders, masks):
            calls.append((bidders, len(masks)))
            return valuation(bidders, masks)

        return replace(inst, batch_valuation=counted), calls

    @pytest.mark.parametrize("direction", [radio.DOWNLINK, radio.UPLINK])
    @pytest.mark.parametrize("n", [13, 14, 16, 20])
    def test_radio_auctions_match_one_call_per_miss(self, monkeypatch, direction, n):
        for seed in (3401, 3403, 3405):
            inst = _radio_instance(direction, n, 10, seed + n)
            batched, batched_calls = self._counted(inst)
            state = run_auction(batched)
            with monkeypatch.context() as patch:
                patch.setattr(auction, "_DemandEngine", _OneCallPerMiss)
                one_by_one, single_calls = self._counted(inst)
                want = run_auction(one_by_one)
            assert state.terminated and state.rounds > 1
            for name in ("prices", "demand", "rounds", "valuation_calls", "per_round_calls",
                         "assignment", "terminated"):
                assert getattr(state, name) == getattr(want, name), name
            assert [p.tobytes() for p in state.price_history] == [
                p.tobytes() for p in want.price_history
            ]
            # the same rows, in fewer calls
            assert all(len(bidders) == 1 for bidders, _ in single_calls)
            assert sum(rows for _, rows in batched_calls) == sum(rows for _, rows in single_calls)
            assert len(batched_calls) < len(single_calls)
            # round 1: every walk starts from an empty memo, and the walks
            # stand at one package size at every step
            first, round_one = self._counted(replace(inst, config=replace(inst.config, max_rounds=1)))
            run_auction(first)
            assert len(round_one) <= n + 1
            assert len(round_one[0][0]) == len(inst.bidders)


class TestBidderDemandPriceLength:
    @pytest.mark.parametrize("exact_cap", [3, 0])  # tables; greedy
    @pytest.mark.parametrize("prices", [np.zeros(5), np.zeros(2), np.zeros(0), np.zeros((1, 3))])
    def test_wrong_shape_names_both_lengths(self, exact_cap, prices):
        values = _random_values(np.random.default_rng(101), 3, bidders=(0,))
        inst = _table_instance(values, n_items=3, exact_cap=exact_cap)
        shape = str(prices.shape).replace("(", r"\(").replace(")", r"\)")
        with pytest.raises(ValueError, match=f"length 3, one per item, got shape {shape}"):
            bidder_demand(inst, prices, 0)
        bidder_demand(inst, np.zeros(3), 0)  # one price per item is accepted


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
        stacked = inst.batch_valuation((1,), masks)
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
