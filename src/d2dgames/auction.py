"""Reverse iterative combinatorial auction over D2D pairs, plus baselines.

Resource-block owners act as bidders and compete for packages of D2D pairs
(the items) under ascending per-item clock prices: every item demanded by two
or more bidders gets its price raised by epsilon, and the auction stops as
soon as no item is over-demanded. Winner packages then transmit on the
winning bidder's RB; undemanded pairs stay silent. The clock runs over one
bidder x item bool demand matrix.

Demand is the exact surplus-maximizing package (a row-wise argmax over the
bidders' tables of all packages) up to ``exact_cap`` items, and a greedy
marginal-surplus construction beyond that. Exact ties go to the package with
fewest items, then to the lexicographically smallest sorted tuple of item
values. Valuations have one interface, ``AuctionInstance.batch_valuation``,
which values a batch of 0/1 package masks. Two caches keep big instances
cheap without altering the outcome:

- Stale demand: a bidder whose demanded items saw no price change keeps its
  demand. A price rise elsewhere can only lower competing packages'
  surpluses, so the cached argmax (and the greedy path) is unchanged.
- Greedy memo: the candidate values of one greedy step depend on the bidder
  and the current package only, not on prices. The engine of one auction
  stores them per (bidder, package bitmask), so greedy paths that repeat
  their prefixes over many clock rounds cost one valuation call per new
  package instead of one per step. ``valuation_calls`` still counts every
  candidate row a cache-free engine would evaluate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from d2dgames import radio


@dataclass(frozen=True)
class AuctionConfig:
    """The ``[auction]`` section: price clock and demand-rule parameters."""

    c0: float = 0.05
    epsilon: float | None = None  # None: 1% of mean standalone item value
    p0: float = 0.0
    exact_cap: int = 12
    max_rounds: int = 1_000_000

    def validate(self) -> "AuctionConfig":
        if not (math.isfinite(self.c0) and self.c0 >= 0):
            raise ValueError(f"c0 must be finite and >= 0, got {self.c0}")
        if self.epsilon is not None and not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, or auto, got {self.epsilon}")
        if not (math.isfinite(self.p0) and self.p0 >= 0):
            raise ValueError(f"p0 must be finite and >= 0, got {self.p0}")
        if self.exact_cap < 0:
            raise ValueError(f"exact_cap must be >= 0, got {self.exact_cap}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        return self


@dataclass
class AuctionInstance:
    items: tuple[int, ...]
    bidders: tuple[int, ...]
    # the one valuation path: (bidder, masks (B, n_items) of 0/1 rows) -> (B,)
    batch_valuation: Callable[[int, np.ndarray], np.ndarray]
    config: AuctionConfig  # epsilon resolved: auto is for auction_instance_from_radio

    def __post_init__(self):
        if self.config.epsilon is None:
            raise ValueError("epsilon must be resolved for an instance, got auto")
        self.config.validate()
        if len(set(self.items)) != len(self.items):
            raise ValueError("duplicate items")
        if len(set(self.bidders)) != len(self.bidders):
            raise ValueError("duplicate bidders")

    @property
    def n_items(self) -> int:
        return len(self.items)


@dataclass
class AuctionState:
    """Outcome of :func:`run_auction`.

    ``valuation_calls`` counts logical valuation queries: the non-empty
    candidate packages a cache-free engine would evaluate (the whole table
    once per bidder in exact mode, every candidate of every greedy step in
    greedy mode). Rows served from the greedy memo count as well, so the
    number does not depend on caching; ``per_round_calls`` splits it by round.
    """

    prices: dict[int, float]
    demand: dict[int, frozenset[int]]
    rounds: int
    valuation_calls: int
    per_round_calls: list[int]
    assignment: dict[int, Optional[int]]
    terminated: bool
    price_history: list[np.ndarray] = field(default_factory=list)


@functools.lru_cache(maxsize=32)
def _tie_order(items: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """All package masks (bit ``i`` of row ``r`` is ``items[i]``) and their tie order."""
    n = len(items)
    masks = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)

    def tie_key(r: int):
        return r.bit_count(), sorted(items[i] for i in range(n) if (r >> i) & 1)

    order = np.array(sorted(range(2**n), key=tie_key), dtype=np.intp)
    masks.setflags(write=False)  # shared by every auction over these items
    order.setflags(write=False)
    return masks, order


def _check_finite(bidders: tuple[int, ...], values: np.ndarray) -> None:
    """Raise naming the first bidder whose row of ``values`` is not all finite.

    Demand has no answer for a NaN: ``argmax`` would pick it and the greedy
    walk's ``>`` scan would skip it.
    """
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.argmin(finite.reshape(len(bidders), -1).all(axis=1))
        raise ValueError(f"bidder {bidders[bad]}: valuation is not finite")


class _DemandEngine:
    """Valuation tables, the greedy memo and the demand rule of one auction."""

    def __init__(self, instance: AuctionInstance, bidders: tuple[int, ...]):
        self.inst = instance
        self.bidders = bidders
        self.n = instance.n_items
        self.exact = self.n <= instance.config.exact_cap
        self.calls = 0
        # (bidder, package mask) -> (value of the empty package when mask == 0
        # else None, [(item outside the mask, value of mask plus it), ...])
        self._steps: dict[tuple[int, int], tuple[Optional[float], list[tuple[int, float]]]] = {}
        if self.exact:
            # one table row per bidder; tables and price sums are computed over
            # the masks in plain order, then permuted so a row's first maximum
            # is the tie rule
            self._masks, self._order = _tie_order(instance.items)
            tables = [instance.batch_valuation(bidder, self._masks) for bidder in bidders]
            tables = np.array(tables, dtype=float).reshape(len(bidders), 2**self.n)
            _check_finite(bidders, tables)
            self._tables = tables[:, self._order]
            self._tied = self._masks[self._order] > 0.5
            self.calls += len(bidders) * (2**self.n - 1)  # non-empty packages evaluated

    def demand(self, rows: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """Demanded packages of the bidders at positions ``rows``, as bool item rows."""
        if self.exact:
            surplus = self._tables[rows]  # fancy indexing: a copy
            surplus -= (self._masks @ prices)[self._order]
            return self._tied[surplus.argmax(axis=1)]
        prices = prices.tolist()  # the walk runs on Python floats
        out = np.empty((len(rows), self.n), dtype=bool)
        for r, k in enumerate(rows):
            mask = self._demand_greedy(self.bidders[k], prices)  # any n: a Python int
            out[r] = [(mask >> i) & 1 for i in range(self.n)]
        return out

    def _greedy_step(self, bidder: int, mask: int):
        """Candidates of one greedy step from package ``mask``, memoized.

        Returns the empty package's value when ``mask == 0`` (else None) and
        one ``(item index, value of mask plus that item)`` pair per item
        outside the mask, in index order, as Python scalars. The values depend
        on (bidder, mask) only, never on prices, so a repeat of the step
        returns the stored list without a valuation call.
        """
        step = self._steps.get((bidder, mask))
        if step is None:
            out_idx = [i for i in range(self.n) if not (mask >> i) & 1]
            lead = int(mask == 0)  # leading all-zero row for the empty package
            rows = np.zeros((lead + len(out_idx), self.n))
            rows[lead:, [i for i in range(self.n) if (mask >> i) & 1]] = 1.0
            rows[lead + np.arange(len(out_idx)), out_idx] = 1.0
            vals = np.asarray(self.inst.batch_valuation(bidder, rows), dtype=float)
            _check_finite((bidder,), vals)
            vals = vals.tolist()
            step = (vals[0] if lead else None, list(zip(out_idx, vals[lead:])))
            self._steps[(bidder, mask)] = step
        return step

    def _demand_greedy(self, bidder: int, prices: list[float]) -> int:
        """Add the item of largest marginal surplus until none is positive.

        Returns the package as a bitmask over item positions. Ties go to the
        smallest item index. A package's value is carried from the step that
        added its last item, the empty package's from its step. Each marginal
        is ``value_with_item - value - price``, subtracted left to right.
        """
        mask = 0
        full = (1 << self.n) - 1
        while mask != full:
            empty_value, candidates = self._greedy_step(bidder, mask)
            if mask == 0:
                value = empty_value
            self.calls += len(candidates)
            best, top = -1, 0.0  # strict > keeps the first maximum, only if positive
            for i, v in candidates:
                marginal = v - value - prices[i]
                if marginal > top:
                    best, top, best_value = i, marginal, v
            if best < 0:
                break
            mask |= 1 << best
            value = best_value
        return mask


def bidder_demand(instance: AuctionInstance, prices, bidder: int) -> frozenset[int]:
    """Surplus-maximizing package for one bidder at per-item prices in item order."""
    prices = np.asarray(prices, dtype=float)
    if not (np.isfinite(prices).all() and (prices >= 0).all()):
        raise ValueError("prices must be finite and >= 0")
    row = _DemandEngine(instance, (bidder,)).demand(np.zeros(1, dtype=np.intp), prices)[0]
    return frozenset(instance.items[i] for i in np.flatnonzero(row))


def run_auction(instance: AuctionInstance) -> AuctionState:
    """Ascending clock rounds until no item is demanded by two or more bidders.

    Returns an :class:`AuctionState` whose ``terminated`` flag is False when
    ``config.max_rounds`` ran out; callers must check it before using the
    assignment. Exact-mode tables are valued before round 1 and charged to it.
    """
    config = instance.config
    items, bidders = instance.items, instance.bidders
    engine = _DemandEngine(instance, bidders)
    prices = np.full(instance.n_items, float(config.p0))
    demands = np.zeros((len(bidders), instance.n_items), dtype=bool)
    stale = np.ones(len(bidders), dtype=bool)
    history: list[np.ndarray] = []
    per_round_calls: list[int] = []
    rounds = charged = 0
    terminated = False
    while rounds < config.max_rounds:
        rounds += 1
        demands[stale] = engine.demand(np.flatnonzero(stale), prices)
        per_round_calls.append(engine.calls - charged)
        charged = engine.calls
        history.append(prices.copy())
        over = demands.sum(axis=0) >= 2
        if not over.any():
            terminated = True
            break
        prices[over] += config.epsilon
        stale = demands[:, over].any(axis=1)

    packages = {
        b: frozenset(items[i] for i in np.flatnonzero(row)) for b, row in zip(bidders, demands)
    }
    assignment: dict[int, Optional[int]] = {item: None for item in items}
    if terminated:
        assignment.update((item, b) for b, pkg in packages.items() for item in pkg)
    return AuctionState(
        prices={item: float(prices[i]) for i, item in enumerate(items)},
        demand=packages,
        rounds=rounds,
        valuation_calls=engine.calls,
        per_round_calls=per_round_calls,
        assignment=assignment,
        terminated=terminated,
        price_history=history,
    )


def allocation_from_auction(state: AuctionState) -> radio.Allocation:
    """Winning packages transmit on their bidder's RB; unassigned pairs stay silent."""
    if not state.terminated:
        raise ValueError("auction did not terminate; no allocation available")
    rb_of_d2d = {
        item: bidder for item, bidder in state.assignment.items() if bidder is not None
    }
    return radio.Allocation(rb_of_d2d=rb_of_d2d)


def random_allocation(topology: radio.Topology, rng_seed: int) -> radio.Allocation:
    """Assign every D2D pair a uniformly random RB, independently per pair."""
    rng = np.random.default_rng(rng_seed)
    rb_of_d2d = {
        j: int(rng.integers(0, topology.rb_count)) for j in range(topology.n_pairs)
    }
    return radio.Allocation(rb_of_d2d=rb_of_d2d)


def all_cellular_allocation(topology: radio.Topology) -> radio.Allocation:
    """Carry every D2D flow as a two-hop cellular relay on its nearest CUE's RB."""
    rb_of_d2d = {}
    for j, (tx, _) in enumerate(topology.d2d_pairs):
        dists = [math.hypot(tx[0] - c[0], tx[1] - c[1]) for c in topology.cue]
        rb_of_d2d[j] = int(np.argmin(dists))
    return radio.Allocation(
        rb_of_d2d=rb_of_d2d, relay_d2d=frozenset(range(topology.n_pairs))
    )


def auction_instance_from_radio(
    topology: radio.Topology,
    gains: radio.GainTensor,
    params: radio.RadioParams,
    config: AuctionConfig = AuctionConfig(),
) -> AuctionInstance:
    """Build the auction whose valuations are co-channel sum rates minus signaling.

    The items are the topology's D2D pairs and the bidders its RBs. A bidder
    values a package as: the rate of its own cellular link under the
    package's interference, plus each package member's D2D rate on that RB,
    minus ``config.c0`` per member for signaling overhead. An auto ``epsilon``
    resolves to 1% of the mean positive standalone item value.
    """
    c0 = config.validate().c0
    items = tuple(range(topology.n_pairs))
    bidders = tuple(range(topology.rb_count))
    sigma = radio.effective_noise_w(params)
    n = len(items)

    rbs = np.asarray(bidders, dtype=np.intp)
    cell_tx, cell_rx, p_cell = radio.cellular_links(gains, params, bidders)
    dtx = gains.tx_indices([("dtx", j) for j in items])
    drx = gains.rx_indices([("drx", j) for j in items])
    p_d = params.p_d2d_w
    # one row per bidder: cellular signal, package members' interference at
    # the cellular receiver, direct D2D signals, cross-tier interference at the
    # D2D receivers, and member-to-member interference m[k, a, b] (a's tx at b's rx)
    s_c = p_cell * gains.gather(cell_tx, cell_rx, rbs)
    w = p_d * gains.gather(dtx, cell_rx[:, None], rbs[:, None])
    direct = p_d * gains.gather(dtx, drx, rbs[:, None])
    cross = p_cell[:, None] * gains.gather(cell_tx[:, None], drx, rbs[:, None])
    m = p_d * gains.gather(dtx[:, None], drx, rbs[:, None, None])
    m[:, np.arange(n), np.arange(n)] = 0.0
    per_bidder = {
        rb: (float(s_c[k]), w[k], direct[k], cross[k], m[k]) for k, rb in enumerate(bidders)
    }

    def batch_valuation(bidder: int, masks: np.ndarray) -> np.ndarray:
        s_c, w, direct, cross, m = per_bidder[bidder]
        masks = np.asarray(masks, dtype=float)
        cell = np.log2(1.0 + s_c / (sigma + masks @ w))
        i_d2d = masks @ m
        with np.errstate(divide="ignore"):
            member_rates = np.log2(1.0 + direct / (sigma + cross + i_d2d))
        d2d = (member_rates * masks).sum(axis=1)
        return cell + d2d - c0 * masks.sum(axis=1)

    if config.epsilon is None:
        single = []
        for rb in bidders:
            empty_v = float(batch_valuation(rb, np.zeros((1, n)))[0])
            single.extend(max(v - empty_v, 0.0) for v in batch_valuation(rb, np.eye(n)))
        mean_standalone = float(np.mean(single)) if single else 0.0
        config = replace(config, epsilon=max(0.01 * mean_standalone, 1e-6))

    return AuctionInstance(items, bidders, batch_valuation, config)
