"""Reverse iterative combinatorial auction over D2D pairs, plus baselines.

Resource-block owners act as bidders and compete for packages of D2D pairs
(the items) under ascending per-item clock prices: every item demanded by two
or more bidders gets its price raised by epsilon, and the auction stops as
soon as no item is over-demanded. Winner packages then transmit on the
winning bidder's RB; undemanded pairs stay silent. The clock runs on Python
ints and floats: each bidder's demand is an int bitmask over item positions
and the prices are a list of floats, raised item by item over the set bits
of the over-demanded mask. numpy is used only for the exact-mode tables and
surpluses. Each round copies the prices into one float64 array, which that
round's demand reads and ``AuctionState.price_history`` keeps.

Demand is the exact surplus-maximizing package (a row-wise argmax over the
bidders' tables of all packages) up to ``exact_cap`` items, and a greedy
marginal-surplus construction beyond that. Exact ties go to the package with
fewest items, then to the lexicographically smallest sorted tuple of item
values. Valuations have one interface, ``AuctionInstance.batch_valuation``,
which values a batch of 0/1 package masks. Three caches keep big instances
cheap without altering the outcome:

- Stale demand: a bidder whose demanded items saw no price change keeps its
  demand. A price rise elsewhere can only lower competing packages'
  surpluses, so the cached argmax (and the greedy path) is unchanged. Exact
  demand skips the stale list while the live table holds at most 256
  packages (``PRUNE_ABOVE_PACKAGES``: always at 8 items or fewer, and once a
  prune has cut it that far): each round then takes every bidder's demand in
  one argmax, which is cheaper than gathering the stale rows and gives the
  same bits. The demanded package of a bidder that saw no raise has a 0 in
  every raised item's column, so its price sum, and its surplus, keep their
  bits; every other sum takes the same operations on prices no smaller, so
  every other surplus can only fall, and the first maximum stays put.
- Greedy memo: the candidate values of one greedy step depend on the bidder
  and the current package only, not on prices. The engine of one auction
  keeps one dict per bidder, keyed by the package bitmask, so greedy paths
  that repeat their prefixes over many clock rounds cost one valuation call
  per new package instead of one per step. Each miss takes its candidate
  rows out of a read-only zero row stacked on the identity into a new
  array, so a valuation that writes to its input never sees a shared array.
  ``valuation_calls`` still counts every candidate row a cache-free engine
  would evaluate.
- Dominated packages: prices only rise, so the surplus of a package without
  item ``i`` minus that of the package with it (``p_i`` minus the marginal
  value of ``i``) never falls. On tables of more than 256 packages (9 items
  or more), at rounds 32, 64, 128, ... :func:`run_auction` drops from the
  exact tables every package that, for every bidder, a live package one
  item smaller beats by more than ``delta``; the empty package has no
  smaller package and always stays. Smaller tables are not pruned: there
  the prune costs about as much as it saves. Exact demand is the same argmax
  over the columns left, still in tie order. Its price sums are one ``block @
  prices`` over the live packages' mask rows, kept in tie order and padded
  with zero rows to a multiple of 4; a prune compacts the block with the
  tables. OpenBLAS's dgemv sums each row of a full group of 4 rows in one
  order, and only a last partial group takes another path. All ``2**n``
  masks (``n >= 2``) fill whole groups, so every live package's sum has the
  bits of ``masks @ prices`` and every surplus keeps its bits; at ``n <= 1``
  a row has at most one nonzero entry, whose sum is exact in any order.
  ``delta`` comes from the tables, ``n``, ``epsilon`` and ``p0``. With ``u =
  2**-53``, ``R`` the range of the tables' values and 0, and ``A`` their
  largest magnitude, every price stays below ``pmax = max(p0, 2 (R +
  epsilon) + 4 u A)``: a demanded package beats the empty one, so its price
  sum is at most ``R`` plus rounding, and a raise adds ``epsilon``. A
  computed surplus ``T - P`` is then within about ``u (A + n**2 pmax)`` of
  its exact value, less than half of ``eta = 2 u (A + (n + 1)**2 pmax)``.
  With ``delta = 4 eta``, a margin above ``delta`` at the prune leaves the
  smaller package ahead at every later price, after the rounding of both
  surpluses then and now.

The radio-backed valuation of :func:`auction_instance_from_radio` computes
the member rates in one work array, in place, with the same IEEE operations
as the plain expression; a package's size is ``masks @ ones``, whose row
sums of 0/1 entries are exact in any summation order.
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
    ``price_history`` holds the prices each round's demands saw, one float64
    array in item order per round.
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
    """All package masks and their tie order.

    Column ``i`` of the masks is ``items[i]`` and row ``r`` is the package
    whose bitmask is ``r``: its entry ``i`` is ``(r >> i) & 1``.
    """
    n = len(items)
    masks = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)

    def tie_key(r: int):
        return r.bit_count(), sorted(items[i] for i in range(n) if (r >> i) & 1)

    order = np.array(sorted(range(2**n), key=tie_key), dtype=np.intp)
    masks.setflags(write=False)  # shared by every auction over these items
    order.setflags(write=False)
    return masks, order


def _padded_rows(masks: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """``masks[cand]`` followed by zero rows up to a multiple of 4 rows.

    A zero row's price sum is never read; the padding only keeps every
    candidate row in a full group of 4 of the dgemv (module docstring).
    """
    block = np.zeros((-(-len(cand) // 4) * 4, masks.shape[1]))
    block[: len(cand)] = masks[cand]
    return block


@functools.lru_cache(maxsize=32)
def _tie_block(items: tuple[int, ...]) -> np.ndarray:
    """All package masks in tie order, padded: the price-sum block of an unpruned engine."""
    masks, order = _tie_order(items)
    block = _padded_rows(masks, order)
    block.setflags(write=False)  # shared by every auction over these items
    return block


def _check_finite(bidders: tuple[int, ...], values: np.ndarray) -> None:
    """Raise naming the first bidder whose row of ``values`` is not all finite.

    Exact demand has no answer for a NaN: ``argmax`` would pick it.
    """
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.argmin(finite.reshape(len(bidders), -1).all(axis=1))
        raise ValueError(f"bidder {bidders[bad]}: valuation is not finite")


def _prune_margin(tables: np.ndarray, n: int, epsilon: float, p0: float) -> float:
    """The drop margin ``delta`` of the dominated-package prune (module docstring).

    ``tables`` holds every bidder's value of every package over ``n`` items;
    with no bidders, ``R`` and ``A`` are 0.
    """
    u = 2.0**-53
    hi, lo = float(tables.max(initial=0.0)), float(tables.min(initial=0.0))
    top = max(hi, -lo)
    pmax = max(p0, 2.0 * (hi - lo + epsilon) + 4.0 * u * top)
    return 4.0 * 2.0 * u * (top + (n + 1) ** 2 * pmax)


class _DemandEngine:
    """Valuation tables, the greedy memo and the demand rule of one auction."""

    def __init__(self, instance: AuctionInstance, bidders: tuple[int, ...]):
        self.inst = instance
        self.bidders = bidders
        self.n = instance.n_items
        self.exact = self.n <= instance.config.exact_cap
        self.calls = 0
        # one dict per bidder position: package mask -> (value of the empty
        # package when mask == 0 else None, [(item outside the mask, value of
        # mask plus it), ...])
        self._steps: list[dict[int, tuple[Optional[float], list[tuple[int, float]]]]] = [
            {} for _ in bidders
        ]
        if self.exact:
            # one table row per bidder; tables and price sums are computed over
            # the masks in plain order, then the tables are permuted so a row's
            # first maximum is the tie rule. Mask row r is the package with
            # bitmask r, and table column c is the candidate package
            # self._cand[c]; a prune drops columns, keeping their order. Row c
            # of self._block is mask row self._cand[c], then zero rows pad it
            # to a multiple of 4 rows (module docstring).
            self._masks, self._cand = _tie_order(instance.items)
            tables = [instance.batch_valuation(bidder, self._masks) for bidder in bidders]
            tables = np.array(tables, dtype=float).reshape(len(bidders), 2**self.n)
            _check_finite(bidders, tables)
            config = instance.config
            self._margin = _prune_margin(tables, self.n, config.epsilon, config.p0)
            self._tables = tables[:, self._cand]
            self._block = _tie_block(instance.items)
            self.calls += len(bidders) * (2**self.n - 1)  # non-empty packages evaluated
        else:
            # the empty package, then each item alone; a miss takes its
            # candidate rows out of it into a new array, so a valuation that
            # writes to its input never sees a shared array
            self._eye = np.eye(self.n + 1, self.n, k=-1)
            self._eye.setflags(write=False)

    def demand(self, rows: list[int] | slice, prices: np.ndarray) -> list[int]:
        """Demanded packages of the bidders at positions ``rows``, as bitmasks.

        ``prices`` is a float64 array in item order. Bit ``i`` of a package's
        mask is item position ``i``; any ``n`` fits a Python int. Exact
        demand prices only the live candidates, with one ``block @ prices``
        whose sums have the bits of the full ``masks @ prices``. In exact
        mode ``rows`` may be ``slice(None)``, every bidder in one argmax; the
        slice is a view of the tables, so its surpluses are a new array.
        """
        if self.exact:
            sums = self._price_sums(prices)
            if isinstance(rows, slice):  # a view of the tables: never in place
                surplus = self._tables[rows] - sums
            else:
                surplus = self._tables[rows]  # fancy indexing: a copy
                surplus -= sums
            return self._cand[surplus.argmax(axis=1)].tolist()
        prices = prices.tolist()
        return [self._demand_greedy(k, prices) for k in rows]

    def prune(self, prices: np.ndarray) -> None:
        """Drop the packages that no bidder can demand again (exact mode only).

        Valid only while prices never fall from ``prices`` on, as on the
        clock. A candidate is dropped when, for every bidder, some candidate
        one item smaller has a surplus higher by more than ``self._margin``.
        Each candidate's subsets one item smaller are gathered by table
        column, one bit at a time and 1,024 candidates at a time, on the
        first prune over the full table as on later ones; a subset already
        dropped, or a bit the candidate lacks, reads a column of -inf. The dropped packages leave the tables
        and the block of mask rows together, so the block stays in tie order
        and padded to a multiple of 4 rows.
        """
        cand = self._cand
        bidders, size = self._tables.shape
        # a last column of -inf stands for the dropped packages
        padded = np.empty((bidders, size + 1))
        surplus = padded[:, :size]
        np.subtract(self._tables, self._price_sums(prices), out=surplus)
        padded[:, size] = -np.inf
        column = np.full(1 << self.n, size)
        column[cand] = np.arange(size)
        bits = (1 << np.arange(self.n))[:, None]
        dominated = np.empty(size, dtype=bool)
        # 1,024 candidates at a time: the work arrays of all 4,096 at once
        # (12 items) took fresh pages from the OS on every first prune
        for start in range(0, size, 1024):
            part = slice(start, start + 1024)
            chunk = cand[part]
            smaller = np.where(chunk & bits, column[chunk ^ bits], size)  # one row per bit
            best = padded.take(smaller[0], axis=1)
            for columns in smaller[1:]:
                np.maximum(best, padded.take(columns, axis=1), out=best)
            best -= surplus[:, part]
            dominated[part] = best.min(axis=0) > self._margin
        if dominated.any():
            self._keep(~dominated)

    def _keep(self, keep: np.ndarray) -> None:
        """Keep the candidates where ``keep`` is set: table columns and block rows, in order."""
        self._cand = self._cand[keep]
        self._tables = self._tables[:, keep]
        self._block = _padded_rows(self._masks, self._cand)

    def _price_sums(self, prices: np.ndarray) -> np.ndarray:
        """The candidates' price sums in column order, ``(masks @ prices)[cand]`` bit for bit."""
        return (self._block @ prices)[: len(self._cand)]

    def _greedy_step(self, k: int, mask: int):
        """Value and store the candidates of one greedy step from package ``mask``.

        ``k`` is the bidder's position. Returns the empty package's value when
        ``mask == 0`` (else None) and one ``(item index, value of mask plus
        that item)`` pair per item outside the mask, in index order, as Python
        scalars. The values depend on (bidder, mask) only, never on prices, so
        the walk reads a repeat of the step from ``self._steps[k]`` and calls
        this only on a miss. Each call values a new array of candidate rows,
        so the valuation may write to it.
        """
        bidder = self.bidders[k]
        out_idx = [i for i in range(self.n) if not (mask >> i) & 1]
        # the empty package's row first when mask == 0; take returns a new array
        rows = self._eye.take(([] if mask else [0]) + [i + 1 for i in out_idx], axis=0)
        rows[:, [i for i in range(self.n) if (mask >> i) & 1]] = 1.0
        vals = np.asarray(self.inst.batch_valuation(bidder, rows), dtype=float).tolist()
        if not all(map(math.isfinite, vals)):  # the walk's ``>`` scan would skip a NaN
            raise ValueError(f"bidder {bidder}: valuation is not finite")
        step = (None if mask else vals.pop(0), list(zip(out_idx, vals)))
        self._steps[k][mask] = step
        return step

    def _demand_greedy(self, k: int, prices: list[float]) -> int:
        """Add the item of largest marginal surplus until none is positive.

        ``k`` is the bidder's position. Returns the package as a bitmask over
        item positions. Ties go to the smallest item index. A package's value
        is carried from the step that added its last item, the empty
        package's from its step. Each marginal is ``value_with_item - value -
        price``, subtracted left to right.
        """
        steps = self._steps[k]
        mask = 0
        full = (1 << self.n) - 1
        while mask != full:
            step = steps.get(mask) or self._greedy_step(k, mask)
            empty_value, candidates = step
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


# exact tables of at most this many packages (8 items) are never pruned: a
# prune there costs about as much as the demand scans it shortens. A live
# table this small is re-demanded whole each round: its stale-row gather cost
# more than the rows it skips
PRUNE_ABOVE_PACKAGES = 256


def _package(items: tuple[int, ...], mask: int) -> frozenset[int]:
    """The items whose positions are the set bits of ``mask``."""
    return frozenset(item for i, item in enumerate(items) if (mask >> i) & 1)


def bidder_demand(instance: AuctionInstance, prices, bidder: int) -> frozenset[int]:
    """Surplus-maximizing package for one bidder at per-item prices in item order."""
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (instance.n_items,):
        raise ValueError(
            f"prices must be a 1-D vector of length {instance.n_items}, one per item, "
            f"got shape {prices.shape}"
        )
    if not (np.isfinite(prices).all() and (prices >= 0).all()):
        raise ValueError("prices must be finite and >= 0")
    mask = _DemandEngine(instance, (bidder,)).demand([0], prices)[0]
    return _package(instance.items, mask)


def run_auction(instance: AuctionInstance) -> AuctionState:
    """Ascending clock rounds until no item is demanded by two or more bidders.

    Returns an :class:`AuctionState` whose ``terminated`` flag is False when
    ``config.max_rounds`` ran out; callers must check it before using the
    assignment. Exact-mode tables are valued before round 1 and charged to it.
    The dominated-package prune runs at rounds 32, 64, 128, ... only on
    tables of more than ``PRUNE_ABOVE_PACKAGES`` (256) packages, 9 items or
    more; a prune never changes a demand, so skipping it moves no byte.
    While the live exact table holds at most that many packages, each round
    takes every bidder's demand in one argmax and builds no stale list; a
    bidder whose package saw no raise gets the same package back, bit for
    bit (module docstring). Greedy demand and larger tables re-demand only
    the stale bidders, those whose package holds a raised item.
    """
    config = instance.config
    items, bidders = instance.items, instance.bidders
    engine = _DemandEngine(instance, bidders)
    prunes = engine.exact and 2 ** engine.n > PRUNE_ABOVE_PACKAGES
    everyone = engine.exact and not prunes  # one argmax over every bidder per round
    prices = [float(config.p0)] * len(items)  # the same IEEE sums as a float64 array
    demands = [0] * len(bidders)  # bitmasks over item positions
    stale = list(range(len(bidders)))
    history: list[np.ndarray] = []
    per_round_calls: list[int] = []
    rounds = charged = 0
    terminated = False
    while rounds < config.max_rounds:
        rounds += 1
        price_array = np.array(prices)
        if prunes and rounds >= 32 and not rounds & (rounds - 1):
            engine.prune(price_array)  # at rounds 32, 64, 128, ...: prices only rise
            everyone = len(engine._cand) <= PRUNE_ABOVE_PACKAGES
        if everyone:
            demands = engine.demand(slice(None), price_array)
        else:
            for k, mask in zip(stale, engine.demand(stale, price_array)):
                demands[k] = mask
        per_round_calls.append(engine.calls - charged)
        charged = engine.calls
        history.append(price_array)
        seen = over = 0  # items demanded at least once, at least twice
        for mask in demands:
            over |= seen & mask
            seen |= mask
        if not over:
            terminated = True
            break
        raised = over
        while raised:
            low = raised & -raised
            prices[low.bit_length() - 1] += config.epsilon
            raised ^= low
        if not everyone:  # a live table only shrinks: once everyone, always
            stale = [k for k, mask in enumerate(demands) if mask & over]

    packages = {b: _package(items, mask) for b, mask in zip(bidders, demands)}
    assignment: dict[int, Optional[int]] = {item: None for item in items}
    if terminated:
        assignment.update((item, b) for b, pkg in packages.items() for item in pkg)
    return AuctionState(
        prices=dict(zip(items, prices)),
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
    """Assign every D2D pair a uniformly random RB, independently per pair.

    One draw of ``n_pairs`` values gives the values of one scalar
    ``integers`` call per pair, in pair order.
    """
    rng = np.random.default_rng(rng_seed)
    rbs = rng.integers(0, topology.rb_count, size=topology.n_pairs).tolist()
    return radio.Allocation(rb_of_d2d=dict(enumerate(rbs)))


def all_cellular_allocation(topology: radio.Topology) -> radio.Allocation:
    """Carry every D2D flow as a two-hop cellular relay on its nearest CUE's RB."""
    rb_of_d2d = {}
    for j, (tx, _) in enumerate(topology.d2d_pairs):
        dists = [math.hypot(tx[0] - c[0], tx[1] - c[1]) for c in topology.cue]
        rb_of_d2d[j] = min(range(len(dists)), key=dists.__getitem__)  # the first nearest
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

    # per bidder: cellular signal, package members' interference at the
    # cellular receiver, cross-tier interference at the D2D receivers, and
    # member-to-member powers m[k, a, b] (a's tx at b's rx), whose diagonal
    # is the direct D2D signals; the rows masks @ w[k] and masks @ m[k]
    # multiply are kept C-contiguous
    dtx, drx = [("dtx", j) for j in items], [("drx", j) for j in items]
    block = radio.co_channel(gains, params, dtx, drx, len(bidders))
    s_c = block[:, 0, 0]
    w = np.ascontiguousarray(block[:, 1:, 0])
    cross = block[:, 0, 1:]
    m = block[:, 1:, 1:].copy()
    direct = m.diagonal(axis1=1, axis2=2).copy()
    m[:, np.arange(n), np.arange(n)] = 0.0
    floor = sigma + cross  # noise plus cross-tier interference at each D2D receiver
    per_bidder = {
        rb: (float(s_c[k]), w[k], direct[k], floor[k], m[k]) for k, rb in enumerate(bidders)
    }
    ones = np.ones(n)

    def batch_valuation(bidder: int, masks: np.ndarray) -> np.ndarray:
        s_c, w, direct, floor, m = per_bidder[bidder]
        masks = np.asarray(masks, dtype=float)
        cell = np.log2(1.0 + s_c / (sigma + masks @ w))
        # member rates log2(1 + direct / (floor + masks @ m)) * masks, in
        # place; every denominator is at least sigma > 0
        rates = masks @ m
        rates += floor
        np.divide(direct, rates, out=rates)
        rates += 1.0
        np.log2(rates, out=rates)
        rates *= masks
        return cell + rates.sum(axis=1) - c0 * (masks @ ones)

    if config.epsilon is None:
        # batch_valuation of the empty package and of each item alone, in
        # closed form: with one-hot rows every product, row sum and
        # masks @ ones in it is exact, so these are its values bit for bit
        empty_v = np.log2(1.0 + s_c / sigma)
        alone_v = np.log2(1.0 + s_c[:, None] / (sigma + w)) + np.log2(1.0 + direct / floor) - c0
        single = np.maximum(alone_v - empty_v[:, None], 0.0).reshape(-1)
        mean_standalone = float(np.mean(single)) if n else 0.0
        config = replace(config, epsilon=max(0.01 * mean_standalone, 1e-6))

    return AuctionInstance(items, bidders, batch_valuation, config)
