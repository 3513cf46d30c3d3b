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
which values a batch of 0/1 package masks in blocks of equal size, one block
per bidder. Three caches keep big instances cheap without altering the
outcome:

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
  that repeat their prefixes over many clock rounds value each new package's
  candidates once instead of once per step. The stale bidders' walks run in
  passes: each walk goes on until it ends or reaches a package missing from
  its memo, and the misses of a pass are valued in one call per package
  size, one block of rows per miss. In round 1 every walk starts from an
  empty memo and all stand at one package size at every step, so the round
  takes at most ``n`` calls instead of one per step of every walk. Each
  block takes its candidate rows out of a read-only zero row stacked on the
  identity into a new array, so a valuation that writes to its input never
  sees a shared array. ``valuation_calls`` still counts every candidate row
  a cache-free engine would evaluate.
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
sums of 0/1 entries are exact in any summation order. A one-bidder call,
as most greedy misses are, takes its rows as they come. A call for several
bidders views its rows as a ``(K, B, n)`` stack and takes each product in one
stacked ``@``, for which numpy calls, block by block, the same dgemv (``@ w``)
and dgemm (``@ m``) as a one-bidder call on that block's rows. Each row stays
in the same group of 4 dgemv rows, so every value keeps its bits whatever
else the call holds.
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

    def __post_init__(self):
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


@dataclass
class AuctionInstance:
    items: tuple[int, ...]
    bidders: tuple[int, ...]
    # the one valuation path: (bidders, masks) -> values. For K bidders,
    # masks is a (K * B, n_items) array of 0/1 rows, and block k (rows k * B
    # to (k + 1) * B - 1) is valued for bidders[k]; the result is (K * B,)
    batch_valuation: Callable[[tuple[int, ...], np.ndarray], np.ndarray]
    config: AuctionConfig  # epsilon resolved: auto is for auction_instance_from_radio

    def __post_init__(self):
        if self.config.epsilon is None:
            raise ValueError("epsilon must be resolved for an instance, got auto")
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
def _tie_order(items: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All package masks, their tie order and the masks in that order, padded.

    Column ``i`` of the masks is ``items[i]`` and row ``r`` is the package
    whose bitmask is ``r``: its entry ``i`` is ``(r >> i) & 1``. The padded
    block is the price-sum block of an unpruned engine.
    """
    n = len(items)
    masks = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)

    def tie_key(r: int):
        return r.bit_count(), sorted(items[i] for i in range(n) if (r >> i) & 1)

    order = np.array(sorted(range(2**n), key=tie_key), dtype=np.intp)
    block = _padded_rows(masks, order)
    for shared in (masks, order, block):  # shared by every auction over these items
        shared.setflags(write=False)
    return masks, order, block


def _padded_rows(masks: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """``masks[cand]`` followed by zero rows up to a multiple of 4 rows.

    A zero row's price sum is never read; the padding only keeps every
    candidate row in a full group of 4 of the dgemv (module docstring).
    """
    block = np.zeros((-(-len(cand) // 4) * 4, masks.shape[1]))
    block[: len(cand)] = masks[cand]
    return block


def _valued(instance: AuctionInstance, bidders: tuple[int, ...], masks: np.ndarray) -> np.ndarray:
    """``instance.batch_valuation(bidders, masks)`` as float64, checked for one value per row.

    A short or long result would pair values with the wrong packages, so it
    raises naming the bidders and the expected length.
    """
    values = np.asarray(instance.batch_valuation(bidders, masks), dtype=float)
    if values.shape != (len(masks),):
        raise ValueError(
            f"bidders {list(bidders)}: valuation returned shape {values.shape}, "
            f"expected ({len(masks)},), one value per mask row"
        )
    return values


def _check_finite(bidders: tuple[int, ...], values: np.ndarray) -> None:
    """Raise naming the first bidder whose block of ``values`` is not all finite.

    Exact demand has no answer for a NaN (``argmax`` would pick it), and the
    greedy walk's ``>`` scan would skip it.
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
            self._masks, self._cand, self._block = _tie_order(instance.items)
            # one call per bidder: one stacked call for every table cost more
            # than it saved from 10 items on
            tables = [_valued(instance, (bidder,), self._masks) for bidder in bidders]
            tables = np.array(tables, dtype=float).reshape(len(bidders), 2**self.n)
            _check_finite(bidders, tables)
            config = instance.config
            self._margin = _prune_margin(tables, self.n, config.epsilon, config.p0)
            self._tables = tables[:, self._cand]
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
        return self._demand_greedy(rows, prices.tolist())

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

    def _value_steps(self, group: list[tuple[int, int]]) -> None:
        """Value and store one greedy step per ``(position, mask)`` of ``group``, in one call.

        Every mask of ``group`` holds the same number of items, so every block
        of the call has the same number of rows: the empty package's row
        first when the masks are 0, then one row per item outside the mask,
        in index order, with the mask's items and that item set to 1.0. Block
        ``b`` is valued for the bidder at position ``group[b][0]``, and its
        rows are those a call for that bidder alone would pass. The memo of
        that position keeps the empty package's value when the mask is 0
        (else None) and one ``(item index, value of mask plus that item)``
        pair per item outside the mask, as Python scalars. The values depend
        on (bidder, mask) only, never on prices. The rows are a new array, so
        the valuation may write to it.
        """
        n = self.n
        lead = 0 if group[0][1] else 1  # rows before the first item's: the empty package
        bidders, outs, take, held = [], [], [], []
        for b, (k, mask) in enumerate(group):
            bidders.append(self.bidders[k])
            out = []
            if lead:
                take.append(0)
            for i in range(n):
                if (mask >> i) & 1:
                    held.append(b * n + i)  # flat index into (block, item)
                else:
                    out.append(i)
                    take.append(i + 1)
            outs.append(out)
        rows = self._eye.take(take, axis=0)  # a new array
        if held:
            # every block's items in one add: an assignment per block costs
            # more once a call holds many blocks
            inside = np.zeros((len(group), 1, n))
            inside.put(held, 1.0)
            blocks = rows.reshape(len(group), -1, n)  # a view of rows
            blocks += inside  # 0/1 entries on disjoint columns: exact
        bidders = tuple(bidders)
        values = _valued(self.inst, bidders, rows)
        flat = values.tolist()
        if not all(map(math.isfinite, flat)):
            _check_finite(bidders, values)
        width = len(flat) // len(group)
        for b, ((k, mask), out) in enumerate(zip(group, outs)):
            block = flat[b * width : (b + 1) * width]
            self._steps[k][mask] = (block[0] if lead else None, list(zip(out, block[lead:])))

    def _demand_greedy(self, rows: list[int], prices: list[float]) -> list[int]:
        """Greedy demand of the bidders at positions ``rows``, as bitmasks over item positions.

        A walk adds the item of largest marginal surplus until none is
        positive; ties go to the smallest item index. A package's value is
        carried from the step that added its last item, the empty package's
        from its step. Each marginal is ``value_with_item - value - price``,
        subtracted left to right. The walks run in passes: a pass takes each
        walk on until it ends or reaches a mask missing from its bidder's
        memo, then values the misses of the pass in one call per package size
        (:meth:`_value_steps`), and the suspended walks resume in the next
        pass. Walks share no state, so their order changes no package.
        """
        memos = self._steps
        full = (1 << self.n) - 1
        packages = [0] * len(rows)
        walks = [(slot, k, 0, None) for slot, k in enumerate(rows)]  # (slot, position, mask, value)
        while True:
            suspended = []
            for slot, k, mask, value in walks:
                steps = memos[k]
                while mask != full:
                    step = steps.get(mask)
                    if step is None:
                        suspended.append((slot, k, mask, value))
                        break
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
                packages[slot] = mask  # a suspended walk's entry is overwritten when it ends
            if not suspended:
                return packages
            misses: dict[int, list[tuple[int, int]]] = {}  # package size -> (position, mask)
            for _, k, mask, _ in suspended:
                misses.setdefault(mask.bit_count(), []).append((k, mask))
            for group in misses.values():
                self._value_steps(group)
            walks = suspended


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
        raise ValueError(f"auction hit max_rounds={state.rounds} without terminating")
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
    c0 = config.c0
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
    # a one-bidder call values its rows as they come, with that bidder's
    # parameters, since the stacked form costs such a call more and most
    # greedy misses are valued alone. A call for K bidders values a (K, B, n)
    # stack of blocks, with the bidders' parameters gathered from stacks of
    # the same rank: a (1, 1) signal, an (n, 1) column of w and (1, n) rows of
    # direct and floor
    one_bidder = {
        (rb,): (float(s_c[k]), w[k], direct[k], floor[k], m[k]) for k, rb in enumerate(bidders)
    }
    stacked = (s_c[:, None, None], w[:, :, None], direct[:, None, :], floor[:, None, :], m)
    position = {rb: k for k, rb in enumerate(bidders)}
    ones = np.ones(n)

    def batch_valuation(bidders: tuple[int, ...], masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=float)
        blocks, params = masks, one_bidder.get(bidders)
        if params is None:
            at = np.array([position[rb] for rb in bidders])
            params = [param.take(at, axis=0) for param in stacked]
            blocks = masks.reshape(len(bidders), len(masks) // len(bidders), n)
        s_c, w, direct, floor, m = params
        # one @ per product: numpy calls, block by block, the dgemv (masks @
        # w) and dgemm (masks @ m) of a one-bidder call, so every row keeps
        # its bits (module docstring)
        cell = np.log2(1.0 + s_c / (sigma + blocks @ w))
        # member rates log2(1 + direct / (floor + masks @ m)) * masks, in
        # place; every denominator is at least sigma > 0
        rates = blocks @ m
        rates += floor
        np.divide(direct, rates, out=rates)
        rates += 1.0
        np.log2(rates, out=rates)
        rates *= blocks
        if blocks is masks:
            return cell + rates.sum(axis=1) - c0 * (masks @ ones)
        return (cell[..., 0] + rates.sum(axis=-1)).reshape(-1) - c0 * (masks @ ones)

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
