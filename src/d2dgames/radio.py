"""Single-cell radio model: geometry, channel gains, SINR and spectral efficiency.

Nodes are identified by small tuples: ``("enb", 0)`` for the base station,
``("cue", i)`` for cellular users, ``("dtx", j)`` / ``("drx", j)`` for the two
ends of a D2D pair, and ``("ue", i)`` for standalone device nodes used by the
group-communication scenario. Channel gains are linear power gains
(path loss times small-scale fading); rates are spectral efficiencies in
bits/s/Hz so that bandwidth never enters any reported number. A
:class:`GainTensor` keeps a draw as it comes, one gain per modeled link and
RB in link order, and a table from (transmitter, receiver) to link.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

UPLINK = "uplink"
DOWNLINK = "downlink"

Node = tuple[str, int]
Point = tuple[float, float]


def dbm_to_watt(p_dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    if not math.isfinite(p_dbm):
        raise ValueError(f"power must be finite, got {p_dbm!r}")
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def is_positive_finite_db(db: float) -> bool:
    """Whether the linear ratio ``10 ** (db / 10)`` is a positive, finite float."""
    try:
        return 0.0 < 10.0 ** (db / 10.0) < math.inf
    except OverflowError:
        return False


@dataclass(frozen=True)
class RadioParams:
    """Static physical-layer parameters of the isolated, single-sector cell."""

    cell_radius_m: float = 500.0
    max_d2d_distance_m: float = 20.0
    p_cue_dbm: float = 23.0
    p_d2d_dbm: float = 23.0
    p_enb_dbm: float = 30.0
    noise_dbm: float = -104.0
    noise_figure_db: float = 7.0
    carrier_ghz: float = 2.0
    link_direction: str = DOWNLINK

    def __post_init__(self):
        if not (math.isfinite(self.cell_radius_m) and self.cell_radius_m > 0):
            raise ValueError(
                "cell_radius_m must be finite and > 0 (invariant: cell_radius > 0), "
                f"got {self.cell_radius_m}"
            )
        if not 0 < self.max_d2d_distance_m < self.cell_radius_m:
            raise ValueError(
                "max_d2d_distance_m must satisfy 0 < max_d2d_distance < cell_radius, "
                f"got {self.max_d2d_distance_m}"
            )
        for name in ("p_cue_dbm", "p_d2d_dbm", "p_enb_dbm", "noise_dbm", "noise_figure_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("p_cue_dbm", "p_d2d_dbm", "p_enb_dbm"):
            if not is_positive_finite_db(getattr(self, name) - 30.0):
                raise ValueError(
                    f"{name} must give a positive, finite power in watts, "
                    f"got {getattr(self, name)}"
                )
        if not is_positive_finite_db(self.noise_dbm + self.noise_figure_db - 30.0):
            raise ValueError(
                "noise_dbm + noise_figure_db must give a positive, finite noise power "
                f"in watts, got {self.noise_dbm} + {self.noise_figure_db}"
            )
        if not (math.isfinite(self.carrier_ghz) and self.carrier_ghz > 0):
            raise ValueError(f"carrier_ghz must be finite and > 0, got {self.carrier_ghz}")
        # path loss grows with distance, so the nearest and the farthest
        # in-cell distance bound every path gain
        for d_m in (10.0, 2.0 * self.cell_radius_m):
            for los in (True, False):
                if not is_positive_finite_db(-pathloss_db(d_m, self.carrier_ghz, los)):
                    raise ValueError(
                        "cell_radius_m and carrier_ghz must give a positive, finite path "
                        "gain from 10 m to 2 * cell_radius_m, got "
                        f"cell_radius_m = {self.cell_radius_m}, carrier_ghz = {self.carrier_ghz}"
                    )
        if self.link_direction not in (UPLINK, DOWNLINK):
            raise ValueError(
                f"link_direction must be '{UPLINK}' or '{DOWNLINK}', got {self.link_direction!r}"
            )

    @property
    def p_cue_w(self) -> float:
        return dbm_to_watt(self.p_cue_dbm)

    @property
    def p_d2d_w(self) -> float:
        return dbm_to_watt(self.p_d2d_dbm)

    @property
    def p_enb_w(self) -> float:
        return dbm_to_watt(self.p_enb_dbm)


def effective_noise_w(params: RadioParams) -> float:
    """Thermal noise plus receiver noise figure, in watts."""
    return dbm_to_watt(params.noise_dbm + params.noise_figure_db)


def pathloss_db(d_m: float, fc_ghz: float, los: bool) -> float:
    """Urban-micro log-distance path loss in dB.

    LOS:  22 log10(d) + 28 + 20 log10(fc); NLOS: 36.7 log10(d) + 22.7 + 26 log10(fc).
    Distances below 10 m are clamped to 10 m so the model stays finite at short range.
    Raises ``ValueError`` for a distance that is not > 0 (NaN included) and for a
    carrier that is not finite and > 0.
    """
    if not d_m > 0:
        raise ValueError(f"distance must be > 0 m, got {d_m}")
    if not 0 < fc_ghz < math.inf:
        raise ValueError(f"carrier frequency must be finite and > 0 GHz, got {fc_ghz}")
    d = max(d_m, 10.0)
    if los:
        return 22.0 * math.log10(d) + 28.0 + 20.0 * math.log10(fc_ghz)
    return 36.7 * math.log10(d) + 22.7 + 26.0 * math.log10(fc_ghz)


@dataclass(frozen=True)
class Topology:
    """Node layout of one cell: eNB, cellular users, and D2D pairs.

    There is one resource block per cellular user, so ``rb_count == len(cue)``.
    """

    enb_pos: Point
    cue: tuple[Point, ...]
    d2d_pairs: tuple[tuple[Point, Point], ...]

    @property
    def rb_count(self) -> int:
        return len(self.cue)

    @property
    def n_pairs(self) -> int:
        return len(self.d2d_pairs)


# Node order inside a GainTensor: the eNB, then cellular users, then devices.
_KIND_RANK = {"enb": 0, "cue": 1, "dtx": 2, "drx": 2, "ue": 2}


def _node_axis(nodes: Iterable[Node]) -> tuple[tuple[Node, ...], dict[Node, int]]:
    """Distinct nodes in tensor order, and each node's index along that axis."""
    axis = tuple(sorted(set(nodes), key=lambda node: (_KIND_RANK[node[0]], node)))
    return axis, {node: i for i, node in enumerate(axis)}


def _check_gains(values: np.ndarray) -> None:
    """Raise ``ValueError`` unless every value is positive and finite; the
    message names the first bad value in C order."""
    bad = ~((values > 0.0) & np.isfinite(values))
    if bad.any():
        raise ValueError(
            f"gains must be positive and finite, got {float(values[bad][0])} "
            f"({int(bad.sum())} bad entries)"
        )


@dataclass(frozen=True, eq=False)
class _LinkPlan:
    """The modeled links of a tensor, over ``rb_count`` RBs.

    Link ``l`` runs from ``tx_nodes[tx[l]]`` to ``rx_nodes[rx[l]]``, and the
    link order fixes the order of the fading draw. ``ends[l]`` holds the
    indices of the link's two end points in the point list that
    :func:`link_pathloss` reads, and whether the link is line-of-sight; it
    is empty for a tensor built by link. A plan is shared by every tensor
    over it and compares by identity, so :func:`co_channel` keys on it.
    """

    tx_nodes: tuple[Node, ...]
    rx_nodes: tuple[Node, ...]
    tx: np.ndarray
    rx: np.ndarray
    ends: tuple[tuple[int, int, bool], ...]
    rb_count: int

    @functools.cached_property
    def position(self) -> list[list[int]]:
        """``position[i][j]``: the link from ``tx_nodes[i]`` to ``rx_nodes[j]``,
        or -1 when the model does not have it; shared, so read-only."""
        position = np.full((len(self.tx_nodes), len(self.rx_nodes)), -1, dtype=np.intp)
        position[self.tx, self.rx] = np.arange(len(self.tx))
        return position.tolist()

    @functools.cached_property
    def tx_index(self) -> dict[Node, int]:
        return {node: i for i, node in enumerate(self.tx_nodes)}

    @functools.cached_property
    def rx_index(self) -> dict[Node, int]:
        return {node: i for i, node in enumerate(self.rx_nodes)}


@dataclass
class GainTensor:
    """Per-RB linear power gains for every modeled transmitter→receiver link.

    ``values[l, rb]`` is the gain of ``plan``'s link ``l`` on ``rb``, in the
    plan's link order, which is the order of the draw. Every gain must be
    positive and finite; a link the plan does not have is not modeled, and
    :meth:`get` raises ``KeyError`` for it. The engines read a tensor two
    ways: :meth:`get` reads one raw gain and :func:`co_channel` reads blocks
    of received power.
    """

    plan: _LinkPlan
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.plan.tx), self.plan.rb_count):
            raise ValueError(
                f"gain array of shape {self.values.shape} does not match "
                f"{len(self.plan.tx)} links x {self.plan.rb_count} RBs"
            )
        _check_gains(self.values)

    @property
    def rb_count(self) -> int:
        return self.plan.rb_count

    def get(self, tx: Node, rx: Node, rb: int) -> float:
        plan = self.plan
        try:
            link = plan.position[plan.tx_index[tx]][plan.rx_index[rx]]
            if link < 0 or rb < 0:  # not modeled, or an RB counted from the end
                raise IndexError(rb)
            return self.values.item(link, rb)
        except (KeyError, IndexError):
            raise KeyError((tx, rx, rb)) from None

    def entries(self) -> Iterator[tuple[tuple[Node, Node, int], float]]:
        """``((tx, rx, rb), gain)`` for every modeled link, in (tx, rx, rb) index order."""
        plan = self.plan
        for tx, row in zip(plan.tx_nodes, plan.position):
            for rx, link in zip(plan.rx_nodes, row):
                if link >= 0:
                    for rb in range(plan.rb_count):
                        yield (tx, rx, rb), self.values.item(link, rb)

    @classmethod
    def from_entries(
        cls, entries: Mapping[tuple[Node, Node, int], float], rb_count: int
    ) -> "GainTensor":
        """A tensor from ``{(tx, rx, rb): gain}``; each link needs a gain on every RB."""
        if any(not 0 <= rb < rb_count for _, _, rb in entries):
            raise ValueError(f"entry RB outside 0..{rb_count - 1}")
        tx_nodes, tx_index = _node_axis(tx for tx, _, _ in entries)
        rx_nodes, rx_index = _node_axis(rx for _, rx, _ in entries)
        links = sorted({(tx_index[tx], rx_index[rx]) for tx, rx, _ in entries})
        if len(entries) != len(links) * rb_count:
            raise ValueError(f"every link needs a gain on each RB 0..{rb_count - 1}")
        link_of = {pair: l for l, pair in enumerate(links)}
        values = np.empty((len(links), rb_count))
        for (tx, rx, rb), value in entries.items():
            values[link_of[tx_index[tx], rx_index[rx]], rb] = value
        tx = np.array([i for i, _ in links], dtype=np.intp)
        rx = np.array([j for _, j in links], dtype=np.intp)
        return cls(_LinkPlan(tx_nodes, rx_nodes, tx, rx, (), rb_count), values)


@functools.lru_cache(maxsize=64)
def _link_plan(m: int, n: int, paired: bool) -> _LinkPlan:
    """The link plan of a cell with ``m`` cellular users (one RB each) and ``n`` devices.

    Points are numbered as :func:`link_pathloss` lists them: 0 is the eNB and
    ``1 + i`` cellular user ``i``. With ``paired``, device ``j`` is a D2D
    pair, ``("dtx", j)`` at point ``1 + m + 2j`` sending to ``("drx", j)`` at
    ``2 + m + 2j``; otherwise it is a standalone UE ``("ue", j)`` at point
    ``1 + m + j`` that both sends and receives. The links are eNB<->CUE, then
    per device tx->eNB, eNB->rx, tx->each CUE, each CUE->rx, and tx->every
    device receiver but itself. Device-to-device links (cross links between
    pairs included) are line-of-sight; everything touching the eNB, and the
    links between cellular users and devices, are not.
    """
    enb = ("enb", 0)
    cue = [(("cue", i), 1 + i) for i in range(m)]
    if paired:
        devices = [((("dtx", j), 1 + m + 2 * j), (("drx", j), 2 + m + 2 * j)) for j in range(n)]
    else:
        devices = [((("ue", j), 1 + m + j),) * 2 for j in range(n)]
    links = []  # (tx node, tx point, rx node, rx point, line-of-sight)
    for node, c in cue:
        links += [(enb, 0, node, c, False), (node, c, enb, 0, False)]
    for (tx, t), (rx, r) in devices:
        links += [(tx, t, enb, 0, False), (enb, 0, rx, r, False)]
        for node, c in cue:
            links += [(tx, t, node, c, False), (node, c, rx, r, False)]
        links.extend((tx, t, node, p, True) for _, (node, p) in devices if node != tx)
    tx_nodes, tx_index = _node_axis(link[0] for link in links)
    rx_nodes, rx_index = _node_axis(link[2] for link in links)
    tx = np.array([tx_index[link[0]] for link in links], dtype=np.intp)
    rx = np.array([rx_index[link[2]] for link in links], dtype=np.intp)
    tx.setflags(write=False)  # shared by every geometry of this shape
    rx.setflags(write=False)
    ends = tuple((t, r, los) for _, t, _, r, los in links)
    return _LinkPlan(tx_nodes, rx_nodes, tx, rx, ends, m)


@dataclass(frozen=True)
class LinkPathLoss:
    """Per-geometry half of a gain draw: a cell's link plan and each link's linear path loss.

    :meth:`draw` adds one fading realization, so a fixed geometry can be
    redrawn without recomputing path loss.
    """

    plan: _LinkPlan
    pathloss: np.ndarray

    def draw(self, rng_seed: int) -> GainTensor:
        """Path loss times per-(link, RB) unit-mean exponential fading power.

        One ``(links, RBs)`` draw consumes the generator stream exactly as one
        draw of ``RBs`` values per link in link order would, so identical
        inputs give a bit-identical tensor. ``standard_exponential`` gives
        the values of ``exponential(1.0)``, whose scale multiplies by 1.0.
        The product, in link order, is the tensor's ``values`` as it is.
        """
        rng = np.random.default_rng(rng_seed)
        fading = rng.standard_exponential(size=(len(self.pathloss), self.plan.rb_count))
        fading *= self.pathloss[:, None]
        return GainTensor(self.plan, fading)


def link_pathloss(
    params: RadioParams,
    enb_pos: Point,
    cue: Sequence[Point],
    devices: Sequence[Point],
    paired: bool,
) -> LinkPathLoss:
    """Linear path loss of every modeled link of a cell, in link order.

    ``devices`` lists each D2D pair's transmitter and then receiver position
    when ``paired``, else each standalone UE's position (see
    :func:`_link_plan`). Per geometry this is one scalar loop that evaluates
    :func:`pathloss_db`'s expressions, operation for operation, with the
    carrier terms computed once. It stays scalar because numpy's ``hypot``,
    ``log10`` and ``power`` differ from ``math``'s in the last bit on some
    inputs. Raises ``ValueError`` for a link distance that is not a number.
    """
    fc_ghz = params.carrier_ghz
    plan = _link_plan(len(cue), len(devices) // 2 if paired else len(devices), paired)
    points = [enb_pos, *cue, *devices]
    log10, hypot = math.log10, math.hypot
    los_fc, nlos_fc = 20.0 * log10(fc_ghz), 26.0 * log10(fc_ghz)
    pathloss = []
    for a, b, los in plan.ends:
        (ax, ay), (bx, by) = points[a], points[b]
        d = hypot(ax - bx, ay - by)
        if d < 10.0:  # pathloss_db's clamp
            d = 10.0
        if los:
            db = 22.0 * log10(d) + 28.0 + los_fc
        else:
            db = 36.7 * log10(d) + 22.7 + nlos_fc
        pathloss.append(10.0 ** (-db / 10.0))
    pathloss = np.array(pathloss, dtype=float)
    if np.isnan(pathloss).any():
        raise ValueError("distance must be > 0 m, got nan")
    return LinkPathLoss(plan, pathloss)


@dataclass
class Allocation:
    """Spectrum assignment and transmit powers produced by an allocator.

    ``rb_of_d2d`` maps a D2D pair index to the RB it occupies; pairs absent
    from the map are silent. Pairs listed in ``relay_d2d`` do not transmit
    directly: their traffic is carried as a two-hop cellular relay
    (source→eNB→destination) on their assigned RB, scheduled orthogonally, so
    they inject no interference. Every transmitter sends at its class
    default power in :class:`RadioParams`.
    """

    rb_of_d2d: dict[int, int] = field(default_factory=dict)
    relay_d2d: frozenset[int] = frozenset()


class _DiscPoints:
    """Uniform points in discs, read from blocks of one generator's uniforms.

    A point takes the next two uniforms ``u, v`` and sits at radius
    ``radius * sqrt(u)`` and angle ``0.0 + 2π v`` from its centre: the
    doubles that ``rng.uniform()`` and ``rng.uniform(0.0, 2π)`` would give
    from the same stream. A block holds ``points`` points; when it runs out
    the next is read from the same generator, so the points do not depend
    on the block size.
    """

    def __init__(self, rng: np.random.Generator, points: int):
        self._rng = rng
        self._size = 2 * max(points, 1)
        self._u = rng.random(self._size).tolist()
        self._next = 0

    def draw(self, center: Point, radius: float) -> Point:
        i = self._next
        if i == self._size:
            self._u = self._rng.random(self._size).tolist()
            i = 0
        self._next = i + 2
        r = radius * math.sqrt(self._u[i])
        theta = 0.0 + 2.0 * math.pi * self._u[i + 1]
        return (center[0] + r * math.cos(theta), center[1] + r * math.sin(theta))


def generate_topology(params: RadioParams, m: int, n: int, rng_seed: int) -> Topology:
    """Draw a seeded random cell layout with m cellular users and n D2D pairs.

    Cellular users and D2D transmitters are uniform in the cell disc; each D2D
    receiver is uniform in a disc of radius ``max_d2d_distance_m`` around its
    transmitter, redrawn until it falls inside the cell.
    """
    if m < 1:
        raise ValueError(f"need at least one cellular user, got m={m}")
    if n < 0:
        raise ValueError(f"pair count must be >= 0, got n={n}")
    disc = _DiscPoints(np.random.default_rng(rng_seed), m + 2 * n)
    enb, radius = (0.0, 0.0), params.cell_radius_m
    cue = tuple(disc.draw(enb, radius) for _ in range(m))
    pairs = []
    for _ in range(n):
        tx = disc.draw(enb, radius)
        while True:
            rx = disc.draw(tx, params.max_d2d_distance_m)
            if math.hypot(rx[0], rx[1]) <= radius:
                break
        pairs.append((tx, rx))
    return Topology(enb_pos=enb, cue=cue, d2d_pairs=tuple(pairs))


def draw_gains(topology: Topology, params: RadioParams, rng_seed: int) -> GainTensor:
    """Draw the full gain tensor for one fading realization of a topology."""
    ends = [point for pair in topology.d2d_pairs for point in pair]
    return link_pathloss(params, topology.enb_pos, topology.cue, ends, paired=True).draw(rng_seed)


def cellular_tx_node(params: RadioParams, rb: int) -> Node:
    return ("enb", 0) if params.link_direction == DOWNLINK else ("cue", rb)


def cellular_rx_node(params: RadioParams, rb: int) -> Node:
    return ("cue", rb) if params.link_direction == DOWNLINK else ("enb", 0)


def default_power_w(params: RadioParams, node: Node) -> float:
    kind = node[0]
    if kind == "enb":
        return params.p_enb_w
    if kind == "cue":
        return params.p_cue_w
    if kind in ("dtx", "ue"):
        return params.p_d2d_w
    raise ValueError(f"node {node!r} is not a transmitter")


@functools.lru_cache(maxsize=32)
def _co_channel_plan(
    params: RadioParams, plan: _LinkPlan, tx: tuple[Node, ...], rx: tuple[Node, ...], rb_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in a tensor's ``values`` of every entry :func:`co_channel`
    reads, and the transmit power that scales each, both in block shape.

    A node's entry at itself reads its RB's cellular link at power 0.0, which
    gives exactly 0.0. Raises ``KeyError`` for a node the plan lacks and for
    any other entry whose link the plan does not have.
    """
    tx_index, rx_index = plan.tx_index, plan.rx_index
    txs = [(cellular_tx_node(params, rb), *tx) for rb in range(rb_count)]
    rxs = [(cellular_rx_node(params, rb), *rx) for rb in range(rb_count)]
    t = np.array([[tx_index[node] for node in row] for row in txs], dtype=np.intp)
    r = np.array([[rx_index[node] for node in row] for row in rxs], dtype=np.intp)
    own = np.array([[[a == b for b in rx_r] for a in tx_r] for tx_r, rx_r in zip(txs, rxs)])
    link = np.array(plan.position, dtype=np.intp)[t[:, :, None], r[:, None, :]]
    link = np.where(own, link[:, :1, :1], link)
    if (link < 0).any():
        rb, a, b = (int(i[0]) for i in np.nonzero(link < 0))
        raise KeyError((txs[rb][a], rxs[rb][b], rb))
    index = link * plan.rb_count + np.arange(rb_count)[:, None, None]
    p_tx = np.array([[default_power_w(params, node) for node in row] for row in txs])
    power = np.where(own, 0.0, p_tx[:, :, None])
    index.setflags(write=False)  # shared by every draw over this plan
    power.setflags(write=False)
    return index, power


def co_channel(
    gains: GainTensor, params: RadioParams, tx: Sequence[Node], rx: Sequence[Node], rb_count: int
) -> np.ndarray:
    """Received powers among each RB's cellular link and the devices ``tx`` and ``rx``.

    Returns ``block`` of shape ``(rb_count, 1 + len(tx), 1 + len(rx))``:
    ``block[rb, a, b]`` is the power transmitter ``a`` delivers at receiver
    ``b`` on ``rb``, where index 0 on each axis is that RB's cellular
    transmitter or receiver and ``1 + i`` is ``tx[i]`` or ``rx[i]``. Every
    transmitter sends at its class power, and a node's power at itself is
    0.0. Reading a link the model does not have raises ``KeyError``; a tensor
    with fewer than ``rb_count`` RBs raises ``ValueError``.

    This is the reader for the engines whose games are defined on received
    powers; the others read raw gains through :meth:`GainTensor.get`, so
    ``radio`` is the only module that knows the link layout. Its index plan
    is built, and its links checked, once per parameter set, link plan and
    device list, so a redraw of the same geometry costs one gather and one
    product.
    """
    if gains.rb_count < rb_count:
        raise ValueError(
            f"{rb_count} RBs are read, but the gain tensor holds only {gains.rb_count}"
        )
    index, power = _co_channel_plan(params, gains.plan, tuple(tx), tuple(rx), rb_count)
    return power * gains.values.take(index)


def _direct_by_rb(allocation: Allocation) -> dict[int, list[int]]:
    """The directly transmitting pairs of each occupied RB, in ascending order."""
    by_rb: dict[int, list[int]] = {}
    relay = allocation.relay_d2d
    for j, rb in sorted(allocation.rb_of_d2d.items()):
        if j not in relay:
            by_rb.setdefault(rb, []).append(j)
    return by_rb


def sinr(
    allocation: Allocation,
    gains: GainTensor,
    params: RadioParams,
    receiver: Node,
    rb: int,
) -> float:
    """SINR at ``receiver`` on resource block ``rb`` under the given allocation.

    Interference aggregates the co-channel cellular transmitter (cross tier)
    and every co-channel directly-transmitting D2D pair (co tier). Raises if
    the receiver is not active on that RB.
    """
    direct = _direct_by_rb(allocation).get(rb, [])
    if receiver[0] == "drx":
        j = receiver[1]
        if j not in direct:
            raise ValueError(f"D2D receiver {j} is not directly active on RB {rb}")
        tx = ("dtx", j)
        interferers = [("dtx", k) for k in direct if k != j]
        interferers.append(cellular_tx_node(params, rb))
    elif receiver == cellular_rx_node(params, rb):
        tx = cellular_tx_node(params, rb)
        interferers = [("dtx", k) for k in direct]
    else:
        raise ValueError(f"receiver {receiver!r} is not active on RB {rb}")
    signal = default_power_w(params, tx) * gains.get(tx, receiver, rb)
    denom = effective_noise_w(params)
    for node in interferers:
        denom += default_power_w(params, node) * gains.get(node, receiver, rb)
    return signal / denom


def rate(gamma: float) -> float:
    """Shannon spectral efficiency log2(1 + SINR) in bits/s/Hz.

    Raises ``ValueError`` for an SINR that is not >= 0, NaN included.
    """
    if not gamma >= 0:
        raise ValueError(f"SINR must be >= 0, got {gamma}")
    return math.log2(1.0 + gamma)


def sum_rate(allocation: Allocation, gains: GainTensor, params: RadioParams) -> float:
    """Total spectral efficiency over all cellular links and D2D flows.

    The terms are added in a fixed order: each RB's cellular link, each
    directly transmitting pair in ascending order, then each relayed pair.
    A denominator is the noise plus the co-channel pairs in ascending order,
    and for a D2D receiver then the cellular transmitter: :func:`sinr`'s
    order, so each term is ``rate(sinr(...))`` bit for bit. A relayed pair is
    carried over two orthogonal hops through the eNB; the bottleneck is
    halved because the relay occupies two scheduling slots.
    """
    sigma = effective_noise_w(params)
    p_d2d, p_enb = params.p_d2d_w, params.p_enb_w
    p_cell = p_enb if params.link_direction == DOWNLINK else params.p_cue_w
    enb = ("enb", 0)
    get = gains.get
    by_rb = _direct_by_rb(allocation)
    total = 0.0
    for rb in range(gains.rb_count):
        cell_tx, cell_rx = cellular_tx_node(params, rb), cellular_rx_node(params, rb)
        denom = sigma
        for k in by_rb.get(rb, ()):
            denom += p_d2d * get(("dtx", k), cell_rx, rb)
        total += rate(p_cell * get(cell_tx, cell_rx, rb) / denom)
    for j, rb in sorted(allocation.rb_of_d2d.items()):
        if j in allocation.relay_d2d:
            continue
        rx = ("drx", j)
        denom = sigma
        for k in by_rb[rb]:
            if k != j:
                denom += p_d2d * get(("dtx", k), rx, rb)
        denom += p_cell * get(cellular_tx_node(params, rb), rx, rb)
        total += rate(p_d2d * get(("dtx", j), rx, rb) / denom)
    for j in sorted(allocation.relay_d2d):
        rb = allocation.rb_of_d2d[j]
        up = rate(p_d2d * get(("dtx", j), enb, rb) / sigma)
        down = rate(p_enb * get(enb, ("drx", j), rb) / sigma)
        total += 0.5 * min(up, down)
    return total
