"""Single-cell radio model: geometry, channel gains, SINR and spectral efficiency.

Nodes are identified by small tuples: ``("enb", 0)`` for the base station,
``("cue", i)`` for cellular users, ``("dtx", j)`` / ``("drx", j)`` for the two
ends of a D2D pair, and ``("ue", i)`` for standalone device nodes used by the
group-communication scenario. Channel gains are linear power gains
(path loss times small-scale fading); rates are spectral efficiencies in
bits/s/Hz so that bandwidth never enters any reported number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

UPLINK = "uplink"
DOWNLINK = "downlink"

# Device-to-device links (including cross links between different pairs) are
# modeled line-of-sight; everything touching the eNB, and the interference
# links between cellular users and devices, are non-line-of-sight.
_DEVICE_KINDS = frozenset({"dtx", "drx", "ue"})

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

    def validate(self) -> "RadioParams":
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
        return self

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
    """
    if d_m <= 0:
        raise ValueError(f"distance must be > 0 m, got {d_m}")
    if fc_ghz <= 0:
        raise ValueError(f"carrier frequency must be > 0 GHz, got {fc_ghz}")
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
    bad = ~((values > 0.0) & np.isfinite(values))
    if bad.any():
        raise ValueError(
            f"gains must be positive and finite, got {float(values[bad][0])} "
            f"({int(bad.sum())} bad entries)"
        )


@dataclass
class GainTensor:
    """Per-RB linear power gains for every modeled transmitter→receiver link.

    Dense layout: ``g[tx_index[tx], rx_index[rx], rb]``, where ``tx_nodes`` and
    ``rx_nodes`` list the transmitters and receivers in index order (eNB,
    cellular users, then devices). Links that are not modeled hold NaN and
    :meth:`get` raises ``KeyError`` for them; every modeled gain must be
    positive and finite.
    """

    tx_nodes: tuple[Node, ...]
    rx_nodes: tuple[Node, ...]
    g: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        if self.g.shape[:2] != (len(self.tx_nodes), len(self.rx_nodes)) or self.g.ndim != 3:
            raise ValueError(
                f"gain array of shape {self.g.shape} does not match "
                f"{len(self.tx_nodes)} transmitters x {len(self.rx_nodes)} receivers x RBs"
            )
        self.tx_index = {node: i for i, node in enumerate(self.tx_nodes)}
        self.rx_index = {node: i for i, node in enumerate(self.rx_nodes)}
        _check_gains(self.g[~np.isnan(self.g)])

    @property
    def rb_count(self) -> int:
        return self.g.shape[2]

    def get(self, tx: Node, rx: Node, rb: int) -> float:
        try:
            if rb < 0:
                raise IndexError(rb)
            value = self.g.item(self.tx_index[tx], self.rx_index[rx], rb)
        except (KeyError, IndexError):
            raise KeyError((tx, rx, rb)) from None
        if value != value:  # NaN: the link is not modeled
            raise KeyError((tx, rx, rb))
        return value

    def tx_indices(self, nodes: Sequence[Node]) -> np.ndarray:
        return np.array([self.tx_index[node] for node in nodes], dtype=np.intp)

    def rx_indices(self, nodes: Sequence[Node]) -> np.ndarray:
        return np.array([self.rx_index[node] for node in nodes], dtype=np.intp)

    def gather(self, tx, rx, rb=slice(None)) -> np.ndarray:
        """``g[tx, rx, rb]`` for index arrays (numpy broadcasting); every link must be modeled."""
        out = self.g[tx, rx, rb]
        if np.isnan(out).any():
            raise KeyError("gathered a link that is not modeled")
        return out

    def entries(self) -> Iterator[tuple[tuple[Node, Node, int], float]]:
        """``((tx, rx, rb), gain)`` for every modeled link, in index order."""
        for i, j, rb in zip(*np.nonzero(~np.isnan(self.g))):
            yield (self.tx_nodes[i], self.rx_nodes[j], int(rb)), self.g.item(i, j, rb)

    @classmethod
    def from_entries(
        cls, entries: Mapping[tuple[Node, Node, int], float], rb_count: int
    ) -> "GainTensor":
        keys = list(entries)
        # checked here too: a NaN entry would otherwise read as "not modeled"
        values = np.array([entries[k] for k in keys], dtype=float)
        _check_gains(values)
        if any(not 0 <= rb < rb_count for _, _, rb in keys):
            raise ValueError(f"entry RB outside 0..{rb_count - 1}")
        tx_nodes, tx_index = _node_axis(tx for tx, _, _ in keys)
        rx_nodes, rx_index = _node_axis(rx for _, rx, _ in keys)
        g = np.full((len(tx_nodes), len(rx_nodes), rb_count), np.nan)
        for (tx, rx, rb), value in zip(keys, values):
            g[tx_index[tx], rx_index[rx], rb] = value
        return cls(tx_nodes, rx_nodes, g)


@dataclass(frozen=True)
class LinkPathLoss:
    """Per-geometry half of a gain draw: the modeled links and their linear path loss.

    Link ``l`` runs from ``tx_nodes[tx[l]]`` to ``rx_nodes[rx[l]]``; the link
    order fixes the order of the fading draw. :meth:`draw` adds one fading
    realization, so a fixed geometry can be redrawn without recomputing path
    loss.
    """

    tx_nodes: tuple[Node, ...]
    rx_nodes: tuple[Node, ...]
    tx: np.ndarray
    rx: np.ndarray
    pathloss: np.ndarray
    rb_count: int

    def draw(self, rng_seed: int) -> GainTensor:
        """Path loss times per-(link, RB) unit-mean exponential fading power.

        One ``(links, RBs)`` draw consumes the generator stream exactly as one
        draw of ``RBs`` values per link in link order would, so identical
        inputs give a bit-identical tensor.
        """
        rng = np.random.default_rng(rng_seed)
        fading = rng.exponential(1.0, size=(len(self.pathloss), self.rb_count))
        g = np.full((len(self.tx_nodes), len(self.rx_nodes), self.rb_count), np.nan)
        g[self.tx, self.rx] = self.pathloss[:, None] * fading
        return GainTensor(self.tx_nodes, self.rx_nodes, g)


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

    def active_direct(self) -> list[int]:
        return sorted(j for j in self.rb_of_d2d if j not in self.relay_d2d)

    def direct_on_rb(self, rb: int) -> list[int]:
        return sorted(
            j for j, r in self.rb_of_d2d.items() if r == rb and j not in self.relay_d2d
        )


def _draw_disc_point(rng: np.random.Generator, center: Point, radius: float) -> Point:
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return (center[0] + r * math.cos(theta), center[1] + r * math.sin(theta))


def generate_topology(params: RadioParams, m: int, n: int, rng_seed: int) -> Topology:
    """Draw a seeded random cell layout with m cellular users and n D2D pairs.

    Cellular users and D2D transmitters are uniform in the cell disc; each D2D
    receiver is uniform in a disc of radius ``max_d2d_distance_m`` around its
    transmitter, redrawn until it falls inside the cell.
    """
    params.validate()
    if m < 1:
        raise ValueError(f"need at least one cellular user, got m={m}")
    if n < 0:
        raise ValueError(f"pair count must be >= 0, got n={n}")
    rng = np.random.default_rng(rng_seed)
    enb = (0.0, 0.0)
    cue = tuple(_draw_disc_point(rng, enb, params.cell_radius_m) for _ in range(m))
    pairs = []
    for _ in range(n):
        tx = _draw_disc_point(rng, enb, params.cell_radius_m)
        while True:
            rx = _draw_disc_point(rng, tx, params.max_d2d_distance_m)
            if math.hypot(rx[0], rx[1]) <= params.cell_radius_m:
                break
        pairs.append((tx, rx))
    return Topology(enb_pos=enb, cue=cue, d2d_pairs=tuple(pairs))


def is_los(tx: Node, rx: Node) -> bool:
    return tx[0] in _DEVICE_KINDS and rx[0] in _DEVICE_KINDS


def link_pathloss(
    links: Sequence[tuple[Node, Point, Node, Point]],
    rb_count: int,
    params: RadioParams,
) -> LinkPathLoss:
    """Linear path loss of every link, in link order.

    Kept as a scalar loop over ``math.hypot`` and :func:`pathloss_db`: their
    numpy counterparts differ in the last bit on some inputs.
    """
    tx_nodes, tx_index = _node_axis(link[0] for link in links)
    rx_nodes, rx_index = _node_axis(link[2] for link in links)
    pathloss = np.empty(len(links))
    for l, (tx, tx_pos, rx, rx_pos) in enumerate(links):
        d = max(math.hypot(tx_pos[0] - rx_pos[0], tx_pos[1] - rx_pos[1]), 1e-9)
        pathloss[l] = 10.0 ** (-pathloss_db(d, params.carrier_ghz, is_los(tx, rx)) / 10.0)
    return LinkPathLoss(
        tx_nodes=tx_nodes,
        rx_nodes=rx_nodes,
        tx=np.array([tx_index[link[0]] for link in links], dtype=np.intp),
        rx=np.array([rx_index[link[2]] for link in links], dtype=np.intp),
        pathloss=pathloss,
        rb_count=rb_count,
    )


def modeled_links(
    enb_pos: Point,
    cue: Sequence[Point],
    devices: Sequence[tuple[tuple[Node, Point], tuple[Node, Point]]],
) -> list[tuple[Node, Point, Node, Point]]:
    """Every modeled link of a cell, in the order that fixes the fading draw.

    ``devices`` holds each device's transmitting and receiving ``(node,
    position)``. The links are eNB<->CUE, then per device tx->eNB, eNB->rx,
    tx->each CUE, each CUE->rx, and tx->every device receiver but itself.
    """
    enb: Node = ("enb", 0)
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


def _topology_links(topology: Topology) -> list[tuple[Node, Point, Node, Point]]:
    pairs = enumerate(topology.d2d_pairs)
    devices = [((("dtx", j), tx), (("drx", j), rx)) for j, (tx, rx) in pairs]
    return modeled_links(topology.enb_pos, topology.cue, devices)


def draw_gains(topology: Topology, params: RadioParams, rng_seed: int) -> GainTensor:
    """Draw the full gain tensor for one fading realization of a topology."""
    params.validate()
    return link_pathloss(_topology_links(topology), topology.rb_count, params).draw(rng_seed)


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


def cellular_links(
    gains: GainTensor, params: RadioParams, rbs: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per RB in ``rbs``: tensor index of the cellular transmitter and receiver,
    and the transmitter's default power."""
    tx = [cellular_tx_node(params, rb) for rb in rbs]
    rx = [cellular_rx_node(params, rb) for rb in rbs]
    power = np.array([default_power_w(params, node) for node in tx])
    return gains.tx_indices(tx), gains.rx_indices(rx), power


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
    if receiver[0] == "drx":
        j = receiver[1]
        if allocation.rb_of_d2d.get(j) != rb or j in allocation.relay_d2d:
            raise ValueError(f"D2D receiver {j} is not directly active on RB {rb}")
        tx = ("dtx", j)
        interferers = [("dtx", k) for k in allocation.direct_on_rb(rb) if k != j]
        interferers.append(cellular_tx_node(params, rb))
    elif receiver == cellular_rx_node(params, rb):
        tx = cellular_tx_node(params, rb)
        interferers = [("dtx", k) for k in allocation.direct_on_rb(rb)]
    else:
        raise ValueError(f"receiver {receiver!r} is not active on RB {rb}")
    signal = default_power_w(params, tx) * gains.get(tx, receiver, rb)
    denom = effective_noise_w(params)
    for node in interferers:
        denom += default_power_w(params, node) * gains.get(node, receiver, rb)
    return signal / denom


def rate(gamma: float) -> float:
    """Shannon spectral efficiency log2(1 + SINR) in bits/s/Hz."""
    if gamma < 0:
        raise ValueError(f"SINR must be >= 0, got {gamma}")
    return math.log2(1.0 + gamma)


def _relay_rate(allocation: Allocation, gains: GainTensor, params: RadioParams, j: int) -> float:
    # Two orthogonal hops through the eNB; the bottleneck is halved because the
    # relay occupies two scheduling slots.
    rb = allocation.rb_of_d2d[j]
    sigma = effective_noise_w(params)
    up = rate(params.p_d2d_w * gains.get(("dtx", j), ("enb", 0), rb) / sigma)
    down = rate(params.p_enb_w * gains.get(("enb", 0), ("drx", j), rb) / sigma)
    return 0.5 * min(up, down)


def sum_rate(allocation: Allocation, gains: GainTensor, params: RadioParams) -> float:
    """Total spectral efficiency over all cellular links and D2D flows."""
    total = 0.0
    for rb in range(gains.rb_count):
        total += rate(sinr(allocation, gains, params, cellular_rx_node(params, rb), rb))
    for j in allocation.active_direct():
        total += rate(sinr(allocation, gains, params, ("drx", j), allocation.rb_of_d2d[j]))
    for j in sorted(allocation.relay_d2d):
        total += _relay_rate(allocation, gains, params, j)
    return total
