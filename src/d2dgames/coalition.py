"""Coalition formation for D2D group content distribution.

Device UEs partition themselves into coalitions, each anchored by exactly one
cellular user whose RB the coalition reuses. Inside a coalition every normal
UE listens to its nearest seed; seeds multicast, so all links of a coalition
share the anchor RB and interfere with each other and with the cellular link,
while different coalitions are orthogonal. The seeds a coalition's normal UEs
listen to are its transmitting set. Switch dynamics move one UE at a
time whenever the two affected coalitions' combined value strictly rises,
which makes the total value a potential function and guarantees convergence
to a switch-stable partition.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from d2dgames import radio
from d2dgames.seeding import derive_seed

# smallest combined-value gain treated as a strict improvement
GAIN_EPS = 1e-9
# sweep cap of the noncooperative baseline
MAX_SWEEPS = 50
# move cap of switch dynamics and of merge-and-split
MAX_STEPS = 100_000

Point = tuple[float, float]


@dataclass(frozen=True)
class ContentScenario:
    """Counts, pacing and hotspot size of the popular-content distribution task."""

    n_d2d: int = 20
    k_seeds: int = 4
    m_cue: int = 6
    file_packets: int = 500
    packets_per_rate_unit: float = 10.0
    rounds: int = 50
    hotspot_radius_m: float = 15.0

    def validate(self) -> "ContentScenario":
        if not 0 < self.k_seeds <= self.n_d2d:
            raise ValueError(
                f"need 0 < k_seeds <= n_d2d, got K={self.k_seeds}, N={self.n_d2d}"
            )
        if self.m_cue < 1:
            raise ValueError(f"m_cue must be >= 1, got {self.m_cue}")
        if self.file_packets < 1:
            raise ValueError(f"file_packets must be >= 1, got {self.file_packets}")
        if not self.packets_per_rate_unit >= 0:
            raise ValueError(
                f"packets_per_rate_unit must be >= 0, got {self.packets_per_rate_unit}"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        return self


@dataclass(frozen=True)
class ContentInstance:
    """One geometric realization of a scenario: positions plus the seed set."""

    scenario: ContentScenario
    ue_pos: tuple[Point, ...]
    cue_pos: tuple[Point, ...]
    enb_pos: Point
    seeds: frozenset[int]

    def distances(self) -> np.ndarray:
        pos = np.asarray(self.ue_pos)
        diff = pos[:, None, :] - pos[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))

    @cached_property
    def distance_order(self) -> np.ndarray:
        """Row ``u``: every UE index by distance from UE ``u``, ties to the smaller index."""
        return np.argsort(self.distances(), axis=0, kind="stable").T


@dataclass(frozen=True)
class Partition:
    """Disjoint coalitions covering all UEs; tuple index = anchor CUE/RB."""

    members: tuple[frozenset[int], ...]

    def validate(self, n_ues: int) -> "Partition":
        seen: set[int] = set()
        for ms in self.members:
            if seen & ms:
                raise ValueError("coalitions overlap")
            seen |= ms
        if seen != set(range(n_ues)):
            raise ValueError("coalitions must cover every UE exactly once")
        return self

    def anchor_of(self, ue: int) -> int:
        for anchor, ms in enumerate(self.members):
            if ue in ms:
                return anchor
        raise KeyError(ue)

    def move(self, ue: int, target: int) -> "Partition":
        src = self.anchor_of(ue)
        new = list(self.members)
        new[src] = new[src] - {ue}
        new[target] = new[target] | {ue}
        return Partition(members=tuple(new))

    def total_value(self, value_fn: Callable[[int, frozenset], float]) -> float:
        return sum(value_fn(a, ms) for a, ms in enumerate(self.members))


def check_hotspot_radius(radius_m: float, params: radio.RadioParams) -> None:
    """Require ``0 < radius_m <= cell_radius_m``, finite: then half the hotspot lies in the cell."""
    if not (math.isfinite(radius_m) and 0 < radius_m <= params.cell_radius_m):
        raise ValueError(
            f"hotspot_radius_m must be finite, > 0 and <= cell_radius_m, got {radius_m}"
        )


def generate_content_instance(
    scenario: ContentScenario,
    params: radio.RadioParams,
    rng_seed: int,
) -> ContentInstance:
    """Drop UEs in a dense hotspot disc and CUEs across the whole cell.

    The hotspot, of radius ``scenario.hotspot_radius_m``, is centred at
    ``(0.8 * cell_radius_m, 0)``, toward the cell edge (crowded venues are
    rarely centred on the base station), and is tight enough by default that
    every UE is in D2D range of every other.
    The first ``k_seeds`` UE indices start out holding the full file.
    """
    scenario.validate()
    params.validate()
    check_hotspot_radius(scenario.hotspot_radius_m, params)
    rng = np.random.default_rng(rng_seed)
    hotspot_center = (0.8 * params.cell_radius_m, 0.0)
    ue = []
    while len(ue) < scenario.n_d2d:
        p = radio._draw_disc_point(rng, hotspot_center, scenario.hotspot_radius_m)
        if math.hypot(*p) <= params.cell_radius_m:
            ue.append(p)
    cue = tuple(
        radio._draw_disc_point(rng, (0.0, 0.0), params.cell_radius_m)
        for _ in range(scenario.m_cue)
    )
    return ContentInstance(
        scenario=scenario,
        ue_pos=tuple(ue),
        cue_pos=cue,
        enb_pos=(0.0, 0.0),
        seeds=frozenset(range(scenario.k_seeds)),
    )


def _content_links(inst: ContentInstance):
    ues = [(("ue", i), pos) for i, pos in enumerate(inst.ue_pos)]
    return radio.modeled_links(inst.enb_pos, inst.cue_pos, list(zip(ues, ues)))


def content_pathloss(inst: ContentInstance, params: radio.RadioParams) -> radio.LinkPathLoss:
    """Path loss of every content link; fixed for the instance's geometry."""
    return radio.link_pathloss(_content_links(inst), inst.scenario.m_cue, params)


def draw_content_gains(
    inst: ContentInstance,
    params: radio.RadioParams,
    rng_seed: int,
    pathloss: radio.LinkPathLoss | None = None,
) -> radio.GainTensor:
    """One fading realization of the instance's channel.

    ``pathloss`` is :func:`content_pathloss` of the same instance and
    parameters, to reuse it across draws; it is computed when omitted.
    """
    if pathloss is None:
        pathloss = content_pathloss(inst, params)
    return pathloss.draw(rng_seed)


class _Rows(dict):
    """Row ``t`` of a 2-D array as a list of floats, converted on first use."""

    def __init__(self, array: np.ndarray):
        super().__init__()
        self._array = array

    def __missing__(self, t: int) -> list[float]:
        row = self[t] = self._array[t].tolist()
        return row


class ContentRound:
    """One round of content distribution: its channel and its seed set.

    The received powers are sliced from the gain tensor as per-RB lists of
    floats, indexed by RB first: ``cell_signal[r]``, ``cell_at_ue[r][u]``,
    ``ue_at_cellrx[r][s]`` and ``uu[r][t][u]``. Only seeds transmit, so a row
    ``uu[r][t]`` is converted when first read. ``seeds`` defaults to the
    instance's initial seeds; ``ranked[u]`` lists them by distance from UE
    ``u``, ties to the smaller index. None of the slices depends on the seed
    set, so :meth:`with_seeds` gives the same channel to another seed set.
    """

    def __init__(
        self,
        inst: ContentInstance,
        gains: radio.GainTensor,
        params: radio.RadioParams,
        seeds: Iterable[int] | None = None,
    ):
        n = inst.scenario.n_d2d
        m = inst.scenario.m_cue
        p_d = params.p_d2d_w
        rbs = np.arange(m)
        ue = [("ue", i) for i in range(n)]
        ue_tx, ue_rx = gains.tx_indices(ue), gains.rx_indices(ue)
        cell_tx, cell_rx, p_cell = radio.cellular_links(gains, params, rbs)
        self.inst = inst
        self.sigma = radio.effective_noise_w(params)
        # cellular tx -> its own rx
        self.cell_signal = (p_cell * gains.gather(cell_tx, cell_rx, rbs)).tolist()
        # cellular tx -> ue rx power on its RB
        self.cell_at_ue = (p_cell * gains.gather(cell_tx, ue_rx[:, None], rbs)).T.tolist()
        # ue tx -> cellular rx power
        self.ue_at_cellrx = (p_d * gains.gather(ue_tx[:, None], cell_rx, rbs)).T.tolist()
        # seed tx -> ue rx power; no ue hears itself
        uu = np.zeros((m, n, n))
        tx, rx = np.nonzero(~np.eye(n, dtype=bool))
        uu[:, tx, rx] = p_d * gains.gather(ue_tx[tx], ue_rx[rx]).T
        self.uu = [_Rows(a) for a in uu]
        self.seeds = inst.seeds if seeds is None else frozenset(seeds)

    def with_seeds(self, seeds: Iterable[int]) -> "ContentRound":
        """This round's channel with another seed set; the channel lists are shared.

        The copy shares every attribute but ``seeds``, so each cached
        attribute that depends on the seed set must be dropped here; today
        that is only ``ranked``.
        """
        rnd = copy.copy(self)
        rnd.seeds = frozenset(seeds)
        rnd.__dict__.pop("ranked", None)
        return rnd

    @cached_property
    def ranked(self) -> list[list[int]]:
        n = self.inst.scenario.n_d2d
        order = self.inst.distance_order
        is_seed = np.zeros(n, dtype=bool)
        is_seed[list(self.seeds)] = True
        # every row holds each UE once, so each keeps len(seeds) entries, in order
        return order[is_seed[order]].reshape(n, len(self.seeds)).tolist()


def _serving_seed(ranked_u: list[int], members: frozenset[int]) -> int | None:
    """The first of a UE's ranked seeds that is in ``members``, if any."""
    for s in ranked_u:
        if s in members:
            return s
    return None


def _transmitting(rnd: ContentRound, members: frozenset[int]) -> list[int]:
    """The coalition's transmitting set: its normal UEs' serving seeds, ascending."""
    if rnd.seeds.isdisjoint(members):
        return []
    return sorted({_serving_seed(rnd.ranked[u], members) for u in members - rnd.seeds})


def _sinr(
    rnd: ContentRound, anchor: int, u: int, s: int | None, transmitting: list[int]
) -> float:
    """Normal UE ``u``'s SINR on RB ``anchor`` when served by seed ``s``.

    ``u`` hears the cellular transmitter plus every seed of ``transmitting``
    other than ``s`` as interference, so the result is the same whether or
    not ``s`` is in the set. A UE without a serving seed gets 0.0.
    """
    if s is None:
        return 0.0
    uu = rnd.uu[anchor]
    interf = rnd.cell_at_ue[anchor][u]
    for t in transmitting:
        if t != s:
            interf += uu[t][u]
    return uu[s][u] / (rnd.sigma + interf)


def _coalition_detail(
    rnd: ContentRound, anchor: int, members: frozenset[int]
) -> tuple[float, dict[int, float]]:
    """Coalition value and the SINR of every normal UE inside it.

    Each normal UE listens to its nearest seed in the coalition (ties to the
    smaller index); its SINR is :func:`_sinr` against the coalition's
    transmitting set. The value is the cellular link's rate plus the normal
    UEs' rates.
    """
    seeds = rnd.seeds
    normals = sorted(members - seeds)
    if seeds.isdisjoint(members):
        serving = {}
    else:
        serving = {u: _serving_seed(rnd.ranked[u], members) for u in normals}
    transmitting = sorted(set(serving.values()))
    to_cell = rnd.ue_at_cellrx[anchor]
    interf_c = sum(to_cell[s] for s in transmitting)
    value = math.log2(1.0 + rnd.cell_signal[anchor] / (rnd.sigma + interf_c))
    sinrs: dict[int, float] = {}
    for u in normals:
        sinr = sinrs[u] = _sinr(rnd, anchor, u, serving.get(u), transmitting)
        value += math.log2(1.0 + sinr)
    return value, sinrs


def make_value_fn(rnd: ContentRound) -> Callable[[int, frozenset], float]:
    """Memoized coalition-value function for one round."""
    cache: dict[tuple[int, frozenset], float] = {}

    def value_fn(anchor: int, members: frozenset) -> float:
        key = (anchor, members)
        v = cache.get(key)
        if v is None:
            v, _ = _coalition_detail(rnd, anchor, members)
            cache[key] = v
        return v

    return value_fn


def initial_partition(inst: ContentInstance) -> Partition:
    """Every UE joins the coalition of its nearest cellular anchor."""
    cue = np.asarray(inst.cue_pos)
    members: list[set[int]] = [set() for _ in range(inst.scenario.m_cue)]
    for u, pos in enumerate(inst.ue_pos):
        d = np.hypot(cue[:, 0] - pos[0], cue[:, 1] - pos[1])
        members[int(np.argmin(d))].add(u)
    return Partition(members=tuple(frozenset(ms) for ms in members))


def switch_step(
    partition: Partition, value_fn: Callable[[int, frozenset], float]
) -> tuple[Partition, bool]:
    """Execute the first strictly-improving single-UE move, if any.

    Players and target coalitions are scanned in fixed index order; a move
    needs the combined value of the two touched coalitions to rise by more
    than :data:`GAIN_EPS`.
    """
    n_coal = len(partition.members)
    for ue in sorted(set().union(*partition.members)):
        src = partition.anchor_of(ue)
        v_src = value_fn(src, partition.members[src])
        v_src_out = value_fn(src, partition.members[src] - {ue})
        for dst in range(n_coal):
            if dst == src:
                continue
            v_dst = value_fn(dst, partition.members[dst])
            v_dst_in = value_fn(dst, partition.members[dst] | {ue})
            if (v_src_out + v_dst_in) - (v_src + v_dst) > GAIN_EPS:
                return partition.move(ue, dst), True
    return partition, False


def run_switch_dynamics(
    partition0: Partition, value_fn: Callable[[int, frozenset], float]
) -> Partition:
    """Iterate switch moves to a switch-stable partition."""
    partition = partition0
    for _ in range(MAX_STEPS):
        partition, moved = switch_step(partition, value_fn)
        if not moved:
            return partition
    raise RuntimeError(
        f"switch dynamics did not stabilize within {MAX_STEPS} moves; "
        "the value function is likely inconsistent"
    )


def merge_split(
    coalitions0: Iterable[frozenset], value_fn: Callable[[frozenset], float]
) -> list[frozenset]:
    """Generic merge-and-split on an anchor-free strategic-form value function.

    Merges any two coalitions whose union is worth strictly more than the sum
    of the parts, and splits any coalition into two parts worth strictly more
    together; first improvement in canonical order, until neither applies.
    """
    cache: dict[frozenset, float] = {}

    def v(c: frozenset) -> float:
        if c not in cache:
            cache[c] = value_fn(c)
        return cache[c]

    parts = [frozenset(c) for c in coalitions0 if c]
    for _ in range(MAX_STEPS):
        parts.sort(key=lambda c: sorted(c))
        changed = False
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                union = parts[a] | parts[b]
                if v(union) > v(parts[a]) + v(parts[b]) + GAIN_EPS:
                    merged = union
                    parts = [p for i, p in enumerate(parts) if i not in (a, b)]
                    parts.append(merged)
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        for idx, c in enumerate(parts):
            if len(c) < 2:
                continue
            rest = sorted(c - {min(c)})
            for pick in range(1, 2 ** len(rest)):
                s1 = frozenset({min(c)} | {rest[i] for i in range(len(rest)) if (pick >> i) & 1})
                s2 = c - s1
                if not s2:
                    continue
                if v(s1) + v(s2) > v(c) + GAIN_EPS:
                    parts = [p for i, p in enumerate(parts) if i != idx]
                    parts.extend([s1, s2])
                    changed = True
                    break
            if changed:
                break
        if not changed:
            return sorted(parts, key=lambda c: sorted(c))
    raise RuntimeError(f"merge/split did not stabilize within {MAX_STEPS} operations")


def noncooperative_baseline(rnd: ContentRound, partition0: Partition | None = None) -> Partition:
    """Selfish channel selection: every normal UE chases its own best SINR.

    Seeds sit in their warm-start coalition (initially: nearest anchor) and do
    not act. Normal UEs repeatedly jump to the (RB, nearest-seed) choice with
    the best own SINR given everyone else's previous choice, ignoring the harm
    to others, until a fixed point or :data:`MAX_SWEEPS` sweeps. A UE leaves
    its RB only for a relative SINR gain above 1e-12; among equal candidates
    the smaller RB wins. A UE's SINR on an RB is :func:`_sinr` against that
    coalition's transmitting set, the one :func:`_coalition_detail` gives it
    in that coalition, so both allocators score a UE with the same model.
    """
    if partition0 is None:
        partition0 = initial_partition(rnd.inst)
    coalitions = list(partition0.members)
    transmitting = [_transmitting(rnd, ms) for ms in coalitions]
    normals = [u for u in range(rnd.inst.scenario.n_d2d) if u not in rnd.seeds]
    for _ in range(MAX_SWEEPS):
        moved = False
        for u in normals:
            current = next(r for r, ms in enumerate(coalitions) if u in ms)
            # u's own SINR on each RB, everyone else as last placed; u's own
            # serving seed never interferes with u, so u may stay in its coalition
            ranked_u = rnd.ranked[u]
            g = [
                _sinr(rnd, r, u, _serving_seed(ranked_u, ms), transmitting[r])
                for r, ms in enumerate(coalitions)
            ]
            best_r = current
            for r in range(len(g)):
                if r != current and g[r] > g[best_r] * (1.0 + 1e-12):
                    best_r = r
            if best_r != current:
                coalitions[current] = coalitions[current] - {u}
                coalitions[best_r] = coalitions[best_r] | {u}
                for r in (current, best_r):
                    transmitting[r] = _transmitting(rnd, coalitions[r])
                moved = True
        if not moved:
            break
    return Partition(members=tuple(coalitions))


@dataclass
class ServiceCurve:
    """Cumulative possessed packets per round, plus the per-round total values."""

    allocator: str
    cumulative: list[int]
    total_values: list[float] = field(default_factory=list)


class _SchemeRun:
    """One scheme's state across the rounds: seed set, packets, partition, curve."""

    def __init__(self, allocator: str, inst: ContentInstance, partition: Partition):
        scenario = inst.scenario
        self.seeds = set(inst.seeds)
        self.packets = np.zeros(scenario.n_d2d, dtype=int)
        for s in self.seeds:
            self.packets[s] = scenario.file_packets
        self.partition = partition
        self.curve = ServiceCurve(allocator=allocator, cumulative=[int(self.packets.sum())])

    def play(self, channel: ContentRound) -> None:
        """Form this round's partition on ``channel``, deliver, and record the round."""
        scenario = channel.inst.scenario
        total_file = scenario.file_packets
        packets = self.packets
        rnd = channel.with_seeds(self.seeds)
        # with no normal UE left the partition is already stable (see
        # simulate_content_distribution), so neither allocator runs
        if len(self.seeds) < scenario.n_d2d:
            if self.curve.allocator == "coalition":
                self.partition = run_switch_dynamics(self.partition, make_value_fn(rnd))
            else:
                self.partition = noncooperative_baseline(rnd, partition0=self.partition)
        round_value = 0.0
        for anchor, members in enumerate(self.partition.members):
            value, sinrs = _coalition_detail(rnd, anchor, members)
            round_value += value
            for u, sinr in sinrs.items():
                if packets[u] < total_file:
                    rate = math.log2(1.0 + sinr)
                    gained = int(math.floor(scenario.packets_per_rate_unit * rate))
                    packets[u] = min(total_file, packets[u] + gained)
        for u in range(scenario.n_d2d):
            if packets[u] >= total_file:
                self.seeds.add(u)
        self.curve.cumulative.append(int(packets.sum()))
        self.curve.total_values.append(round_value)


def simulate_content_distribution(
    scenario: ContentScenario,
    params: radio.RadioParams,
    allocators: tuple[str, ...],
    rng_seed: int,
) -> list[ServiceCurve]:
    """Round-based dissemination: fresh fading, re-formed partition, delivery.

    Runs ``scenario.rounds`` rounds of every scheme named in ``allocators``
    in lockstep and returns one curve per name, in order. Each round draws
    one fading realization and slices it once into a :class:`ContentRound`;
    every scheme then plays that channel with its own seed set, so all
    schemes see identical channels. The draws depend only on ``rng_seed``
    and the round index. Each round every normal UE receives
    ``floor(packets_per_rate_unit * rate)`` packets from its serving seed,
    capped at the remaining file; UEs that complete the file serve as seeds
    from the next round on.

    Once every UE of a scheme is a seed, its partition is kept as it is
    without running the allocator, which is exact: with no normal UE a
    coalition's value is its anchor's cellular rate, the same float for any
    member set, so every switch gain is exactly 0.0 and no move passes
    :data:`GAIN_EPS`; the noncooperative baseline has no UE to move.
    """
    if isinstance(allocators, str):
        raise TypeError(f"allocators must be a tuple of scheme names, got {allocators!r}")
    for allocator in allocators:
        if allocator not in ("coalition", "noncooperative"):
            raise ValueError(f"unknown allocator {allocator!r}")
    scenario.validate()
    inst = generate_content_instance(scenario, params, derive_seed(rng_seed, 0))
    pathloss = content_pathloss(inst, params)
    start = initial_partition(inst)
    runs = [_SchemeRun(allocator, inst, start) for allocator in allocators]
    for t in range(1, scenario.rounds + 1):
        gains = draw_content_gains(inst, params, derive_seed(rng_seed, t), pathloss=pathloss)
        channel = ContentRound(inst, gains, params)
        for run in runs:
            run.play(channel)
    return [run.curve for run in runs]
