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

import bisect
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

    def __post_init__(self):
        if not 0 < self.k_seeds <= self.n_d2d:
            raise ValueError(
                f"need 0 < k_seeds <= n_d2d, got K={self.k_seeds}, N={self.n_d2d}"
            )
        if self.m_cue < 1:
            raise ValueError(f"m_cue must be >= 1, got {self.m_cue}")
        if self.file_packets < 1:
            raise ValueError(f"file_packets must be >= 1, got {self.file_packets}")
        if not (math.isfinite(self.packets_per_rate_unit) and self.packets_per_rate_unit >= 0):
            raise ValueError(
                "packets_per_rate_unit must be finite and >= 0, "
                f"got {self.packets_per_rate_unit}"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")


@dataclass(frozen=True)
class ContentInstance:
    """One geometric realization of a scenario: positions plus the seed set."""

    scenario: ContentScenario
    ue_pos: tuple[Point, ...]
    cue_pos: tuple[Point, ...]
    enb_pos: Point
    seeds: frozenset[int]
    # seed set -> seed_ranking(seeds)
    _rankings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def distances(self) -> np.ndarray:
        pos = np.asarray(self.ue_pos)
        diff = pos[:, None, :] - pos[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))

    @cached_property
    def distance_order(self) -> np.ndarray:
        """Row ``u``: every UE index by distance from UE ``u``, ties to the smaller index."""
        return np.argsort(self.distances(), axis=0, kind="stable").T

    @cached_property
    def distance_rank(self) -> list[list[int]]:
        """Row ``u``: each UE's position in ``distance_order[u]``, so a UE
        ``u`` ranks seed ``s`` ahead of seed ``t`` when ``rank[u][s] < rank[u][t]``."""
        # a stable sort, as distance_order's: numpy's default one maps
        # another 0.4 MB of sort kernels into the process
        return np.argsort(self.distance_order, axis=1, kind="stable").tolist()

    def seed_ranking(self, seeds: frozenset[int]) -> list[list[int]]:
        """Row ``u``: the UEs of ``seeds`` by distance from UE ``u``, ties to the
        smaller index. Kept per seed set, which often holds over several rounds."""
        ranking = self._rankings.get(seeds)
        if ranking is None:
            n = self.scenario.n_d2d
            order = self.distance_order
            is_seed = np.zeros(n, dtype=bool)
            is_seed[list(seeds)] = True
            # every row holds each UE once, so each keeps len(seeds) entries, in order
            ranking = order[is_seed[order]].reshape(n, len(seeds)).tolist()
            self._rankings[seeds] = ranking
        return ranking


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
    check_hotspot_radius(scenario.hotspot_radius_m, params)
    disc = radio._DiscPoints(np.random.default_rng(rng_seed), scenario.n_d2d + scenario.m_cue)
    hotspot_center = (0.8 * params.cell_radius_m, 0.0)
    ue = []
    while len(ue) < scenario.n_d2d:
        p = disc.draw(hotspot_center, scenario.hotspot_radius_m)
        if math.hypot(*p) <= params.cell_radius_m:
            ue.append(p)
    cue = tuple(disc.draw((0.0, 0.0), params.cell_radius_m) for _ in range(scenario.m_cue))
    return ContentInstance(
        scenario=scenario,
        ue_pos=tuple(ue),
        cue_pos=cue,
        enb_pos=(0.0, 0.0),
        seeds=frozenset(range(scenario.k_seeds)),
    )


def content_pathloss(inst: ContentInstance, params: radio.RadioParams) -> radio.LinkPathLoss:
    """Path loss of every content link; fixed for the instance's geometry."""
    return radio.link_pathloss(params, inst.enb_pos, inst.cue_pos, inst.ue_pos, paired=False)


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

    The received powers are slices of :func:`radio.co_channel` with every UE
    on both axes, as per-RB lists of floats indexed by RB first:
    ``cell_signal[r]``, ``cell_at_ue[r][u]``, ``ue_at_cellrx[r][s]`` and
    ``uu[r][t][u]``, where a UE's power at itself is 0.0. Reading a link the
    tensor does not model raises ``KeyError``. Only seeds transmit, so a row
    ``uu[r][t]`` is converted when first read. A new round holds the
    instance's initial ``seeds``; ``ranked[u]`` lists them by distance from
    UE ``u``, ties to the smaller index. None of the slices depends on the
    seed set, so :meth:`with_seeds` gives the same channel to another seed
    set.
    ``solo_rate[r]`` is the value of a coalition on RB ``r`` without a normal
    UE, which is the cellular rate alone: the float :func:`_valued` returns
    for it, with no transmitter adding interference.
    """

    def __init__(self, inst: ContentInstance, gains: radio.GainTensor, params: radio.RadioParams):
        ue = [("ue", u) for u in range(inst.scenario.n_d2d)]
        block = radio.co_channel(gains, params, ue, ue, inst.scenario.m_cue)
        self.inst = inst
        self.sigma = radio.effective_noise_w(params)
        self.cell_signal = block[:, 0, 0].tolist()
        self.cell_at_ue = block[:, 0, 1:].tolist()
        self.ue_at_cellrx = block[:, 1:, 0].tolist()
        self.uu = [_Rows(x) for x in block[:, 1:, 1:]]
        # sigma + 0: the empty interference sum, as _valued adds it
        self.solo_rate = [math.log2(1.0 + c / (self.sigma + 0)) for c in self.cell_signal]
        self.seeds = inst.seeds
        self.ranked = inst.seed_ranking(self.seeds)

    def with_seeds(self, seeds: Iterable[int]) -> "ContentRound":
        """This round's channel with another seed set; the channel lists are shared."""
        rnd = object.__new__(ContentRound)  # a shallow copy, cheaper than copy.copy
        rnd.__dict__.update(self.__dict__)
        rnd.seeds = frozenset(seeds)
        rnd.ranked = self.inst.seed_ranking(rnd.seeds)
        return rnd


def _serving_seed(ranked_u: list[int], members: frozenset[int]) -> int | None:
    """The first of a UE's ranked seeds that is in ``members``, if any."""
    for s in ranked_u:
        if s in members:
            return s
    return None


def _serving(
    rnd: ContentRound, members: frozenset[int]
) -> tuple[tuple[int, ...], tuple[int | None, ...], tuple[int, ...]]:
    """A coalition's normal UEs, ascending; each one's serving seed, its nearest
    seed in the coalition (ties to the smaller index) or None without one; and
    its transmitting set, the serving seeds, ascending."""
    seeds = rnd.seeds
    normals = tuple(sorted(members - seeds))
    if seeds.isdisjoint(members):
        return normals, (None,) * len(normals), ()
    ranked = rnd.ranked
    serving = tuple([_serving_seed(ranked[u], members) for u in normals])
    return normals, serving, tuple(sorted(set(serving)))


def _sinr(
    uu: list,
    cell_at_ue: list[float],
    sigma: float,
    u: int,
    s: int | None,
    transmitting: tuple[int, ...],
) -> float:
    """Normal UE ``u``'s SINR on one RB when served by seed ``s``.

    ``uu`` and ``cell_at_ue`` are the RB's entries of a :class:`ContentRound`
    (``rnd.uu[r]``, ``rnd.cell_at_ue[r]``) and ``sigma`` its noise, so a
    caller scoring many UEs on one RB reads them once. ``u`` hears the
    cellular transmitter plus every seed of ``transmitting`` other than ``s``
    as interference, so the result is the same whether or not ``s`` is in
    the set. A UE without a serving seed gets 0.0.
    """
    if s is None:
        return 0.0
    interf = cell_at_ue[u]
    for t in transmitting:
        if t != s:
            interf += uu[t][u]
    return uu[s][u] / (sigma + interf)


# A coalition's value with the parts it is summed from: (value, cell_term,
# normals, serving, transmitting, terms). ``normals`` ascending, with each
# one's serving seed in ``serving`` (None without a seed in the coalition) and
# its rate log2(1 + SINR), which delivery reads, in ``terms``; ``cell_term``
# is the cellular link's rate against ``transmitting``. Plain tuples of
# numbers, so the garbage collector stops tracking the thousands a round's
# memo holds.
_Valued = tuple


def _sum_terms(cell_term: float, terms: tuple[float, ...]) -> float:
    """A coalition's value: the cellular rate, then each normal UE's rate in UE order."""
    value = cell_term
    for term in terms:
        value += term
    return value


def _valued(rnd: ContentRound, anchor: int, members: frozenset[int]) -> _Valued:
    """A coalition's :data:`_Valued` from scratch.

    Each normal UE is served as :func:`_serving` says, and its SINR is
    :func:`_sinr` against the coalition's transmitting set. The value is the
    cellular link's rate plus the normal UEs' rates.
    """
    normals, serving, transmitting = _serving(rnd, members)
    sigma = rnd.sigma
    to_cell = rnd.ue_at_cellrx[anchor]
    interf_c = sum(to_cell[s] for s in transmitting)
    cell_term = math.log2(1.0 + rnd.cell_signal[anchor] / (sigma + interf_c))
    uu, cell_at_ue = rnd.uu[anchor], rnd.cell_at_ue[anchor]
    terms = tuple([
        math.log2(1.0 + _sinr(uu, cell_at_ue, sigma, u, s, transmitting))
        for u, s in zip(normals, serving)
    ])
    return (_sum_terms(cell_term, terms), cell_term, normals, serving, transmitting, terms)


def _derived(
    rnd: ContentRound,
    anchor: int,
    prev_members: frozenset[int],
    prev: _Valued,
    members: frozenset[int],
) -> _Valued | None:
    """``members``' value from ``prev``, the value of ``prev_members``, when the
    two sets differ by one UE and share the transmitting set; otherwise None.

    For a normal UE, every other normal UE then keeps its serving seed and
    its interference, so its term is reused and only the joining UE's term
    is computed; the value is summed again by :func:`_sum_terms`, in the
    same order as from scratch, so it is the same float. A seed that serves
    no normal UE in either set changes nothing, so the value is ``prev``
    itself: a leaving seed outside the transmitting set, or a joining seed
    that every normal UE ranks behind the seed serving it (a normal UE
    without a serving seed would take the newcomer).
    """
    diff = members ^ prev_members
    if len(diff) != 1:
        return None
    (u,) = diff
    _, cell_term, normals, serving, transmitting, terms = prev
    if u in rnd.seeds:
        if u not in members:
            return None if u in transmitting else prev
        rank = rnd.inst.distance_rank
        for v, s in zip(normals, serving):
            if s is None or rank[v][u] < rank[v][s]:
                return None
        return prev
    if u in members:
        s = _serving_seed(rnd.ranked[u], members)
        if s is not None and s not in transmitting:
            return None
        sinr = _sinr(rnd.uu[anchor], rnd.cell_at_ue[anchor], rnd.sigma, u, s, transmitting)
        term = math.log2(1.0 + sinr)
        i = bisect.bisect_left(normals, u)
        normals = normals[:i] + (u,) + normals[i:]
        serving = serving[:i] + (s,) + serving[i:]
        terms = terms[:i] + (term,) + terms[i:]
    else:
        i = normals.index(u)
        s = serving[i]
        # u's seed stays in the transmitting set only if it serves another UE
        if s is not None and serving.count(s) == 1:
            return None
        normals = normals[:i] + normals[i + 1 :]
        serving = serving[:i] + serving[i + 1 :]
        terms = terms[:i] + terms[i + 1 :]
    return (_sum_terms(cell_term, terms), cell_term, normals, serving, transmitting, terms)


def make_value_fn(rnd: ContentRound) -> Callable[[int, frozenset], float]:
    """Memoized coalition-value function for one round.

    A miss is derived from the anchor's previous query when :func:`_derived`
    allows it, which covers most single-UE switches, and is valued from
    scratch otherwise.
    """
    cache: dict[tuple[int, frozenset], _Valued] = {}
    last: dict[int, frozenset] = {}

    def value_fn(anchor: int, members: frozenset) -> float:
        key = (anchor, members)
        valued = cache.get(key)
        if valued is None:
            prev_members = last.get(anchor)
            if prev_members is not None:
                prev = cache[anchor, prev_members]
                valued = _derived(rnd, anchor, prev_members, prev, members)
            if valued is None:
                valued = _valued(rnd, anchor, members)
            cache[key] = valued
        last[anchor] = members
        return valued[0]

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
    members = partition.members
    anchor_of = {ue: a for a, ms in enumerate(members) for ue in ms}
    n_coal = len(members)
    for ue in sorted(anchor_of):
        src = anchor_of[ue]
        src_out = members[src] - {ue}
        v_src = value_fn(src, members[src])
        v_src_out = value_fn(src, src_out)
        for dst in range(n_coal):
            if dst == src:
                continue
            dst_in = members[dst] | {ue}
            v_dst = value_fn(dst, members[dst])
            v_dst_in = value_fn(dst, dst_in)
            if (v_src_out + v_dst_in) - (v_src + v_dst) > GAIN_EPS:
                moved = list(members)
                moved[src], moved[dst] = src_out, dst_in
                return Partition(members=tuple(moved)), True
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
    coalition's transmitting set from :func:`_serving`, the one it would get
    in that coalition, so both allocators score a UE with the same model.

    A normal UE only ever moves to a seeded RB other than its own, so when
    every UE sits in one coalition the first sweep moves no one; the
    baseline then returns ``partition0`` before any set-up, which is exact.
    """
    if partition0 is None:
        partition0 = initial_partition(rnd.inst)
    if sum(1 for ms in partition0.members if ms) <= 1:
        return partition0
    coalitions = list(partition0.members)
    transmitting = [_serving(rnd, ms)[2] for ms in coalitions]
    rb_of = {u: r for r, ms in enumerate(coalitions) for u in ms}
    # only normal UEs move, so the RBs whose coalition holds a seed stay fixed;
    # on any other RB a UE has no serving seed and SINR 0.0, which never wins
    seeded = [r for r, ms in enumerate(coalitions) if not rnd.seeds.isdisjoint(ms)]
    normals = [u for u in range(rnd.inst.scenario.n_d2d) if u not in rnd.seeds]
    uu, cell_at_ue, sigma, ranked = rnd.uu, rnd.cell_at_ue, rnd.sigma, rnd.ranked
    for _ in range(MAX_SWEEPS):
        moved = False
        for u in normals:
            current = rb_of[u]
            # u's own SINR on each RB, everyone else as last placed; u's own
            # serving seed never interferes with u, so u may stay in its coalition
            ranked_u = ranked[u]
            best_r = current
            best_g = _sinr(
                uu[current], cell_at_ue[current], sigma, u,
                _serving_seed(ranked_u, coalitions[current]), transmitting[current],
            )
            for r in seeded:
                if r != current:
                    s = _serving_seed(ranked_u, coalitions[r])
                    g = _sinr(uu[r], cell_at_ue[r], sigma, u, s, transmitting[r])
                    if g > best_g * (1.0 + 1e-12):
                        best_r, best_g = r, g
            if best_r != current:
                coalitions[current] = coalitions[current] - {u}
                coalitions[best_r] = coalitions[best_r] | {u}
                rb_of[u] = best_r
                for r in (current, best_r):
                    transmitting[r] = _serving(rnd, coalitions[r])[2]
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
        # Python ints: a huge packets_per_rate_unit cannot overflow the count
        self.packets = [
            scenario.file_packets if u in self.seeds else 0 for u in range(scenario.n_d2d)
        ]
        self.partition = partition
        self.curve = ServiceCurve(allocator=allocator, cumulative=[sum(self.packets)])

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
            if members <= rnd.seeds:
                # no normal UE: nothing to deliver, and the value is fixed
                round_value += rnd.solo_rate[anchor]
                continue
            value, _, normals, _, _, terms = _valued(rnd, anchor, members)
            round_value += value
            for u, term in zip(normals, terms):
                if packets[u] < total_file:
                    gained = math.floor(scenario.packets_per_rate_unit * term)
                    packets[u] = min(total_file, packets[u] + gained)
                    if packets[u] >= total_file:
                        # rnd keeps its own frozenset of seeds, so u serves
                        # from the next round on
                        self.seeds.add(u)
        self.curve.cumulative.append(sum(packets))
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
