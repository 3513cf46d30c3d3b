"""Brute-force references for tests and acceptance runs.

Everything here recomputes rates and values from raw gains with its own
loops, on purpose: the game modules' bookkeeping shortcuts are never reused,
so a single bug cannot sit on both sides of a comparison. Oracles are
desk-scale only and refuse instances beyond their enumeration budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from d2dgames import radio
from d2dgames.coalition import ContentInstance
from d2dgames.power_control import PowerGameInstance
from d2dgames.stackelberg import StackelbergInstance, StackelbergOutcome


@dataclass(frozen=True)
class OracleBudget:
    max_assignments: int = 2_000_000

    def validate(self) -> "OracleBudget":
        if self.max_assignments < 1:
            raise ValueError("oracle budget max_assignments must be >= 1")
        return self


def _assignment_sum_rate(assignment, topology, gains, params):
    # direct link-by-link composition; assignment[j] = -1 (off) or rb
    sigma = radio.effective_noise_w(params)
    downlink = params.link_direction == radio.DOWNLINK
    total = 0.0
    for rb in range(topology.rb_count):
        on_rb = [j for j, a in enumerate(assignment) if a == rb]
        cell_tx = ("enb", 0) if downlink else ("cue", rb)
        cell_rx = ("cue", rb) if downlink else ("enb", 0)
        p_cell = params.p_enb_w if downlink else params.p_cue_w
        interf = sigma
        for j in on_rb:
            interf += params.p_d2d_w * gains.get(("dtx", j), cell_rx, rb)
        total += math.log2(1.0 + p_cell * gains.get(cell_tx, cell_rx, rb) / interf)
        for j in on_rb:
            interf_j = sigma + p_cell * gains.get(cell_tx, ("drx", j), rb)
            for k in on_rb:
                if k != j:
                    interf_j += params.p_d2d_w * gains.get(("dtx", k), ("drx", j), rb)
            sig = params.p_d2d_w * gains.get(("dtx", j), ("drx", j), rb)
            total += math.log2(1.0 + sig / interf_j)
    return total


def exhaustive_best_allocation(
    topology: radio.Topology,
    gains: radio.GainTensor,
    params: radio.RadioParams,
    budget: OracleBudget = OracleBudget(),
):
    """Enumerate every pair->(RB or off) assignment; return the best allocation.

    Ties go to the lexicographically smallest assignment tuple (off first).
    """
    budget.validate()
    m, n = topology.rb_count, topology.n_pairs
    n_states = (m + 1) ** n
    if n_states > budget.max_assignments:
        raise ValueError(
            f"{n_states} assignments exceed oracle budget {budget.max_assignments}"
        )
    best_assignment = None
    best_value = -math.inf
    for assignment in itertools.product(range(-1, m), repeat=n):
        value = _assignment_sum_rate(assignment, topology, gains, params)
        if value > best_value:
            best_value = value
            best_assignment = assignment
    allocation = radio.Allocation(
        rb_of_d2d={j: rb for j, rb in enumerate(best_assignment) if rb >= 0}
    )
    return allocation, best_value


def _partition_value(anchors, inst: ContentInstance, gains, params, seeds):
    # independent nearest-seed pairing and SINR summation per coalition
    sigma = radio.effective_noise_w(params)
    downlink = params.link_direction == radio.DOWNLINK
    pos = inst.ue_pos
    total = 0.0
    for rb in range(inst.scenario.m_cue):
        members = [u for u, a in enumerate(anchors) if a == rb]
        seed_members = [u for u in members if u in seeds]
        normal_members = [u for u in members if u not in seeds]
        serving = {}
        for u in normal_members:
            if seed_members:
                serving[u] = min(
                    seed_members,
                    key=lambda s: (
                        math.hypot(pos[s][0] - pos[u][0], pos[s][1] - pos[u][1]),
                        s,
                    ),
                )
        transmitting = sorted(set(serving.values()))
        cell_tx = ("enb", 0) if downlink else ("cue", rb)
        cell_rx = ("cue", rb) if downlink else ("enb", 0)
        p_cell = params.p_enb_w if downlink else params.p_cue_w
        interf_c = sigma
        for s in transmitting:
            interf_c += params.p_d2d_w * gains.get(("ue", s), cell_rx, rb)
        total += math.log2(1.0 + p_cell * gains.get(cell_tx, cell_rx, rb) / interf_c)
        for u, s in serving.items():
            interf = sigma + p_cell * gains.get(cell_tx, ("ue", u), rb)
            for t in transmitting:
                if t != s:
                    interf += params.p_d2d_w * gains.get(("ue", t), ("ue", u), rb)
            sig = params.p_d2d_w * gains.get(("ue", s), ("ue", u), rb)
            total += math.log2(1.0 + sig / interf)
    return total


def exhaustive_best_partition(
    inst: ContentInstance,
    gains: radio.GainTensor,
    params: radio.RadioParams,
    budget: OracleBudget = OracleBudget(),
    seeds: frozenset[int] | None = None,
):
    """Enumerate all anchor assignments of UEs; return the best partition."""
    from d2dgames.coalition import Partition

    budget.validate()
    n = inst.scenario.n_d2d
    m = inst.scenario.m_cue
    if m**n > budget.max_assignments:
        raise ValueError(f"{m**n} partitions exceed oracle budget {budget.max_assignments}")
    use_seeds = inst.seeds if seeds is None else seeds
    best_anchors = None
    best_value = -math.inf
    for anchors in itertools.product(range(m), repeat=n):
        value = _partition_value(anchors, inst, gains, params, use_seeds)
        if value > best_value:
            best_value = value
            best_anchors = anchors
    members = tuple(
        frozenset(u for u, a in enumerate(best_anchors) if a == rb) for rb in range(m)
    )
    return Partition(members=members), best_value


@dataclass
class MinPowerResult:
    feasible: bool
    powers: np.ndarray | None
    spectral_radius: float


def _power_iteration_radius(f: np.ndarray, iters: int = 500) -> float:
    n = f.shape[0]
    if n == 0:
        return 0.0
    v = np.ones(n)  # kept at max-norm 1, so max(f @ v) estimates the radius
    radius = 0.0
    for _ in range(iters):
        w = f @ v
        top = float(np.max(w))
        if top <= 0.0:
            return 0.0
        radius = top
        v = w / top
    return radius


def solve_min_power(instance: PowerGameInstance) -> MinPowerResult:
    """Exact componentwise-minimal feasible powers for the SINR-target game.

    Feasibility is certified by power iteration on the normalized cross-gain
    matrix (dominant eigenvalue < 1) plus the p_max cap; the balance system is
    then solved directly.
    """
    n = instance.n_players
    if n == 0:
        return MinPowerResult(feasible=True, powers=np.zeros(0), spectral_radius=0.0)
    diag = np.diag(instance.gains)
    f = instance.targets[:, None] * instance.gains / diag[:, None]
    np.fill_diagonal(f, 0.0)
    u = instance.targets * instance.noise_w / diag
    radius = _power_iteration_radius(f)
    if radius >= 1.0:
        return MinPowerResult(feasible=False, powers=None, spectral_radius=radius)
    powers = np.linalg.solve(np.eye(n) - f, u)
    if np.any(powers > instance.p_max_w) or np.any(powers < 0):
        return MinPowerResult(feasible=False, powers=None, spectral_radius=radius)
    return MinPowerResult(feasible=True, powers=powers, spectral_radius=radius)


def grid_equilibrium(instance: StackelbergInstance, grid_points: int = 1000) -> StackelbergOutcome:
    """Bilevel optimum by exhaustive search over a (price, power) grid."""
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    lambdas = np.linspace(instance.lambda_min, instance.lambda_max, grid_points)
    powers = np.linspace(0.0, instance.p_max_w, grid_points)
    interf = instance.sigma_w + instance.p_c_w * instance.g_cd
    best = None
    for lam in lambdas:
        lam = float(lam)
        # follower: best grid power at this price (ties to the smaller power)
        u_f = np.log2(1.0 + powers * instance.g_dd / interf) - lam * powers
        p = float(powers[int(np.argmax(u_f))])
        u_l = math.log2(
            1.0 + instance.p_c_w * instance.g_cc / (instance.sigma_w + p * instance.g_db)
        ) + lam * p
        if best is None or u_l > best[0]:
            best = (u_l, lam, p, float(np.max(u_f)))
    u_l, lam, p, u_f = best
    return StackelbergOutcome(lambda_star=lam, p_star_w=p, u_leader=u_l, u_follower=u_f)
