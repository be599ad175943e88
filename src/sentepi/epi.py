"""SEIR epidemics on weighted contact networks.

Discrete half-day steps alternate day and night across a repeating
Mon..Sun week. Transmission happens only during weekday day-steps and
only along edges whose contact weight was measured at 30 minutes or
more (w >= 90 twenty-second units). A newly infectious individual
contributes exactly one transmission opportunity, at 25% of its contact
durations, in the first weekday day-step it is infectious (the same
half-day when symptoms start during school hours, the next school
morning otherwise); afterwards it stays home until recovery. Vaccinated
individuals start in the recovered class. The vaccination
redistribution hill-climb raises the vaccinated/unvaccinated
assortativity to a target while holding coverage fixed, updating the
coefficient incrementally from integer edge counts. R0 runs stop as
soon as the index case's secondary count is final.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import InputError, read_csv, write_csv
from .stats import RandomStream, largest_component, map_chunks, wilson_interval

logger = logging.getLogger(__name__)

__all__ = [
    "MIN_EDGE_WEIGHT",
    "SEIRParams",
    "ContactNetwork",
    "VaccinationAssignment",
    "SimResult",
    "R0Estimate",
    "SweepPoint",
    "SweepReport",
    "StallError",
    "UndefinedEstimateError",
    "transmission_probability",
    "sample_incubation",
    "random_assignment",
    "run_seir",
    "estimate_r0",
    "vaccination_assortativity",
    "redistribute",
    "sweep",
    "generate_synthetic_contact_network",
    "read_contact_network",
    "write_contact_network",
    "write_sweep_csv",
]

# Minimum eligible contact duration: 30 minutes in 20-second units.
MIN_EDGE_WEIGHT = 90

_STEPS_PER_WEEK = 14  # (day, night) x Mon..Sun
_WEEKDAY_DAY_STEPS = frozenset({0, 2, 4, 6, 8})

_S, _E, _I, _R = 0, 1, 2, 3


class StallError(RuntimeError):
    """Hill-climb hit its rejected-swap limit before reaching the target."""

    def __init__(self, message: str, best_r: float, target_r: float):
        super().__init__(message)
        self.best_r = best_r
        self.target_r = target_r


class UndefinedEstimateError(ValueError):
    """No simulation run produced a secondary infection."""


@dataclass(frozen=True)
class SEIRParams:
    """Disease parameters on the half-day step grid.

    Transmission per day-step along an edge of weight w succeeds with
    probability 1 - (1 - transmission_rate)^w. Incubation is a Weibull
    draw (shape, scale in days) plus a fixed half-day offset, rounded to
    the nearest half-day step with a floor of one step. Recovery fires
    with hazard 1 - recovery_base^t per step after t steps infectious
    and is forced at max_infectious_steps.
    """

    transmission_rate: float = 0.00767
    incubation_shape: float = 2.21
    incubation_scale_days: float = 1.10
    incubation_offset_days: float = 0.5
    recovery_base: float = 0.95
    max_infectious_steps: int = 24
    symptomatic_contact_factor: float = 0.25

    def __post_init__(self):
        if not 0.0 <= self.transmission_rate <= 1.0:
            raise ValueError("transmission_rate must be in [0, 1]")
        if not 0.0 <= self.recovery_base <= 1.0:
            raise ValueError("recovery_base must be in [0, 1]")
        if not 0.0 <= self.symptomatic_contact_factor <= 1.0:
            raise ValueError("symptomatic_contact_factor must be in [0, 1]")
        if self.max_infectious_steps <= 0:
            raise ValueError("max_infectious_steps must be positive")
        if self.incubation_shape <= 0 or self.incubation_scale_days <= 0:
            raise ValueError("incubation shape and scale must be positive")
        if self.incubation_offset_days < 0:
            raise ValueError("incubation offset must be non-negative")


def transmission_probability(
    w: float | np.ndarray, rate: float = SEIRParams.transmission_rate
) -> float | np.ndarray:
    """Per-day-step transmission probability along an edge of weight w,
    or along each edge of an array of weights."""
    if (np.asarray(w) < 0).any():
        raise ValueError("weight must be non-negative")
    return 1.0 - (1.0 - rate) ** w


def sample_incubation(stream: RandomStream, params: SEIRParams = SEIRParams()) -> int:
    """Draw an incubation time in half-day steps (>= 1) by inverse CDF."""
    return int(_incubation_steps(stream.generator().random(size=1), params)[0])


def _incubation_steps(u: np.ndarray, params: SEIRParams) -> np.ndarray:
    # u in [0, 1); 1 - u in (0, 1] keeps the log finite.
    draw = (-np.log(1.0 - u)) ** (1.0 / params.incubation_shape)
    days = params.incubation_offset_days + params.incubation_scale_days * draw
    steps = np.floor(days / 0.5 + 0.5).astype(np.int64)
    return np.maximum(steps, 1)


def _canonical_edge(u: int, v: int, w: int, n: float, seen: set) -> tuple[int, int, int]:
    """The edge of a network of n nodes as (min, max, w), its node pair
    added to ``seen``; an edge breaking a rule raises ValueError."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) references a missing node")
    if u == v:
        raise ValueError(f"self-loop at node {u}")
    if w < MIN_EDGE_WEIGHT:
        raise ValueError(
            f"edge ({u}, {v}) has weight {w} < {MIN_EDGE_WEIGHT}; "
            "contacts shorter than 30 minutes are not eligible"
        )
    key = (min(u, v), max(u, v))
    if key in seen:
        raise ValueError(f"duplicate edge {key}")
    seen.add(key)
    return key[0], key[1], w


@dataclass(frozen=True)
class ContactNetwork:
    """Undirected weighted contact graph in CSR form.

    Weights are contact durations in 20-second units; every edge must
    satisfy w >= MIN_EDGE_WEIGHT, so the simulation and the
    assortativity bookkeeping always operate on the identical edge set.
    """

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    indptr: np.ndarray = field(repr=False)
    nbr: np.ndarray = field(repr=False)
    nbr_w: np.ndarray = field(repr=False)

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int, int]]) -> "ContactNetwork":
        """Validate and index an edge list of (u, v, w) triples."""
        if n <= 0:
            raise ValueError("network must have at least one node")
        seen: set[tuple[int, int]] = set()
        canon = sorted(_canonical_edge(int(u), int(v), int(w), n, seen) for u, v, w in edges)
        eu, ev, ew = np.array(canon, dtype=np.int64).reshape(-1, 3).T.copy()
        degrees = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
        order = np.argsort(np.concatenate([eu, ev]), kind="stable")
        return cls(
            n=n, edge_u=eu, edge_v=ev, edge_w=ew,
            indptr=np.concatenate([[0], np.cumsum(degrees)]),
            nbr=np.concatenate([ev, eu])[order], nbr_w=np.concatenate([ew, ew])[order],
        )

    @property
    def m(self) -> int:
        return int(self.edge_u.size)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[node], self.indptr[node + 1]
        return self.nbr[lo:hi], self.nbr_w[lo:hi]

    @functools.cached_property
    def neighbor_lists(self) -> list[list[int]]:
        """Each node's neighbours as Python lists, built once; read-only."""
        return [self.nbr[self.indptr[i] : self.indptr[i + 1]].tolist() for i in range(self.n)]


@dataclass(frozen=True)
class VaccinationAssignment:
    """Boolean vaccination status per node; coverage is exact by count."""

    vaccinated: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vaccinated, dtype=bool)
        object.__setattr__(self, "vaccinated", arr)

    @property
    def n_vaccinated(self) -> int:
        return int(self.vaccinated.sum())

    @property
    def coverage(self) -> float:
        return self.n_vaccinated / self.vaccinated.size


def random_assignment(
    net: ContactNetwork, coverage: float, stream: RandomStream
) -> VaccinationAssignment:
    """Vaccinate round(coverage * n) nodes chosen uniformly at random."""
    if not 0.0 <= coverage <= 1.0:
        raise ValueError("coverage must be in [0, 1]")
    count = int(round(coverage * net.n))
    gen = stream.generator()
    chosen = gen.choice(net.n, size=count, replace=False)
    vaccinated = np.zeros(net.n, dtype=bool)
    vaccinated[chosen] = True
    return VaccinationAssignment(vaccinated)


@dataclass(frozen=True)
class SimResult:
    """Outcome of one outbreak simulation."""

    ever_infected: int
    secondary_from_index: int
    duration_steps: int
    attack_rate: float
    index_node: int
    trace: tuple[tuple[int, int, int, int], ...] | None = None


def run_seir(
    net: ContactNetwork,
    vac: VaccinationAssignment,
    params: SEIRParams = SEIRParams(),
    *,
    stream: RandomStream,
    record_trace: bool = False,
    _index_only: bool = False,
) -> SimResult:
    """Simulate one outbreak from a random susceptible index case.

    The index case is exposed at the start of a Monday day-step. The run
    ends when no exposed or infectious individuals remain; the returned
    trace (if requested) holds (S, E, I, R) counts after each step.

    ``_index_only`` (for :func:`estimate_r0`) also ends the run once the
    index case is neither exposed nor waiting for its school window, so
    ``secondary_from_index`` is final. Until that window the index is the
    only infected node, so every draw deciding the count is made as in a
    full run. The result is truncated: ``ever_infected``,
    ``duration_steps``, ``attack_rate`` and the trace stop there.
    """
    if vac.vaccinated.size != net.n:
        raise ValueError("vaccination assignment does not match network size")
    gen = stream.generator()

    state = np.full(net.n, _S, dtype=np.int8)
    state[vac.vaccinated] = _R
    susceptible = np.flatnonzero(state == _S)
    if susceptible.size == 0:
        raise ValueError("no susceptible node to seed the outbreak")

    index = int(susceptible[gen.integers(susceptible.size)])
    clock = np.zeros(net.n, dtype=np.int64)
    state[index] = _E
    # The index is exposed during step 0, so like any node exposed during
    # a step its clock must not tick until the following step; the +1
    # cancels the decrement the progression phase applies at step 0.
    clock[index] = _incubation_steps(gen.random(size=1), params)[0] + 1

    ever_infected = 1
    secondary_from_index = 0
    factor = params.symptomatic_contact_factor
    # marks infectious nodes still waiting for their single school window
    window_pending = np.zeros(net.n, dtype=bool)
    trace: list[tuple[int, int, int, int]] = []

    step = 0
    while True:
        # an exposed node's clock counts incubation steps left and ticks
        # every step; at 0 the node turns infectious now, and from then on
        # its clock counts steps infectious
        exposed = np.flatnonzero(state == _E)
        clock[exposed] -= 1
        fresh = exposed[clock[exposed] == 0]
        state[fresh] = _I
        window_pending[fresh] = True

        if step % _STEPS_PER_WEEK in _WEEKDAY_DAY_STEPS:
            # each infectious node attends one school half-day at 25%
            # contact durations, then stays home until recovery
            transmitters = np.flatnonzero(window_pending & (state == _I))
            for u in transmitters:
                nbrs, wts = net.neighbors(int(u))
                sus_mask = state[nbrs] == _S
                if not np.any(sus_mask):
                    continue
                targets = nbrs[sus_mask]
                probs = transmission_probability(factor * wts[sus_mask], params.transmission_rate)
                hits = targets[gen.random(targets.size) < probs]
                if hits.size:
                    state[hits] = _E
                    clock[hits] = _incubation_steps(gen.random(size=hits.size), params)
                    ever_infected += int(hits.size)
                    if int(u) == index:
                        secondary_from_index += int(hits.size)
            window_pending[transmitters] = False

        # recovery hazard advances every step, nights and weekends included
        infectious = np.flatnonzero(state == _I)
        if infectious.size:
            clock[infectious] += 1
            t = clock[infectious]
            hazard = 1.0 - params.recovery_base**t
            recovers = (gen.random(infectious.size) < hazard) | (
                t >= params.max_infectious_steps
            )
            state[infectious[recovers]] = _R

        step += 1
        if record_trace:
            trace.append(tuple(np.bincount(state, minlength=4).tolist()))
        if not np.any(state == _E) and not np.any(state == _I):
            break
        if _index_only and state[index] != _E and not (
            state[index] == _I and window_pending[index]
        ):
            break

    return SimResult(
        ever_infected=ever_infected,
        secondary_from_index=secondary_from_index,
        duration_steps=step,
        attack_rate=ever_infected / net.n,
        index_node=index,
        trace=tuple(trace) if record_trace else None,
    )


@dataclass(frozen=True)
class R0Estimate:
    """Mean secondary infections among runs with at least one."""

    value: float
    runs_with_secondary: int
    total_runs: int


def estimate_r0(
    net: ContactNetwork,
    params: SEIRParams = SEIRParams(),
    runs: int = 1000,
    *,
    stream: RandomStream,
) -> R0Estimate:
    """Estimate the basic reproduction number on the unvaccinated network.

    Run i draws from ``stream.child(i)`` and stops once its index case's
    secondary count is final (see :func:`run_seir`), which leaves the
    estimate equal to that of full runs.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    vac = VaccinationAssignment(np.zeros(net.n, dtype=bool))
    secondary = []
    for i in range(runs):
        result = run_seir(net, vac, params, stream=stream.child(i), _index_only=True)
        if result.secondary_from_index >= 1:
            secondary.append(result.secondary_from_index)
    if not secondary:
        raise UndefinedEstimateError(
            f"none of {runs} runs produced a secondary infection"
        )
    return R0Estimate(
        value=sum(secondary) / len(secondary),
        runs_with_secondary=len(secondary),
        total_runs=runs,
    )


def _two_type_r(svv: int, suu: int, m: int) -> float:
    """Assortativity of m undirected edges, svv joining two vaccinated
    nodes and suu two unvaccinated ones.

    Every edge is counted once in each direction, so the mixing matrix
    is symmetric. The m - svv - suu mixed edges make the vaccinated
    nodes' summed degree m + svv - suu. Returns 1.0 in the degenerate
    single-type case.
    """
    a_v = (m + svv - suu) / (2 * m)
    if a_v <= 0.0 or a_v >= 1.0:
        return 1.0
    sab = a_v * a_v + (1.0 - a_v) * (1.0 - a_v)
    sii = (svv + suu) / m
    return (sii - sab) / (1.0 - sab)


def vaccination_assortativity(net: ContactNetwork, vac: VaccinationAssignment) -> float:
    """Assortativity of vaccination status over the eligible edge set."""
    if net.m == 0:
        raise ValueError("assortativity needs at least one edge")
    return _two_type_r(*_mixing_counts(net, vac.vaccinated), net.m)


def _mixing_counts(net: ContactNetwork, vacc: np.ndarray) -> tuple[int, int]:
    """Vaccinated-vaccinated and unvaccinated-unvaccinated edge counts."""
    uu = vacc[net.edge_u]
    vv = vacc[net.edge_v]
    return int((uu & vv).sum()), int((~uu & ~vv).sum())


def redistribute(
    net: ContactNetwork,
    vac: VaccinationAssignment,
    target_r: float,
    stream: RandomStream,
    max_stall: int = 50_000,
) -> VaccinationAssignment:
    """Raise vaccination assortativity above ``target_r`` by status swaps.

    Repeatedly picks one vaccinated and one unvaccinated node at random,
    swaps their statuses, keeps the swap only if the assortativity
    strictly increases, and stops once it exceeds the target. Coverage
    never changes. The coefficient is maintained incrementally from
    integer edge-class counts in O(deg(x) + deg(y)) per trial, which is
    exact, so it cannot drift from a fresh recomputation.

    If the assignment already exceeds the target it is returned
    unchanged (as a copy). ``max_stall`` consecutive rejected swaps
    raise StallError carrying the best r achieved.
    """
    if net.m == 0:
        raise ValueError("cannot redistribute on an edgeless network")
    if not 0 < vac.n_vaccinated < net.n:
        raise ValueError("coverage must be strictly between 0 and 1")
    vacc = vac.vaccinated.copy()

    svv, suu = _mixing_counts(net, vacc)
    m = net.m
    r = _two_type_r(svv, suu, m)
    if r > target_r:
        return VaccinationAssignment(vacc)

    status = vacc.tolist()
    is_vacc = status.__getitem__
    deg = net.degrees.tolist()
    neighbors = net.neighbor_lists
    vacc_nodes = [i for i in range(net.n) if status[i]]
    unvacc_nodes = [i for i in range(net.n) if not status[i]]
    gen = stream.generator()
    stall = 0
    while True:
        for i, j in zip(
            gen.integers(0, len(vacc_nodes), size=512).tolist(),
            gen.integers(0, len(unvacc_nodes), size=512).tolist(),
        ):
            x, y = vacc_nodes[i], unvacc_nodes[j]
            # x turns unvaccinated and y vaccinated; an x-y edge stays mixed,
            # so it leaves the count of vaccinated neighbours y gains
            nx, ny = neighbors[x], neighbors[y]
            dsvv = sum(map(is_vacc, ny)) - (y in nx) - sum(map(is_vacc, nx))
            new_svv, new_suu = svv + dsvv, suu + dsvv + deg[x] - deg[y]
            new_r = _two_type_r(new_svv, new_suu, m)
            if new_r > r:
                svv, suu, r = new_svv, new_suu, new_r
                status[x], status[y] = False, True
                vacc_nodes[i], unvacc_nodes[j] = y, x
                stall = 0
                if r > target_r:
                    return VaccinationAssignment(np.array(status, dtype=bool))
            else:
                stall += 1
                if stall >= max_stall:
                    raise StallError(
                        f"no accepted swap in {max_stall} trials; "
                        f"best r {r:.6f} short of target {target_r:.6f}",
                        best_r=r,
                        target_r=target_r,
                    )


@dataclass(frozen=True)
class SweepPoint:
    target_r: float
    achieved_r_mean: float
    runs: int
    p_ge_3pct: float
    p_ge_5pct: float
    rr_3pct: float
    rr_5pct: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class SweepReport:
    """Outbreak-risk aggregates per assortativity grid point.

    Relative risks compare each point to the first grid point;
    (ci_low, ci_high) is the 95% Wilson interval for p_ge_3pct.
    """

    points: tuple[SweepPoint, ...]
    coverage: float
    redistributions_per_r: int
    attack_thresholds: tuple[float, float] = (0.03, 0.05)


def default_r_grid() -> list[float]:
    """The full experiment grid: 0 to 0.145 in steps of 0.005."""
    return [round(0.005 * i, 3) for i in range(30)]


def _sweep_chunk(args):
    (net, coverage, target_r, grid_index, stream, params, max_stall,
     j_start, j_stop) = args
    rows = []
    for j in range(j_start, j_stop):
        vac = random_assignment(net, coverage, stream.child(grid_index, j, 0))
        try:
            vac = redistribute(
                net, vac, target_r, stream.child(grid_index, j, 1), max_stall
            )
        except StallError as exc:
            raise StallError(
                f"grid point {grid_index} (target r {target_r}), "
                f"redistribution {j}: {exc}",
                best_r=exc.best_r,
                target_r=target_r,
            ) from None
        result = run_seir(net, vac, params, stream=stream.child(grid_index, j, 2))
        rows.append((j, vaccination_assortativity(net, vac), result.attack_rate))
    return grid_index, rows


def sweep(
    net: ContactNetwork,
    coverage: float,
    r_grid: Sequence[float],
    redistributions_per_r: int,
    stream: RandomStream,
    params: SEIRParams = SEIRParams(),
    workers: int = 1,
    max_stall: int = 50_000,
) -> SweepReport:
    """Outbreak risk as a function of vaccination assortativity.

    For every grid value: draw a fresh random assignment, redistribute
    it to the target, and run one simulation, ``redistributions_per_r``
    times. Each task's randomness is derived from (master stream, grid
    index, redistribution index), so the report is identical for any
    worker count or scheduling order.
    """
    grid = [float(r) for r in r_grid]
    if not grid:
        raise ValueError("empty r grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("r grid must be strictly ascending")
    if redistributions_per_r < 1:
        raise ValueError("redistributions_per_r must be at least 1")

    heads = [
        (net, coverage, target, gi, stream, params, max_stall)
        for gi, target in enumerate(grid)
    ]
    per_point: list[list[tuple[int, float, float]]] = [[] for _ in grid]
    for gi, rows in map_chunks(_sweep_chunk, heads, redistributions_per_r, workers):
        per_point[gi].extend(rows)

    thresholds = SweepReport.attack_thresholds
    points = []
    baseline: tuple[float, float] | None = None
    for gi, target in enumerate(grid):
        rows = per_point[gi]
        achieved = np.array([row[1] for row in rows])
        attacks = np.array([row[2] for row in rows])
        runs = attacks.size
        hits3 = int((attacks >= thresholds[0]).sum())
        hits5 = int((attacks >= thresholds[1]).sum())
        p3, p5 = hits3 / runs, hits5 / runs
        if baseline is None:
            baseline = (p3, p5)
        ci_low, ci_high = wilson_interval(hits3, runs)
        points.append(
            SweepPoint(
                target_r=target,
                achieved_r_mean=float(achieved.mean()),
                runs=runs,
                p_ge_3pct=p3,
                p_ge_5pct=p5,
                rr_3pct=_relative_risk(p3, baseline[0]),
                rr_5pct=_relative_risk(p5, baseline[1]),
                ci_low=ci_low,
                ci_high=ci_high,
            )
        )
    return SweepReport(
        points=tuple(points),
        coverage=coverage,
        redistributions_per_r=redistributions_per_r,
    )


def _relative_risk(p: float, p_baseline: float) -> float:
    # baseline vs itself is definitionally 1, even at zero risk
    if p == p_baseline:
        return 1.0
    if p_baseline > 0.0:
        return p / p_baseline
    return math.inf


def generate_synthetic_contact_network(
    n_nodes: int,
    n_groups: int,
    p_intra: float,
    p_inter: float,
    weight_range: tuple[int, int],
    stream: RandomStream,
) -> ContactNetwork:
    """Group-structured random contact network with integer weights.

    Nodes split into ``n_groups`` near-equal groups; each within-group
    pair is linked with probability ``p_intra`` and each cross-group
    pair with ``p_inter``. Weights are uniform integers over
    ``weight_range`` (whose low end must be >= MIN_EDGE_WEIGHT). Only
    the largest connected component is kept, relabeled 0..n'-1; the
    pruned size is logged.
    """
    if n_nodes <= 1 or n_groups < 1:
        raise ValueError("need at least 2 nodes and 1 group")
    lo, hi = int(weight_range[0]), int(weight_range[1])
    if lo < MIN_EDGE_WEIGHT or hi < lo:
        raise ValueError(f"weight range must lie within [{MIN_EDGE_WEIGHT}, inf)")
    if not (0.0 <= p_intra <= 1.0 and 0.0 <= p_inter <= 1.0):
        raise ValueError("edge probabilities must be in [0, 1]")

    gen = stream.generator()
    groups = np.sort(np.arange(n_nodes) % n_groups)
    iu, ju = np.triu_indices(n_nodes, k=1)
    prob = np.where(groups[iu] == groups[ju], p_intra, p_inter)
    mask = gen.random(prob.size) < prob
    u, v = iu[mask], ju[mask]
    if u.size == 0:
        raise ValueError("parameters produced no edges")
    w = gen.integers(lo, hi + 1, size=u.size)

    keep = largest_component(n_nodes, u, v)
    relabel = -np.ones(n_nodes, dtype=np.int64)
    kept_nodes = np.flatnonzero(keep)
    relabel[kept_nodes] = np.arange(kept_nodes.size)
    edges = np.column_stack([relabel[u], relabel[v], w])[keep[u] & keep[v]].tolist()
    if kept_nodes.size < n_nodes:
        logger.info(
            "kept largest component: %d of %d requested nodes",
            kept_nodes.size,
            n_nodes,
        )
    return ContactNetwork.from_edges(int(kept_nodes.size), edges)


# --- file formats ---------------------------------------------------------


def read_contact_network(path: str | Path) -> ContactNetwork:
    """Read a ``u,v,w`` CSV (with header) into a validated network. A row
    that is not an edge of it, or a file without edges, raises InputError
    ``path:line:``."""
    seen: set[tuple[int, int]] = set()
    edges = [edge for _, edge in read_csv(
        path, ["u", "v", "w"],
        lambda *fields: _canonical_edge(*map(int, fields), math.inf, seen),
        f"3 integer fields u,v,w: two distinct nodes >= 0, weight >= {MIN_EDGE_WEIGHT},"
        " each pair once",
    )]
    if not edges:
        raise InputError(f"{path}:2: expected 3 integer fields u,v,w, got end of file")
    return ContactNetwork.from_edges(max(v for _, v, _ in edges) + 1, edges)


def write_contact_network(path: str | Path, net: ContactNetwork) -> None:
    rows = zip(net.edge_u.tolist(), net.edge_v.tolist(), net.edge_w.tolist())
    write_csv(path, ["u", "v", "w"], rows)


def write_sweep_csv(path: str | Path, report: SweepReport) -> None:
    write_csv(path, [f.name for f in fields(SweepPoint)], map(astuple, report.points))
