"""SEIR epidemics on weighted contact networks.

Discrete half-day steps alternate day and night across a repeating
Mon..Sun week. Transmission happens only during weekday day-steps and
only along edges whose contact weight was measured at 30 minutes or
more (w >= 90 twenty-second units). A newly infectious individual
contributes exactly one transmission opportunity, at 25% of its contact
durations, in the first weekday day-step it is infectious (the same
half-day when symptoms start during school hours, the next school
morning otherwise); afterwards it stays home until recovery. Vaccinated
individuals start in the recovered class. A run holds only its active
nodes (exposed, infectious and awaiting a window), so a step costs time
in the size of the outbreak, not of the network. The vaccination
redistribution hill-climb raises the vaccinated/unvaccinated
assortativity to a target at fixed coverage, pricing each trial swap in
O(1) from per-node counts of vaccinated neighbours and deciding it on
the exact r, a fraction of integer edge counts, which the reported r
rounds correctly. Both read per-node tables that a network builds on
first use; a pickled network carries only its fields. R0 runs stop as
soon as the index case's secondary count is final. The synthetic
network generator draws its node pairs one block of rows at a time, so
its memory is bounded by the block and the edges it keeps, not by the
n(n-1)/2 pairs.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import InputError, StallError, read_csv, write_csv
from .stats import RandomStream, largest_component, map_tasks, wilson_interval

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
    "random_assignment",
    "run_seir",
    "estimate_r0",
    "vaccination_assortativity",
    "redistribute",
    "sweep",
    "generate_synthetic_contact_network",
    "read_contact_network",
    "write_sweep_csv",
]

# Minimum eligible contact duration: 30 minutes in 20-second units.
MIN_EDGE_WEIGHT = 90

_STEPS_PER_WEEK = 14  # (day, night) x Mon..Sun
_WEEKDAY_DAY_STEPS = frozenset({0, 2, 4, 6, 8})


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

    def __getstate__(self) -> dict:
        # only the fields: the cached tables below rebuild on demand, so a
        # network pickles to the same bytes before and after they are built
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def m(self) -> int:
        return int(self.edge_u.size)

    @functools.cached_property
    def degrees(self) -> np.ndarray:
        """Each node's degree, built once; read-only."""
        return np.diff(self.indptr)

    def _rows(self, values: np.ndarray) -> list[list]:
        """``values``, one per entry of ``nbr``, split into per-node Python lists."""
        bounds = self.indptr.tolist()
        return [values[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])]

    @functools.cached_property
    def neighbor_lists(self) -> list[list[int]]:
        """Each node's neighbours as Python lists, built once; read-only."""
        return self._rows(self.nbr)

    @functools.cached_property
    def degree_list(self) -> list[int]:
        """``degrees`` as a Python list, built once; read-only."""
        return self.degrees.tolist()

    @functools.cached_property
    def _heads(self) -> np.ndarray:
        # the node whose row holds each entry of nbr
        return np.repeat(np.arange(self.n), self.degrees)

    def transmission_lists(self, factor: float, rate: float) -> list[list[float]]:
        """Each node's per-neighbour transmission probabilities at ``factor``
        times the contact weights, in ``neighbor_lists`` order, as Python
        lists; built once per (factor, rate), read-only."""
        tables = self.__dict__.setdefault("_transmission_lists", {})
        if (factor, rate) not in tables:
            tables[factor, rate] = self._rows(transmission_probability(factor * self.nbr_w, rate))
        return tables[factor, rate]


@dataclass(frozen=True)
class VaccinationAssignment:
    """Boolean vaccination status per node; coverage is exact by count."""

    vaccinated: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vaccinated, dtype=bool)
        object.__setattr__(self, "vaccinated", arr)

    @property
    def n_vaccinated(self) -> int:
        return int(np.count_nonzero(self.vaccinated))


def random_assignment(
    net: ContactNetwork, coverage: float, stream: RandomStream
) -> VaccinationAssignment:
    """Vaccinate round(coverage * n) nodes chosen uniformly at random."""
    if not 0.0 <= coverage <= 1.0:
        raise ValueError("coverage must be in [0, 1]")
    count = int(round(coverage * net.n))
    gen = stream.generator()
    # the chosen set is the same unshuffled; only its order, unused here, differs
    chosen = gen.choice(net.n, size=count, replace=False, shuffle=False)
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


def _uniforms(gen: np.random.Generator, params: SEIRParams):
    """Each uniform of ``gen`` in turn, with the incubation steps it would
    give. They are drawn 64 at a time, as Philox gives the same doubles in
    blocks as in single calls, and the steps are computed once per block."""
    while True:
        block = gen.random(64)
        yield from zip(block.tolist(), _incubation_steps(block, params).tolist())


@functools.cache
def _recovery_hazards(params: SEIRParams) -> list[float]:
    """Recovery hazard after t steps infectious, t = 0..max, forced at the last step."""
    hazard = (1.0 - params.recovery_base ** np.arange(params.max_infectious_steps + 1)).tolist()
    hazard[-1] = 1.0
    return hazard


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

    A step touches only active nodes: ``exposed`` maps a node to the step
    it turns infectious, ``infectious`` to its steps infectious, and
    ``pending`` holds those awaiting their school window. Transmitters and
    recovery draws go in node order, so each draw keeps the size and place
    it has in a scan over all nodes. Probabilities come from the network's
    per-node tables, and uniforms from blocks of 64 (:func:`_uniforms`).

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

    unvaccinated = ~vac.vaccinated
    candidates = np.flatnonzero(unvaccinated)
    if candidates.size == 0:
        raise ValueError("no susceptible node to seed the outbreak")

    index = int(candidates[gen.integers(candidates.size)])
    draw = _uniforms(gen, params).__next__
    susceptible = unvaccinated.tolist()
    susceptible[index] = False
    exposed = {index: draw()[1]}
    infectious: dict[int, int] = {}
    pending: set[int] = set()
    hazard = _recovery_hazards(params)
    neighbors = net.neighbor_lists
    probs = net.transmission_lists(params.symptomatic_contact_factor, params.transmission_rate)

    ever_infected = 1
    secondary_from_index = 0
    trace: list[tuple[int, int, int, int]] = []

    step = 0
    while True:
        for u in [u for u, due in exposed.items() if due == step]:
            del exposed[u]
            infectious[u] = 0
            pending.add(u)

        if step % _STEPS_PER_WEEK in _WEEKDAY_DAY_STEPS:
            # each infectious node attends one school half-day at 25%
            # contact durations, then stays home until recovery: one draw per
            # susceptible neighbour, then one incubation draw per hit
            for u in sorted(pending):
                hits = [v for v, p in zip(neighbors[u], probs[u])
                        if susceptible[v] and draw()[0] < p]
                for v in hits:
                    susceptible[v] = False
                    exposed[v] = step + draw()[1]
                ever_infected += len(hits)
                if u == index:
                    secondary_from_index += len(hits)
            pending.clear()

        # recovery hazard advances every step, nights and weekends included
        for u in sorted(infectious):
            t = infectious[u] + 1
            if draw()[0] < hazard[t]:
                del infectious[u]
                pending.discard(u)
            else:
                infectious[u] = t

        step += 1
        if record_trace:
            s = candidates.size - ever_infected
            trace.append((s, len(exposed), len(infectious),
                          net.n - s - len(exposed) - len(infectious)))
        if not exposed and not infectious:
            break
        if _index_only and index not in exposed and index not in pending:
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


def estimate_r0(
    net: ContactNetwork,
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
        result = run_seir(net, vac, stream=stream.child(i), _index_only=True)
        if result.secondary_from_index >= 1:
            secondary.append(result.secondary_from_index)
    if not secondary:
        raise UndefinedEstimateError(
            f"none of {runs} runs produced a secondary infection"
        )
    return R0Estimate(
        value=sum(secondary) / len(secondary),
        runs_with_secondary=len(secondary),
    )


def _r_fraction(svv: int, suu: int, m: int) -> tuple[int, int]:
    """Assortativity of m edges, each counted in both directions, of which
    svv join two vaccinated nodes and suu two unvaccinated ones, as exact
    (numerator, denominator > 0). With X = m - svv - suu mixed edges and
    D = m + svv - suu the vaccinated degree sum, r = 1 - 2mX / P for
    P = D(2m - D), or 1 when P <= 0 (a single type)."""
    p = (m + svv - suu) * (m - svv + suu)
    if p <= 0:
        return 1, 1
    return p - 2 * m * (m - svv - suu), p


def vaccination_assortativity(net: ContactNetwork, vac: VaccinationAssignment) -> float:
    """Assortativity of vaccination status over the eligible edge set: the
    float nearest the exact r that :func:`redistribute` compares."""
    if net.m == 0:
        raise ValueError("assortativity needs at least one edge")
    a, b = _r_fraction(*_mixing_counts(net, vac.vaccinated), net.m)
    return a / b


def _mixing_counts(net: ContactNetwork, vacc: np.ndarray) -> tuple[int, int]:
    """Vaccinated-vaccinated and unvaccinated-unvaccinated edge counts."""
    uu = vacc[net.edge_u]
    vv = vacc[net.edge_v]
    return int(np.count_nonzero(uu & vv)), int(np.count_nonzero(~(uu | vv)))


def _vaccinated_neighbours(net: ContactNetwork, vacc: np.ndarray) -> tuple[list[int], int, int]:
    """Each node's count of vaccinated neighbours, from one pass over ``nbr``,
    and the svv, suu of :func:`_mixing_counts` derived from those counts:
    summed over the vaccinated nodes they count each vaccinated-vaccinated
    edge twice, and summed over all nodes, twice svv plus the mixed edges."""
    vn = np.bincount(net._heads, weights=vacc[net.nbr], minlength=net.n).astype(np.int64)
    twice_svv = int(vn @ vacc)
    svv = twice_svv // 2
    return vn.tolist(), svv, net.m - svv - (int(vn.sum()) - twice_svv)


def _checked_target(target_r: float) -> float:
    if not (math.isfinite(target_r) and target_r < 1.0):  # r <= 1, so no climb exceeds it
        raise ValueError(f"target r must be finite and below 1, got {target_r!r}")
    return target_r


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
    never changes. r is kept as an exact fraction of integer edge-class
    counts, and each accept and stop test cross-multiplies it with the
    swap's r or with ``target_r``'s exact value, so a swap that leaves r
    unchanged is never kept. Each node's count of vaccinated neighbours,
    built per call in one pass that also gives the edge-class counts,
    prices a trial in O(1); only an accepted swap walks the neighbours of
    x and y, to update those counts.

    If the assignment already exceeds the target it is returned
    unchanged (as a copy). ``max_stall`` consecutive rejected swaps
    raise StallError carrying the best r achieved. A target that is not
    finite or not below 1, which no r (at most 1) exceeds, raises ValueError.
    """
    _checked_target(target_r)
    if net.m == 0:
        raise ValueError("cannot redistribute on an edgeless network")
    if not 0 < vac.n_vaccinated < net.n:
        raise ValueError(f"coverage leaves {vac.n_vaccinated} of {net.n} nodes vaccinated;"
                         " redistribution needs at least one vaccinated and one unvaccinated node")
    vacc = vac.vaccinated.copy()

    vn, svv, suu = _vaccinated_neighbours(net, vacc)
    m = net.m
    a, b = _r_fraction(svv, suu, m)
    p, q = target_r.as_integer_ratio()
    if a * q > p * b:
        return VaccinationAssignment(vacc)

    deg = net.degree_list
    neighbors = net.neighbor_lists
    vacc_nodes = np.flatnonzero(vacc).tolist()
    unvacc_nodes = np.flatnonzero(~vacc).tolist()
    gen = stream.generator()
    stall = 0
    while True:
        picks_x = gen.integers(0, len(vacc_nodes), size=512)
        picks_y = gen.integers(0, len(unvacc_nodes), size=512)
        # a climb uses a few of these; turn them into ints as it reaches them
        for k in range(0, 512, 64):
            for i, j in zip(picks_x[k:k + 64].tolist(), picks_y[k:k + 64].tolist()):
                x, y = vacc_nodes[i], unvacc_nodes[j]
                # x turns unvaccinated and y vaccinated; an x-y edge stays mixed,
                # so it leaves the count of vaccinated neighbours y gains
                dsvv = vn[y] - (y in neighbors[x]) - vn[x]
                new_svv, new_suu = svv + dsvv, suu + dsvv + deg[x] - deg[y]
                c, d = _r_fraction(new_svv, new_suu, m)
                if c * b > a * d:
                    svv, suu, a, b = new_svv, new_suu, c, d
                    vacc[x], vacc[y] = False, True
                    for z in neighbors[x]:
                        vn[z] -= 1
                    for z in neighbors[y]:
                        vn[z] += 1
                    vacc_nodes[i], unvacc_nodes[j] = y, x
                    stall = 0
                    if a * q > p * b:
                        return VaccinationAssignment(vacc)
                else:
                    stall += 1
                    if stall >= max_stall:
                        raise StallError(
                            f"no accepted swap in {max_stall} trials; "
                            f"best r {a / b:.6f} short of target {target_r:.6f}",
                            best_r=a / b,
                            target_r=target_r,
                        )


# The attack rates that p_ge_3pct and p_ge_5pct (and rr_3pct, rr_5pct) count.
_ATTACK_THRESHOLDS = (0.03, 0.05)


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


def default_r_grid() -> list[float]:
    """The full experiment grid: 0 to 0.145 in steps of 0.005."""
    return [round(0.005 * i, 3) for i in range(30)]


def _sweep_task(net, coverage, max_stall, stream, task) -> tuple[float, float]:
    grid_index, target_r, j = task
    stream = stream.child(grid_index, j)
    vac = random_assignment(net, coverage, stream.child(0))
    try:
        vac = redistribute(net, vac, target_r, stream.child(1), max_stall)
    except StallError as exc:
        raise StallError(
            f"grid point {grid_index} (target r {target_r}), "
            f"redistribution {j}: {exc}",
            best_r=exc.best_r,
            target_r=target_r,
        ) from None
    result = run_seir(net, vac, stream=stream.child(2))
    return vaccination_assortativity(net, vac), result.attack_rate


def sweep(
    net: ContactNetwork,
    coverage: float,
    r_grid: Sequence[float],
    redistributions_per_r: int,
    stream: RandomStream,
    workers: int = 1,
    max_stall: int = 50_000,
) -> SweepReport:
    """Outbreak risk as a function of vaccination assortativity.

    For every grid value: draw a fresh random assignment, redistribute
    it to the target, and run one simulation, ``redistributions_per_r``
    times. Each of these is one task for :func:`map_tasks`, drawing from
    (master stream, grid index, redistribution index), so the report is
    identical for any worker count or scheduling order.
    """
    grid = [_checked_target(float(r)) for r in r_grid]
    if not grid:
        raise ValueError("empty r grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("r grid must be strictly ascending")
    if redistributions_per_r < 1:
        raise ValueError("redistributions_per_r must be at least 1")

    n = redistributions_per_r
    tasks = [(gi, target, j) for gi, target in enumerate(grid) for j in range(n)]
    run = functools.partial(_sweep_task, net, coverage, max_stall, stream)
    rows = map_tasks(run, tasks, workers)

    points = []
    baseline: tuple[float, float] | None = None
    for gi, target in enumerate(grid):
        achieved, attacks = map(np.array, zip(*rows[gi * n:(gi + 1) * n]))
        runs = attacks.size
        hits3, hits5 = (int((attacks >= t).sum()) for t in _ATTACK_THRESHOLDS)
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
    return SweepReport(points=tuple(points))


def _relative_risk(p: float, p_baseline: float) -> float:
    # baseline vs itself is definitionally 1, even at zero risk
    if p == p_baseline:
        return 1.0
    if p_baseline > 0.0:
        return p / p_baseline
    return math.inf


# Node pairs drawn per block by generate_synthetic_contact_network (at least one row).
_PAIR_BLOCK = 1 << 16


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
    pruned size is logged. The pairs are drawn in blocks of rows of
    about 65,536 pairs, which bounds the memory; the network is the one
    a single draw over all pairs gives.
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
    # pairs (i, j > i) in row-major order, a block of rows per draw; the
    # uniforms come out of the stream as from one draw over all pairs
    rows = max(1, _PAIR_BLOCK // n_nodes)
    hits_u, hits_v = [], []
    for a in range(0, n_nodes - 1, rows):
        i, j = np.nonzero(np.triu(np.ones((min(rows, n_nodes - 1 - a), n_nodes), bool), k=a + 1))
        i += a
        prob = np.where(groups[i] == groups[j], p_intra, p_inter)
        mask = gen.random(i.size) < prob
        hits_u.append(i[mask])
        hits_v.append(j[mask])
    u, v = np.concatenate(hits_u), np.concatenate(hits_v)
    if u.size == 0:
        raise ValueError("parameters produced no edges")
    w = gen.integers(lo, hi + 1, size=u.size)

    keep = np.array(largest_component(n_nodes, u.tolist(), v.tolist()))
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


def write_sweep_csv(path: str | Path, report: SweepReport) -> None:
    write_csv(path, [f.name for f in fields(SweepPoint)], map(astuple, report.points))
