"""Shared statistical primitives.

Weighted Pearson correlation, Fisher's exact test for 2x2 tables, the
paired Wilcoxon signed-rank test, the node index of an edge list, the
largest connected component of a graph, reproducible splittable random
streams, and the process pool that maps parallel callers' tasks, one
task per replicate. Everything here is a pure function of its inputs;
streams are addressed by (master seed, path) so parallel workers never
share state. Every stochastic function in the package requires a
:class:`RandomStream`; entry points build one from an integer seed with
:func:`derive_stream`.

Importing this module loads neither numpy nor the process pool; only
the functions on arrays and the pool branch of :func:`map_tasks` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RandomStream",
    "derive_stream",
    "edge_positions",
    "largest_component",
    "map_tasks",
    "weighted_pearson",
    "fisher_exact_2x2",
    "wilcoxon_signed_rank_paired",
    "wilson_interval",
]

# Above this total count Fisher's test switches from exact integer
# enumeration to log-gamma arithmetic.
_FISHER_EXACT_LIMIT = 10_000

# Exact Wilcoxon enumeration up to this many nonzero differences.
_WILCOXON_EXACT_LIMIT = 20

# The standard normal quantile of 0.975: Wilson intervals are 95%.
_Z_95 = 1.959963984540054


@dataclass(frozen=True)
class RandomStream:
    """A reproducible random stream identified by (master_seed, path).

    Streams are realized as numpy Philox generators (a counter-based
    generator) keyed through ``SeedSequence(master_seed, spawn_key=path)``.
    Distinct paths from the same master seed give statistically
    independent streams; the same (seed, path) always reproduces the
    same sequence. The generator family is fixed: changing it would
    silently change every seeded result in the repository.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        """Return a fresh generator positioned at the start of the stream."""
        import numpy as np

        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def child(self, *path: int) -> "RandomStream":
        """Derive a sub-stream by extending the path."""
        return RandomStream(self.master_seed, self.path + path)


def derive_stream(master_seed: int, *path: int) -> RandomStream:
    """Derive the stream addressed by ``path`` under ``master_seed``."""
    return RandomStream(int(master_seed), tuple(int(p) for p in path))


def map_tasks(fn: Callable[[object], object], tasks: Sequence, workers: int) -> list:
    """``fn(task)`` for every task, in order: here if ``workers`` is 1, else in a
    pool of ``workers`` processes, about four chunks per worker (``fn`` must pickle)."""
    if workers <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, math.ceil(len(tasks) / (workers * 4)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


def edge_positions(
    nodes: Iterable[Hashable], edges: Sequence[tuple[Hashable, Hashable]]
) -> tuple[list, list[int], list[int]]:
    """Sorted ``nodes`` and each edge's (src, dst) positions in that list;
    an endpoint outside ``nodes`` raises ValueError."""
    node_list = sorted(nodes)
    index = {node: i for i, node in enumerate(node_list)}
    try:
        return node_list, [index[a] for a, _ in edges], [index[b] for _, b in edges]
    except KeyError as exc:
        raise ValueError(f"edge endpoint {exc} is not a node") from None


def largest_component(n: int, u: Iterable[int], v: Iterable[int]) -> list[bool]:
    """Membership in the largest connected component of the undirected
    graph on nodes 0..n-1 with edges (u[i], v[i]), one bool per node.

    Ties between equal-size components go to the one holding the
    smallest node.
    """
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(u, v):
        ra, rb = find(a), find(b)
        # the smaller root wins, so every root is its component's smallest node
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb

    roots = [find(i) for i in range(n)]
    counts = [0] * n
    for root in roots:
        counts[root] += 1
    giant = counts.index(max(counts))  # the smallest root on ties
    return [root == giant for root in roots]


def weighted_pearson(x, y, w) -> tuple[float, float]:
    """Weighted Pearson correlation and its two-sided p-value.

    Weighted means, variances and covariance use the weights directly,
    each sum correctly rounded (``math.fsum``); the p-value comes from
    t = r * sqrt((n - 2) / (1 - r^2)) against a Student-t distribution
    with n - 2 degrees of freedom, where n is the (unweighted) number of
    points.

    Raises ValueError for fewer than 3 points, a non-finite value,
    non-positive weights, or zero weighted variance in either variable.
    """
    x, y, w = ([float(value) for value in column] for column in (x, y, w))
    n = len(x)
    if not n == len(y) == len(w):
        raise ValueError("x, y and w must have equal lengths")
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if not all(map(math.isfinite, x + y + w)):
        raise ValueError("x, y and w must be finite")
    if min(w) <= 0:
        raise ValueError("all weights must be positive")

    wsum = math.fsum(w)
    mx = math.fsum(map(float.__mul__, w, x)) / wsum
    my = math.fsum(map(float.__mul__, w, y)) / wsum
    dx = [xi - mx for xi in x]
    dy = [yi - my for yi in y]
    cov = math.fsum(wi * a * b for wi, a, b in zip(w, dx, dy)) / wsum
    vx = math.fsum(wi * a * a for wi, a in zip(w, dx)) / wsum
    vy = math.fsum(wi * b * b for wi, b in zip(w, dy)) / wsum
    if vx <= 0.0 or vy <= 0.0:
        raise ValueError("zero weighted variance")

    r = cov / math.sqrt(vx * vy)
    r = max(-1.0, min(1.0, r))
    if 1.0 - r * r < 1e-15:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, min(1.0, _t_two_sided(t, n - 2))


def _t_two_sided(t: float, nu: int) -> float:
    """P(|T| >= |t|) for Student's t with ``nu`` degrees of freedom.

    That is the regularized incomplete beta I_x(nu/2, 1/2) at
    x = nu / (nu + t^2) (DiDonato & Morris 1992), summed by Lentz's
    continued fraction, on whichever of I_x(a, b) = 1 - I_{1-x}(b, a)
    converges fast. 1 - x is formed as t^2 / (nu + t^2), without
    cancellation.
    """
    if t == 0.0:
        return 1.0
    a, b = nu / 2.0, 0.5
    x, y = nu / (nu + t * t), t * t / (nu + t * t)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_001):
        # the even then the odd term of the fraction
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d, c = 1.0 + num * d, 1.0 + num / c
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= math.ulp(1.0):
            return h
    raise ArithmeticError(f"incomplete beta I_{x}({a}, {b}) did not converge")


def fisher_exact_2x2(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher exact p-value for the table [[a, b], [c, d]].

    Enumerates all tables with the observed margins and sums the
    probabilities of those no more likely than the observed table.
    Small tables are evaluated in exact integer arithmetic, so the
    returned float is the correctly rounded true rational; large tables
    fall back to log-gamma arithmetic with the customary 1 + 1e-7
    relative slack in the point-probability comparison.
    """
    cells = (a, b, c, d)
    if any(v < 0 or v != int(v) for v in cells):
        raise ValueError("cell counts must be non-negative integers")
    a, b, c, d = (int(v) for v in cells)
    n = a + b + c + d
    if n == 0:
        raise ValueError("all-zero table")

    row1 = a + b
    col1 = a + c
    lo = max(0, col1 - (n - row1))
    hi = min(col1, row1)
    if lo == hi:
        return 1.0

    if n <= _FISHER_EXACT_LIMIT:
        # C(row1, k) * C(n - row1, col1 - k) for k = lo..hi, each binomial
        # stepped from the one before by an exact multiply and divide
        rest = n - row1
        left, right = math.comb(row1, lo), math.comb(rest, col1 - lo)
        probs = []
        for k in range(lo, hi + 1):
            probs.append(left * right)
            left = left * (row1 - k) // (k + 1)
            right = right * (col1 - k) // (rest - col1 + k + 1)
        observed = probs[a - lo]
        return sum(p for p in probs if p <= observed) / math.comb(n, col1)

    def log_prob(k: int) -> float:
        return (
            _log_comb(row1, k)
            + _log_comb(n - row1, col1 - k)
            - _log_comb(n, col1)
        )

    log_obs = log_prob(a) + math.log1p(1e-7)
    total = math.fsum(
        math.exp(lp) for k in range(lo, hi + 1) if (lp := log_prob(k)) <= log_obs
    )
    return min(1.0, total)


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def wilcoxon_signed_rank_paired(x, y) -> float:
    """One-sided paired Wilcoxon signed-rank p-value (alternative: x > y).

    Zero differences are dropped; ties in |difference| get average
    ranks. With at most 20 nonzero differences the p-value is the exact
    tail of the 2^n sign-assignment distribution; beyond that a normal
    approximation with tie and continuity corrections is used. All
    differences zero gives p = 1.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal lengths")

    d = x - y
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return 1.0

    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if n <= _WILCOXON_EXACT_LIMIT:
        # Doubled ranks are integers even with average-rank ties, so the
        # subset-sum distribution can be tabulated exactly.
        ranks2 = np.rint(2.0 * ranks).astype(np.int64)
        total = int(ranks2.sum())
        counts = np.zeros(total + 1, dtype=np.int64)
        counts[0] = 1
        for r2 in ranks2:
            counts[r2:] += counts[: total + 1 - r2].copy()
        return int(counts[int(round(2.0 * w_plus)):].sum()) / 2**n

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    var -= float((tie_counts**3 - tie_counts).sum()) / 48.0
    if var <= 0.0:
        return 1.0 if w_plus <= mean else 0.0
    z = (w_plus - mean - 0.5) / math.sqrt(var)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1 with average ranks for ties."""
    import numpy as np

    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # the rank of each distinct value's last copy
    return (ends - (counts - 1) / 2)[inverse]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score confidence interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    z = _Z_95
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high
