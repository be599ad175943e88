"""Shared statistical primitives.

Weighted Pearson correlation, Fisher's exact test for 2x2 tables, the
paired Wilcoxon signed-rank test, the node index of an edge list, the
largest connected component of a graph, reproducible splittable random
streams, and the process pool that parallel callers share. Everything
here is a pure function of its inputs; streams are addressed by (master
seed, path) so parallel workers never share state. Every stochastic
function in the package requires a :class:`RandomStream`; entry points
build one from an integer seed with :func:`derive_stream`.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

__all__ = [
    "RandomStream",
    "derive_stream",
    "index_edges",
    "largest_component",
    "map_chunks",
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
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def child(self, *path: int) -> "RandomStream":
        """Derive a sub-stream by extending the path."""
        return RandomStream(self.master_seed, self.path + path)


def derive_stream(master_seed: int, *path: int) -> RandomStream:
    """Derive the stream addressed by ``path`` under ``master_seed``."""
    return RandomStream(int(master_seed), tuple(int(p) for p in path))


def map_chunks(
    fn: Callable[[tuple], object], heads: Sequence[tuple], n: int, workers: int
) -> list:
    """``fn(head + (start, stop))`` for every head and every chunk of range(n).

    Results come back in order: by head, then by chunk. Serially
    (``workers`` 1) each head is one chunk; otherwise range(n) is cut into
    about four chunks per worker and the calls run in a pool of
    ``workers`` processes, so ``fn`` must be a module-level function.
    """
    chunk = max(1, n if workers <= 1 else math.ceil(n / (workers * 4)))
    tasks = [head + (i, min(i + chunk, n)) for head in heads for i in range(0, n, chunk)]
    if workers <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def index_edges(
    nodes: Iterable[Hashable], edges: Sequence[tuple[Hashable, Hashable]]
) -> tuple[list, np.ndarray, np.ndarray]:
    """Sorted ``nodes`` and, as int64 arrays, each edge's (src, dst)
    positions in that list; an endpoint outside ``nodes`` raises ValueError."""
    node_list = sorted(nodes)
    index = {node: i for i, node in enumerate(node_list)}
    try:
        src = np.array([index[a] for a, _ in edges], dtype=np.int64)
        dst = np.array([index[b] for _, b in edges], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"edge endpoint {exc} is not a node") from None
    return node_list, src, dst


def largest_component(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Boolean mask of the largest connected component of the undirected
    graph on nodes 0..n-1 with edges (u[i], v[i]).

    Ties between equal-size components go to the one holding the
    smallest node.
    """
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        # the smaller root wins, so every root is its component's smallest node
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb

    roots = np.array([find(i) for i in range(n)], dtype=np.int64)
    counts = np.bincount(roots, minlength=n)
    return roots == int(np.argmax(counts))  # argmax takes the smallest root on ties


def weighted_pearson(x, y, w) -> tuple[float, float]:
    """Weighted Pearson correlation and its two-sided p-value.

    Weighted means, variances and covariance use the weights directly;
    the p-value comes from t = r * sqrt((n - 2) / (1 - r^2)) against a
    Student-t distribution with n - 2 degrees of freedom, where n is the
    (unweighted) number of points.

    Raises ValueError for fewer than 3 points, non-positive weights, or
    zero weighted variance in either variable.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (x.shape == y.shape == w.shape):
        raise ValueError("x, y and w must have equal lengths")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if np.any(w <= 0):
        raise ValueError("all weights must be positive")

    wsum = w.sum()
    mx = float((w * x).sum() / wsum)
    my = float((w * y).sum() / wsum)
    dx = x - mx
    dy = y - my
    cov = float((w * dx * dy).sum() / wsum)
    vx = float((w * dx * dx).sum() / wsum)
    vy = float((w * dy * dy).sum() / wsum)
    if vx <= 0.0 or vy <= 0.0:
        raise ValueError("zero weighted variance")

    r = cov / math.sqrt(vx * vy)
    r = max(-1.0, min(1.0, r))
    if 1.0 - r * r < 1e-15:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    from scipy.special import stdtr
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return r, min(1.0, p)


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
        probs = [
            math.comb(row1, k) * math.comb(n - row1, col1 - k)
            for k in range(lo, hi + 1)
        ]
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
        return _wilcoxon_exact_tail(ranks, w_plus, n)
    return _wilcoxon_normal_tail(np.abs(d), w_plus, n)


def _wilcoxon_exact_tail(ranks: np.ndarray, w_plus: float, n: int) -> float:
    # Doubled ranks are integers even with average-rank ties, so the
    # subset-sum distribution can be tabulated exactly.
    ranks2 = np.rint(2.0 * ranks).astype(np.int64)
    total = int(ranks2.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r2 in ranks2:
        counts[r2:] += counts[: total + 1 - r2].copy()
    w2 = int(round(2.0 * w_plus))
    tail = int(counts[w2:].sum())
    return tail / 2**n


def _wilcoxon_normal_tail(abs_d: np.ndarray, w_plus: float, n: int) -> float:
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(abs_d, return_counts=True)
    var -= float((tie_counts**3 - tie_counts).sum()) / 48.0
    if var <= 0.0:
        return 1.0 if w_plus <= mean else 0.0
    z = (w_plus - mean - 0.5) / math.sqrt(var)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1 with average ranks for ties."""
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
