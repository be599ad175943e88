"""Assortative mixing of sentiment on the directed network.

Quantifies homophily via the mixing-matrix assortativity coefficient,
tests it against label-bootstrap null distributions, and scores
sentiment enrichment of modularity communities.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from . import write_csv
from .stats import (
    RandomStream, fisher_exact_2x2, index_edges, map_chunks, wilcoxon_signed_rank_paired
)

__all__ = [
    "AssortativityResult",
    "NullDistribution",
    "InFractionTest",
    "CommunityStats",
    "CommunityReport",
    "assortativity",
    "bootstrap_null",
    "in_fraction",
    "in_fraction_test",
    "detect_communities",
    "modularity",
    "community_enrichment",
    "write_null_distribution_csv",
    "write_communities_csv",
]


@dataclass(frozen=True)
class AssortativityResult:
    """Assortativity coefficient r; ``degenerate`` marks the single-type
    case where r is reported as 1 by convention."""

    r: float
    degenerate: bool = False


def _code_edges(
    labels: Mapping[Hashable, Hashable],
    edges: Sequence[tuple[Hashable, Hashable]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Type codes of the sorted nodes, edges as (src, dst) index arrays,
    and the sorted types."""
    node_list, src, dst = index_edges(labels, edges)
    types = sorted({labels[n] for n in node_list}, key=repr)
    type_index = {t: i for i, t in enumerate(types)}
    codes = np.array([type_index[labels[n]] for n in node_list], dtype=np.int64)
    return codes, src, dst, types


def _assortativity_from_codes(
    edge_src_types: np.ndarray, edge_dst_types: np.ndarray, n_types: int
) -> AssortativityResult:
    m = edge_src_types.size
    if m == 0:
        raise ValueError("assortativity needs at least one edge")
    counts = np.bincount(
        edge_src_types * n_types + edge_dst_types, minlength=n_types * n_types
    ).reshape(n_types, n_types)
    e = counts / m
    a = e.sum(axis=1)
    b = e.sum(axis=0)
    trace = float(np.trace(e))
    sab = float((a * b).sum())
    # a type appears among the endpoints iff its row or column is nonzero
    if np.count_nonzero(counts.sum(axis=0) + counts.sum(axis=1)) == 1:
        return AssortativityResult(r=1.0, degenerate=True)
    return AssortativityResult(r=(trace - sab) / (1.0 - sab))


def assortativity(
    labels: Mapping[Hashable, Hashable],
    edges: Sequence[tuple[Hashable, Hashable]],
) -> AssortativityResult:
    """Mixing-matrix assortativity r of a labeled directed graph.

    With e_ij the fraction of edges from type i to type j, a_i and b_j
    its row and column sums, r = (sum_i e_ii - sum_i a_i b_i) /
    (1 - sum_i a_i b_i). r = 1 iff every edge joins same-type nodes;
    directed graphs can fall below -1. If only one type appears among
    edge endpoints the statistic degenerates and r is reported as 1
    with the ``degenerate`` flag set.
    """
    codes, src, dst, types = _code_edges(labels, edges)
    return _assortativity_from_codes(codes[src], codes[dst], len(types))


@dataclass(frozen=True)
class NullDistribution:
    """Replicate assortativity values under label randomization."""

    values: np.ndarray
    mean: float = field(init=False)
    ci_low: float = field(init=False)
    ci_high: float = field(init=False)
    max: float = field(init=False)

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "mean", float(v.mean()))
        object.__setattr__(self, "ci_low", _nearest_rank(v, 0.025))
        object.__setattr__(self, "ci_high", _nearest_rank(v, 0.975))
        object.__setattr__(self, "max", float(v[-1]))

    def __len__(self) -> int:
        return len(self.values)


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    n = sorted_values.size
    idx = max(1, int(np.ceil(q * n))) - 1
    return float(sorted_values[min(idx, n - 1)])


def _resample_codes(multiset: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    # i.i.d. draws with replacement from the empirical label multiset.
    # The pool is sorted so replicates depend only on (topology, label
    # multiset, seed), not on which node happened to carry which label.
    return multiset[gen.integers(0, multiset.size, size=multiset.size)]


def _null_chunk(args) -> np.ndarray:
    multiset, src, dst, k, stream, i_start, i_stop = args
    values = np.empty(i_stop - i_start, dtype=float)
    for i in range(i_start, i_stop):
        gen = stream.child(i).generator()
        replicate = _resample_codes(multiset, gen)
        values[i - i_start] = _assortativity_from_codes(
            replicate[src], replicate[dst], k
        ).r
    return values


def bootstrap_null(
    labels: Mapping[Hashable, Hashable],
    edges: Sequence[tuple[Hashable, Hashable]],
    iterations: int,
    stream: RandomStream,
    workers: int = 1,
) -> NullDistribution:
    """Assortativity under random reassignment of node labels.

    Each replicate draws every node's label independently, with
    replacement, from the observed label multiset, then recomputes r on
    the fixed topology. Replicate i uses the sub-stream
    ``stream.child(i)``, so the distribution is identical for any worker
    count or scheduling order.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    codes, src, dst, types = _code_edges(labels, edges)
    if src.size == 0:
        raise ValueError("assortativity needs at least one edge")
    k = len(types)
    multiset = np.sort(codes)

    parts = map_chunks(_null_chunk, [(multiset, src, dst, k, stream)], iterations, workers)
    return NullDistribution(values=np.concatenate(parts))


def _in_fractions(src: np.ndarray, dst: np.ndarray, n: int):
    """Type codes -> same-type in-edge fractions, and the nodes they cover."""
    indeg = np.bincount(dst, minlength=n)
    keep = indeg > 0

    def fractions(codes: np.ndarray) -> np.ndarray:
        same = (codes[src] == codes[dst]).astype(float)
        return np.bincount(dst, weights=same, minlength=n)[keep] / indeg[keep]

    return fractions, keep


def in_fraction(
    labels: Mapping[Hashable, Hashable],
    edges: Sequence[tuple[Hashable, Hashable]],
) -> dict:
    """Per-node fraction of incoming edges from same-type nodes.

    Nodes with no incoming edges are absent from the result.
    """
    codes, src, dst, _ = _code_edges(labels, edges)
    fractions, keep = _in_fractions(src, dst, codes.size)
    kept = [node for node, k in zip(sorted(labels), keep) if k]
    return dict(zip(kept, fractions(codes)))


# A replicate's Wilcoxon p-value below this counts as significant.
_SIGNIFICANCE = 0.05


@dataclass(frozen=True)
class InFractionTest:
    """Summary of the paired same-sentiment in-fraction comparison."""

    original_mean: float
    p_values: np.ndarray
    fraction_significant: float
    replicate_means: np.ndarray


def in_fraction_test(
    labels: Mapping[Hashable, Hashable],
    edges: Sequence[tuple[Hashable, Hashable]],
    iterations: int,
    stream: RandomStream,
) -> InFractionTest:
    """Compare observed in-fractions against label-randomized replicates.

    For every replicate the node labels are bootstrap-resampled as in
    :func:`bootstrap_null`, the per-node in-fraction f is recomputed, and
    a one-sided paired Wilcoxon signed-rank test asks whether the
    original f tends to exceed the replicate f. Nodes are paired with
    themselves; nodes without incoming edges never participate.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    codes, src, dst, _ = _code_edges(labels, edges)
    fractions, keep = _in_fractions(src, dst, codes.size)
    if keep.sum() < 2:
        raise ValueError("need at least 2 nodes with incoming edges")
    original = fractions(codes)
    multiset = np.sort(codes)
    p_values = np.empty(iterations, dtype=float)
    replicate_means = np.empty(iterations, dtype=float)
    for i in range(iterations):
        gen = stream.child(i).generator()
        replicate = fractions(_resample_codes(multiset, gen))
        replicate_means[i] = float(replicate.mean())
        p_values[i] = wilcoxon_signed_rank_paired(original, replicate)
    return InFractionTest(
        original_mean=float(original.mean()),
        p_values=p_values,
        fraction_significant=float((p_values < _SIGNIFICANCE).mean()),
        replicate_means=replicate_means,
    )


# --- community detection -------------------------------------------------


def _undirected_projection(
    nodes: Iterable[Hashable], edges: Sequence[tuple[Hashable, Hashable]]
) -> tuple[list, list[tuple[int, int]]]:
    node_list, src, dst = index_edges(nodes, edges)
    low, high = np.minimum(src, dst), np.maximum(src, dst)
    keep = low != high
    return node_list, sorted(set(zip(low[keep].tolist(), high[keep].tolist())))


def detect_communities(
    nodes: Iterable[Hashable],
    edges: Sequence[tuple[Hashable, Hashable]],
    stream: RandomStream,
) -> dict:
    """Greedy multi-level modularity maximization (Louvain-style).

    Directed edges are projected to a simple undirected graph first.
    Node visit order within each sweep is shuffled from ``stream``, so a
    given (graph, stream) pair always yields the same partition. Every
    node lands in exactly one community; community ids are renumbered
    0..C-1 by decreasing size (ties by smallest member).
    """
    node_list, simple_edges = _undirected_projection(nodes, edges)
    n = len(node_list)
    if n == 0:
        raise ValueError("empty graph")
    gen = stream.generator()

    # community assignment per original node, refined level by level
    assignment = list(range(n))
    adj: list[dict[int, float]] = [dict() for _ in range(n)]
    for i, j in simple_edges:
        adj[i][j] = adj[i].get(j, 0.0) + 1.0
        adj[j][i] = adj[j].get(i, 0.0) + 1.0
    self_w = [0.0] * n

    while True:
        communities, moved = _louvain_level(adj, self_w, gen)
        if not moved:
            break
        assignment = [communities[assignment[v]] for v in range(n)]
        adj, self_w = _aggregate(adj, self_w, communities)
        if len(adj) == 1:
            break

    return _renumber(node_list, assignment)


def _louvain_level(
    adj: list[dict[int, float]], self_w: list[float], gen: np.random.Generator
) -> tuple[list[int], bool]:
    n = len(adj)
    degree = [sum(neigh.values()) + 2.0 * self_w[i] for i, neigh in enumerate(adj)]
    m2 = sum(degree)
    if m2 == 0.0:
        return list(range(n)), False
    community = list(range(n))
    sigma_tot = degree.copy()
    moved_any = False

    order = np.arange(n)
    gen.shuffle(order)
    while True:
        moved_this_pass = False
        for i in order:
            ci = community[i]
            weight_to: dict[int, float] = {}
            for j, w in adj[i].items():
                cj = community[j]
                weight_to[cj] = weight_to.get(cj, 0.0) + w
            sigma_tot[ci] -= degree[i]
            stay_score = weight_to.get(ci, 0.0) - sigma_tot[ci] * degree[i] / m2
            best_c, best_score = ci, stay_score
            for c in sorted(weight_to):
                if c == ci:
                    continue
                score = weight_to[c] - sigma_tot[c] * degree[i] / m2
                if score > best_score + 1e-12:
                    best_c, best_score = c, score
            sigma_tot[best_c] += degree[i]
            if best_c != ci:
                community[i] = best_c
                moved_this_pass = True
                moved_any = True
        if not moved_this_pass:
            break

    # compact community ids
    remap: dict[int, int] = {}
    for i in range(n):
        remap.setdefault(community[i], len(remap))
    return [remap[c] for c in community], moved_any


def _aggregate(
    adj: list[dict[int, float]], self_w: list[float], communities: list[int]
) -> tuple[list[dict[int, float]], list[float]]:
    n_new = max(communities) + 1
    new_adj: list[dict[int, float]] = [dict() for _ in range(n_new)]
    new_self = [0.0] * n_new
    for i, neigh in enumerate(adj):
        ci = communities[i]
        new_self[ci] += self_w[i]
        for j, w in neigh.items():
            cj = communities[j]
            if ci == cj:
                if i < j:
                    new_self[ci] += w
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
    return new_adj, new_self


def _renumber(node_list: list, assignment: list[int]) -> dict:
    members: dict[int, list] = {}
    for node, c in zip(node_list, assignment):
        members.setdefault(c, []).append(node)
    ordered = sorted(members.values(), key=lambda ms: (-len(ms), min(ms)))
    return {node: cid for cid, ms in enumerate(ordered) for node in ms}


def modularity(
    partition: Mapping[Hashable, int],
    edges: Sequence[tuple[Hashable, Hashable]],
) -> float:
    """Newman modularity of a partition on the undirected simple projection."""
    node_list, simple_edges = _undirected_projection(partition.keys(), edges)
    m = len(simple_edges)
    if m == 0:
        return 0.0
    comm = [partition[node] for node in node_list]
    intra: dict[int, int] = {}
    deg: dict[int, int] = {}
    for i, j in simple_edges:
        ci, cj = comm[i], comm[j]
        deg[ci] = deg.get(ci, 0) + 1
        deg[cj] = deg.get(cj, 0) + 1
        if ci == cj:
            intra[ci] = intra.get(ci, 0) + 1
    return sum(
        intra.get(c, 0) / m - (deg.get(c, 0) / (2 * m)) ** 2 for c in set(comm)
    )


# --- enrichment -----------------------------------------------------------


@dataclass(frozen=True)
class CommunityStats:
    community_id: int
    size: int
    p_neg: float
    fisher_p: float
    direction: str  # more-negative | more-positive | none


@dataclass(frozen=True)
class CommunityReport:
    rows: tuple[CommunityStats, ...]
    n_nodes: int
    n_communities: int
    global_p_neg: float
    min_size_fraction: float


def community_enrichment(
    partition: Mapping[Hashable, int],
    signs: Mapping[Hashable, int],
    min_size_fraction: float = 0.01,
) -> CommunityReport:
    """Fisher-exact sentiment enrichment of sufficiently large communities.

    For each community holding at least ``min_size_fraction`` of the
    nodes, a 2x2 table of negative/positive membership inside versus
    outside the community is tested two-sided. Direction is relative to
    the overall fraction of negatives.
    """
    missing = [node for node in partition if node not in signs]
    if missing:
        raise ValueError(f"{len(missing)} partitioned nodes have no sign")
    n = len(partition)
    if n == 0:
        raise ValueError("empty partition")
    total_neg = sum(1 for node in partition if signs[node] < 0)
    global_p_neg = total_neg / n

    members: dict[int, list] = {}
    for node, c in partition.items():
        members.setdefault(c, []).append(node)

    rows = []
    for cid, ms in members.items():
        if len(ms) < min_size_fraction * n:
            continue
        neg_in = sum(1 for node in ms if signs[node] < 0)
        pos_in = len(ms) - neg_in
        neg_out = total_neg - neg_in
        pos_out = (n - len(ms)) - neg_out
        p = fisher_exact_2x2(neg_in, pos_in, neg_out, pos_out)
        p_neg = neg_in / len(ms)
        if p_neg > global_p_neg:
            direction = "more-negative"
        elif p_neg < global_p_neg:
            direction = "more-positive"
        else:
            direction = "none"
        rows.append(
            CommunityStats(
                community_id=cid,
                size=len(ms),
                p_neg=p_neg,
                fisher_p=p,
                direction=direction,
            )
        )
    rows.sort(key=lambda s: (-s.size, s.community_id))
    return CommunityReport(
        rows=tuple(rows),
        n_nodes=n,
        n_communities=len(members),
        global_p_neg=global_p_neg,
        min_size_fraction=min_size_fraction,
    )


def write_null_distribution_csv(path: str | Path, null: NullDistribution) -> None:
    write_csv(path, ["replicate", "r"], enumerate(null.values.tolist()))


def write_communities_csv(path: str | Path, report: CommunityReport) -> None:
    header = [f.name for f in fields(CommunityStats)]
    write_csv(path, header, map(astuple, report.rows))
