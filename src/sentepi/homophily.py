"""Assortative mixing of sentiment on the directed network.

Quantifies homophily via the mixing-matrix assortativity coefficient,
tests it against label-bootstrap null distributions, and scores
sentiment enrichment of modularity communities.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from . import write_csv
from .stats import (
    RandomStream, edge_positions, fisher_exact_2x2, map_tasks, wilcoxon_signed_rank_paired,
)

__all__ = [
    "AssortativityResult",
    "NullDistribution",
    "InFractionTest",
    "CommunityStats",
    "CommunityReport",
    "assortativity",
    "bootstrap_null",
    "in_fraction_test",
    "detect_communities",
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
    node_list, src, dst = edge_positions(labels, edges)
    types = sorted({labels[n] for n in node_list}, key=repr)
    type_index = {t: i for i, t in enumerate(types)}
    codes = np.array([type_index[labels[n]] for n in node_list], dtype=np.int64)
    return codes, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), types


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


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    n = sorted_values.size
    idx = max(1, int(np.ceil(q * n))) - 1
    return float(sorted_values[min(idx, n - 1)])


def _replicate(multiset: np.ndarray, stream: RandomStream, i: int) -> np.ndarray:
    """Type codes of replicate i: i.i.d. draws with replacement from the
    empirical label multiset, from ``stream.child(i)``. The pool is sorted
    so replicates depend only on (topology, label multiset, seed), not on
    which node happened to carry which label."""
    gen = stream.child(i).generator()
    return multiset[gen.integers(0, multiset.size, size=multiset.size)]


def _null_r(multiset, src, dst, k: int, stream: RandomStream, i: int) -> float:
    codes = _replicate(multiset, stream, i)
    return _assortativity_from_codes(codes[src], codes[dst], k).r


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
    ``stream.child(i)`` and is one task for :func:`map_tasks`, so the
    distribution is identical for any worker count or scheduling order.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    codes, src, dst, types = _code_edges(labels, edges)
    if src.size == 0:
        raise ValueError("assortativity needs at least one edge")
    k = len(types)
    multiset = np.sort(codes)

    null_r = functools.partial(_null_r, multiset, src, dst, k, stream)
    return NullDistribution(values=np.array(map_tasks(null_r, range(iterations), workers)))


def _in_fractions(src: np.ndarray, dst: np.ndarray, n: int):
    """Type codes -> same-type in-edge fractions, and the nodes they cover."""
    indeg = np.bincount(dst, minlength=n)
    keep = indeg > 0

    def fractions(codes: np.ndarray) -> np.ndarray:
        same = (codes[src] == codes[dst]).astype(float)
        return np.bincount(dst, weights=same, minlength=n)[keep] / indeg[keep]

    return fractions, keep


# A replicate's Wilcoxon p-value below this counts as significant.
_SIGNIFICANCE = 0.05


@dataclass(frozen=True)
class InFractionTest:
    """Summary of the paired same-sentiment in-fraction comparison."""

    original_mean: float
    p_values: np.ndarray
    fraction_significant: float


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
    for i in range(iterations):
        replicate = fractions(_replicate(multiset, stream, i))
        p_values[i] = wilcoxon_signed_rank_paired(original, replicate)
    return InFractionTest(
        original_mean=float(original.mean()),
        p_values=p_values,
        fraction_significant=float((p_values < _SIGNIFICANCE).mean()),
    )


# --- community detection -------------------------------------------------


def _undirected_projection(
    nodes: Iterable[Hashable], edges: Sequence[tuple[Hashable, Hashable]]
) -> tuple[list, list[tuple[int, int]]]:
    node_list, src, dst = edge_positions(nodes, edges)
    return node_list, sorted({(a, b) if a < b else (b, a) for a, b in zip(src, dst) if a != b})


def detect_communities(
    nodes: Iterable[Hashable],
    edges: Sequence[tuple[Hashable, Hashable]],
    stream: RandomStream,
) -> dict:
    """Greedy multi-level modularity maximization (Louvain-style).

    Directed edges are projected to a simple undirected graph first. Each
    level queues its nodes in an order shuffled from ``stream``, re-queues
    the neighbours of a node that moves, and ends when its queue is empty;
    a given (graph, stream) pair always yields the same partition. Every
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
    if not simple_edges:
        return _renumber(node_list, assignment)
    adj: list[dict[int, float]] = [dict() for _ in range(n)]
    for i, j in simple_edges:
        adj[i][j] = adj[j][i] = 1.0
    # a community's degree counts its inner edges twice; 2m never changes
    degree = [float(len(neigh)) for neigh in adj]
    m2 = 2.0 * len(simple_edges)

    while True:
        communities = _louvain_level(adj, degree, m2, gen)
        if max(communities) + 1 == len(adj):  # no node moved
            break
        assignment = [communities[assignment[v]] for v in range(n)]
        adj, degree = _aggregate(adj, degree, communities)

    return _renumber(node_list, assignment)


def _louvain_level(
    adj: list[dict[int, float]], degree: list[float], m2: float, gen: np.random.Generator
) -> list[int]:
    n = len(adj)
    community = list(range(n))
    sigma_tot = degree.copy()

    # Leiden's fast local move: a move re-queues neighbours outside the new community
    order = np.arange(n)
    gen.shuffle(order)
    queue, queued = deque(order.tolist()), [True] * n
    while queue:
        i = queue.popleft()
        queued[i] = False
        ci = community[i]
        weight_to: dict[int, float] = {}
        for j, w in adj[i].items():
            cj = community[j]
            weight_to[cj] = weight_to.get(cj, 0.0) + w
        sigma_tot[ci] -= degree[i]
        best_c, best_score = ci, weight_to.get(ci, 0.0) - sigma_tot[ci] * degree[i] / m2
        for c in sorted(weight_to):  # staying (c == ci) never beats best_score
            score = weight_to[c] - sigma_tot[c] * degree[i] / m2
            if score > best_score + 1e-12:
                best_c, best_score = c, score
        sigma_tot[best_c] += degree[i]
        if best_c != ci:
            community[i] = best_c
            for j in adj[i]:
                if not queued[j] and community[j] != best_c:
                    queued[j] = True
                    queue.append(j)

    # compact community ids in order of first appearance
    remap = {c: k for k, c in enumerate(dict.fromkeys(community))}
    return [remap[c] for c in community]


def _aggregate(
    adj: list[dict[int, float]], degree: list[float], communities: list[int]
) -> tuple[list[dict[int, float]], list[float]]:
    n_new = max(communities) + 1
    new_adj: list[dict[int, float]] = [dict() for _ in range(n_new)]
    new_degree = [0.0] * n_new
    for i, neigh in enumerate(adj):
        ci = communities[i]
        new_degree[ci] += degree[i]
        for j, w in neigh.items():
            cj = communities[j]
            if ci != cj:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
    return new_adj, new_degree


def _renumber(node_list: list, assignment: list[int]) -> dict:
    members: dict[int, list] = {}
    for node, c in zip(node_list, assignment):
        members.setdefault(c, []).append(node)
    ordered = sorted(members.values(), key=lambda ms: (-len(ms), min(ms)))
    return {node: cid for cid, ms in enumerate(ordered) for node in ms}


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
    n_communities: int


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
    return CommunityReport(rows=tuple(rows), n_communities=len(members))


def write_null_distribution_csv(path: str | Path, null: NullDistribution) -> None:
    write_csv(path, ["replicate", "r"], enumerate(null.values.tolist()))


def write_communities_csv(path: str | Path, report: CommunityReport) -> None:
    header = [f.name for f in fields(CommunityStats)]
    write_csv(path, header, map(astuple, report.rows))
