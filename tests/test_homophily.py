import itertools

import numpy as np
import pytest
import scipy.stats

from sentepi.homophily import (
    AssortativityResult,
    _assortativity_from_codes,
    _code_edges,
    _in_fractions,
    _louvain_level,
    _replicate,
    _undirected_projection,
    assortativity,
    bootstrap_null,
    community_enrichment,
    detect_communities,
    in_fraction_test,
)
from sentepi.stats import derive_stream, wilcoxon_signed_rank_paired

from builders import synthetic_opinionated_network


def brute_force_assortativity(labels, edges):
    """Naive mixing-matrix evaluation, independent of the library path."""
    types = sorted({labels[n] for n in labels}, key=repr)
    e = {(a, b): 0.0 for a in types for b in types}
    for u, v in edges:
        e[(labels[u], labels[v])] += 1.0
    m = len(edges)
    for key in e:
        e[key] /= m
    a = {t: sum(e[(t, s)] for s in types) for t in types}
    b = {t: sum(e[(s, t)] for s in types) for t in types}
    trace = sum(e[(t, t)] for t in types)
    sab = sum(a[t] * b[t] for t in types)
    return (trace - sab) / (1.0 - sab)


class TestAssortativity:
    def test_edges_are_coded_as_int64_positions_in_the_sorted_nodes(self):
        codes, src, dst, types = _code_edges({"b": 1, "a": -1, "c": 1}, [("c", "a"), ("a", "b")])
        assert types == [-1, 1] and codes.tolist() == [0, 1, 1]
        assert src.tolist() == [2, 0] and dst.tolist() == [0, 1]
        assert src.dtype == dst.dtype == np.int64
        _, src, dst, _ = _code_edges({"a": 1}, [])
        assert src.shape == dst.shape == (0,) and src.dtype == np.int64

    def test_two_same_sign_cliques(self):
        labels = {i: 1 for i in range(4)} | {i: -1 for i in range(4, 8)}
        edges = [(i, j) for i in range(4) for j in range(4) if i != j]
        edges += [(i, j) for i in range(4, 8) for j in range(4, 8) if i != j]
        result = assortativity(labels, edges)
        assert result.r == 1.0
        assert not result.degenerate

    def test_complete_bipartite_both_directions(self):
        labels = {0: 1, 1: 1, 2: -1, 3: -1}
        edges = []
        for i in (0, 1):
            for j in (2, 3):
                edges += [(i, j), (j, i)]
        assert assortativity(labels, edges).r == pytest.approx(-1.0, abs=1e-15)

    def test_three_node_worked_example(self):
        labels = {"A": 1, "B": 1, "C": -1}
        edges = [("A", "B"), ("B", "A"), ("A", "C"), ("C", "B")]
        assert assortativity(labels, edges).r == pytest.approx(-1 / 3, abs=1e-15)

    def test_sign_swap_invariance(self):
        gen = derive_stream(31).generator()
        labels = {i: 1 if gen.random() < 0.5 else -1 for i in range(30)}
        edges = [
            (int(a), int(b))
            for a, b in gen.integers(0, 30, size=(120, 2))
            if a != b
        ]
        swapped = {node: -sign for node, sign in labels.items()}
        assert assortativity(labels, edges).r == pytest.approx(
            assortativity(swapped, edges).r, abs=1e-15
        )

    def test_matches_brute_force_on_random_graphs(self):
        gen = derive_stream(32).generator()
        checked = 0
        while checked < 100:
            n = int(gen.integers(3, 21))
            labels = {i: int(gen.integers(0, 3)) for i in range(n)}
            k = int(gen.integers(1, n * 3))
            edges = list(
                {
                    (int(a), int(b))
                    for a, b in gen.integers(0, n, size=(k, 2))
                    if a != b
                }
            )
            if not edges:
                continue
            result = assortativity(labels, edges)
            if result.degenerate:
                continue
            expected = brute_force_assortativity(labels, edges)
            assert result.r == pytest.approx(expected, abs=1e-12)
            checked += 1

    def test_single_type_degenerates_to_one(self):
        result = assortativity({0: 1, 1: 1}, [(0, 1)])
        assert result.r == 1.0
        assert result.degenerate

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError):
            assortativity({0: 1, 1: -1}, [])

    def test_single_type_rule_equals_the_endpoint_set_rule(self):
        # the margins test must agree exactly with the rule it replaced:
        # degenerate iff one distinct type among all edge endpoints
        def endpoint_set_rule(src, dst, n_types):
            e = np.bincount(src * n_types + dst, minlength=n_types * n_types)
            e = e.reshape(n_types, n_types) / src.size
            a, b = e.sum(axis=1), e.sum(axis=0)
            trace, sab = float(np.trace(e)), float((a * b).sum())
            if np.unique(np.concatenate([src, dst])).size == 1:
                return AssortativityResult(r=1.0, degenerate=True)
            return AssortativityResult(r=(trace - sab) / (1.0 - sab))

        gen = derive_stream(34).generator()
        degenerate = 0
        for _ in range(600):
            n_types = int(gen.integers(1, 5))
            used = gen.choice(n_types, size=int(gen.integers(1, n_types + 1)), replace=False)
            src, dst = gen.choice(used, size=(2, int(gen.integers(1, 12))))
            result = _assortativity_from_codes(src, dst, n_types)
            assert result == endpoint_set_rule(src, dst, n_types)
            degenerate += result.degenerate
        assert 0 < degenerate < 600


class TestBootstrapNull:
    def test_mean_near_zero(self):
        signs, edges = synthetic_opinionated_network(300, 2400, derive_stream(41))
        null = bootstrap_null(signs, edges, 400, derive_stream(41, 1))
        assert abs(null.mean) < 0.02
        assert len(null.values) == 400

    def test_reproducible(self):
        signs, edges = synthetic_opinionated_network(100, 600, derive_stream(42))
        a = bootstrap_null(signs, edges, 50, derive_stream(7))
        b = bootstrap_null(signs, edges, 50, derive_stream(7))
        assert np.array_equal(a.values, b.values)

    def test_planted_homophily_beats_null_max(self):
        signs, edges = synthetic_opinionated_network(
            400, 3200, derive_stream(43), homophily=0.7
        )
        observed = assortativity(signs, edges).r
        null = bootstrap_null(signs, edges, 500, derive_stream(43, 1))
        assert observed > null.max

    def test_summary_order(self):
        signs, edges = synthetic_opinionated_network(100, 800, derive_stream(44))
        null = bootstrap_null(signs, edges, 200, derive_stream(44, 1))
        assert null.ci_low <= null.mean <= null.ci_high <= null.max

    def test_depends_only_on_topology_multiset_and_seed(self):
        signs, edges = synthetic_opinionated_network(60, 400, derive_stream(45))
        # rotate the label assignment around the nodes: same multiset
        nodes = sorted(signs)
        rotated = {
            node: signs[nodes[(i + 7) % len(nodes)]] for i, node in enumerate(nodes)
        }
        a = bootstrap_null(signs, edges, 40, derive_stream(46))
        b = bootstrap_null(rotated, edges, 40, derive_stream(46))
        assert np.array_equal(a.values, b.values)

    def test_worker_count_does_not_change_values(self):
        signs, edges = synthetic_opinionated_network(80, 500, derive_stream(47))
        serial = bootstrap_null(signs, edges, 60, derive_stream(48), workers=1)
        parallel = bootstrap_null(signs, edges, 60, derive_stream(48), workers=2)
        assert np.array_equal(serial.values, parallel.values)

    def test_nearest_rank_percentiles(self):
        signs, edges = synthetic_opinionated_network(40, 200, derive_stream(49))
        null = bootstrap_null(signs, edges, 100, derive_stream(49, 1))
        ordered = np.sort(null.values)
        # nearest-rank: ceil(q * n) ordinal
        assert null.ci_low == ordered[2]  # ceil(0.025 * 100) = 3rd
        assert null.ci_high == ordered[97]  # ceil(0.975 * 100) = 98th
        assert null.max == ordered[-1]


# Exact oracles for the two label-bootstrap nulls. On ten nodes every
# replicate is one of 2^10 type-code vectors; with six positive nodes each
# node is positive with probability 0.6 independently, so the exact law of
# any replicate statistic is a weighted sum over the 1024 vectors.
_ORACLE_LABELS = {i: 1 if i < 6 else -1 for i in range(10)}
_ORACLE_EDGES_14 = [
    (0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7),
    (7, 8), (8, 9), (9, 6), (0, 6), (7, 3), (5, 9), (8, 1),
]
_ORACLE_EDGES_20 = _ORACLE_EDGES_14 + [(1, 0), (2, 4), (4, 2), (9, 8), (6, 9), (3, 8)]
_ORACLE_REPLICATES = 10_000


def _exact_replicates():
    """(type codes, probability) of every replicate; code 1 is positive."""
    for codes in itertools.product((0, 1), repeat=10):
        k = sum(codes)
        yield np.array(codes), 0.6**k * 0.4 ** (10 - k)


class TestExactNullOracles:
    def test_bootstrap_null_matches_the_exact_distribution(self):
        atoms = {}  # r, rounded to join equal values of two formulas -> probability
        for codes, prob in _exact_replicates():
            labels = dict(enumerate(codes.tolist()))
            one_type = len(set(labels.values())) == 1
            r = round(1.0 if one_type else brute_force_assortativity(labels, _ORACLE_EDGES_14), 9)
            atoms[r] = atoms.get(r, 0.0) + prob
        null = bootstrap_null(
            _ORACLE_LABELS, _ORACLE_EDGES_14, _ORACLE_REPLICATES, derive_stream(71)
        )
        seen = dict(zip(*np.unique(np.round(null.values, 9), return_counts=True)))
        assert set(seen) <= set(atoms)
        keys = sorted(atoms)
        observed = np.array([seen.get(r, 0) for r in keys], dtype=float)
        expected = np.array([atoms[r] for r in keys]) * _ORACLE_REPLICATES
        # The chi-squared law needs every cell expected at least 5 times; on this
        # graph no atom falls short (the least likely is expected 15.9 times).
        assert expected.min() >= 5
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < scipy.stats.chi2.isf(1e-6, expected.size - 1)

    def test_in_fraction_test_significance_rate_matches_the_exact_rate(self):
        codes, src, dst, _ = _code_edges(_ORACLE_LABELS, _ORACLE_EDGES_20)
        fractions, _ = _in_fractions(src, dst, codes.size)
        original = fractions(codes)
        exact = sum(
            prob for replicate, prob in _exact_replicates()
            if wilcoxon_signed_rank_paired(original, fractions(replicate)) < 0.05
        )
        assert exact == pytest.approx(0.3967377408, abs=1e-9)
        result = in_fraction_test(
            _ORACLE_LABELS, _ORACLE_EDGES_20, _ORACLE_REPLICATES, derive_stream(72)
        )
        se = (exact * (1 - exact) / _ORACLE_REPLICATES) ** 0.5
        assert abs(result.fraction_significant - exact) < 3.3 * se


def in_fractions_by_node(labels, edges):
    """Node -> the ``_in_fractions`` value that ``in_fraction_test`` sees;
    nodes with no incoming edges are absent."""
    codes, src, dst, _ = _code_edges(labels, edges)
    fractions, keep = _in_fractions(src, dst, codes.size)
    kept = [node for node, k in zip(sorted(labels), keep) if k]
    return dict(zip(kept, fractions(codes)))


class TestInFraction:
    def test_mixed_incoming_edges(self):
        labels = {0: 1, 1: 1, 2: 1, 3: -1}
        edges = [(1, 0), (2, 0), (3, 0)]  # two same-sign, one opposite
        f = in_fractions_by_node(labels, edges)
        assert f[0] == pytest.approx(2 / 3)

    def test_no_incoming_edges_absent(self):
        f = in_fractions_by_node({0: 1, 1: 1}, [(0, 1)])
        assert 0 not in f
        assert f[1] == 1.0

    def test_all_same_sign(self):
        labels = {i: 1 for i in range(5)}
        edges = [(i, (i + 1) % 5) for i in range(5)]
        f = in_fractions_by_node(labels, edges)
        assert all(v == 1.0 for v in f.values())

    def test_indegree_weighted_mean_equals_same_sign_edge_fraction(self):
        gen = derive_stream(51).generator()
        labels = {i: 1 if gen.random() < 0.6 else -1 for i in range(40)}
        edges = list(
            {
                (int(a), int(b))
                for a, b in gen.integers(0, 40, size=(300, 2))
                if a != b
            }
        )
        f = in_fractions_by_node(labels, edges)
        indeg = {}
        for _, v in edges:
            indeg[v] = indeg.get(v, 0) + 1
        weighted = sum(f[v] * indeg[v] for v in f) / sum(indeg.values())
        same = sum(1 for u, v in edges if labels[u] == labels[v]) / len(edges)
        assert weighted == pytest.approx(same, abs=1e-12)


class TestInFractionTest:
    def test_single_sign_gives_p_one(self):
        labels = {i: 1 for i in range(6)}
        edges = [(i, (i + 1) % 6) for i in range(6)]
        result = in_fraction_test(labels, edges, 20, derive_stream(61))
        assert np.all(result.p_values == 1.0)
        assert result.fraction_significant == 0.0

    def test_planted_homophily_is_significant(self):
        signs, edges = synthetic_opinionated_network(
            400, 3200, derive_stream(62), homophily=0.7
        )
        result = in_fraction_test(signs, edges, 100, derive_stream(62, 1))
        assert result.fraction_significant >= 0.95
        codes, src, dst, _ = _code_edges(signs, edges)
        fractions, _ = _in_fractions(src, dst, codes.size)
        multiset = np.sort(codes)
        replicate_means = [
            fractions(_replicate(multiset, derive_stream(62, 1), i)).mean() for i in range(100)
        ]
        assert result.original_mean > np.mean(replicate_means)

    def test_reproducible(self):
        signs, edges = synthetic_opinionated_network(100, 700, derive_stream(63))
        a = in_fraction_test(signs, edges, 30, derive_stream(8))
        b = in_fraction_test(signs, edges, 30, derive_stream(8))
        assert np.array_equal(a.p_values, b.p_values)


def modularity(partition, edges):
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


def _two_cliques(k=10):
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, j) for i in range(k, 2 * k) for j in range(i + 1, 2 * k)]
    edges.append((0, k))  # bridge
    return list(range(2 * k)), edges


def _best_two_partition_modularity(n, edges):
    """Exhaustive vectorized search over all 2-partitions."""
    masks = np.arange(1 << n, dtype=np.uint32)
    m = len(edges)
    deg = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    same_side = np.zeros(masks.size, dtype=np.int64)
    for u, v in edges:
        same_side += ((masks >> u) & 1) == ((masks >> v) & 1)
    deg_s = np.zeros(masks.size, dtype=np.int64)
    for i in range(n):
        deg_s += ((masks >> i) & 1) * deg[i]
    q = same_side / m - (deg_s / (2 * m)) ** 2 - ((2 * m - deg_s) / (2 * m)) ** 2
    best = int(np.argmax(q))
    return float(q[best]), best


class _KeepOrder:
    """A generator stand-in whose shuffle leaves the visit order as it is."""

    def shuffle(self, order):
        pass


def _planted_blocks(n_blocks, size, p_in, n_between, stream):
    """Blocks of ``size`` nodes, each pair inside a block joined with
    probability ``p_in``, plus ``n_between`` random edges across blocks."""
    gen = stream.generator()
    edges = []
    for b in range(n_blocks):
        pairs = np.array(list(itertools.combinations(range(b * size, (b + 1) * size), 2)))
        edges += map(tuple, pairs[gen.random(len(pairs)) < p_in].tolist())
    while n_between:
        u, v = gen.integers(0, n_blocks * size, size=2).tolist()
        if u // size != v // size:
            edges.append((u, v))
            n_between -= 1
    return edges


class TestDetectCommunities:
    def test_two_cliques_found_exactly(self):
        nodes, edges = _two_cliques(10)
        partition = detect_communities(nodes, edges, derive_stream(71))
        groups = {}
        for node, c in partition.items():
            groups.setdefault(c, set()).add(node)
        assert sorted(groups.values(), key=min) == [
            set(range(10)),
            set(range(10, 20)),
        ]
        # the clique split is also the best of all 2^20 two-partitions
        best_q, best_mask = _best_two_partition_modularity(20, edges)
        clique_mask = sum(1 << i for i in range(10))
        assert best_mask in (clique_mask, (1 << 20) - 1 - clique_mask)
        assert modularity(partition, edges) == pytest.approx(best_q, abs=1e-12)

    def test_complete_graph_single_community(self):
        nodes = list(range(8))
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        partition = detect_communities(nodes, edges, derive_stream(72))
        assert set(partition.values()) == {0}

    def test_beats_all_in_one_partition(self):
        signs, edges = synthetic_opinionated_network(80, 500, derive_stream(73))
        partition = detect_communities(signs.keys(), edges, derive_stream(73, 1))
        lumped = {node: 0 for node in signs}
        assert modularity(partition, edges) >= modularity(lumped, edges)
        assert modularity(lumped, edges) <= 0.0

    def test_every_node_assigned_once_and_reproducible(self):
        signs, edges = synthetic_opinionated_network(60, 300, derive_stream(74))
        a = detect_communities(signs.keys(), edges, derive_stream(9))
        b = detect_communities(signs.keys(), edges, derive_stream(9))
        assert a == b
        assert set(a) == set(signs)

    def test_modularity_formula_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.community import modularity as nx_modularity

        gen = derive_stream(76).generator()
        for trial in range(10):
            n = int(gen.integers(8, 40))
            edges = list(
                {
                    (int(a), int(b))
                    for a, b in gen.integers(0, n, size=(4 * n, 2))
                    if a != b
                }
            )
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(edges)
            if graph.number_of_edges() == 0:
                continue
            assignment = {i: int(gen.integers(0, 4)) for i in range(n)}
            groups = {}
            for node, cid in assignment.items():
                groups.setdefault(cid, set()).add(node)
            ours = modularity(assignment, edges)
            theirs = nx_modularity(graph, list(groups.values()))
            assert ours == pytest.approx(theirs, abs=1e-12)

    def test_partition_quality_close_to_networkx_louvain(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.community import louvain_communities
        from networkx.algorithms.community import modularity as nx_modularity

        signs, edges = synthetic_opinionated_network(150, 900, derive_stream(77))
        partition = detect_communities(signs.keys(), edges, derive_stream(77, 1))
        ours = modularity(partition, edges)

        graph = nx.Graph()
        graph.add_nodes_from(signs)
        graph.add_edges_from((a, b) for a, b in edges if a != b)
        reference = nx_modularity(graph, louvain_communities(graph, seed=1))
        assert ours >= reference - 0.05

    def test_ring_of_cliques(self):
        # six 5-cliques joined in a ring: the cliques are the communities
        k, n_cliques = 5, 6
        edges = []
        for c in range(n_cliques):
            base = c * k
            edges += [
                (base + i, base + j) for i in range(k) for j in range(i + 1, k)
            ]
            edges.append((base, ((c + 1) % n_cliques) * k + 1))
        nodes = range(n_cliques * k)
        partition = detect_communities(nodes, edges, derive_stream(75))
        groups = {}
        for node, cid in partition.items():
            groups.setdefault(cid, set()).add(node)
        expected = [set(range(c * k, (c + 1) * k)) for c in range(n_cliques)]
        assert sorted(groups.values(), key=min) == expected


    def test_planted_blocks_recovered_exactly(self):
        # 12 blocks of 200: each node has about 20 neighbours inside its block
        # and 0.5 outside. A block holds about 2,000 of the 24,600 edges, far
        # above the sqrt(2m) = 222 below which modularity may merge blocks.
        n_blocks, size = 12, 200
        edges = _planted_blocks(n_blocks, size, 0.1, 600, derive_stream(78))
        partition = detect_communities(range(n_blocks * size), edges, derive_stream(78, 1))
        groups = {}
        for node, cid in partition.items():
            groups.setdefault(cid, set()).add(node)
        expected = [set(range(b * size, (b + 1) * size)) for b in range(n_blocks)]
        assert sorted(groups.values(), key=min) == expected

    def test_a_node_whose_neighbour_moves_away_is_visited_again(self):
        # 2 - 1 - 0 - 3 - 4 with the chord 1 - 3, visited in the order 0..4:
        # node 0 joins node 1, then node 1 leaves it for node 2. A single
        # sweep would end with node 0 alone, though joining {1, 2} raises
        # modularity; node 1's move queues node 0 again, and it joins.
        # On larger graphs a move also shifts the community totals that
        # non-neighbours see, and those nodes are not queued again, so a
        # level is not in general a local optimum (Leiden's fast local move
        # promises node optimality only of a level in which nothing moves).
        edges = [(0, 1), (0, 3), (1, 2), (1, 3), (3, 4)]
        adj = [dict() for _ in range(5)]
        for i, j in edges:
            adj[i][j] = adj[j][i] = 1.0
        degree = [float(len(neigh)) for neigh in adj]
        level = _louvain_level(adj, degree, 2.0 * len(edges), _KeepOrder())
        assert level == [0, 0, 0, 1, 1]
        partition = dict(enumerate(level))
        q = modularity(partition, edges)
        for node in range(5):
            for c in {level[j] for j in adj[node]} - {level[node]}:
                assert modularity({**partition, node: c}, edges) <= q + 1e-12


class TestCommunityEnrichment:
    def test_community_matching_global_mix_is_unremarkable(self):
        signs = {i: -1 if i % 2 == 0 else 1 for i in range(200)}
        partition = {i: 0 if i < 20 else 1 for i in range(200)}
        report = community_enrichment(partition, signs, min_size_fraction=0.01)
        row = next(r for r in report.rows if r.community_id == 0)
        global_p_neg = sum(sign < 0 for sign in signs.values()) / len(signs)
        assert row.p_neg == pytest.approx(global_p_neg)
        assert row.fisher_p == pytest.approx(1.0)
        assert row.direction == "none"

    def test_all_negative_community_highly_significant(self):
        signs = {i: -1 if i < 100 else 1 for i in range(200)}
        partition = {i: 0 if i < 20 else 1 for i in range(200)}
        report = community_enrichment(partition, signs)
        row = next(r for r in report.rows if r.community_id == 0)
        assert row.p_neg == 1.0
        assert row.direction == "more-negative"
        assert row.fisher_p < 1e-6
        # hypergeometric tail oracle: point-probability two-sided sum
        rv = scipy.stats.hypergeom(200, 100, 20)
        p_obs = rv.pmf(20)
        expected = sum(rv.pmf(k) for k in range(21) if rv.pmf(k) <= p_obs * (1 + 1e-9))
        assert row.fisher_p == pytest.approx(expected, rel=1e-9)

    def test_small_community_dropped(self):
        signs = {i: -1 if i % 3 == 0 else 1 for i in range(1000)}
        partition = {i: 0 for i in range(997)} | {i: 1 for i in range(997, 1000)}
        report = community_enrichment(partition, signs, min_size_fraction=0.01)
        assert [r.community_id for r in report.rows] == [0]
        assert report.n_communities == 2

    def test_unsigned_nodes_rejected(self):
        with pytest.raises(ValueError):
            community_enrichment({0: 0, 1: 0}, {0: 1})
