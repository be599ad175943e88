import functools
import importlib
import inspect
import math
import pkgutil
from itertools import product
from typing import get_type_hints

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import sentepi
import sentepi.stats
from sentepi.stats import (
    RandomStream,
    _average_ranks,
    _t_two_sided,
    derive_stream,
    edge_positions,
    fisher_exact_2x2,
    largest_component,
    map_tasks,
    weighted_pearson,
    wilcoxon_signed_rank_paired,
    wilson_interval,
)


class TestWeightedPearson:
    def test_affine_relation_gives_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [2 * v + 1 for v in x]
        r, p = weighted_pearson(x, y, [1.0] * 4)
        assert r == pytest.approx(1.0, abs=1e-12)
        assert p == 0.0

    def test_negated_relation_gives_minus_one(self):
        x = [1.0, 2.0, 3.0]
        r, _ = weighted_pearson(x, [-v for v in x], [1.0, 1.0, 1.0])
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_unequal_weights_match_manual_moments(self):
        # Spreadsheet-style recomputation of the weighted moments.
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 3.0, 2.0, 5.0]
        w = [1.0, 2.0, 3.0, 4.0]
        wsum = sum(w)
        mx = sum(wi * xi for wi, xi in zip(w, x)) / wsum
        my = sum(wi * yi for wi, yi in zip(w, y)) / wsum
        cov = sum(wi * (xi - mx) * (yi - my) for wi, xi, yi in zip(w, x, y)) / wsum
        vx = sum(wi * (xi - mx) ** 2 for wi, xi in zip(w, x)) / wsum
        vy = sum(wi * (yi - my) ** 2 for wi, yi in zip(w, y)) / wsum
        expected_r = cov / math.sqrt(vx * vy)

        r, p = weighted_pearson(x, y, w)
        assert r == pytest.approx(expected_r, abs=1e-12)
        t = expected_r * math.sqrt(2 / (1 - expected_r**2))
        assert p == pytest.approx(2 * scipy.stats.t.sf(abs(t), df=2), rel=1e-12)

    def test_equal_weights_match_unweighted_pearson(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        r, p = weighted_pearson(x, y, np.ones(25))
        ref = scipy.stats.pearsonr(x, y)
        assert r == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_t_tail_matches_scipy_stdtr(self):
        # Range tested: nu 1..100, |t| 1e-4..1e3. The lgamma terms lose
        # relative accuracy as nu grows (2e-12 up to nu = 1000).
        worst = 0.0
        for nu in range(1, 101):
            for t in np.logspace(-4, 3, 60):
                ref = 2.0 * float(scipy.special.stdtr(nu, -t))
                for signed in (t, -t):
                    worst = max(worst, abs(_t_two_sided(float(signed), nu) - ref) / ref)
        assert worst <= 1e-12, worst

    def test_t_tail_at_zero_is_exactly_one(self):
        assert all(_t_two_sided(0.0, nu) == 1.0 for nu in (1, 2, 7, 100))

    def test_errors(self):
        with pytest.raises(ValueError):
            weighted_pearson([1, 2], [1, 2], [1, 1])
        with pytest.raises(ValueError):
            weighted_pearson([1, 1, 1], [1, 2, 3], [1, 1, 1])
        with pytest.raises(ValueError):
            weighted_pearson([1, 2, 3], [1, 2, 3], [1, 0, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", range(3), ids=["x", "y", "w"])
    def test_non_finite_value_rejected(self, column, bad):
        # A NaN once passed through the [-1, 1] clamp as r = 1 with p = 0.
        columns = [[1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 5.0], [1.0, 1.0, 1.0, 1.0]]
        columns[column][2] = bad
        with pytest.raises(ValueError, match="finite"):
            weighted_pearson(*columns)

    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50),
                st.floats(-50, 50),
                st.floats(0.1, 10),
            ),
            min_size=3,
            max_size=30,
        ),
        st.floats(0.1, 5),
        st.floats(-10, 10),
    )
    def test_bounded_and_affine_invariant(self, rows, scale, shift):
        x = [row[0] for row in rows]
        y = [row[1] for row in rows]
        w = [row[2] for row in rows]
        wsum = sum(w)
        for values in (x, y):
            mean = sum(wi * vi for wi, vi in zip(w, values)) / wsum
            if sum(wi * (vi - mean) ** 2 for wi, vi in zip(w, values)) / wsum < 1e-6:
                return  # degenerate or near-degenerate variance
        r, _ = weighted_pearson(x, y, w)
        assert -1.0 <= r <= 1.0
        r2, _ = weighted_pearson([scale * v + shift for v in x], y, w)
        assert r2 == pytest.approx(r, abs=1e-9)


def _numpy_weighted_pearson(x, y, w):
    """The numpy formula ``weighted_pearson`` used before its sums became
    ``math.fsum``: the reference for its oracle."""
    x, y, w = (np.asarray(column, dtype=float) for column in (x, y, w))
    wsum = w.sum()
    dx = x - float((w * x).sum() / wsum)
    dy = y - float((w * y).sum() / wsum)
    cov = float((w * dx * dy).sum() / wsum)
    r = max(-1.0, min(1.0, cov / math.sqrt(float((w * dx * dx).sum() / wsum)
                                             * float((w * dy * dy).sum() / wsum))))
    return r, _p_of_r(r, x.size)


def _p_of_r(r, n):
    if 1.0 - r * r < 1e-15:
        return 0.0
    return min(1.0, _t_two_sided(r * math.sqrt((n - 2) / (1.0 - r * r)), n - 2))


class TestWeightedPearsonOracle:
    def test_agrees_with_the_numpy_formula_within_4_ulps_of_one(self):
        # The sums' rounding error is a few ulps of sum |w dx dy|, which
        # Cauchy-Schwarz bounds by sqrt(vx * vy): so r is compared in ulps
        # of 1, not of r (near r = 0 the numpy formula is itself over 100
        # ulps of r from the exact value). p moves with r by |dp/dr| times
        # that, and by the t tail's own rounding (up to 1e-13 of p for a
        # change in r of 0.1 ulp of 1, from lgamma(nu / 2)), which
        # test_t_tail_matches_scipy_stdtr bounds at 1e-12.
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(3, 301))
            rho = rng.uniform(-1.0, 1.0)
            x = rng.normal(size=n)
            y = rho * x + math.sqrt(1.0 - rho * rho) * rng.normal(size=n)
            w = rng.uniform(0.1, 10.0, size=n)
            r, p = weighted_pearson(x, y, w)
            r_ref, p_ref = _numpy_weighted_pearson(x, y, w)
            assert abs(r - r_ref) <= 4 * math.ulp(1.0), (n, r, r_ref)
            slope = abs(_p_of_r(r_ref + 1e-6, n) - _p_of_r(r_ref - 1e-6, n)) / 2e-6
            assert p == pytest.approx(p_ref, rel=1e-12, abs=4 * math.ulp(1.0) * slope), n


@functools.lru_cache(maxsize=4)
def _table_weights(n, row1, col1):
    """``C(row1, k) * C(n - row1, col1 - k)`` for each feasible k, with
    two ``math.comb`` calls per k: the integers ``fisher_exact_2x2``
    builds by running products."""
    lo, hi = max(0, col1 - (n - row1)), min(col1, row1)
    return lo, [math.comb(row1, k) * math.comb(n - row1, col1 - k) for k in range(lo, hi + 1)]


def _fisher_exact_reference(a, b, c, d):
    n, row1, col1 = a + b + c + d, a + b, a + c
    lo, probs = _table_weights(n, row1, col1)
    observed = probs[a - lo]
    return sum(p for p in probs if p <= observed) / math.comb(n, col1)


class TestFisherExact:
    def test_exact_path_equals_the_binomial_formula(self):
        # n log-uniform up to the exact limit; above n = 1,000 the first
        # column is log-uniform too, which keeps the reference cheap. Each
        # table is checked at both ends of its k range and at one k between.
        gen = derive_stream(13).generator()
        margins = [(10_000, 5_000, 37), (10_000, 9_990, 12)]
        for _ in range(80):
            n = int(round(10 ** gen.uniform(0, 4)))
            col1 = (int(gen.integers(0, n + 1)) if n <= 1_000
                    else int(round(10 ** gen.uniform(0, math.log10(n + 1)))) - 1)
            margins.append((n, int(gen.integers(0, n + 1)), col1))
        for n, row1, col1 in margins:
            lo, hi = max(0, col1 - (n - row1)), min(col1, row1)
            for a in (lo, hi, int(gen.integers(lo, hi + 1))):
                cells = (a, row1 - a, col1 - a, n - row1 - col1 + a)
                assert fisher_exact_2x2(*cells) == _fisher_exact_reference(*cells), cells

    def test_diagonal_two_by_two(self):
        assert fisher_exact_2x2(2, 0, 0, 2) == 1 / 3

    def test_flat_table(self):
        assert fisher_exact_2x2(1, 1, 1, 1) == 1.0

    def test_five_by_five_diagonal(self):
        assert fisher_exact_2x2(5, 0, 0, 5) == 2 / 252

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            fisher_exact_2x2(0, 0, 0, 0)

    @given(st.tuples(*[st.integers(0, 12)] * 4))
    def test_matches_scipy(self, cells):
        a, b, c, d = cells
        if a + b + c + d == 0:
            return
        ours = fisher_exact_2x2(a, b, c, d)
        ref = scipy.stats.fisher_exact([[a, b], [c, d]], alternative="two-sided")
        assert ours == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)

    @given(st.tuples(*[st.integers(0, 10)] * 4))
    def test_symmetries(self, cells):
        a, b, c, d = cells
        if a + b + c + d == 0:
            return
        p = fisher_exact_2x2(a, b, c, d)
        assert fisher_exact_2x2(a, c, b, d) == pytest.approx(p, rel=1e-12)  # transpose
        assert fisher_exact_2x2(c, d, a, b) == pytest.approx(p, rel=1e-12)  # swap rows
        assert fisher_exact_2x2(b, a, d, c) == pytest.approx(p, rel=1e-12)  # swap cols

    def test_large_table_loggamma_path(self):
        a, b, c, d = 5000, 4000, 4000, 5000
        ours = fisher_exact_2x2(a, b, c, d)
        ref = scipy.stats.fisher_exact([[a, b], [c, d]]).pvalue
        assert ours == pytest.approx(ref, rel=1e-6)

    def test_paths_agree_at_the_switchover(self):
        # n = 10000 runs on the exact integer path, n = 10004 on the
        # log-gamma path; proportionally identical tables must agree
        exact = fisher_exact_2x2(2600, 2400, 2400, 2600)
        logged = fisher_exact_2x2(2601, 2401, 2401, 2601)
        for ours, (a, b, c, d) in (
            (exact, (2600, 2400, 2400, 2600)),
            (logged, (2601, 2401, 2401, 2601)),
        ):
            ref = scipy.stats.fisher_exact([[a, b], [c, d]]).pvalue
            assert ours == pytest.approx(ref, rel=1e-7)


def _brute_force_wilcoxon_greater(x, y):
    d = [xi - yi for xi, yi in zip(x, y)]
    d = [v for v in d if v != 0]
    if not d:
        return 1.0
    abs_sorted = sorted((abs(v), i) for i, v in enumerate(d))
    ranks = [0.0] * len(d)
    i = 0
    while i < len(abs_sorted):
        j = i
        while j + 1 < len(abs_sorted) and abs_sorted[j + 1][0] == abs_sorted[i][0]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[abs_sorted[k][1]] = avg
        i = j + 1
    w_obs = sum(r for r, v in zip(ranks, d) if v > 0)
    count = 0
    for signs in product((1, -1), repeat=len(d)):
        w = sum(r for r, s in zip(ranks, signs) if s > 0)
        if w >= w_obs - 1e-12:
            count += 1
    return count / 2 ** len(d)


class TestWilcoxon:
    def test_three_positive_differences(self):
        assert wilcoxon_signed_rank_paired([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]) == 0.125

    def test_identical_sequences(self):
        assert wilcoxon_signed_rank_paired([1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_three_negative_differences(self):
        assert wilcoxon_signed_rank_paired([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank_paired([1.0, 2.0], [1.0])

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=10).map(
            lambda v: [float(x) for x in v]
        )
    )
    @settings(max_examples=200)
    def test_exact_matches_brute_force(self, diffs):
        x = diffs
        y = [0.0] * len(diffs)
        assert wilcoxon_signed_rank_paired(x, y) == _brute_force_wilcoxon_greater(x, y)

    def test_normal_approximation_matches_scipy(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0.3, 1.0, size=60)
        y = rng.normal(0.0, 1.0, size=60)
        ours = wilcoxon_signed_rank_paired(x, y)
        ref = scipy.stats.wilcoxon(
            x, y, alternative="greater", correction=True, method="approx"
        ).pvalue
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_normal_approximation_with_heavy_ties_matches_scipy(self):
        rng = np.random.default_rng(10)
        # integer differences in a narrow band force many tied ranks
        d = rng.integers(-3, 4, size=80).astype(float)
        d = d[d != 0]
        x = d
        y = np.zeros_like(d)
        ours = wilcoxon_signed_rank_paired(x, y)
        ref = scipy.stats.wilcoxon(
            x, y, alternative="greater", correction=True, method="approx"
        ).pvalue
        assert ours == pytest.approx(ref, rel=1e-9)


class TestAverageRanks:
    @given(st.lists(st.integers(0, 6), max_size=40))
    @settings(max_examples=200)
    def test_matches_scipy_rankdata(self, values):
        values = np.array(values, dtype=float) / 2
        expected = scipy.stats.rankdata(values, method="average")
        assert _average_ranks(values).tobytes() == expected.astype(float).tobytes()


class TestRandomStreams:
    def test_same_path_reproduces(self):
        a = derive_stream(42, 1, 2).generator().random(1000)
        b = derive_stream(42, 1, 2).generator().random(1000)
        assert np.array_equal(a, b)

    def test_sibling_paths_differ(self):
        a = derive_stream(42, 0).generator().random(100)
        b = derive_stream(42, 1).generator().random(100)
        assert not np.array_equal(a, b)

    def test_child_extends_path(self):
        assert derive_stream(7, 1).child(2, 3) == RandomStream(7, (1, 2, 3))

    def test_every_stream_parameter_is_a_required_random_stream(self):
        checked = set()
        for info in pkgutil.iter_modules(sentepi.__path__):
            module = importlib.import_module(f"sentepi.{info.name}")
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if not inspect.isfunction(fn):
                    continue
                param = inspect.signature(fn).parameters.get("stream")
                if param is None:
                    continue
                checked.add(f"{info.name}.{name}")
                assert get_type_hints(fn)["stream"] is RandomStream, checked
                assert param.default is inspect.Parameter.empty, f"{info.name}.{name}"
        assert {"epi.run_seir", "epi.estimate_r0",
                "homophily.bootstrap_null", "epi.redistribute"} <= checked
        assert "as_stream" not in sentepi.stats.__all__

    def test_uniformity_chi_square(self):
        draws = derive_stream(2024, 99).generator().random(10**6)
        counts = np.bincount((draws * 100).astype(int), minlength=100)
        expected = 10**6 / 100
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < scipy.stats.chi2.ppf(0.99, df=99)


class TestLargestComponent:
    def test_tie_goes_to_component_with_smallest_node(self):
        # {0, 8, 9} and {1, 2, 3} are equal in size; 0 is the smallest node
        u = np.array([0, 1, 2, 8])
        v = np.array([9, 2, 3, 9])
        keep = largest_component(10, u, v)
        assert np.flatnonzero(keep).tolist() == [0, 8, 9]

    def test_strictly_larger_component_wins(self):
        keep = largest_component(6, np.array([0, 3, 4]), np.array([1, 4, 5]))
        assert np.flatnonzero(keep).tolist() == [3, 4, 5]


    def test_lists_and_arrays_give_the_same_list_of_bools(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 40, 200):
            u, v = rng.integers(0, n, size=(2, n))
            masks = largest_component(n, u.tolist(), v.tolist()), largest_component(n, u, v)
            assert masks[0] == masks[1] and len(masks[0]) == n
            assert all(type(member) is bool for mask in masks for member in mask)


class TestEdgePositions:
    def test_positions_in_the_sorted_nodes(self):
        nodes, src, dst = edge_positions({"b", "a", "c"}, [("c", "a"), ("a", "b")])
        assert nodes == ["a", "b", "c"]
        assert (src, dst) == ([2, 0], [0, 1])

    def test_no_edges_gives_empty_lists(self):
        assert edge_positions(["a"], []) == (["a"], [], [])

    def test_endpoint_outside_the_nodes_rejected(self):
        with pytest.raises(ValueError, match="'z' is not a node"):
            edge_positions(["a"], [("a", "z")])


class TestMapTasks:
    # with 2 workers, 1, 7 and 100 tasks go out in chunks of 1, 1 and 13
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_results_come_back_in_task_order(self, n, workers):
        assert map_tasks(str, range(n), workers) == [str(i) for i in range(n)]

    def test_an_error_in_a_pool_task_reaches_the_caller(self):
        with pytest.raises(ValueError, match="invalid literal for int"):
            map_tasks(int, ["1", "2", "x"], 2)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(30, 200)
        assert low < 30 / 200 < high

    def test_degenerate_counts(self):
        low, _ = wilson_interval(0, 50)
        _, high = wilson_interval(50, 50)
        assert low == 0.0
        assert high == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(6, 5)
