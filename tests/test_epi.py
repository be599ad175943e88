import hashlib
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy import integrate

from sentepi.epi import (
    ContactNetwork,
    R0Estimate,
    SEIRParams,
    StallError,
    UndefinedEstimateError,
    VaccinationAssignment,
    estimate_r0,
    generate_synthetic_contact_network,
    random_assignment,
    read_contact_network,
    redistribute,
    run_seir,
    sample_incubation,
    sweep,
    transmission_probability,
    vaccination_assortativity,
    write_contact_network,
)
from sentepi import InputError
from sentepi.epi import _incubation_steps
from sentepi.stats import derive_stream
from sentepi.synthetic import default_contact_network


def _net(n, edges):
    return ContactNetwork.from_edges(n, edges)


def _no_vaccine(n):
    return VaccinationAssignment(np.zeros(n, dtype=bool))


def _two_cliques(k, w=120):
    edges = [(i, j, w) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, j, w) for i in range(k, 2 * k) for j in range(i + 1, 2 * k)]
    return _net(2 * k, edges)


class TestTransmissionProbability:
    def test_thirty_minute_contact_is_half(self):
        assert transmission_probability(90) == pytest.approx(0.5, abs=5e-4)

    def test_zero_weight(self):
        assert transmission_probability(0) == 0.0

    def test_one_hour_contact(self):
        p = transmission_probability(180)
        assert p == pytest.approx(0.75, abs=5e-4)
        # doubling the duration squares the escape probability
        p90 = transmission_probability(90)
        assert p == pytest.approx(1 - (1 - p90) ** 2, abs=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            transmission_probability(-1)

    def test_array_of_weights_is_elementwise(self):
        weights = np.array([0.0, 22.5, 90.0, 180.0])
        expected = [transmission_probability(float(w)) for w in weights]
        assert transmission_probability(weights).tolist() == expected
        with pytest.raises(ValueError):
            transmission_probability(np.array([90.0, -1.0]))


class TestIncubation:
    def test_minimum_one_step(self):
        steps = _incubation_steps(np.array([0.0]), SEIRParams())
        assert steps[0] == 1

    def test_empirical_mean_matches_quadrature(self):
        params = SEIRParams()
        gen = derive_stream(123).generator()
        steps = _incubation_steps(gen.random(200_000), params)
        empirical_days = steps.mean() * 0.5
        a = 1.0 + 1.0 / params.incubation_shape
        gamma_a, _ = integrate.quad(lambda t: t ** (a - 1) * math.exp(-t), 0, np.inf)
        expected = params.incubation_offset_days + params.incubation_scale_days * gamma_a
        assert empirical_days == pytest.approx(expected, abs=0.01)

    def test_seeded_reproducibility(self):
        a = sample_incubation(derive_stream(5))
        b = sample_incubation(derive_stream(5))
        assert a == b >= 1


class TestContactNetwork:
    def test_rejects_short_contacts(self):
        with pytest.raises(ValueError, match="30 minutes"):
            _net(2, [(0, 1, 89)])

    def test_rejects_self_loops_and_duplicates(self):
        with pytest.raises(ValueError, match="self-loop"):
            _net(2, [(0, 0, 100)])
        with pytest.raises(ValueError, match="duplicate"):
            _net(2, [(0, 1, 100), (1, 0, 150)])

    def test_rejects_unknown_nodes(self):
        with pytest.raises(ValueError, match="missing node"):
            _net(2, [(0, 5, 100)])

    def test_neighbors_and_degrees(self):
        net = _net(3, [(0, 1, 90), (0, 2, 120)])
        assert list(net.degrees) == [2, 1, 1]
        nbrs, wts = net.neighbors(0)
        assert sorted(nbrs.tolist()) == [1, 2]
        assert sorted(wts.tolist()) == [90, 120]

    def test_neighbor_lists_match_neighbors(self):
        net = default_contact_network()
        assert len(net.neighbor_lists) == net.n
        for i in range(net.n):
            assert net.neighbor_lists[i] == net.neighbors(i)[0].tolist()
        assert net.neighbor_lists is net.neighbor_lists

    def test_csv_round_trip(self, tmp_path):
        net = _net(4, [(0, 1, 90), (1, 2, 200), (2, 3, 150)])
        path = tmp_path / "net.csv"
        write_contact_network(path, net)
        loaded = read_contact_network(path)
        assert loaded.n == net.n
        assert np.array_equal(loaded.edge_u, net.edge_u)
        assert np.array_equal(loaded.edge_w, net.edge_w)

    @pytest.mark.parametrize(
        "text, read",
        [
            ("u,v,w\n0,1,120\n1,2\n", read_contact_network),
            ("u,v,w\n0,1,120\n1,x,120\n", read_contact_network),
            ("u,v,w\n0,1,120\n1,2,50\n", read_contact_network),
            ("u,v,w\n0,1,120\n2,2,120\n", read_contact_network),
            ("u,v,w\n0,1,120\n1,0,120\n", read_contact_network),
            ("u,v,w\n0,1,120\n-1,2,120\n", read_contact_network),
        ],
        ids=["network-short-row", "network-non-integer", "network-short-contact",
             "network-self-loop", "network-repeated-pair", "network-negative-node"],
    )
    def test_malformed_row_reports_its_line(self, tmp_path, text, read):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=r"in\.csv:3: expected [23] integer fields"):
            read(path)

    def test_header_only_network_reports_the_missing_row(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("u,v,w\n")
        with pytest.raises(InputError, match=r"in\.csv:2: expected 3 integer fields u,v,w, got end"):
            read_contact_network(path)


class TestRunSeir:
    def test_edgeless_network_infects_only_index(self):
        net = _net(5, [])
        result = run_seir(net, _no_vaccine(5), stream=derive_stream(1))
        assert result.ever_infected == 1
        assert result.secondary_from_index == 0
        assert result.attack_rate == 0.2

    def test_fully_vaccinated_neighborhood(self):
        net = _net(3, [(0, 1, 200), (0, 2, 200)])
        vac = VaccinationAssignment(np.array([False, True, True]))
        result = run_seir(net, vac, stream=derive_stream(2))
        assert result.index_node == 0
        assert result.ever_infected == 1

    def test_no_susceptible_rejected(self):
        net = _net(2, [(0, 1, 100)])
        with pytest.raises(ValueError, match="susceptible"):
            run_seir(net, VaccinationAssignment(np.array([True, True])), stream=derive_stream(5))

    def test_deterministic_given_stream(self):
        net = default_contact_network()
        vac = random_assignment(net, 0.3, derive_stream(3))
        a = run_seir(net, vac, stream=derive_stream(4))
        b = run_seir(net, vac, stream=derive_stream(4))
        assert a == b

    def test_population_conserved_every_step(self):
        net = _two_cliques(10)
        for seed in range(30):
            result = run_seir(
                net, _no_vaccine(20), stream=derive_stream(seed), record_trace=True
            )
            for s, e, i, r in result.trace:
                assert s + e + i + r == 20
            assert result.duration_steps == len(result.trace)

    def test_vaccinated_never_infected(self):
        net = _two_cliques(10)
        params = SEIRParams(transmission_rate=1.0)
        vac = random_assignment(net, 0.5, derive_stream(6))
        for seed in range(20):
            result = run_seir(net, vac, params, stream=derive_stream(seed), record_trace=True)
            assert result.ever_infected <= 20 - vac.n_vaccinated
            # recovered count never drops below the vaccinated block
            for _, _, _, r in result.trace:
                assert r >= vac.n_vaccinated

    def test_zero_transmission_means_single_infection(self):
        net = _two_cliques(8)
        params = SEIRParams(transmission_rate=0.0)
        for seed in range(20):
            result = run_seir(net, _no_vaccine(16), params, stream=derive_stream(seed))
            assert result.ever_infected == 1

    def test_certain_transmission_is_all_or_nothing_on_a_clique(self):
        # with per-edge probability 1, the index either recovers before
        # its single school half-day or infects the whole clique
        net = _net(5, [(i, j, 90) for i in range(5) for j in range(i + 1, 5)])
        params = SEIRParams(transmission_rate=1.0)
        outcomes = set()
        for seed in range(60):
            result = run_seir(net, _no_vaccine(5), params, stream=derive_stream(seed))
            outcomes.add(result.ever_infected)
        assert outcomes == {1, 5}

    def test_attack_rate_floor(self):
        net = _net(4, [(0, 1, 90)])
        result = run_seir(net, _no_vaccine(4), stream=derive_stream(9))
        assert result.attack_rate >= 1 / 4


class TestEstimateR0:
    def test_edgeless_network_undefined(self):
        net = _net(4, [])
        with pytest.raises(UndefinedEstimateError):
            estimate_r0(net, runs=20, stream=derive_stream(1))

    def test_single_edge_conditional_mean_is_one(self):
        net = _net(2, [(0, 1, 90)])
        est = estimate_r0(net, runs=300, stream=derive_stream(2))
        assert est.value == 1.0
        assert 0 < est.runs_with_secondary <= est.total_runs == 300

    def test_bundled_network_in_calibrated_band(self):
        est = estimate_r0(default_contact_network(), runs=500, stream=derive_stream(10))
        assert 1.7 <= est.value <= 2.4

    def test_bundled_network_matches_the_exact_values(self):
        exact = _exact_r0(default_contact_network(), SEIRParams())
        assert exact.r0 == pytest.approx(2.2491, abs=1e-4)
        assert exact.p_secondary == pytest.approx(0.8325, abs=1e-4)
        # 10,000 runs resolve a shift of 0.02 in P(>= 1 secondary), for
        # example one more recovery draw before the window
        runs = 10_000
        est = estimate_r0(default_contact_network(), runs=runs, stream=derive_stream(10))
        # 3.3 standard errors: a two-sided 99.9% CLT / binomial interval
        p_se = math.sqrt(exact.p_secondary * (1 - exact.p_secondary) / runs)
        assert abs(est.runs_with_secondary / runs - exact.p_secondary) < 3.3 * p_se
        r0_se = math.sqrt(exact.r0_variance / (runs * exact.p_secondary))
        assert abs(est.value - exact.r0) < 3.3 * r0_se

    @pytest.mark.parametrize("network", ["default", "small"])
    def test_early_stop_leaves_every_secondary_count_unchanged(self, network):
        if network == "default":
            net, runs = default_contact_network(), 20
        else:
            net = generate_synthetic_contact_network(
                60, 3, 0.2, 0.03, (90, 200), derive_stream(12)
            )
            runs = 100
        vac = _no_vaccine(net.n)
        for seed in (1, 2, 3):
            stream = derive_stream(seed)
            secondary = []
            for i in range(runs):
                full = run_seir(net, vac, stream=stream.child(i))
                cut = run_seir(net, vac, stream=stream.child(i), _index_only=True)
                assert (cut.index_node, cut.secondary_from_index) == (
                    full.index_node, full.secondary_from_index
                )
                assert cut.duration_steps <= full.duration_steps
                if full.secondary_from_index >= 1:
                    secondary.append(full.secondary_from_index)
            expected = R0Estimate(
                value=sum(secondary) / len(secondary),
                runs_with_secondary=len(secondary),
                total_runs=runs,
            )
            assert estimate_r0(net, runs=runs, stream=stream) == expected

    def test_full_run_and_estimate_keep_their_values(self):
        # pinned values: a full run and an early-stopped estimate must keep them
        net = default_contact_network()
        result = run_seir(net, _no_vaccine(net.n), stream=derive_stream(4))
        assert (result.index_node, result.secondary_from_index) == (975, 1)
        assert (result.duration_steps, result.attack_rate) == (92, 0.598)
        est = estimate_r0(net, runs=300, stream=derive_stream(11))
        assert est == R0Estimate(2.3214285714285716, 252, 300)


class _ExactR0(NamedTuple):
    r0: float
    p_secondary: float
    r0_variance: float


def _exact_r0(net, params):
    """Exact R0 from a uniformly chosen index case on an unvaccinated network.

    The index case is the only infected node until its single school
    window, where each neighbour is infected independently with
    p = 1 - (1 - beta)^(0.25 w). Conditional on a window, the count X is
    a sum of Bernoullis for each index node i, so R0 = E[X | X >= 1] is
    mean_i sum(p) / mean_i (1 - prod(1 - p)); P(window) cancels out.
    """
    p = 1.0 - (1.0 - params.transmission_rate) ** (
        params.symptomatic_contact_factor * net.nbr_w
    )
    head = np.repeat(np.arange(net.n), net.degrees)
    mean = np.bincount(head, weights=p, minlength=net.n)
    var = np.bincount(head, weights=p * (1 - p), minlength=net.n)
    none = np.exp(np.bincount(head, weights=np.log1p(-p), minlength=net.n))
    any_given_window = float((1 - none).mean())
    r0 = float(mean.mean()) / any_given_window
    second_moment = float((var + mean**2).mean()) / any_given_window

    # The index turns infectious after s incubation steps (a Weibull in
    # days plus the offset, rounded to half days, floor 1) and must then
    # survive recovery at t = 1..g infectious steps, g being the gap to the
    # next weekday day-step, where it transmits before recovery is drawn.
    # Steps alternate day and night from Monday: 0, 2, 4, 6, 8 of each 14.
    def cdf(k):  # P(incubation <= k steps)
        x = max(0.0, ((k + 0.5) / 2 - params.incubation_offset_days)
                / params.incubation_scale_days)
        return 1.0 - math.exp(-(x**params.incubation_shape))

    p_window = 0.0
    for s in range(1, 400):
        g = next(g for g in range(14) if (s + g) % 14 in (0, 2, 4, 6, 8))
        p_s = cdf(s) - (cdf(s - 1) if s > 1 else 0.0)
        p_window += p_s * params.recovery_base ** (g * (g + 1) / 2)
    return _ExactR0(
        r0=r0,
        p_secondary=any_given_window * p_window,
        r0_variance=second_moment - r0**2,
    )


class TestVaccinationAssortativity:
    def test_alternating_path(self):
        net = _net(4, [(0, 1, 90), (1, 2, 90), (2, 3, 90)])
        vac = VaccinationAssignment(np.array([True, False, True, False]))
        assert vaccination_assortativity(net, vac) == pytest.approx(-1.0)

    def test_blocked_path_hand_value(self):
        # statuses V V U U on a path: svv=1, suu=1, cross=1, deg_v=3
        # e_ii = 2/3, a_v = 1/2 -> r = (2/3 - 1/2) / (1 - 1/2) = 1/3
        net = _net(4, [(0, 1, 90), (1, 2, 90), (2, 3, 90)])
        vac = VaccinationAssignment(np.array([True, True, False, False]))
        assert vaccination_assortativity(net, vac) == pytest.approx(1 / 3, abs=1e-15)

    def test_vaccinating_one_clique_entirely(self):
        net = _two_cliques(6)
        vac = VaccinationAssignment(np.arange(12) < 6)
        assert vaccination_assortativity(net, vac) == 1.0

    def test_random_assignment_near_zero_in_expectation(self):
        net = default_contact_network()
        values = [
            vaccination_assortativity(
                net, random_assignment(net, 0.624, derive_stream(800, i))
            )
            for i in range(50)
        ]
        assert abs(float(np.mean(values))) < 0.005
        assert max(abs(v) for v in values) < 0.08

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            vaccination_assortativity(_net(3, []), _no_vaccine(3))


class TestRedistribute:
    def test_two_clique_target_reached(self):
        net = _two_cliques(20)
        vac = random_assignment(net, 0.5, derive_stream(30))
        out = redistribute(net, vac, 0.9, derive_stream(31))
        assert vaccination_assortativity(net, out) > 0.9
        assert out.n_vaccinated == vac.n_vaccinated == 20

    def test_immediate_return_when_already_above_target(self):
        net = _two_cliques(6)
        vac = VaccinationAssignment(np.arange(12) < 6)  # r = 1.0
        out = redistribute(net, vac, 0.5, derive_stream(32))
        assert np.array_equal(out.vaccinated, vac.vaccinated)
        assert out is not vac  # returned as an independent copy

    def test_seed_reproducibility(self):
        net = default_contact_network()
        vac = random_assignment(net, 0.624, derive_stream(33))
        a = redistribute(net, vac, 0.1, derive_stream(34))
        b = redistribute(net, vac, 0.1, derive_stream(34))
        assert np.array_equal(a.vaccinated, b.vaccinated)

    def test_cached_neighbor_lists_change_nothing(self):
        net = default_contact_network()
        fresh = ContactNetwork.from_edges(
            net.n, list(zip(net.edge_u.tolist(), net.edge_v.tolist(), net.edge_w.tolist()))
        )
        vac = random_assignment(net, 0.624, derive_stream(37))
        net.neighbor_lists  # build the cache before the first call
        warm = redistribute(net, vac, 0.1, derive_stream(38))
        assert "neighbor_lists" not in vars(fresh)
        cold = redistribute(fresh, vac, 0.1, derive_stream(38))
        assert np.array_equal(warm.vaccinated, cold.vaccinated)
        assert net.neighbor_lists == fresh.neighbor_lists

    def test_stall_raises_with_best_r(self):
        # a 4-node path cannot reach r ~ 1 at coverage 1/2
        net = _net(4, [(0, 1, 90), (1, 2, 90), (2, 3, 90)])
        vac = VaccinationAssignment(np.array([True, False, True, False]))
        with pytest.raises(StallError) as exc_info:
            redistribute(net, vac, 0.99, derive_stream(35), max_stall=500)
        assert exc_info.value.best_r <= 0.99
        assert exc_info.value.target_r == 0.99

    def test_full_or_empty_coverage_rejected(self):
        net = _two_cliques(4)
        with pytest.raises(ValueError, match="coverage"):
            redistribute(net, _no_vaccine(8), 0.5, derive_stream(36))


class TestSweep:
    def test_single_point_grid_has_unit_relative_risk(self):
        net = _two_cliques(10)
        report = sweep(net, 0.5, [0.0], 30, derive_stream(40))
        assert report.points[0].rr_3pct == 1.0
        assert report.points[0].rr_5pct == 1.0
        assert report.points[0].runs == 30

    def test_reproducible(self):
        net = _two_cliques(10)
        a = sweep(net, 0.5, [0.0, 0.3], 20, derive_stream(41))
        b = sweep(net, 0.5, [0.0, 0.3], 20, derive_stream(41))
        assert a == b

    def test_worker_count_does_not_change_results(self):
        net = _two_cliques(10)
        a = sweep(net, 0.5, [0.0, 0.3], 16, derive_stream(42), workers=1)
        b = sweep(net, 0.5, [0.0, 0.3], 16, derive_stream(42), workers=2)
        assert a == b

    def test_grid_must_ascend(self):
        net = _two_cliques(4)
        with pytest.raises(ValueError, match="ascending"):
            sweep(net, 0.5, [0.1, 0.1], 5, derive_stream(43))

    def test_stall_propagates_with_grid_context(self):
        # a 4-node path cannot reach r ~ 0.99 at coverage 1/2
        net = _net(4, [(0, 1, 90), (1, 2, 90), (2, 3, 90)])
        with pytest.raises(StallError, match="grid point"):
            sweep(net, 0.5, [0.99], 3, derive_stream(44), max_stall=300)


class TestPinnedOutputs:
    """sha256 of kernel outputs: a change to the swap sequence, or to the
    size or place of any random draw, changes a digest."""

    def test_redistribute_swap_sequence(self):
        net = default_contact_network()
        digest = hashlib.sha256()
        for gi, target in enumerate((0.0, 0.075, 0.145)):
            for j in range(20):
                vac = random_assignment(net, 0.624, derive_stream(50, gi, j, 0))
                out = redistribute(net, vac, target, derive_stream(50, gi, j, 1))
                digest.update(out.vaccinated.tobytes())
        assert digest.hexdigest() == (
            "f0b60aa7910a1771cbcdff7dfc2f68037fb772ca695996d47e26162e18bc6636"
        )

    def test_sweep_report(self):
        net = default_contact_network()
        report = sweep(net, 0.624, [0.0, 0.075, 0.145], 20, derive_stream(51))
        assert hashlib.sha256(repr(report).encode()).hexdigest() == (
            "afd376bca150704e05e251b876190720e627898d8d3c3178e626aa2e6403e3eb"
        )

    def test_full_run_trace(self):
        # the 92-step run of TestEstimateR0.test_full_run_and_estimate_keep_their_values
        net = default_contact_network()
        result = run_seir(net, _no_vaccine(net.n), stream=derive_stream(4), record_trace=True)
        assert len(result.trace) == 92
        assert hashlib.sha256(repr(result.trace).encode()).hexdigest() == (
            "a368fae5cba80961fdd877bdac2ebe7ec4a4a1219184c46437ef9f1885b4e977"
        )


class TestGenerator:
    def test_weights_within_range_and_eligible(self):
        net = generate_synthetic_contact_network(
            200, 4, 0.1, 0.005, (90, 140), derive_stream(50)
        )
        assert net.edge_w.min() >= 90
        assert net.edge_w.max() <= 140

    def test_component_pruning_bounds_size(self):
        net = generate_synthetic_contact_network(
            100, 2, 0.08, 0.001, (90, 120), derive_stream(51)
        )
        assert net.n <= 100

    def test_same_seed_identical(self):
        a = generate_synthetic_contact_network(150, 3, 0.1, 0.01, (90, 200), derive_stream(52))
        b = generate_synthetic_contact_network(150, 3, 0.1, 0.01, (90, 200), derive_stream(52))
        assert np.array_equal(a.edge_u, b.edge_u)
        assert np.array_equal(a.edge_v, b.edge_v)
        assert np.array_equal(a.edge_w, b.edge_w)

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            generate_synthetic_contact_network(50, 2, 0.0, 0.0, (90, 100), derive_stream(53))

    def test_bad_weight_range_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_contact_network(50, 2, 0.1, 0.01, (50, 100), derive_stream(54))

    def test_default_network_shape(self):
        net = default_contact_network()
        assert net.n == 1000
        assert net.edge_w.min() >= 90
