import dataclasses
import functools
import hashlib
import itertools
import math
import pickle
import tracemalloc
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import chi2

from sentepi.epi import (
    ContactNetwork,
    R0Estimate,
    SEIRParams,
    SimResult,
    StallError,
    UndefinedEstimateError,
    VaccinationAssignment,
    estimate_r0,
    generate_synthetic_contact_network,
    random_assignment,
    read_contact_network,
    redistribute,
    run_seir,
    sweep,
    transmission_probability,
    vaccination_assortativity,
)
import sentepi
from sentepi import InputError, epi
from sentepi.epi import _incubation_steps
from sentepi.stats import derive_stream, largest_component
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
        lo, hi = net.indptr[0], net.indptr[1]
        assert sorted(net.nbr[lo:hi].tolist()) == [1, 2]
        assert sorted(net.nbr_w[lo:hi].tolist()) == [90, 120]

    def test_neighbor_lists_match_neighbors(self):
        net = default_contact_network()
        assert len(net.neighbor_lists) == net.n
        for i in range(net.n):
            assert net.neighbor_lists[i] == net.nbr[net.indptr[i]:net.indptr[i + 1]].tolist()
        assert net.neighbor_lists is net.neighbor_lists

    def test_csv_round_trip(self, tmp_path):
        net = _net(4, [(0, 1, 90), (1, 2, 200), (2, 3, 150)])
        path = tmp_path / "net.csv"
        rows = zip(net.edge_u.tolist(), net.edge_v.tolist(), net.edge_w.tolist())
        sentepi.write_csv(path, ["u", "v", "w"], rows)
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


class TestNetworkTables:
    """The per-network tables that run_seir and redistribute read: built on
    first use, equal to the per-call values, and left out of a pickle."""

    @pytest.mark.parametrize("factor, rate", [(0.25, 0.00767), (1.0, 0.00767), (0.25, 0.3),
                                              (0.7, 1e-4)])
    def test_transmission_lists_equal_the_per_call_probabilities(self, factor, rate):
        net = default_contact_network()
        table = net.transmission_lists(factor, rate)
        assert net.transmission_lists(factor, rate) is table
        for mask in (np.ones(net.n, dtype=bool), np.arange(net.n) % 2 == 0):
            for u in range(net.n):
                lo, hi = net.indptr[u], net.indptr[u + 1]
                nbrs, wts = net.nbr[lo:hi], net.nbr_w[lo:hi]
                sus = mask[nbrs]
                per_call = transmission_probability(factor * wts[sus], rate).tolist()
                assert list(itertools.compress(table[u], sus.tolist())) == per_call

    def test_incubation_steps_of_a_block_equal_single_draws(self):
        # run_seir takes a uniform's steps from its block of 64
        params = SEIRParams()
        u = derive_stream(13).generator().random(64 * 313)
        blocks = np.concatenate([_incubation_steps(block, params) for block in u.reshape(-1, 64)])
        single = [int(_incubation_steps(u[i:i + 1], params)[0]) for i in range(u.size)]
        assert blocks.tolist() == single

    def test_tables_are_built_on_first_use_only(self):
        net = default_contact_network()
        assert {"degrees", "degree_list", "neighbor_lists", "_heads",
                "_transmission_lists"}.isdisjoint(vars(net))

    def test_pickle_holds_the_fields_only(self):
        net = default_contact_network()
        cold = pickle.dumps(net)
        vac = random_assignment(net, 0.624, derive_stream(14))
        warm_run = run_seir(net, vac, stream=derive_stream(15), record_trace=True)
        redistribute(net, vac, 0.1, derive_stream(16))
        assert "_transmission_lists" in vars(net) and "_heads" in vars(net)
        assert pickle.dumps(net) == cold
        back = pickle.loads(cold)
        assert set(vars(back)) == {f.name for f in dataclasses.fields(ContactNetwork)}
        assert run_seir(back, vac, stream=derive_stream(15), record_trace=True) == warm_run
        assert np.array_equal(redistribute(back, vac, 0.1, derive_stream(16)).vaccinated,
                              redistribute(net, vac, 0.1, derive_stream(16)).vaccinated)


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


def _reference_run_seir(net, vac, params, *, stream, record_trace=False, _index_only=False):
    """run_seir as a scan over every node's state each step; the
    active-set loop must give the same SimResult."""
    S, E, I, R = 0, 1, 2, 3
    gen = stream.generator()
    state = np.full(net.n, S, dtype=np.int8)
    state[vac.vaccinated] = R
    susceptible = np.flatnonzero(state == S)
    index = int(susceptible[gen.integers(susceptible.size)])
    clock = np.zeros(net.n, dtype=np.int64)
    state[index] = E
    clock[index] = _incubation_steps(gen.random(size=1), params)[0] + 1
    ever_infected, secondary_from_index = 1, 0
    window_pending = np.zeros(net.n, dtype=bool)
    trace = []
    step = 0
    while True:
        exposed = np.flatnonzero(state == E)
        clock[exposed] -= 1
        fresh = exposed[clock[exposed] == 0]
        state[fresh] = I
        window_pending[fresh] = True
        if step % 14 in (0, 2, 4, 6, 8):
            transmitters = np.flatnonzero(window_pending & (state == I))
            for u in transmitters:
                lo, hi = net.indptr[u], net.indptr[u + 1]
                nbrs, wts = net.nbr[lo:hi], net.nbr_w[lo:hi]
                sus_mask = state[nbrs] == S
                if not np.any(sus_mask):
                    continue
                targets = nbrs[sus_mask]
                probs = transmission_probability(
                    params.symptomatic_contact_factor * wts[sus_mask], params.transmission_rate
                )
                hits = targets[gen.random(targets.size) < probs]
                if hits.size:
                    state[hits] = E
                    clock[hits] = _incubation_steps(gen.random(size=hits.size), params)
                    ever_infected += int(hits.size)
                    if int(u) == index:
                        secondary_from_index += int(hits.size)
            window_pending[transmitters] = False
        infectious = np.flatnonzero(state == I)
        if infectious.size:
            clock[infectious] += 1
            t = clock[infectious]
            hazard = 1.0 - params.recovery_base**t
            recovers = (gen.random(infectious.size) < hazard) | (t >= params.max_infectious_steps)
            state[infectious[recovers]] = R
        step += 1
        if record_trace:
            trace.append(tuple(np.bincount(state, minlength=4).tolist()))
        if not np.any(state == E) and not np.any(state == I):
            break
        if _index_only and state[index] != E and not (state[index] == I and window_pending[index]):
            break
    return SimResult(
        ever_infected=ever_infected,
        secondary_from_index=secondary_from_index,
        duration_steps=step,
        attack_rate=ever_infected / net.n,
        index_node=index,
        trace=tuple(trace) if record_trace else None,
    )


class TestReferenceLoop:
    """run_seir against _reference_run_seir on the same streams."""

    @staticmethod
    def _same(net, vac, params, streams, **kwargs):
        results = []
        for stream in streams:
            new = run_seir(net, vac, params, stream=stream, record_trace=True, **kwargs)
            assert new == _reference_run_seir(
                net, vac, params, stream=stream, record_trace=True, **kwargs
            )
            results.append(new)
        return results

    @pytest.mark.parametrize("target_r", [0.0, 0.145])
    def test_sweep_like_runs(self, target_r):
        net = default_contact_network()
        for j in range(150):
            vac = random_assignment(net, 0.624, derive_stream(60, j, 0))
            vac = redistribute(net, vac, target_r, derive_stream(60, j, 1))
            self._same(net, vac, SEIRParams(), [derive_stream(60, j, 2)])

    def test_full_unvaccinated_runs(self):
        net = default_contact_network()
        results = self._same(net, _no_vaccine(net.n), SEIRParams(),
                             [derive_stream(61, i) for i in range(30)])
        assert max(r.attack_rate for r in results) > 0.3

    def test_index_only_runs(self):
        net = default_contact_network()
        self._same(net, _no_vaccine(net.n), SEIRParams(),
                   [derive_stream(62, i) for i in range(500)], _index_only=True)

    def test_index_without_a_susceptible_neighbour(self):
        net = _net(4, [(0, 1, 3000), (0, 2, 3000), (2, 3, 3000)])
        vac = VaccinationAssignment(np.array([False, True, True, False]))
        results = self._same(net, vac, SEIRParams(), [derive_stream(63, i) for i in range(40)])
        assert {r.ever_infected for r in results} == {1}

    def test_all_but_one_vaccinated(self):
        net = default_contact_network()
        vacc = np.ones(net.n, dtype=bool)
        vacc[500] = False
        results = self._same(net, VaccinationAssignment(vacc), SEIRParams(),
                             [derive_stream(64, i) for i in range(20)])
        assert {r.index_node for r in results} == {500}

    def test_recovery_before_the_window_means_no_transmission(self):
        # recovery_base 0 recovers every node at its first draw, so only a
        # node turning infectious on a school half-day transmits
        net = _net(5, [(i, j, 90) for i in range(5) for j in range(i + 1, 5)])
        params = SEIRParams(transmission_rate=1.0, recovery_base=0.0)
        results = self._same(net, _no_vaccine(5), params,
                             [derive_stream(65, i) for i in range(60)])
        assert {r.ever_infected for r in results} == {1, 5}

    def test_runs_across_weekends(self):
        net = _net(8, [(i, i + 1, 3000) for i in range(7)])
        results = self._same(net, _no_vaccine(8), SEIRParams(),
                             [derive_stream(66, i) for i in range(40)])
        assert max(r.duration_steps for r in results) > 2 * 14


class TestEstimateR0:
    def test_edgeless_network_undefined(self):
        net = _net(4, [])
        with pytest.raises(UndefinedEstimateError):
            estimate_r0(net, runs=20, stream=derive_stream(1))

    def test_single_edge_conditional_mean_is_one(self):
        net = _net(2, [(0, 1, 90)])
        est = estimate_r0(net, runs=300, stream=derive_stream(2))
        assert est.value == 1.0
        assert 0 < est.runs_with_secondary <= 300

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
            )
            assert estimate_r0(net, runs=runs, stream=stream) == expected

    def test_full_run_and_estimate_keep_their_values(self):
        # pinned values: a full run and an early-stopped estimate must keep them
        net = default_contact_network()
        result = run_seir(net, _no_vaccine(net.n), stream=derive_stream(4))
        assert (result.index_node, result.secondary_from_index) == (975, 1)
        assert (result.duration_steps, result.attack_rate) == (92, 0.598)
        est = estimate_r0(net, runs=300, stream=derive_stream(11))
        assert est == R0Estimate(2.3214285714285716, 252)


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
    p_window = sum(_window_steps(params, 0).values())
    return _ExactR0(
        r0=r0,
        p_secondary=any_given_window * p_window,
        r0_variance=second_moment - r0**2,
    )


def _window_steps(params, exposed_at):
    """{w: P(school window at step w)} for a node exposed during step
    ``exposed_at``; the index case counts as exposed during step 0.

    The node turns infectious k incubation steps later (a Weibull in days
    plus the offset, rounded to half days, floor 1) and must then survive
    recovery at t = 1..g infectious steps, g being the gap to the next
    weekday day-step, where it transmits before recovery is drawn. Steps
    alternate day and night from Monday: 0, 2, 4, 6, 8 of each 14. The
    values sum to the probability that the node reaches a window at all.
    """
    def cdf(k):  # P(incubation <= k steps)
        x = max(0.0, ((k + 0.5) / 2 - params.incubation_offset_days)
                / params.incubation_scale_days)
        return 1.0 - math.exp(-(x**params.incubation_shape))

    windows = {}
    for k in range(1, 400):
        s = exposed_at + k
        g = next(g for g in range(14) if (s + g) % 14 in (0, 2, 4, 6, 8))
        p_k = cdf(k) - (cdf(k - 1) if k > 1 else 0.0)
        windows[s + g] = windows.get(s + g, 0.0) + p_k * params.recovery_base ** (g * (g + 1) / 2)
    return windows


def _exact_path_sizes(weight, params):
    """Exact P(size 1), P(size 2), P(size 3) of a full run on the
    unvaccinated path 0-1-2, every edge of weight ``weight``.

    The index is uniform. Each window infects a susceptible neighbour
    with p = 1 - (1 - beta)^(0.25 w). From an end node (2/3), size 3
    needs the index's window at some step w, a hit, the middle node's
    window after exposure at w (its chance depends on w mod 14 only) and
    a second hit. From the middle node (1/3), a window gives
    1 + Binomial(2, p).
    """
    p = 1.0 - (1.0 - params.transmission_rate) ** (params.symptomatic_contact_factor * weight)
    index_windows = _window_steps(params, 0)
    q0 = sum(index_windows.values())
    reach = [sum(_window_steps(params, e).values()) for e in range(14)]
    end3 = sum(pw * p * reach[w % 14] * p for w, pw in index_windows.items())
    end2 = q0 * p - end3
    size2 = (2 * end2 + q0 * 2 * p * (1 - p)) / 3
    size3 = (2 * end3 + q0 * p * p) / 3
    return 1.0 - size2 - size3, size2, size3


class TestSecondGeneration:
    def test_path_outbreak_sizes_match_the_exact_values(self):
        # Size 3 needs a non-index node's incubation, its weekday gap and
        # its recovery draws, which the R0 oracle never sees. At w = 3000
        # (p = 0.997) a school Saturday or a non-index node turning
        # infectious a step early moves P(size 2) by over 8 standard
        # errors; at w = 600 neither reaches 3.3.
        weight, runs = 3000, 10_000
        params = SEIRParams()
        probs = _exact_path_sizes(weight, params)
        assert probs == pytest.approx((0.0259, 0.0415, 0.9326), abs=1e-4)
        net = _net(3, [(0, 1, weight), (1, 2, weight)])
        vac = _no_vaccine(3)
        sizes = np.bincount([
            run_seir(net, vac, params, stream=derive_stream(77, i)).ever_infected
            for i in range(runs)
        ], minlength=4)[1:]
        for hits, p in zip(sizes.tolist(), probs):
            # 3.3 standard errors: a two-sided 99.9% binomial interval
            assert abs(hits / runs - p) < 3.3 * math.sqrt(p * (1 - p) / runs)


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


class TestRandomAssignmentOracle:
    def test_every_subset_is_equally_likely(self):
        # n = 7 with 3 vaccinated: each of the C(7, 3) = 35 subsets has
        # probability 1/35, so 10,000 draws expect each 285.7 times.
        net, draws = _net(7, []), 10_000
        counts = {}
        for i in range(draws):
            vac = random_assignment(net, 3 / 7, derive_stream(900, i))
            subset = tuple(np.flatnonzero(vac.vaccinated).tolist())
            counts[subset] = counts.get(subset, 0) + 1
        subsets = list(itertools.combinations(range(7), 3))
        assert set(counts) <= set(subsets)
        observed = np.array([counts.get(s, 0) for s in subsets], dtype=float)
        expected = draws / len(subsets)
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert statistic < chi2.isf(1e-6, len(subsets) - 1)


def _redistribute_chain(n, edges, start, target):
    """Exact law of ``redistribute`` on ``edges`` from the vaccinated set ``start``.

    Each trial swaps a uniform vaccinated x with a uniform unvaccinated y
    and is kept iff r strictly rises; the climb stops once r > target. A
    rejected trial leaves the state as it was, so the accepted swaps form
    a chain that moves to each improving neighbour with equal probability,
    and r rises along it. r is computed here in fractions from the mixing
    matrix (each edge counted in both directions). Returns P(final set),
    E[k] and E[k^2] for the number k of accepted swaps.
    """
    nodes = frozenset(range(n))

    @functools.cache
    def r(state):
        same = Fraction(sum((u in state) == (v in state) for u, v in edges), len(edges))
        a = Fraction(sum((u in state) + (v in state) for u, v in edges), 2 * len(edges))
        sab = a * a + (1 - a) * (1 - a)
        return (same - sab) / (1 - sab)

    @functools.cache
    def solve(state):
        if r(state) > target:
            return {state: Fraction(1)}, Fraction(0), Fraction(0)
        moves = [state - {x} | {y} for x in state for y in nodes - state]
        up = [nxt for nxt in moves if r(nxt) > r(state)]
        assert up, f"{sorted(state)} stalls below the target"
        final, k1, k2 = Counter(), Fraction(0), Fraction(0)
        for nxt in up:
            f, e1, e2 = solve(nxt)
            for s, prob in f.items():
                final[s] += prob / len(up)
            k1 += (1 + e1) / len(up)
            k2 += (1 + 2 * e1 + e2) / len(up)
        return final, k1, k2

    return solve(frozenset(start))


class TestRedistributeOracle:
    # From {1, 2, 3, 6} the climb ends in one of 4 sets after 2.18 accepted
    # swaps on average. No state on the way is a local maximum of r.
    EDGES = [(0, 1), (0, 3), (0, 4), (0, 6), (1, 7), (2, 3), (3, 4), (4, 7), (5, 7)]
    START, TARGET, RUNS = (1, 2, 3, 6), 0.2, 4000

    def test_final_sets_and_accepted_swaps_follow_the_exact_chain(self, monkeypatch):
        # Fraction(0.2) is the float's exact value, the one redistribute compares with
        final, k1, k2 = _redistribute_chain(8, self.EDGES, self.START, Fraction(self.TARGET))
        # every trial's r passes through _r_fraction; a new maximum is an accepted swap
        trial_r, r_fraction = [], epi._r_fraction

        def recording(*counts):
            a, b = r_fraction(*counts)
            trial_r.append(Fraction(a, b))
            return a, b

        monkeypatch.setattr(epi, "_r_fraction", recording)
        net = _net(8, [(u, v, 120) for u, v in self.EDGES])
        start = VaccinationAssignment(np.isin(np.arange(8), self.START))
        finals, accepted = Counter(), []
        for i in range(self.RUNS):
            trial_r.clear()
            out = redistribute(net, start, self.TARGET, derive_stream(950, i))
            finals[frozenset(np.flatnonzero(out.vaccinated).tolist())] += 1
            best = list(itertools.accumulate(trial_r, max))
            accepted.append(sum(b > a for a, b in zip(best, best[1:])))
        assert set(finals) <= set(final)
        observed = np.array([finals[s] for s in final], dtype=float)
        expected = np.array([float(p) for p in final.values()]) * self.RUNS
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert statistic < chi2.isf(1e-6, len(final) - 1)
        variance = float(k2 - k1 * k1)
        z2 = (np.mean(accepted) - float(k1)) ** 2 / (variance / self.RUNS)
        assert z2 < chi2.isf(1e-6, 1)


def _exact_r(svv, suu, m):
    """Vaccination assortativity of m edges, svv joining two vaccinated nodes
    and suu two unvaccinated ones, from the mixing matrix in fractions."""
    a = Fraction(m + svv - suu, 2 * m)
    if a <= 0 or a >= 1:
        return Fraction(1)
    sab = a * a + (1 - a) * (1 - a)
    return (Fraction(svv + suu, m) - sab) / (1 - sab)


def _status_counts(net, vaccinated):
    u, v = vaccinated[net.edge_u], vaccinated[net.edge_v]
    return int(np.sum(u & v)), int(np.sum(~u & ~v))


class TestExactAcceptTest:
    # The FOUND graph's {0, 1, 3, 5} and {1, 2, 3, 5}: exact r -1/10 both,
    # but the mixing-matrix formula in floats gives -0.1 and -0.09999999999999976.
    EDGES = [(0, 1), (0, 4), (0, 7), (1, 3), (1, 4), (1, 6), (2, 4), (3, 4), (3, 5), (4, 5),
             (4, 6)]

    def _graph(self):
        return _net(8, [(u, v, 120) for u, v in self.EDGES])

    def _vac(self, vaccinated):
        return VaccinationAssignment(np.isin(np.arange(8), list(vaccinated)))

    def test_r_fraction_matches_fractions_on_random_counts(self):
        rng = np.random.default_rng(60)
        for m in (1, 2, 3, 11, 3829, 10**6):
            for _ in range(800):
                svv = int(rng.integers(0, m + 1))
                suu = int(rng.integers(0, m - svv + 1))
                a, b = epi._r_fraction(svv, suu, m)
                assert b > 0 and Fraction(a, b) == _exact_r(svv, suu, m)

    def test_reported_r_is_the_exact_r_correctly_rounded(self):
        # every vaccinated set of the 8-node graph, and random ones on the bundled network
        net = self._graph()
        for k in range(9):
            for vaccinated in itertools.combinations(range(8), k):
                vac = self._vac(vaccinated)
                exact = _exact_r(*_status_counts(net, vac.vaccinated), net.m)
                assert vaccination_assortativity(net, vac) == float(exact)
        net = default_contact_network()
        for i, coverage in enumerate(np.linspace(0.01, 0.99, 40)):
            vac = random_assignment(net, float(coverage), derive_stream(955, i))
            exact = _exact_r(*_status_counts(net, vac.vaccinated), net.m)
            assert vaccination_assortativity(net, vac) == float(exact)

    @pytest.mark.parametrize("start, target", [((2,), -0.04761904761905011),
                                               ((0, 1), -0.04761904761904771)])
    def test_returned_climb_never_reports_r_below_its_target(self, start, target):
        # the exact r -1/21 of each start exceeds the target, but the
        # mixing-matrix formula in floats put the returned start's r below it
        net, vac = self._graph(), self._vac(start)
        assert _exact_r(*_status_counts(net, vac.vaccinated), net.m) == Fraction(-1, 21)
        for i in range(50):
            out = redistribute(net, vac, target, derive_stream(956, i))
            assert np.array_equal(out.vaccinated, vac.vaccinated)
            assert vaccination_assortativity(net, out) >= target

    def test_equal_exact_r_with_unequal_floats_is_not_a_rise(self):
        def float_r(svv, suu, m):
            a = (m + svv - suu) / (2 * m)
            sab = a * a + (1 - a) * (1 - a)
            return ((svv + suu) / m - sab) / (1 - sab)

        net, left, right = self._graph(), self._vac({0, 1, 3, 5}), self._vac({1, 2, 3, 5})
        a, b = _status_counts(net, left.vaccinated), _status_counts(net, right.vaccinated)
        assert float_r(*a, 11) != float_r(*b, 11)
        assert _exact_r(*a, 11) == _exact_r(*b, 11) == Fraction(-1, 10)
        assert vaccination_assortativity(net, left) == vaccination_assortativity(net, right) == -0.1
        (p, q), (s, t) = epi._r_fraction(*a, 11), epi._r_fraction(*b, 11)
        assert p * t == s * q  # so neither swap between them is kept

    def _climbs_follow_the_exact_chain(self, start, target, seed, runs=2000):
        final, _, _ = _redistribute_chain(8, self.EDGES, start, Fraction(target))
        net, vac = self._graph(), self._vac(start)
        finals = Counter(
            frozenset(np.flatnonzero(redistribute(net, vac, target, derive_stream(seed, i))
                                     .vaccinated).tolist())
            for i in range(runs)
        )
        assert set(finals) <= set(final)
        observed = np.array([finals[s] for s in final], dtype=float)
        expected = np.array([float(p) for p in final.values()]) * runs
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert statistic < chi2.isf(1e-6, len(final) - 1)

    def test_climb_through_the_tie_follows_the_exact_chain(self):
        # the float test kept the tying swap and ended in sets the exact
        # chain never reaches, e.g. {0, 1, 2, 7}
        self._climbs_follow_the_exact_chain((0, 1, 3, 5), 0.0, 951)

    def test_start_whose_exact_r_beats_the_target_is_returned(self):
        # the exact r -1/10 of {0, 1, 3, 5} exceeds the float -0.1, whose
        # value is -0.1000000000000000055..., but rounds to -0.1 itself,
        # so a stop test on the rounded r climbed on
        net, vac = self._graph(), self._vac((0, 1, 3, 5))
        assert vaccination_assortativity(net, vac) == -0.1
        for i in range(200):
            out = redistribute(net, vac, -0.1, derive_stream(953, i))
            assert np.array_equal(out.vaccinated, vac.vaccinated)

    def test_climb_stops_on_a_swap_whose_exact_r_beats_the_target(self):
        # from {0, 3, 4, 5} (r -5/28) one accepted swap ends every exact climb,
        # one time in eight on {0, 1, 3, 5}, where the float stop test went on
        self._climbs_follow_the_exact_chain((0, 3, 4, 5), -0.1, 954)


def _reference_redistribute(net, vac, target_r, stream, max_stall):
    """The climb as it was before per-node counts: each trial sums the
    statuses of both nodes' neighbours. Same draws; the accept and stop
    tests compare ``_exact_r`` and the target as fractions."""
    vacc = vac.vaccinated.copy()
    svv, suu = _status_counts(net, vacc)
    m = net.m
    r, target = _exact_r(svv, suu, m), Fraction(target_r)
    if r > target:
        return VaccinationAssignment(vacc)
    status = vacc.tolist()
    is_vacc = status.__getitem__
    deg = net.degrees.tolist()
    neighbors = net.neighbor_lists
    vacc_nodes = np.flatnonzero(vacc).tolist()
    unvacc_nodes = np.flatnonzero(~vacc).tolist()
    gen = stream.generator()
    stall = 0
    while True:
        for i, j in zip(
            gen.integers(0, len(vacc_nodes), size=512).tolist(),
            gen.integers(0, len(unvacc_nodes), size=512).tolist(),
        ):
            x, y = vacc_nodes[i], unvacc_nodes[j]
            nx, ny = neighbors[x], neighbors[y]
            dsvv = sum(map(is_vacc, ny)) - (y in nx) - sum(map(is_vacc, nx))
            new_svv, new_suu = svv + dsvv, suu + dsvv + deg[x] - deg[y]
            new_r = _exact_r(new_svv, new_suu, m)
            if new_r > r:
                svv, suu, r = new_svv, new_suu, new_r
                status[x], status[y] = vacc[x], vacc[y] = False, True
                vacc_nodes[i], unvacc_nodes[j] = y, x
                stall = 0
                if r > target:
                    return VaccinationAssignment(vacc)
            else:
                stall += 1
                if stall >= max_stall:
                    raise StallError("stalled", best_r=float(r), target_r=target_r)


class TestCountedClimbOracle:
    def test_counted_climb_matches_the_summing_climb(self):
        rng = np.random.default_rng(70)
        outcomes = Counter()
        graphs_with_isolated_nodes = 0
        for g in range(240):
            n = int(rng.integers(4, 16))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            keep = rng.random(len(pairs)) < rng.uniform(0.1, 0.6)
            keep[int(rng.integers(len(pairs)))] = True
            edges = [(u, v, 90 + int(rng.integers(60))) for (u, v), k in zip(pairs, keep) if k]
            net = _net(n, edges)
            graphs_with_isolated_nodes += bool((net.degrees == 0).any())
            vac = VaccinationAssignment(rng.permutation(n) < int(rng.integers(1, n)))
            for t, target in enumerate((-0.4, -0.1, 0.0, 0.2, 0.5, 0.9)):
                try:
                    want = _reference_redistribute(net, vac, target, derive_stream(71, g, t), 200)
                except StallError as exc:
                    with pytest.raises(StallError) as got:
                        redistribute(net, vac, target, derive_stream(71, g, t), max_stall=200)
                    assert (got.value.best_r, got.value.target_r) == (exc.best_r, target)
                    outcomes["stall"] += 1
                    continue
                got = redistribute(net, vac, target, derive_stream(71, g, t), max_stall=200)
                assert np.array_equal(got.vaccinated, want.vaccinated), (g, target)
                outcomes["moved" if (got.vaccinated != vac.vaccinated).any() else "kept"] += 1
        assert graphs_with_isolated_nodes >= 50
        assert min(outcomes["stall"], outcomes["moved"], outcomes["kept"]) >= 100, outcomes


class TestSingleTypeClimb:
    # edge 0-1 and isolated nodes 2, 3, from {0, 2}: r = -1. Swapping 0 for 3
    # leaves every vaccinated node isolated, and 2 for 1 every unvaccinated
    # one; either makes P = D(2m - D) = 0, so r = 1. The other swaps keep r -1.
    EDGES = [(0, 1, 120)]

    def test_a_swap_to_a_single_type_is_accepted_and_ends_the_climb(self, monkeypatch):
        trial_r, r_fraction = [], epi._r_fraction

        def recording(*counts):
            trial_r.append(r_fraction(*counts))
            return trial_r[-1]

        monkeypatch.setattr(epi, "_r_fraction", recording)
        net = _net(4, self.EDGES)
        start = VaccinationAssignment(np.array([True, False, True, False]))
        finals = Counter()
        for i in range(200):
            trial_r.clear()
            out = redistribute(net, start, 0.5, derive_stream(957, i))
            finals[tuple(np.flatnonzero(out.vaccinated).tolist())] += 1
            assert trial_r[0] == (-1, 1)  # the start's r
            assert trial_r[-1] == (1, 1) and (1, 1) not in trial_r[:-1]
            assert vaccination_assortativity(net, out) == 1.0
        assert set(finals) == {(2, 3), (0, 1)}

    def test_neighbour_counts_give_the_mixing_counts(self):
        rng = np.random.default_rng(72)
        graphs = [_net(4, self.EDGES), _net(3, [(0, 1, 90)])]
        for g in range(60):
            n = int(rng.integers(2, 14))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            keep = rng.random(len(pairs)) < rng.uniform(0.05, 0.5)
            graphs.append(_net(n, [(u, v, 100) for (u, v), k in zip(pairs, keep) if k]))
        for net in graphs:
            for _ in range(8):
                vacc = rng.random(net.n) < rng.uniform(0, 1)
                vn, svv, suu = epi._vaccinated_neighbours(net, vacc)
                mixing = epi._mixing_counts(net, vacc)
                assert (svv, suu) == mixing
                # Python ints: the exact accept test multiplies them past 64 bits
                assert {type(c) for c in (svv, suu, *mixing, *vn)} <= {int}
                assert vn == [int(vacc[net.nbr[lo:hi]].sum())
                              for lo, hi in zip(net.indptr[:-1], net.indptr[1:])]


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

    def test_stall_error_is_the_package_root_class(self):
        # the CLI catches sentepi.StallError without importing epi
        assert epi.StallError is sentepi.StallError

    def test_stall_error_survives_pickling(self):
        # sweep workers send it to the parent process
        back = pickle.loads(pickle.dumps(StallError("stalled", 0.25, 0.5)))
        assert (type(back), str(back), back.best_r, back.target_r) == (
            StallError, "stalled", 0.25, 0.5
        )

    def test_stall_raises_with_best_r(self):
        # a 4-node path cannot reach r ~ 1 at coverage 1/2
        net = _net(4, [(0, 1, 90), (1, 2, 90), (2, 3, 90)])
        vac = VaccinationAssignment(np.array([True, False, True, False]))
        with pytest.raises(StallError) as exc_info:
            redistribute(net, vac, 0.99, derive_stream(35), max_stall=500)
        assert exc_info.value.best_r <= 0.99
        assert exc_info.value.target_r == 0.99

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, 1.0, 1.5])
    def test_target_no_climb_can_exceed_is_rejected(self, target):
        # r <= 1, so the climb would only stall
        net = _two_cliques(4)
        vac = VaccinationAssignment(np.arange(8) % 2 == 0)
        with pytest.raises(ValueError, match="target r must be finite and below 1"):
            redistribute(net, vac, target, derive_stream(36))

    def test_full_or_empty_coverage_rejected(self):
        net = _two_cliques(4)
        with pytest.raises(ValueError, match="coverage"):
            redistribute(net, _no_vaccine(8), 0.5, derive_stream(36))

    @pytest.mark.parametrize("coverage, count", [(0.05, 0), (0.95, 8)])
    def test_coverage_rounding_to_none_or_all_is_rejected_with_the_counts(self, coverage, count):
        # 8 nodes: round(0.4) vaccinates none and round(7.6) vaccinates all
        net = _two_cliques(4)
        vac = random_assignment(net, coverage, derive_stream(39))
        with pytest.raises(ValueError, match=f"^coverage leaves {count} of 8 nodes vaccinated;"):
            redistribute(net, vac, 0.5, derive_stream(36))


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

    @pytest.mark.parametrize("grid", [[0.0, math.nan], [0.0, 1.0], [0.1, math.inf]])
    def test_grid_value_no_climb_can_exceed_is_rejected_before_any_task(self, monkeypatch, grid):
        monkeypatch.setattr(epi, "map_tasks", lambda *args: pytest.fail("a task ran"))
        with pytest.raises(ValueError, match="target r must be finite and below 1"):
            sweep(_two_cliques(4), 0.5, grid, 5, derive_stream(43))

    def test_stall_propagates_with_grid_context(self):
        # a 4-node path cannot reach r ~ 0.99 at coverage 1/2
        net = _net(4, [(0, 1, 90), (1, 2, 90), (2, 3, 90)])
        with pytest.raises(StallError, match="grid point"):
            sweep(net, 0.5, [0.99], 3, derive_stream(44), max_stall=300)

    def test_a_task_calls_the_stage_three_kernels_by_their_module_names(self, monkeypatch):
        # a tracer rebinds these names to time each kernel in the sweep
        calls = Counter()
        for name in ("random_assignment", "redistribute", "run_seir",
                     "vaccination_assortativity"):
            def counting(*args, _name=name, _fn=getattr(epi, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(epi, name, counting)
        sweep(_two_cliques(10), 0.5, [0.0, 0.3], 3, derive_stream(45))
        assert calls == {"random_assignment": 6, "redistribute": 6, "run_seir": 6,
                         "vaccination_assortativity": 6}


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
            "c08f1003e17a8c1d51005b826352af0b75bff79ad5feef17468edc1a0416a5a0"
        )

    def test_sweep_runs(self):
        # the 60 tasks of test_sweep_report, rebuilt from their streams: the
        # aggregated report rarely sees a reordered SEIR draw, each run does
        net, stream = default_contact_network(), derive_stream(51)
        digest = hashlib.sha256()
        for gi, target in enumerate((0.0, 0.075, 0.145)):
            for j in range(20):
                vac = random_assignment(net, 0.624, stream.child(gi, j, 0))
                vac = redistribute(net, vac, target, stream.child(gi, j, 1))
                run = run_seir(net, vac, stream=stream.child(gi, j, 2))
                digest.update(repr((run.index_node, run.ever_infected, run.duration_steps)).encode())
        assert digest.hexdigest() == (
            "56d5e4bd121bfff717e3af1bad6ee99a639dda13a130422dcb2d72bc82eba920"
        )

    def test_full_run_trace(self):
        # the 92-step run of TestEstimateR0.test_full_run_and_estimate_keep_their_values
        net = default_contact_network()
        result = run_seir(net, _no_vaccine(net.n), stream=derive_stream(4), record_trace=True)
        assert len(result.trace) == 92
        assert hashlib.sha256(repr(result.trace).encode()).hexdigest() == (
            "a368fae5cba80961fdd877bdac2ebe7ec4a4a1219184c46437ef9f1885b4e977"
        )


def _reference_generator(n_nodes, n_groups, p_intra, p_inter, weight_range, stream):
    """generate_synthetic_contact_network as it drew all n(n-1)/2 pairs at once."""
    lo, hi = int(weight_range[0]), int(weight_range[1])
    gen = stream.generator()
    groups = np.sort(np.arange(n_nodes) % n_groups)
    iu, ju = np.triu_indices(n_nodes, k=1)
    prob = np.where(groups[iu] == groups[ju], p_intra, p_inter)
    mask = gen.random(prob.size) < prob
    u, v = iu[mask], ju[mask]
    if u.size == 0:
        raise ValueError("parameters produced no edges")
    w = gen.integers(lo, hi + 1, size=u.size)

    keep = np.array(largest_component(n_nodes, u.tolist(), v.tolist()))
    relabel = -np.ones(n_nodes, dtype=np.int64)
    kept_nodes = np.flatnonzero(keep)
    relabel[kept_nodes] = np.arange(kept_nodes.size)
    edges = np.column_stack([relabel[u], relabel[v], w])[keep[u] & keep[v]].tolist()
    return ContactNetwork.from_edges(int(kept_nodes.size), edges)


def _network_or_error(make, *args):
    try:
        net = make(*args)
    except ValueError as exc:
        return str(exc)
    return net.n, net.edge_u.tolist(), net.edge_v.tolist(), net.edge_w.tolist()


class TestGenerator:
    # (p_intra, p_inter) from 1.0 down to 0.001, the dense ones on small n only
    @pytest.mark.parametrize("block", [None, 200])
    @pytest.mark.parametrize("n", [2, 3, 65, 200, 257, 1000])
    def test_blocks_draw_the_reference_network(self, monkeypatch, n, block):
        # a 200-pair block is one row for n >= 100 and a partial last block at n = 65
        if block is not None:
            monkeypatch.setattr(epi, "_PAIR_BLOCK", block)
        probabilities = [(0.02, 0.001), (0.001, 0.001), (0.0, 0.0)]
        probabilities += [(1.0, 1.0), (1.0, 0.0)] if n <= 65 else []
        probabilities += [(0.3, 0.02)] if n <= 257 else []
        outcomes = Counter()
        for groups in range(1, 6):
            for p_intra, p_inter in probabilities:
                args = (n, groups, p_intra, p_inter, (90, 210), derive_stream(55, n, groups))
                reference = _network_or_error(_reference_generator, *args)
                assert _network_or_error(generate_synthetic_contact_network, *args) == reference
                outcomes[isinstance(reference, str)] += 1
        assert outcomes[False] > 0 and outcomes[True] > 0  # "parameters produced no edges"

    def test_pair_draw_memory_is_bounded(self):
        # the all-pairs draw peaked at 251.7 MB here
        tracemalloc.start()
        try:
            generate_synthetic_contact_network(
                4000, 3, 0.00525, 0.0003125, (90, 210), derive_stream(73)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

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
