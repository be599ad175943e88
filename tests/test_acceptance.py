"""Acceptance suite: every release-gating criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
ACCEPTANCE line per criterion.
"""

import json
import os
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sentepi.classify import (
    EnsembleModel,
    _sparse,
    evaluate_accuracy,
    featurize,
    maxent_objective,
    train_maxent,
    train_naive_bayes,
)
from sentepi.cli import RunConfig
from sentepi.cli import main as cli_main
from sentepi.corpus import LABEL_ORDER, TokenVector
from sentepi.epi import (
    estimate_r0,
    random_assignment,
    redistribute,
    run_seir,
    sweep,
    transmission_probability,
    vaccination_assortativity,
    SEIRParams,
    VaccinationAssignment,
    generate_synthetic_contact_network,
)
from sentepi.homophily import assortativity, bootstrap_null
from sentepi.stats import (
    derive_stream,
    fisher_exact_2x2,
    weighted_pearson,
    wilcoxon_signed_rank_paired,
)
from sentepi.synthetic import default_contact_network, write_pipeline_fixture
from sentepi.timeseries import sentiment_score

from builders import synthetic_corpus, synthetic_opinionated_network

WORKERS = min(8, os.cpu_count() or 1)


@contextmanager
def criterion(name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed > budget_s:
            raise AssertionError(
                f"{name}: exceeded time budget ({elapsed:.1f}s > {budget_s}s)"
            )
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_transmission_probability_calibration():
    with criterion("transmission-probability-w90", budget_s=5):
        assert transmission_probability(90) == pytest.approx(0.5, abs=5e-4)


def test_sentiment_score_corpus_totals():
    with criterion("sentiment-score-corpus-totals", budget_s=5):
        assert sentiment_score(35884, 26667, 255828) == pytest.approx(
            0.02895, abs=1e-5
        )


def test_assortativity_matches_brute_force_oracle():
    def brute_force(labels, edges):
        types = sorted({labels[n] for n in labels}, key=repr)
        e = {(a, b): 0.0 for a in types for b in types}
        for u, v in edges:
            e[(labels[u], labels[v])] += 1.0 / len(edges)
        a = {t: sum(e[(t, s)] for s in types) for t in types}
        b = {t: sum(e[(s, t)] for s in types) for t in types}
        trace = sum(e[(t, t)] for t in types)
        sab = sum(a[t] * b[t] for t in types)
        return (trace - sab) / (1.0 - sab)

    with criterion("assortativity-oracle-equivalence", budget_s=1):
        gen = derive_stream(3200).generator()
        checked = 0
        while checked < 100:
            n = int(gen.integers(3, 21))
            labels = {i: int(gen.integers(0, 3)) for i in range(n)}
            edges = list(
                {
                    (int(a), int(b))
                    for a, b in gen.integers(0, n, size=(int(gen.integers(1, 3 * n)), 2))
                    if a != b
                }
            )
            if not edges:
                continue
            result = assortativity(labels, edges)
            if result.degenerate:
                continue
            assert result.r == pytest.approx(
                brute_force(labels, edges), abs=1e-12
            )
            checked += 1


def test_bootstrap_null_behaviour():
    with criterion("bootstrap-null-10000-replicates", budget_s=120):
        signs, edges = synthetic_opinionated_network(
            2000, 16000, derive_stream(4100), homophily=0.0
        )
        null = bootstrap_null(signs, edges, 10_000, derive_stream(4101))
        assert abs(null.mean) <= 0.01

        planted_signs, planted_edges = synthetic_opinionated_network(
            2000, 16000, derive_stream(4102), homophily=0.7
        )
        observed = assortativity(planted_signs, planted_edges).r
        planted_null = bootstrap_null(
            planted_signs, planted_edges, 10_000, derive_stream(4103)
        )
        assert observed > planted_null.max


def test_redistribute_targets():
    with criterion("redistribute-targets", budget_s=240):
        net = default_contact_network()
        assert net.n == 1000
        # this start assignment sits at r = -0.013, so the climb runs at
        # every target; a start already above a target returns unchanged
        start = random_assignment(net, 0.624, derive_stream(600, 2))
        assert start.n_vaccinated == 624
        assert vaccination_assortativity(net, start) < 0.0
        for k, target in enumerate((0.0, 0.05, 0.10, 0.145)):
            t0 = time.perf_counter()
            vac = redistribute(net, start, target, derive_stream(601, k))
            per_target = time.perf_counter() - t0
            assert per_target < 60
            assert vac.n_vaccinated == 624
            r = vaccination_assortativity(net, vac)
            assert target < r <= target + 0.01, (target, r)
            # epi's count-based r vs the opinion network's mixing matrix over
            # every contact edge in both directions, labelled by status
            edges = list(zip(net.edge_u.tolist(), net.edge_v.tolist()))
            labels = dict(enumerate(vac.vaccinated.tolist()))
            recomputed = assortativity(labels, edges + [(v, u) for u, v in edges]).r
            assert abs(r - recomputed) < 1e-9


def test_epidemic_risk_monotonicity():
    with criterion("epidemic-risk-monotonicity", budget_s=600):
        net = default_contact_network()
        est = estimate_r0(net, runs=2000, stream=derive_stream(10))
        assert 1.7 <= est.value <= 2.4, est

        report = sweep(
            net,
            coverage=0.624,
            r_grid=[0.0, 0.075, 0.145],
            redistributions_per_r=4000,
            stream=derive_stream(20),
            workers=WORKERS,
        )
        p3 = [pt.p_ge_3pct for pt in report.points]
        assert p3[0] < p3[1] < p3[2], p3
        low, high = report.points[0], report.points[2]
        assert low.ci_high < high.ci_low, (low, high)
        assert high.rr_3pct >= 2.0


def test_seir_invariants_over_randomized_runs():
    with criterion("seir-invariants-1000-runs", budget_s=60):
        gen = derive_stream(7000).generator()
        nets = [
            generate_synthetic_contact_network(
                60, 3, 0.15, 0.02, (90, 200), derive_stream(7001, i)
            )
            for i in range(4)
        ]
        for run_idx in range(700):
            net = nets[run_idx % len(nets)]
            coverage = float(gen.choice([0.0, 0.2, 0.5]))
            vac = (
                random_assignment(net, coverage, derive_stream(7002, run_idx))
                if coverage > 0
                else VaccinationAssignment(np.zeros(net.n, dtype=bool))
            )
            result = run_seir(
                net, vac, stream=derive_stream(7003, run_idx), record_trace=True
            )
            for s, e, i_, r in result.trace:
                assert s + e + i_ + r == net.n
                assert r >= vac.n_vaccinated  # vaccinated never leave R
            assert result.ever_infected <= net.n - vac.n_vaccinated
        silent = SEIRParams(transmission_rate=0.0)
        for run_idx in range(300):
            net = nets[run_idx % len(nets)]
            result = run_seir(
                net,
                VaccinationAssignment(np.zeros(net.n, dtype=bool)),
                silent,
                stream=derive_stream(7004, run_idx),
            )
            assert result.ever_infected == 1
            assert result.attack_rate == 1 / net.n


def test_classifier_acceptance():
    with criterion("classifier-ensemble-and-gradient", budget_s=120):
        raw = synthetic_corpus(
            2000, derive_stream(8000), words_per_class=60, shared_fraction=0.2
        )
        docs = [(TokenVector.from_tokens(toks), lab) for toks, lab in raw]
        order = derive_stream(8001).generator().permutation(len(docs))
        test_set = [docs[i] for i in order[:400]]
        train_set = [docs[i] for i in order[400:]]
        model = EnsembleModel(
            nb=train_naive_bayes(train_set),
            maxent=train_maxent(train_set, max_iter=400),
        )
        accuracy = evaluate_accuracy(model, test_set)
        assert accuracy >= 0.90, accuracy

        # analytic gradient vs central finite differences
        small = docs[:5]
        labels = tuple(lab for lab in LABEL_ORDER if any(l == lab for _, l in small))
        vocab = sorted({t for d, _ in small for t in d.counts})
        X = _sparse(featurize([d for d, _ in small], {t: i for i, t in enumerate(vocab)}))
        y = np.array([labels.index(lab) for _, lab in small])
        gen = derive_stream(8002).generator()
        weights = gen.normal(scale=0.4, size=(len(labels), len(vocab)))
        bias = gen.normal(scale=0.4, size=len(labels))
        _, grad_w, grad_b = maxent_objective(weights, bias, X, y, 0.1)
        h = 1e-6
        worst = 0.0
        for arr, grad in ((weights, grad_w), (bias, grad_b)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _, _ = maxent_objective(weights, bias, X, y, 0.1)
                arr[idx] = orig - h
                down, _, _ = maxent_objective(weights, bias, X, y, 0.1)
                arr[idx] = orig
                numeric = (up - down) / (2 * h)
                worst = max(worst, abs(numeric - grad[idx]) / max(1.0, abs(numeric)))
        assert worst < 1e-4, worst


def test_stats_exact_values():
    with criterion("stats-exact-values", budget_s=5):
        assert fisher_exact_2x2(2, 0, 0, 2) == 1 / 3
        assert wilcoxon_signed_rank_paired([1.0, 2.0, 3.0], [0.0] * 3) == 0.125
        gen = derive_stream(9000).generator()
        x = gen.normal(size=40)
        y = 0.6 * x + gen.normal(size=40)
        r_w, _ = weighted_pearson(x, y, np.ones(40))
        mx, my = x.mean(), y.mean()
        r_plain = float(
            ((x - mx) * (y - my)).sum()
            / np.sqrt(((x - mx) ** 2).sum() * ((y - my) ** 2).sum())
        )
        assert r_w == pytest.approx(r_plain, abs=1e-12)


def _run_pipeline(config_path: Path) -> None:
    runner = CliRunner()
    for command in (
        "train", "classify", "timeseries", "flownet", "homophily", "gen-net", "sweep",
    ):
        result = runner.invoke(
            cli_main, [command, "--config", str(config_path)], catch_exceptions=False
        )
        assert result.exit_code == 0, f"{command}: {result.output}"


def test_pipeline_determinism(tmp_path):
    with criterion("pipeline-determinism", budget_s=300):
        data = write_pipeline_fixture(tmp_path / "data", seed=2009)
        base_config = "\n".join(
            [
                "seed = 20090825",
                f"tweets = {data['tweets']}",
                f"labels = {data['labels']}",
                f"followers = {data['followers']}",
                f"friends = {data['friends']}",
                f"coverage_table = {data['coverage']}",
                "test_split = 0.2",
                "bootstrap_iterations = 300",
                "in_fraction_iterations = 30",
                "maxent_max_iter = 200",
                "r_grid = 0,0.1",
                "runs_per_r = 60",
                "coverage = 0.6",
            ]
        )
        outputs = {}
        for tag in ("one", "two"):
            out = tmp_path / f"out_{tag}"
            config = tmp_path / f"run_{tag}.conf"
            config.write_text(base_config + f"\nout = {out}\n")
            _run_pipeline(config)
            outputs[tag] = out

        compared = 0
        for path_one in sorted(outputs["one"].iterdir()):
            path_two = outputs["two"] / path_one.name
            assert path_two.exists(), path_one.name
            assert path_one.read_bytes() == path_two.read_bytes(), path_one.name
            compared += 1
        assert compared >= 10  # models, manifests, and every CSV/JSON report

        # every config key but the output directory is read by some stage
        manifests = outputs["one"].glob("manifest_*.json")
        read = set().union(*(json.loads(path.read_text())["reads"] for path in manifests))
        assert read == {fld.name for fld in fields(RunConfig)} - {"out"}
