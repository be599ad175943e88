"""Per-layer metrics of the traced run, computed from its spans.

Every timing is self time: a span's duration minus the time its child
spans cover. A layer that a workload does not call reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Tracer
from workloads import pooled_r0

CLI = [
    "cli.interp_start_s", "cli.import_s", "cli.import_scipy_sparse_s",
    "cli.import_scipy_special_s",
    *(f"cli.stage_{s}_s" for s in
      ("train", "classify", "timeseries", "flownet", "homophily", "gen-net", "sweep")),
    "cli.stage_failures",
]

PER_LAYER = CLI + [
    "corpus.parse_tweets_s", "corpus.tweets_parsed", "corpus.lines_skipped",
    "corpus.tokenize_s", "corpus.tokenize_calls", "corpus.tokens_out",
    "stemming.stem_s", "stemming.stem_calls", "stemming.stem_distinct_words",
    "stemming.stem_distinct_ratio",
    "classify.train_nb_s", "classify.train_maxent_s", "classify.maxent_iters",
    "classify.maxent_objective_calls", "classify.maxent_objective_s",
    "classify.objective_calls_per_iter", "classify.predict_s", "classify.predict_calls",
    "classify.heldout_accuracy", "classify.model_bytes", "classify.save_s",
    "classify.load_s",
    "timeseries.daily_series_s", "timeseries.moving_average_s",
    "timeseries.region_scores_s", "timeseries.regional_correlation_s",
    "flownet.read_adjacency_s", "flownet.tally_users_s", "flownet.build_s",
    "flownet.opinionated_s", "flownet.giant_component_s",
    "flownet.nodes_flow", "flownet.nodes_opinionated", "flownet.nodes_giant",
    "flownet.edges_flow", "flownet.edges_opinionated", "flownet.edges_giant",
    "homophily.assortativity_s", "homophily.bootstrap_null_s",
    "homophily.bootstrap_reps_per_s", "homophily.in_fraction_test_s",
    "homophily.detect_communities_s", "homophily.n_communities",
    "homophily.community_enrichment_s", "homophily.observed_r", "homophily.null_mean",
    "stats.wilcoxon_calls", "stats.wilcoxon_s", "stats.fisher_calls", "stats.fisher_s",
    "stats.weighted_pearson_s",
    "epi.generate_network_s", "epi.random_assignment_s", "epi.redistribute_s",
    "epi.redistribute_calls", "epi.redistribute_p50_ms", "epi.redistribute_p99_ms",
    "epi.stall_errors", "epi.vaccination_assortativity_s", "epi.sweep_seir_s",
    "epi.sweep_seir_steps_mean", "epi.sweep_task_p50_ms", "epi.sweep_task_p99_ms",
    "epi.achieved_r_min_margin", "epi.r0_seir_s", "epi.r0_seir_steps_mean",
    "epi.r0_attack_rate_mean", "epi.r0_value",
    "synthetic.fixture_s", "synthetic.contact_network_s",
    "trace.untraced_iteration_s", "trace.traced_iteration_s", "trace.overhead_s",
    "trace.spans",
]

# span name -> metric holding its summed self time
SELF_TIME = {
    "corpus.parse_tweets": "corpus.parse_tweets_s",
    "corpus.tokenize": "corpus.tokenize_s",
    "stemming.stem": "stemming.stem_s",
    "classify.train_naive_bayes": "classify.train_nb_s",
    "classify.train_maxent": "classify.train_maxent_s",
    "classify.maxent_objective": "classify.maxent_objective_s",
    "classify.predict": "classify.predict_s",
    "classify.save_ensemble": "classify.save_s",
    "classify.load_ensemble": "classify.load_s",
    "timeseries.daily_series": "timeseries.daily_series_s",
    "timeseries.moving_average": "timeseries.moving_average_s",
    "timeseries.region_scores": "timeseries.region_scores_s",
    "timeseries.regional_correlation": "timeseries.regional_correlation_s",
    "flownet.read_adjacency": "flownet.read_adjacency_s",
    "flownet.tally_users": "flownet.tally_users_s",
    "flownet.build_flow_network": "flownet.build_s",
    "flownet.opinionated": "flownet.opinionated_s",
    "flownet.giant_component": "flownet.giant_component_s",
    "homophily.assortativity": "homophily.assortativity_s",
    "homophily.bootstrap_null": "homophily.bootstrap_null_s",
    "homophily.in_fraction_test": "homophily.in_fraction_test_s",
    "homophily.detect_communities": "homophily.detect_communities_s",
    "homophily.community_enrichment": "homophily.community_enrichment_s",
    "stats.wilcoxon": "stats.wilcoxon_s",
    "stats.fisher": "stats.fisher_s",
    "stats.weighted_pearson": "stats.weighted_pearson_s",
    "epi.generate_network": "epi.generate_network_s",
    "epi.random_assignment": "epi.random_assignment_s",
    "epi.redistribute": "epi.redistribute_s",
    "epi.vaccination_assortativity": "epi.vaccination_assortativity_s",
    "synthetic.write_pipeline_fixture": "synthetic.fixture_s",
    "synthetic.default_contact_network": "synthetic.contact_network_s",
}

# span name -> metric holding its call count
CALLS = {
    "corpus.tokenize": "corpus.tokenize_calls",
    "stemming.stem": "stemming.stem_calls",
    "classify.maxent_objective": "classify.maxent_objective_calls",
    "classify.predict": "classify.predict_calls",
    "stats.wilcoxon": "stats.wilcoxon_calls",
    "stats.fisher": "stats.fisher_calls",
    "epi.redistribute": "epi.redistribute_calls",
}


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile; 0 unless 10 or more samples lie above it."""
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)
    if len(ordered) - rank < 10:
        return 0.0
    return ordered[rank - 1]


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, extras: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, from the spans plus workload extras."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    for name, metric in SELF_TIME.items():
        m[metric] = float(sum(s.self_s for s in by_name[name]))
    for name, metric in CALLS.items():
        m[metric] = float(len(by_name[name]))

    def notes(name):
        return [s.note for s in by_name[name] if s.note is not None]

    def last(name, default=0.0):
        values = notes(name)
        return values[-1] if values else default

    parsed = notes("corpus.parse_tweets")
    m["corpus.tweets_parsed"] = float(sum(p[0] for p in parsed))
    m["corpus.lines_skipped"] = float(sum(p[1] for p in parsed))
    m["corpus.tokens_out"] = float(sum(notes("corpus.tokenize")))
    m["stemming.stem_distinct_words"] = float(len(set(notes("stemming.stem"))))
    if m["stemming.stem_calls"]:
        m["stemming.stem_distinct_ratio"] = (
            m["stemming.stem_distinct_words"] / m["stemming.stem_calls"])

    m["classify.maxent_iters"] = float(sum(notes("classify.train_maxent")))
    if m["classify.maxent_iters"]:
        m["classify.objective_calls_per_iter"] = (
            m["classify.maxent_objective_calls"] / m["classify.maxent_iters"])
    m["classify.heldout_accuracy"] = float(last("classify.evaluate_accuracy"))
    m["classify.model_bytes"] = float(last("classify.save_ensemble"))

    for stage, key in (("flow", "flownet.build_flow_network"),
                       ("opinionated", "flownet.opinionated"),
                       ("giant", "flownet.giant_component")):
        nodes, edges = last(key, (0, 0))
        m[f"flownet.nodes_{stage}"] = float(nodes)
        m[f"flownet.edges_{stage}"] = float(edges)

    reps, null_mean = last("homophily.bootstrap_null", (0, 0.0))
    if m["homophily.bootstrap_null_s"]:
        m["homophily.bootstrap_reps_per_s"] = reps / m["homophily.bootstrap_null_s"]
    m["homophily.null_mean"] = float(null_mean)
    m["homophily.observed_r"] = float(last("homophily.assortativity"))
    m["homophily.n_communities"] = float(last("homophily.detect_communities"))

    _epi_metrics(tracer, by_name, m)

    for key, value in extras.items():
        m[key] = float(value)
    m["trace.spans"] = float(len(tracer.spans))
    return m


def _epi_metrics(tracer: Tracer, by_name, m: dict[str, float]) -> None:
    redistribute_ms = [(s.end - s.start) * 1e3 for s in by_name["epi.redistribute"]]
    m["epi.redistribute_p50_ms"] = percentile(redistribute_ms, 50)
    m["epi.redistribute_p99_ms"] = percentile(redistribute_ms, 99)
    m["epi.stall_errors"] = float(
        sum(1 for s in by_name["epi.redistribute"] if s.error == "StallError"))

    sweep_runs, r0_runs = [], []
    for s in by_name["epi.run_seir"]:
        ancestors = tracer.ancestor_names(s)
        if "epi.sweep" in ancestors:
            sweep_runs.append(s)
        elif "epi.estimate_r0" in ancestors:
            r0_runs.append(s)
    m["epi.sweep_seir_s"] = float(sum(s.self_s for s in sweep_runs))
    m["epi.sweep_seir_steps_mean"] = _mean(s.note[0] for s in sweep_runs)
    m["epi.r0_seir_s"] = float(sum(s.self_s for s in r0_runs))
    m["epi.r0_seir_steps_mean"] = _mean(s.note[0] for s in r0_runs)
    m["epi.r0_attack_rate_mean"] = _mean(s.note[1] for s in r0_runs)
    estimates = [s.note for s in by_name["epi.estimate_r0"] if s.note is not None]
    m["epi.r0_value"] = pooled_r0(estimates) if estimates else 0.0

    # A sweep task runs random_assignment, redistribute, run_seir and
    # vaccination_assortativity in that order; its time runs from the
    # start of the first to the end of the last.
    task_ms, margins = [], []
    start = target = None
    for s in sorted(
        (s for name in ("epi.random_assignment", "epi.redistribute",
                        "epi.vaccination_assortativity")
         for s in by_name[name]),
        key=lambda s: s.start,
    ):
        if s.name == "epi.random_assignment":
            start = s.start
        elif s.name == "epi.redistribute":
            target = s.note
        elif start is not None and target is not None:
            task_ms.append((s.end - start) * 1e3)
            margins.append(s.note - target)
            start = target = None
    m["epi.sweep_task_p50_ms"] = percentile(task_ms, 50)
    m["epi.sweep_task_p99_ms"] = percentile(task_ms, 99)
    m["epi.achieved_r_min_margin"] = min(margins) if margins else 0.0
