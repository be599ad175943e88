"""The benchmark's three workloads.

Each workload is a closed loop with one client in one process: the
harness in ``run.py`` calls :meth:`Workload.iterate` again only after
the previous call has returned. An iteration does the same work on the
same inputs every time, so its output hashes must repeat exactly.

An iteration is a fixed sequence of timed operations (CLI stages or
library calls) in two parts, the two halves of the work a user waits
for. ``run.py`` reports each part as the sum over its operations of the
operation's median time across iterations, so a slow spell of the host
during one operation does not move the figure:

=============  ==========================================  ============================
workload       part1_s                                     part2_s
=============  ==========================================  ============================
pipeline-cli   stages train, classify, timeseries,         stages gen-net and sweep
               flownet, homophily (paper stages 1-2)       (paper stage 3)
opinion        sentiment: parse -> tokenize -> train ->    network: flownet build ->
               predict -> timeseries                       giant component -> homophily
outbreak       estimate_r0 on the unvaccinated network     sweep over the paper grid
               (10 blocks of 100 runs)                     (one call per grid point)
=============  ==========================================  ============================
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import shutil
import statistics
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

STAGE_TIMEOUT_S = 120

# pipeline-cli: sweep tasks per grid point, pinned so a stage stays short.
PIPELINE_RUNS_PER_R = 100
PIPELINE_STAGES = (
    ("train", []),
    ("classify", []),
    ("timeseries", []),
    ("flownet", []),
    ("homophily", ["--workers", "2"]),
    ("gen-net", []),
    ("sweep", ["--workers", "2"]),
)
PIPELINE_PART2 = {"gen-net", "sweep"}

# opinion: MaxEnt does not reach the default tolerance within 1000
# iterations on this corpus, so a pinned cap fixes the number of
# gradient steps for every seed.
MAXENT_ITERS = 300
TEST_SPLIT = 0.2
BOOTSTRAP_REPS = 1000
IN_FRACTION_REPS = 200
ACCURACY_FLOOR = 0.75

# outbreak: 1000 R0 runs keep the estimate's standard error near 0.04,
# so the 1.7-2.4 band check fails for well under 1 seed in 1000. They run
# in blocks, each followed by a tenth of the sweep grid point by point, so
# that both parts sample the host's speed across the whole iteration.
R0_RUNS = 1000
R0_BLOCKS = 10
R0_BAND = (1.7, 2.4)
SWEEP_COVERAGE = 0.624
SWEEP_RUNS_PER_R = 50


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def sha256_repr(value) -> str:
    return sha256_bytes(repr(value).encode())


@dataclass
class Checks:
    """Counts every operation or check attempted and keeps the failures."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Iteration:
    """Seconds per operation of each part, and the output hashes."""

    part1: dict[str, float]
    part2: dict[str, float]
    hashes: dict[str, str]

    @property
    def total_s(self) -> float:
        return sum(self.part1.values()) + sum(self.part2.values())


class Laps:
    """Times consecutive operations: each lap ends the previous one."""

    def __init__(self):
        self.ops: dict[str, float] = {}
        self._last = perf_counter()

    def lap(self, name: str) -> None:
        now = perf_counter()
        self.ops[name] = now - self._last
        self._last = now


class Workload:
    """Set-up writes the seeded inputs; iterate runs the measured work."""

    name = ""
    rss_of_children = False  # peak RSS of the workload's child processes

    def __init__(self, root: Path, workdir: Path, seed: int, checks: Checks):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.checks = checks
        self.inputs: Path | None = None

    def import_modules(self) -> None:
        raise NotImplementedError

    def setup(self, directory: Path) -> dict[str, str]:
        """Make the inputs in ``directory``; return their hashes."""
        raise NotImplementedError

    def iterate(self, in_process: bool = False) -> Iteration:
        raise NotImplementedError


def _hash_dir(directory: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(directory.iterdir()) if p.is_file()}


def import_times(report: str, prefixes: tuple[str, ...]) -> dict[str, float]:
    """Seconds spent importing each package prefix, from ``-X importtime``.

    The report lists a module after the modules it imported, indented
    one level deeper. A prefix's time is the cumulative time of its
    outermost entries; ``scipy.sparse`` for example has no line of its
    own, only its submodules do.
    """
    entries = []
    for line in report.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    totals = dict.fromkeys(prefixes, 0)
    stack: list[tuple[int, frozenset]] = []  # (indent, prefixes matched above)
    for indent, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        above = stack[-1][1] if stack else frozenset()
        matched = frozenset(p for p in prefixes if name == p or name.startswith(p + "."))
        for p in matched - above:
            totals[p] += cumulative_us
        stack.append((indent, above | matched))
    return {p: us / 1e6 for p, us in totals.items()}


class PipelineCli(Workload):
    """The seven CLI stages on the bundled pipeline fixture."""

    name = "pipeline-cli"
    rss_of_children = True

    def __init__(self, *args):
        super().__init__(*args)
        self.stage_failures = 0

    def import_modules(self) -> None:
        import sentepi.synthetic  # noqa: F401  (the fixture writer)

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        return env

    def setup(self, directory: Path) -> dict[str, str]:
        from sentepi import synthetic

        files = synthetic.write_pipeline_fixture(directory, self.seed)
        config = directory / "pipeline.cfg"
        config.write_text(
            f"seed = {self.seed}\n"
            f"tweets = {files['tweets']}\n"
            f"labels = {files['labels']}\n"
            f"followers = {files['followers']}\n"
            f"friends = {files['friends']}\n"
            f"coverage_table = {files['coverage']}\n"
            f"runs_per_r = {PIPELINE_RUNS_PER_R}\n"
        )
        # warm-up: byte-compile and page in the CLI's imports
        proc = subprocess.run(
            [sys.executable, "-m", "sentepi.cli", "--version"], env=self.env(),
            capture_output=True, text=True, timeout=STAGE_TIMEOUT_S,
        )
        self.checks.check(proc.returncode == 0, f"sentepi.cli --version exited {proc.returncode}")
        self.inputs = directory
        return {n: h for n, h in _hash_dir(directory).items() if n != "pipeline.cfg"}

    def import_breakdown(self, repeats: int = 3) -> dict[str, float]:
        """Interpreter start and ``import sentepi.cli`` times, as medians."""
        starts, imports = [], []
        for _ in range(repeats):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env(), check=True,
                           timeout=STAGE_TIMEOUT_S)
            starts.append(perf_counter() - t0)
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import sentepi.cli"],
                env=self.env(), capture_output=True, text=True, check=True,
                timeout=STAGE_TIMEOUT_S,
            )
            imports.append(import_times(proc.stderr, ("sentepi", "scipy.sparse", "scipy.special")))
        return {
            "cli.interp_start_s": statistics.median(starts),
            "cli.import_s": statistics.median(t["sentepi"] for t in imports),
            "cli.import_scipy_sparse_s": statistics.median(t["scipy.sparse"] for t in imports),
            "cli.import_scipy_special_s": statistics.median(t["scipy.special"] for t in imports),
        }

    def run_stage(self, stage: str, extra: list[str], out: Path, in_process: bool) -> float:
        """Run one stage; return its wall time. A failure is recorded."""
        args = [stage, "--config", str(self.inputs / "pipeline.cfg"), "--out", str(out), *extra]
        t0 = perf_counter()
        if in_process:
            from sentepi import cli

            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(args, standalone_mode=False)
                ok, detail = True, ""
            except Exception as exc:  # a failing stage is counted, not fatal
                ok, detail = False, f"{type(exc).__name__}: {exc}"
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "sentepi.cli", *args], env=self.env(),
                capture_output=True, text=True, timeout=STAGE_TIMEOUT_S,
            )
            ok = proc.returncode == 0
            detail = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        elapsed = perf_counter() - t0
        if not self.checks.check(ok, f"stage {stage} failed ({detail})"):
            self.stage_failures += 1
        return elapsed

    def iterate(self, in_process: bool = False) -> Iteration:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        times = {
            stage: self.run_stage(stage, extra, out, in_process)
            for stage, extra in PIPELINE_STAGES
        }
        return Iteration(
            {s: t for s, t in times.items() if s not in PIPELINE_PART2},
            {s: t for s, t in times.items() if s in PIPELINE_PART2},
            _hash_dir(out),
        )


class Opinion(Workload):
    """Paper stages 1-2 in-process on a seeded 20,000-tweet corpus."""

    name = "opinion"

    def import_modules(self) -> None:
        from sentepi import classify, corpus, flownet, homophily, stats, timeseries  # noqa: F401

    def setup(self, directory: Path) -> dict[str, str]:
        from opinion_data import write_opinion_corpus

        write_opinion_corpus(directory, self.seed)
        self.inputs = directory
        return _hash_dir(directory)

    def _coverage(self) -> dict[str, float]:
        with open(self.inputs / "coverage.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return {region: float(value) for region, value in rows}

    def iterate(self, in_process: bool = False) -> Iteration:
        from sentepi import classify, corpus, flownet, homophily, timeseries
        from sentepi.corpus import SentimentLabel
        from sentepi.stats import derive_stream

        files = self.inputs
        coverage = self._coverage()
        model_path = self.workdir / "ensemble_model.json"

        laps = Laps()
        with open(files / "tweets.jsonl", encoding="utf-8") as fh:
            tweets, _ = corpus.parse_tweets(fh)
        with open(files / "labels.csv", encoding="utf-8") as fh:
            labels = corpus.parse_labels(fh)
        laps.lap("parse")
        vectors = [corpus.tokenize(t.text) for t in tweets]
        laps.lap("tokenize")
        docs = [(tv, labels[t.id]) for t, tv in zip(tweets, vectors) if t.id in labels]
        order = derive_stream(self.seed, 0).generator().permutation(len(docs))
        n_test = int(round(TEST_SPLIT * len(docs)))
        heldout = [docs[i] for i in order[:n_test]]
        train = [docs[i] for i in order[n_test:]]
        nb = classify.train_naive_bayes(train)
        laps.lap("train_nb")
        maxent = classify.train_maxent(train, max_iter=MAXENT_ITERS)
        laps.lap("train_maxent")
        classify.save_ensemble(classify.EnsembleModel(nb=nb, maxent=maxent), model_path)
        model = classify.load_ensemble(model_path)
        laps.lap("save_load")
        accuracy = classify.evaluate_accuracy(model, heldout)
        predicted = {
            t.id: model.predict(tv) for t, tv in zip(tweets, vectors) if t.id not in labels
        }
        laps.lap("predict")
        labeled = [(t, labels[t.id] if t.id in labels else predicted[t.id]) for t in tweets]
        days = [t.timestamp.date() for t in tweets]
        series = timeseries.daily_series(labeled, min(days), max(days))
        smoothed = timeseries.moving_average([d.score for d in series], 14)
        regions = timeseries.region_scores(labeled)
        correlation = timeseries.regional_correlation(regions, coverage)
        laps.lap("timeseries")
        sentiment, laps = laps.ops, Laps()

        tallies = flownet.tally_users(labeled)
        with open(files / "followers.txt", encoding="utf-8") as fh:
            followers = flownet.read_adjacency(fh)
        with open(files / "friends.txt", encoding="utf-8") as fh:
            friends = flownet.read_adjacency(fh)
        network = flownet.build_flow_network(tallies, followers, friends)
        giant = flownet.giant_component(flownet.opinionated(network))
        laps.lap("flownet")
        observed = homophily.assortativity(giant.signs, giant.edges)
        laps.lap("assortativity")
        null = homophily.bootstrap_null(
            giant.signs, giant.edges, BOOTSTRAP_REPS, derive_stream(self.seed, 1))
        laps.lap("bootstrap_null")
        ftest = homophily.in_fraction_test(
            giant.signs, giant.edges, IN_FRACTION_REPS, derive_stream(self.seed, 2))
        laps.lap("in_fraction_test")
        partition = homophily.detect_communities(
            giant.signs.keys(), giant.edges, derive_stream(self.seed, 3))
        laps.lap("detect_communities")
        report = homophily.community_enrichment(partition, giant.signs)
        laps.lap("community_enrichment")

        n_unlabeled = sum(1 for t in tweets if t.id not in labels)
        self.checks.check(
            accuracy > ACCURACY_FLOOR,
            f"held-out accuracy {accuracy:.4f} not above {ACCURACY_FLOOR}")
        self.checks.check(
            len(predicted) == n_unlabeled
            and all(isinstance(v, SentimentLabel) for v in predicted.values()),
            f"{len(predicted)} valid predictions for {n_unlabeled} unlabeled tweets")
        self.checks.check(is_connected(giant.signs, giant.edges),
                          "giant component is not connected")
        self.checks.check(
            observed.r > null.max,
            f"observed r {observed.r:.5f} not above null max {null.max:.5f}")

        hashes = {
            "model": sha256_file(model_path),
            "predictions": sha256_repr(sorted((k, v.value) for k, v in predicted.items())),
            "timeseries": sha256_repr((series, smoothed, regions, correlation)),
            "opinion_network": sha256_repr((sorted(giant.signs.items()), giant.edges)),
            "null": sha256_bytes(np.asarray(null.values).tobytes()),
            "in_fraction": sha256_bytes(np.asarray(ftest.p_values).tobytes()),
            "communities": sha256_repr((sorted(partition.items()), report)),
        }
        return Iteration(sentiment, laps.ops, hashes)


def is_connected(nodes, edges) -> bool:
    """True when the undirected projection of the graph is connected."""
    nodes = list(nodes)
    if not nodes:
        return False
    adjacency: dict = {node: [] for node in nodes}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {nodes[0]}
    queue = deque(seen)
    while queue:
        for nb in adjacency[queue.popleft()]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(nodes)


class Outbreak(Workload):
    """Paper stage 3 in-process on the bundled contact network."""

    name = "outbreak"

    def import_modules(self) -> None:
        from sentepi import epi, synthetic  # noqa: F401

    def setup(self, directory: Path) -> dict[str, str]:
        from sentepi import synthetic

        self.net = synthetic.default_contact_network()
        return {"contact_network": sha256_repr(
            (self.net.n, self.net.edge_u.tolist(), self.net.edge_v.tolist(),
             self.net.edge_w.tolist()))}

    def iterate(self, in_process: bool = False) -> Iteration:
        from sentepi import epi
        from sentepi.stats import derive_stream

        grid = epi.default_r_grid()
        points_per_block = len(grid) // R0_BLOCKS
        laps = Laps()
        estimates, reports = [], []
        for b in range(R0_BLOCKS):
            estimates.append(epi.estimate_r0(
                self.net, runs=R0_RUNS // R0_BLOCKS, stream=derive_stream(self.seed, 0, b)))
            laps.lap(f"r0_{b}")
            for g in range(b * points_per_block, (b + 1) * points_per_block):
                reports.append(epi.sweep(
                    self.net, coverage=SWEEP_COVERAGE, r_grid=[grid[g]],
                    redistributions_per_r=SWEEP_RUNS_PER_R,
                    stream=derive_stream(self.seed, 1, g), workers=1,
                ))
                laps.lap(f"sweep_{g}")

        r0 = pooled_r0(estimates)
        lo, hi = R0_BAND
        self.checks.check(lo <= r0 <= hi, f"R0 {r0:.4f} outside [{lo}, {hi}]")
        for report in reports:
            pt = report.points[0]
            self.checks.check(
                pt.achieved_r_mean >= pt.target_r,
                f"achieved r {pt.achieved_r_mean:.5f} below target {pt.target_r}")
        hashes = {"r0": sha256_repr(estimates), "sweep": sha256_repr(reports)}
        return Iteration(
            {op: t for op, t in laps.ops.items() if op.startswith("r0_")},
            {op: t for op, t in laps.ops.items() if op.startswith("sweep_")},
            hashes,
        )


def pooled_r0(estimates) -> float:
    """R0 over the runs of several estimates: secondary cases per run with any."""
    runs = sum(e.runs_with_secondary for e in estimates)
    return sum(e.value * e.runs_with_secondary for e in estimates) / runs


WORKLOADS = {w.name: w for w in (PipelineCli, Opinion, Outbreak)}
