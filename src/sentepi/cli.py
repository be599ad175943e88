"""Command-line orchestration of the pipeline and experiment harness.

Commands share one flat ``key = value`` configuration file; flags win
over file values. All randomness flows from the single master seed
through per-command stream paths; ``gen-net`` copies the calibrated
contact network, the same for every seed. Every command is a pipeline
stage registered through :func:`_stage`, which checks the stage's inputs
and its upstream chain, deletes its own manifest first and writes it
last; every file is replaced whole. Each stage body imports the modules
it uses, so a stage process loads only its own. Only ``train`` and
``classify`` parse the tweet file: ``predictions.csv`` carries each
tweet's user, UTC time and region beside its label. A manifest is fresh
while its ``reads`` (each config key the stage read; a file by its
sha256), ``upstream`` and ``outputs`` (the sha256 of each file consumed
and written) match. The group's ``--log-level`` and ``-v`` set which of
the library's log lines reach stderr; by default, its warnings.

Exit codes: 0 success, 1 runtime failure (one ``Error:`` line, such as
a model file that is not a model), 2 usage or configuration error,
including an unknown config key or a config value that cannot be read or
is out of range, a ``start_date`` after the last labeled tweet or an
``end_date`` before the first, a malformed row in the labels file, the
coverage table, the contact network, an adjacency list or an
intermediate file, and a key repeated in the labels file, the coverage
table or an intermediate file (each reported as ``path:line:``, a config
value when it comes from the file). Text inputs are decoded as UTF-8
with invalid bytes read as U+FFFD.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import platform
import sys
from dataclasses import dataclass
from datetime import date, datetime
from importlib import import_module
from pathlib import Path
from types import UnionType
from typing import Callable, Union, get_args, get_origin, get_type_hints

import click

from . import InputError, StallError, __version__, read_mapping, write_csv, write_text

# Stream path roots, one per command. gen-net draws nothing (it copies a
# bundled file), but its root stays reserved so sweep keeps root 6.
_TRAIN, _CLASSIFY, _TIMESERIES, _FLOWNET, _HOMOPHILY, _GENNET, _SWEEP = range(7)
_STAGES: dict = {}  # name -> (required input keys, config -> upstream stage or None)
_PREDICTIONS = ["tweet_id", "label", "source", "user_id", "timestamp", "region"]


def __getattr__(name: str):
    # corpus's two entry points, loaded on first use; bench/spans.py rebinds them
    if name not in ("parse_tweets", "tokenize"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import corpus
    return globals().setdefault(name, getattr(corpus, name))


@dataclass
class RunConfig:
    """Resolved configuration for one command invocation."""

    seed: int
    out: Path = Path("out")
    tweets: Path | None = None
    labels: Path | None = None
    followers: Path | None = None
    friends: Path | None = None
    contact_network: Path | None = None
    coverage_table: Path | None = None
    start_date: date | None = None
    end_date: date | None = None
    test_split: float = 0.2
    nb_smoothing: float = 1.0
    maxent_l2: float = 0.1
    maxent_max_iter: int = 1000
    maxent_tol: float = 1e-6
    moving_average_window: int = 14
    bootstrap_iterations: int = 1000
    in_fraction_iterations: int = 200
    min_community_fraction: float = 0.01
    r_grid: tuple[float, ...] = (0.0, 0.075, 0.145)
    runs_per_r: int = 2000
    coverage: float = 0.624
    max_stall: int = 50_000

    def fingerprint(self, key: str) -> str:
        """``key`` as a manifest records it: a file by the sha256 of its bytes."""
        value = getattr(self, key)
        return _sha256(value) if isinstance(value, Path) and value.is_file() else repr(value)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Reads:
    """The config as a stage body sees it, recording each key it reads."""

    def __init__(self, config: RunConfig) -> None:
        self._config, self.keys = config, set()

    def __getattr__(self, key: str):
        self.keys.add(key)
        return getattr(self._config, key)


def _finite(value: object) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


# Over 300 times the 30-point paper grid; each point costs runs_per_r runs.
_MAX_GRID_POINTS = 10_000


def _parse_grid(text: str) -> tuple[float, ...]:
    text = text.strip()
    try:
        if ":" not in text:
            return tuple(_finite(p) for p in text.split(",") if p.strip())
        start, stop, step = (_finite(p) for p in text.split(":"))
    except ValueError:
        raise click.UsageError(f"bad value for r_grid: {text!r}") from None
    if step <= 0:
        raise click.UsageError("r_grid step must be positive")
    # Point i is start + i * step, counted before any is made: a step
    # below the float spacing near start must not stall the grid.
    spans = (stop - start + 1e-12) / step
    if spans >= _MAX_GRID_POINTS:
        raise click.UsageError(
            f"bad value for r_grid: {text!r} has more than {_MAX_GRID_POINTS} points"
        )
    return tuple(round(start + i * step, 10) for i in range(math.floor(spans) + 1))


def _reader(hint) -> Callable[[object], object]:
    """How to read a config value into a field annotated ``hint``."""
    if get_origin(hint) in (Union, UnionType):  # Path | None, date | None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if hint is date:
        return lambda value: date.fromisoformat(str(value))
    if get_origin(hint) is tuple:  # r_grid
        return lambda value: _parse_grid(str(value))
    return _finite if hint is float else hint  # Path, int


_READERS = {key: _reader(hint) for key, hint in get_type_hints(RunConfig).items()}
_RANGES = {
    "seed": (lambda value: value >= 0, "non-negative"),
    "coverage": (lambda value: 0 < value < 1, "in (0, 1)"),
    "test_split": (lambda value: 0 <= value < 1, "in [0, 1)"),
    "r_grid": (lambda grid: grid and all(a < b for a, b in zip(grid, grid[1:])) and grid[-1] < 1,
               "non-empty, strictly ascending and below 1"),
    "nb_smoothing": (lambda value: value > 0, "positive"),
    "maxent_l2": (lambda value: value >= 0, "non-negative"),
    "maxent_tol": (lambda value: value > 0, "positive"),
    "min_community_fraction": (lambda value: 0 <= value <= 1, "in [0, 1]"),
    **{key: (lambda value: value >= 1, "at least 1") for key in (
        "maxent_max_iter", "moving_average_window", "bootstrap_iterations",
        "in_fraction_iterations", "runs_per_r", "max_stall",
    )},
}


def load_config(path: Path | None, overrides: dict) -> RunConfig:
    """Read the flat key = value file (a repeated key keeps its last value)
    and apply flag overrides; an unknown key, or a value that cannot be read
    or is out of range, names the file line it came from as ``path:line:``."""
    values: dict[str, object] = {}
    where: dict[str, str] = {}  # key -> "path:line: " of a value read from the file
    if path is not None:
        if not path.is_file():
            problem = "config is not a file" if path.exists() else "config file not found"
            raise click.UsageError(f"{problem}: {path}")
        text = path.read_text(encoding="utf-8", errors="replace")
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise click.UsageError(f"{path}:{lineno}: expected key = value")
            values[key], where[key] = value, f"{path}:{lineno}: "
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
            where.pop(key, None)

    kwargs: dict[str, object] = {}
    for key, value in values.items():
        at = where.get(key, "")
        if key not in _READERS:
            raise click.UsageError(f"{at}unknown config key {key!r}")
        try:
            kwargs[key] = _READERS[key](value)
        except ValueError:
            raise click.UsageError(f"{at}bad value for {key}: {value!r}") from None
        except click.UsageError as exc:  # r_grid's reader says what is wrong
            raise click.UsageError(at + exc.message) from None
        if key in _RANGES and not _RANGES[key][0](kwargs[key]):
            raise click.UsageError(f"{at}{key} must be {_RANGES[key][1]}, got {kwargs[key]!r}")
    if "seed" not in kwargs:
        raise click.UsageError("config must set a master seed (seed = <int>)")
    config = RunConfig(**kwargs)  # type: ignore[arg-type]
    if config.start_date and config.end_date and config.start_date > config.end_date:
        raise click.UsageError(
            f"start_date must not be after end_date, got {config.start_date} > {config.end_date}"
        )
    return config


def _require_inputs(config: RunConfig, *names: str) -> None:
    for name in names:
        path = getattr(config, name)
        if path is None:
            raise click.UsageError(f"config key '{name}' is required for this command")
        if not Path(path).is_file():
            problem = "is not a file" if Path(path).exists() else "file not found"
            raise click.UsageError(f"{name} {problem}: {path}")


def _write_json(path: Path, payload: dict) -> None:
    write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_manifest(
    config: RunConfig, command: str, reads: set[str], consumed: dict[str, str], outputs: list[str],
    libraries: tuple[str, ...],
) -> None:
    manifest = {
        "command": command,
        "reads": {key: config.fingerprint(key) for key in sorted(reads - {"out"})},
        "upstream": consumed,
        "seed": config.seed,
        "versions": {
            "sentepi": __version__,
            "python": platform.python_version(),
            **{lib: import_module(lib).__version__ for lib in libraries},
        },
        "outputs": {name: _sha256(config.out / name) for name in outputs},
    }
    _write_json(config.out / f"manifest_{command}.json", manifest)


def _check_upstream(config: RunConfig, name: str, force: bool) -> dict[str, str]:
    """Walk the stages above ``name``, exiting 2 on a missing manifest or output or a stale
    stage (``force`` warns); return the sha256 of the upstream outputs ``name`` consumes."""
    consumed, consumer, stage = {}, None, _STAGES[name][1](config)
    while stage is not None:
        path = config.out / f"manifest_{stage}.json"
        try:
            manifest = json.loads(path.read_text())
            reads, outputs = dict(manifest["reads"].items()), dict(manifest["outputs"].items())
            keys = [key for key, value in reads.items() if config.fingerprint(key) != value]
            missing = [config.out / file for file in outputs if not (config.out / file).exists()]
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            missing = [path]
        if missing:
            state = "unreadable" if missing[0].exists() else "not found"
            raise click.UsageError(
                f"missing upstream output: run '{stage}' first ({missing[0]} {state})"
            )
        now = {file: _sha256(config.out / file) for file in outputs}
        rerun, reason = stage, None
        if keys:
            reason = f"'{stage}' read a different {keys[0]}"
        elif changed := [file for file, digest in outputs.items() if now[file] != digest]:
            reason = f"{changed[0]} changed after '{stage}' wrote it"
        elif consumer and consumer[1] != now:
            rerun, reason = consumer[0], f"'{consumer[0]}' consumed older outputs of '{stage}'"
        if reason and not force:
            raise click.UsageError(f"stale upstream: {reason}; rerun '{rerun}' or pass --force")
        if reason:
            click.echo(f"warning: stale upstream: {reason}; continuing under --force")
        consumed, consumer = (consumed if consumer else now), (stage, manifest.get("upstream"))
        stage = _STAGES[stage][1](config)
    return consumed


def _load_tweets(config: RunConfig):
    from .corpus import parse_tweets
    with open(config.tweets, encoding="utf-8", errors="replace") as fh:
        tweets, skipped = parse_tweets(fh)
    if skipped:
        click.echo(f"skipped {skipped} malformed tweet line(s)")
    return tweets


def _labeled_tweets(config: RunConfig) -> list:
    """(tweet, label) pairs in ``predictions.csv`` order, each tweet rebuilt
    from its row with empty text; an empty region reads as None."""
    from .corpus import SentimentLabel, Tweet
    return list(read_mapping(
        config.out / "predictions.csv", _PREDICTIONS,
        lambda tweet_id, label, source, user_id, timestamp, region: (tweet_id, (
            Tweet(tweet_id, user_id, datetime.fromisoformat(timestamp), "", region or None),
            SentimentLabel(label),
        )),
        ",".join(_PREDICTIONS) + " with a known label and an ISO-8601 timestamp",
    ).values())


_config_option = click.option(
    "--config", "config_path", type=click.Path(path_type=Path), default=None,
    help="Flat key = value configuration file.",
)
_seed_option = click.option("--seed", type=int, default=None, help="Master seed override.")
_out_option = click.option(
    "--out", type=click.Path(path_type=Path), default=None, help="Output directory."
)
_force_option = click.option(
    "--force", is_flag=True, help="Ignore stale upstream manifests."
)
_workers_option = click.option(
    "--workers", type=click.IntRange(min=1), default=1, show_default=True,
    help="Parallel worker processes.",
)


def _resolve(config_path: Path | None, seed: int | None, out: Path | None) -> RunConfig:
    config = load_config(config_path, {"seed": seed, "out": out})
    try:
        config.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"cannot make out directory {config.out}: {exc.strerror}") from None
    return config


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is at that moment."""

    stream = property(lambda self: sys.stderr, lambda self, stream: None)


@click.group()
@click.version_option(version=__version__)
@click.option(
    "--log-level", type=click.Choice(["debug", "info", "warning", "error"], case_sensitive=False),
    default="warning", show_default=True, help="Least severe library log line written to stderr.",
)
@click.option("-v", "--verbose", count=True, help="One log level lower per use (-v: info).")
def main(log_level: str, verbose: int) -> None:
    """Sentiment, opinion-network and outbreak-risk pipeline."""
    logger = logging.getLogger("sentepi")
    logger.setLevel(max(logging.DEBUG, getattr(logging, log_level.upper()) - 10 * verbose))
    if not any(isinstance(handler, _StderrHandler) for handler in logger.handlers):
        logger.addHandler(_StderrHandler())  # once, though in-process runs call main again


def _stage(
    name: str,
    inputs: tuple[str, ...] = (),
    upstream: str | Callable[[RunConfig], str | None] | None = None,
    workers: bool = False,
    libraries: tuple[str, ...] = ("numpy",),
):
    """Register the decorated body as the pipeline stage command ``name``.

    The body takes a view of the config that records the keys it reads
    (and ``workers=`` when ``workers`` is set) and returns the names of
    the files it wrote in ``out``. ``inputs`` are the config keys naming
    files the stage requires; ``upstream`` is the stage whose outputs it
    consumes, or a function of the config giving it (None: no upstream).
    ``--force`` is offered only to stages with an upstream. The manifest
    records the version of each of the ``libraries`` the stage uses; they
    are named here, not read from ``sys.modules``, so that a manifest does
    not depend on what its process ran before.
    """

    def register(body):
        def command(config_path, seed, out, force=False, **kwargs) -> None:
            config = _resolve(config_path, seed, out)
            _require_inputs(config, *inputs)
            consumed = _check_upstream(config, name, force)
            (config.out / f"manifest_{name}.json").unlink(missing_ok=True)
            reads = _Reads(config)
            try:
                outputs = body(reads, **kwargs)
            except InputError as exc:
                raise click.UsageError(str(exc)) from exc
            except (ValueError, ArithmeticError, StallError) as exc:
                raise click.ClickException(str(exc)) from exc
            _write_manifest(config, name, reads.keys, consumed, outputs, libraries)

        _STAGES[name] = (inputs, upstream if callable(upstream) else lambda config: upstream)

        options = [_config_option, _seed_option, _out_option]
        if upstream is not None:
            options.append(_force_option)
        if workers:
            options.append(_workers_option)
        for option in reversed(options):
            command = option(command)
        return main.command(name=name, help=body.__doc__)(command)

    return register


@_stage("train", inputs=("tweets", "labels"), libraries=("numpy", "scipy"))
def train(config: RunConfig) -> list[str]:
    """Train the sentiment ensemble on the labeled tweets."""
    from . import classify
    from .corpus import parse_labels, tokenize
    from .stats import derive_stream

    tweets = _load_tweets(config)
    labels = parse_labels(config.labels)

    docs = [
        (tokenize(tweet.text), labels[tweet.id])
        for tweet in tweets
        if tweet.id in labels
    ]
    if not docs:
        raise click.UsageError("no labeled tweets found")

    heldout = []
    if config.test_split > 0.0:
        gen = derive_stream(config.seed, _TRAIN, 0).generator()
        order = gen.permutation(len(docs))
        n_test = int(round(config.test_split * len(docs)))
        heldout = [docs[i] for i in order[:n_test]]
        docs = [docs[i] for i in order[n_test:]]

    nb = classify.train_naive_bayes(docs, smoothing=config.nb_smoothing)
    maxent = classify.train_maxent(
        docs, l2=config.maxent_l2, max_iter=config.maxent_max_iter,
        tol=config.maxent_tol,
    )
    model = classify.EnsembleModel(nb=nb, maxent=maxent)
    model_path = config.out / "ensemble_model.json"
    classify.save_ensemble(model, model_path)

    click.echo(
        f"trained on {len(docs)} docs, vocabulary {len(nb.vocabulary)}, "
        f"maxent {'converged' if maxent.converged else 'hit iteration cap'} "
        f"after {maxent.n_iter} iterations"
    )
    if heldout:
        acc = classify.evaluate_accuracy(model, heldout)
        click.echo(f"held-out accuracy on {len(heldout)} docs: {acc:.4f}")
    return [model_path.name]


@_stage("classify", inputs=("tweets", "labels"), upstream="train")
def classify_cmd(config: RunConfig) -> list[str]:
    """Predict labels for tweets without a manual label."""
    from . import classify
    from .corpus import parse_labels, tokenize

    model = classify.load_ensemble(config.out / "ensemble_model.json")
    tweets = _load_tweets(config)
    labels = parse_labels(config.labels)

    unlabeled = [tweet for tweet in tweets if tweet.id not in labels]
    predicted = iter(model.predict_batch([tokenize(tweet.text) for tweet in unlabeled]))
    out_path = config.out / "predictions.csv"
    write_csv(out_path, _PREDICTIONS, (
        [tweet.id, *([labels[tweet.id].value, "manual"] if tweet.id in labels
                     else [next(predicted).value, "predicted"]),
         tweet.user_id, tweet.timestamp.isoformat(), tweet.region]
        for tweet in tweets
    ))
    click.echo(f"wrote {out_path} ({len(unlabeled)} predicted labels)")
    return [out_path.name]


@_stage("timeseries", upstream="classify", libraries=())
def timeseries_cmd(config: RunConfig) -> list[str]:
    """Daily sentiment counts, the smoothed score, and regional scores."""
    from . import timeseries

    labeled = _labeled_tweets(config)
    if not labeled:
        raise click.ClickException("no labeled tweets to aggregate")

    start = config.start_date or min(t.timestamp.date() for t, _ in labeled)
    end = config.end_date or max(t.timestamp.date() for t, _ in labeled)
    if start > end:  # load_config rejects this only when both keys are set
        if config.start_date:
            raise click.UsageError(f"start_date {start} is after the last labeled tweet ({end})")
        raise click.UsageError(f"end_date {end} is before the first labeled tweet ({start})")
    series = timeseries.daily_series(labeled, start, end)
    scores = timeseries.region_scores(labeled)

    daily_path = config.out / "daily_counts.csv"
    ma_path = config.out / "moving_avg.csv"
    region_path = config.out / "region_scores.csv"
    timeseries.write_daily_counts_csv(daily_path, series)
    timeseries.write_moving_average_csv(ma_path, series, window=config.moving_average_window)
    timeseries.write_region_scores_csv(region_path, scores)
    outputs = [daily_path.name, ma_path.name, region_path.name]

    if config.coverage_table is not None:
        _require_inputs(config, "coverage_table")
        coverage = read_mapping(
            config.coverage_table, ["region", "coverage"],
            lambda region, value: (region.strip(), _finite(value)),
            "region,coverage with a finite numeric coverage",
        )
        r, p = timeseries.regional_correlation(scores, coverage)
        n_regions = sum(rs.region in coverage for rs in scores)
        corr_path = config.out / "regional_correlation.json"
        _write_json(corr_path, {"weighted_r": r, "p_value": p, "n_regions": n_regions})
        outputs.append(corr_path.name)
        click.echo(f"weighted r = {r:.4f}, two-sided p = {p:.4g}")

    click.echo(f"wrote {daily_path}, {ma_path}, {region_path}")
    return outputs


@_stage("flownet", inputs=("followers", "friends"), upstream="classify", libraries=())
def flownet_cmd(config: RunConfig) -> list[str]:
    """Build the opinionated information-flow network's giant component."""
    from . import flownet

    tallies = flownet.tally_users(_labeled_tweets(config))

    with open(config.followers, encoding="utf-8", errors="replace") as fh:
        followers = flownet.read_adjacency(fh)
    with open(config.friends, encoding="utf-8", errors="replace") as fh:
        friends = flownet.read_adjacency(fh)

    network = flownet.build_flow_network(tallies, followers, friends)
    opinion = flownet.opinionated(network)
    if not opinion.nodes:
        raise click.ClickException("opinionated network is empty")
    giant = flownet.giant_component(opinion)

    edges_path = config.out / "opinion_edges.csv"
    nodes_path = config.out / "opinion_nodes.csv"
    flownet.write_edges_csv(edges_path, giant)
    flownet.write_nodes_csv(nodes_path, giant)
    click.echo(
        f"flow network: {len(network.nodes)} users, {len(network.edges)} edges; "
        f"opinionated: {len(opinion.nodes)}; giant component: {len(giant.nodes)} "
        f"nodes, {len(giant.edges)} edges"
    )
    return [edges_path.name, nodes_path.name]


@_stage("homophily", upstream="flownet", workers=True)
def homophily_cmd(config: RunConfig, workers: int) -> list[str]:
    """Assortativity, bootstrap null, in-fractions, and communities."""
    from . import flownet, homophily
    from .stats import derive_stream

    network = flownet.read_network(
        config.out / "opinion_nodes.csv", config.out / "opinion_edges.csv"
    )
    signs, edges = network.signs, network.edges
    observed = homophily.assortativity(signs, edges)
    null = homophily.bootstrap_null(
        signs, edges, config.bootstrap_iterations,
        derive_stream(config.seed, _HOMOPHILY, 0), workers=workers,
    )
    ftest = homophily.in_fraction_test(
        signs, edges, config.in_fraction_iterations,
        derive_stream(config.seed, _HOMOPHILY, 1),
    )
    partition = homophily.detect_communities(
        signs.keys(), edges, derive_stream(config.seed, _HOMOPHILY, 2)
    )
    report = homophily.community_enrichment(
        partition, signs, min_size_fraction=config.min_community_fraction
    )

    null_path = config.out / "null_distribution.csv"
    comm_path = config.out / "communities.csv"
    summary_path = config.out / "homophily.json"
    homophily.write_null_distribution_csv(null_path, null)
    homophily.write_communities_csv(comm_path, report)
    _write_json(summary_path, {
        "assortativity_r": observed.r,
        "degenerate": observed.degenerate,
        "null_mean": null.mean,
        "null_ci": [null.ci_low, null.ci_high],
        "null_max": null.max,
        "observed_exceeds_null_max": observed.r > null.max,
        "in_fraction_mean": ftest.original_mean,
        "in_fraction_significant": ftest.fraction_significant,
        "n_communities": report.n_communities,
    })
    click.echo(
        f"r = {observed.r:.4f} (null mean {null.mean:.5f}, max {null.max:.5f}); "
        f"mean f = {ftest.original_mean:.4f}; "
        f"{len(report.rows)} communities above size threshold"
    )
    return [null_path.name, comm_path.name, summary_path.name]


@_stage("gen-net", libraries=())
def gen_net(config: RunConfig) -> list[str]:
    """Write the calibrated contact network; it reads no config key."""
    text = Path(__file__).with_name("contact_network.csv").read_bytes().decode("utf-8")
    rows = text.splitlines()[1:]
    net_path = config.out / "contact_network.csv"
    write_text(net_path, text)
    nodes = 1 + max(int(row.split(",")[1]) for row in rows)  # v > u on every row
    click.echo(f"wrote {net_path}: {nodes} nodes, {len(rows)} edges")
    return [net_path.name]


@_stage(
    "sweep",
    upstream=lambda config: None if config.contact_network else "gen-net",
    workers=True,
)
def sweep_cmd(config: RunConfig, workers: int) -> list[str]:
    """Outbreak risk across the assortativity grid."""
    from . import epi
    from .stats import derive_stream

    if config.contact_network is not None:
        _require_inputs(config, "contact_network")
    net = epi.read_contact_network(config.contact_network or config.out / "contact_network.csv")
    report = epi.sweep(
        net,
        coverage=config.coverage,
        r_grid=config.r_grid,
        redistributions_per_r=config.runs_per_r,
        stream=derive_stream(config.seed, _SWEEP),
        workers=workers,
        max_stall=config.max_stall,
    )

    report_path = config.out / "sweep_report.csv"
    epi.write_sweep_csv(report_path, report)
    for pt in report.points:
        click.echo(
            f"target r {pt.target_r:.3f}: achieved {pt.achieved_r_mean:.4f}, "
            f"P(attack>=3%) = {pt.p_ge_3pct:.4f}, RR = {pt.rr_3pct:.2f}"
        )
    return [report_path.name]


if __name__ == "__main__":
    sys.exit(main())
