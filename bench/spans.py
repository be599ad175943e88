"""In-memory spans around calls into sentepi, for the traced run.

A :class:`Tracer` rebinds public names that sentepi code looks up at
call time (module attributes and one class attribute) to wrappers that
record a span per call. Nothing under ``src/`` changes, and the names
are restored afterwards, so untraced runs execute the unmodified code.
"""

from __future__ import annotations

import csv
import importlib
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


def _size(args, kwargs, result):
    return len(result)


# (module, attribute, span name, note). A note keeps a small summary of
# the call (for example a count or the returned estimate) with the span.
# Several attributes can share one span name: callers in different
# modules look up the same function under different names.
PATCHES: list[tuple[str, str, str, Callable | None]] = [
    ("sentepi.corpus", "parse_tweets", "corpus.parse_tweets",
     lambda a, k, r: (len(r[0]), r[1])),
    ("sentepi.cli", "parse_tweets", "corpus.parse_tweets",
     lambda a, k, r: (len(r[0]), r[1])),
    ("sentepi.corpus", "tokenize", "corpus.tokenize", _size),
    ("sentepi.cli", "tokenize", "corpus.tokenize", _size),
    ("sentepi.corpus", "stem", "stemming.stem", lambda a, k, r: a[0]),
    ("sentepi.classify", "train_naive_bayes", "classify.train_naive_bayes", None),
    ("sentepi.classify", "train_maxent", "classify.train_maxent",
     lambda a, k, r: r.n_iter),
    ("sentepi.classify", "maxent_objective", "classify.maxent_objective", None),
    ("sentepi.classify.EnsembleModel", "predict", "classify.predict", None),
    ("sentepi.classify", "evaluate_accuracy", "classify.evaluate_accuracy",
     lambda a, k, r: r),
    ("sentepi.classify", "save_ensemble", "classify.save_ensemble",
     lambda a, k, r: Path(a[1]).stat().st_size),
    ("sentepi.classify", "load_ensemble", "classify.load_ensemble", None),
    ("sentepi.timeseries", "daily_series", "timeseries.daily_series", None),
    ("sentepi.timeseries", "moving_average", "timeseries.moving_average", None),
    ("sentepi.timeseries", "region_scores", "timeseries.region_scores", None),
    ("sentepi.timeseries", "regional_correlation", "timeseries.regional_correlation", None),
    ("sentepi.timeseries", "weighted_pearson", "stats.weighted_pearson", None),
    ("sentepi.flownet", "read_adjacency", "flownet.read_adjacency", None),
    ("sentepi.flownet", "tally_users", "flownet.tally_users", None),
    ("sentepi.flownet", "build_flow_network", "flownet.build_flow_network",
     lambda a, k, r: (len(r.tallies), len(r.edges))),
    ("sentepi.flownet", "opinionated", "flownet.opinionated",
     lambda a, k, r: (len(r.signs), len(r.edges))),
    ("sentepi.flownet", "giant_component", "flownet.giant_component",
     lambda a, k, r: (len(r.tallies), len(r.edges))),
    ("sentepi.homophily", "assortativity", "homophily.assortativity",
     lambda a, k, r: r.r),
    ("sentepi.homophily", "bootstrap_null", "homophily.bootstrap_null",
     lambda a, k, r: (len(r.values), r.mean)),
    ("sentepi.homophily", "in_fraction_test", "homophily.in_fraction_test", None),
    ("sentepi.homophily", "detect_communities", "homophily.detect_communities",
     lambda a, k, r: len(set(r.values()))),
    ("sentepi.homophily", "community_enrichment", "homophily.community_enrichment", None),
    ("sentepi.homophily", "wilcoxon_signed_rank_paired", "stats.wilcoxon", None),
    ("sentepi.homophily", "fisher_exact_2x2", "stats.fisher", None),
    ("sentepi.synthetic", "write_pipeline_fixture", "synthetic.write_pipeline_fixture", None),
    ("sentepi.synthetic", "default_contact_network", "synthetic.default_contact_network", None),
    ("sentepi.synthetic", "generate_synthetic_contact_network", "epi.generate_network", None),
    ("sentepi.epi", "generate_synthetic_contact_network", "epi.generate_network", None),
    ("sentepi.epi", "estimate_r0", "epi.estimate_r0", lambda a, k, r: r),
    ("sentepi.epi", "sweep", "epi.sweep", None),
    ("sentepi.epi", "random_assignment", "epi.random_assignment", None),
    ("sentepi.epi", "redistribute", "epi.redistribute", lambda a, k, r: a[2]),
    ("sentepi.epi", "run_seir", "epi.run_seir",
     lambda a, k, r: (r.duration_steps, r.attack_rate)),
    ("sentepi.epi", "vaccination_assortativity", "epi.vaccination_assortativity",
     lambda a, k, r: r),
]


class Span:
    """One call: name, start and end in seconds, the enclosing span's
    index (-1 at top level), self time, a note and the exception name."""

    __slots__ = ("name", "start", "end", "parent", "self_s", "note", "error")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.self_s = 0.0
        self.note: Any = None
        self.error = ""


class Tracer:
    """Records spans in memory; :meth:`installed` rebinds the names."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._child_s: list[float] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._child_s.append(0.0)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        self._stack.pop()
        duration = span.end - span.start
        span.self_s = duration - self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += duration

    def wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.spans[idx].error = type(exc).__name__
                raise
            finally:
                tracer._close(idx)
            if note is not None:
                tracer.spans[idx].note = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every name in :data:`PATCHES`; restore them on exit."""
        # Import every module first: one that imports a name from another
        # while that name is rebound would keep the wrapper for good.
        owners = [_resolve(target) for target, *_ in PATCHES]
        saved = []
        try:
            for owner, (_, attr, name, note) in zip(owners, PATCHES):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def ancestor_names(self, span: Span) -> set[str]:
        names = set()
        while span.parent >= 0:
            span = self.spans[span.parent]
            names.add(span.name)
        return names

    def write_csv(self, path: Path) -> None:
        """Write every span, times in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_us", "end_us", "self_us", "error"])
            for i, s in enumerate(self.spans):
                writer.writerow([
                    i, s.parent, s.name, round((s.start - origin) * 1e6, 1),
                    round((s.end - origin) * 1e6, 1), round(s.self_s * 1e6, 1), s.error,
                ])


def _resolve(target: str):
    try:
        return importlib.import_module(target)
    except ModuleNotFoundError:
        module, _, cls = target.rpartition(".")
        return getattr(importlib.import_module(module), cls)
