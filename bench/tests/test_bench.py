"""Tests for the benchmark harness itself (not part of the tier-1 suite).

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from layers import PER_LAYER, percentile  # noqa: E402
from opinion_data import write_opinion_corpus  # noqa: E402
from spans import PATCHES, Tracer, _resolve  # noqa: E402
from workloads import Checks, Iteration, PipelineCli, Workload, import_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


class FlakyOutputs(Workload):
    """Stand-in workload whose second iteration returns a tampered output."""

    name = "flaky"

    def import_modules(self):
        pass

    def setup(self, directory):
        return {"input": "same"}

    def iterate(self, in_process=False):
        self.calls = getattr(self, "calls", 0) + 1
        time.sleep(0.01)
        return Iteration({"a": 0.01}, {"b": 0.0}, {"out": "tampered" if self.calls == 2 else "ok"})


def test_tampered_output_counts_as_failure(tmp_path):
    checks = Checks()
    _, record = run.timed_run(FlakyOutputs(ROOT, tmp_path, 1, checks), seconds=0.1)
    assert len(record["iterations"]) >= 3
    assert checks.failures == ["outputs differ between iterations"]
    assert checks.attempted >= 3


def test_nonzero_stage_exit_counts_as_failure(tmp_path):
    checks = Checks()
    workload = PipelineCli(ROOT, tmp_path, 3, checks)
    (tmp_path / "inputs").mkdir()
    workload.setup(tmp_path / "inputs")
    assert checks.failures == []
    out = tmp_path / "out"
    out.mkdir()
    # classify before train: the CLI exits 2 for the missing model
    workload.run_stage("classify", [], out, in_process=False)
    assert workload.stage_failures == 1
    assert len(checks.failures) == 1 and "stage classify failed (exit 2" in checks.failures[0]


def test_printed_metric_names_match_benchmark_json():
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "pipeline-cli", "--seed", "5", "--seconds", "1",
                    "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert [m["name"] for m in SPEC["per_layer"]] == PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = _run("--workload", "outbreak", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_name_and_nests_self_time():
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, (_, attr, *_) in ((_resolve(p[0]), p) for p in PATCHES)]
    tracer = Tracer()
    with tracer.installed():
        from sentepi import corpus

        corpus.tokenize("vaccines worked wonderfully")
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr
    tok, *stems = tracer.spans
    assert (tok.name, tok.parent) == ("corpus.tokenize", -1)
    assert stems and all(s.name == "stemming.stem" and s.parent == 0 for s in stems)
    child_s = sum(s.end - s.start for s in stems)
    assert tok.self_s == pytest.approx(tok.end - tok.start - child_s)


def test_import_times_sums_outermost_entries_of_a_prefix():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |        400 |       scipy.sparse._base",
        "import time:        10 |         10 |       scipy.sparse._csr",
        "import time:        60 |        470 |     scipy._lib",
        "import time:        30 |        800 |   sentepi.classify",
        "import time:        20 |        820 | sentepi.cli",
    ])
    times = import_times(report, ("sentepi", "scipy.sparse", "numpy"))
    assert times == {"sentepi": 820e-6, "scipy.sparse": 410e-6, "numpy": 300e-6}


def test_percentile_needs_ten_samples_above_it():
    values = [float(i) for i in range(1, 1001)]
    assert percentile(values, 50) == 500.0
    assert percentile(values, 99) == 990.0
    assert percentile(values[:999], 99) == 0.0


def test_opinion_corpus_is_seeded_and_alphabetic(tmp_path):
    first = write_opinion_corpus(tmp_path / "a", 7)
    again = write_opinion_corpus(tmp_path / "b", 7)
    other = write_opinion_corpus(tmp_path / "c", 8)
    for name in first:
        assert first[name].read_bytes() == again[name].read_bytes()
    assert first["tweets.jsonl"].read_bytes() != other["tweets.jsonl"].read_bytes()
    text = json.loads(first["tweets.jsonl"].open().readline())["text"]
    assert all(word.rstrip("!").isalpha() for word in text.split())
