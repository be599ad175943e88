import json
import logging
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import sentepi
from sentepi import cli
from sentepi.cli import RunConfig, _parse_grid, load_config, main
from sentepi.synthetic import default_contact_network, write_pipeline_fixture


# a float that is not finite is not a value of any float key, whatever its range
_NON_FINITE = (
    "nb_smoothing = inf", "maxent_tol = inf", "maxent_l2 = nan", "coverage = nan",
    "r_grid = nan", "r_grid = 0,inf", "r_grid = 0:inf:0.005",
)
# Ranges whose point count is absurd: the first never advances an
# accumulating loop (0.1 + 1e-20 == 0.1), the second asks for 10^12 points.
_RUNAWAY_GRIDS = ("r_grid = 0.1:0.2:1e-20", "r_grid = 0:1:1e-12")


class TestConfigParsing:
    def test_grid_comma_form(self):
        assert _parse_grid("0, 0.075, 0.145") == (0.0, 0.075, 0.145)

    def test_grid_range_form_full_scale(self):
        grid = _parse_grid("0:0.145:0.005")
        assert len(grid) == 30
        assert grid[0] == 0.0
        assert grid[-1] == 0.145

    def test_grid_bad_forms_rejected(self):
        with pytest.raises(click.UsageError):
            _parse_grid("0:0.1:0")
        with pytest.raises(click.UsageError):
            _parse_grid("a,b")

    def test_hash_ignores_output_directory(self, run_copy, finished_out):
        # rerun in another directory: the manifest records no output path
        assert run_copy.out != finished_out
        assert run_copy("train").exit_code == 0
        manifest = (run_copy.out / "manifest_train.json").read_bytes()
        assert "out" not in json.loads(manifest)["reads"]
        assert manifest == (finished_out / "manifest_train.json").read_bytes()

    def test_hash_tracks_semantic_keys(self, run_copy, pipeline_dir, tmp_path):
        manifest = json.loads((run_copy.out / "manifest_train.json").read_text())
        assert manifest["reads"]["nb_smoothing"] == "1.0"
        config = tmp_path / "c.conf"
        config.write_text(pipeline_dir["config"].read_text() + "nb_smoothing = 2.0\n")
        result = run_copy("classify", config=config)
        assert result.exit_code == 2
        assert "stale upstream: 'train' read a different nb_smoothing" in result.output

    def test_comments_and_blank_lines_allowed(self, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text("# comment\n\nseed = 5  # trailing\ncoverage = 0.5\n")
        loaded = load_config(config, {})
        assert loaded.seed == 5
        assert loaded.coverage == 0.5

    def test_hash_tracks_input_contents_not_paths(self, run_copy, pipeline_dir, tmp_path):
        data, copied = pipeline_dir["root"] / "data", tmp_path / "copied"
        shutil.copytree(data, copied)
        config = tmp_path / "c.conf"
        config.write_text(pipeline_dir["config"].read_text().replace(str(data), str(copied)))
        fresh = run_copy("timeseries", config=config)
        assert fresh.exit_code == 0, fresh.output
        assert "warning" not in fresh.output
        with open(copied / "labels.csv", "a") as fh:
            fh.write("\n")
        stale = run_copy("timeseries", config=config)
        assert stale.exit_code == 2
        assert "stale upstream: 'classify' read a different labels" in stale.output

    def test_readme_config_table_names_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
        documented = set()
        for line in table.splitlines():
            if line.startswith("| `"):
                documented.update(re.findall(r"`(\w+)`", line.split("|")[1]))
        assert documented == {fld.name for fld in fields(RunConfig)}

    def test_readme_stage_table_matches_the_registered_stages(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| stage | upstream stage | required keys |", 1)[1]
        rows = [line for line in table.split("\n\n", 1)[0].splitlines() if line.startswith("| `")]
        names = [re.findall(r"`([\w-]+)`", row)[0] for row in rows]
        assert names == list(cli._STAGES)
        for name, row in zip(names, rows):
            _, upstream, required = row.split("|")[1:4]
            inputs, find_upstream = cli._STAGES[name]
            assert inputs == tuple(re.findall(r"`(\w+)`", required.split("(")[0])), row
            documented = re.findall(r"`([\w-]+)`", upstream)[:1] or [None]
            assert find_upstream(RunConfig(seed=0)) == documented[0], row
            for key in re.findall(r"none when `(\w+)` is set", upstream):
                assert find_upstream(RunConfig(seed=0, **{key: Path("x")})) is None, row


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Fixture inputs plus a config file shared by the command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    paths = write_pipeline_fixture(data, seed=2009, n_users=80, n_tweets=900)
    config = root / "run.conf"
    config.write_text(
        "\n".join(
            [
                "seed = 424242",
                f"out = {root / 'out'}",
                f"tweets = {paths['tweets']}",
                f"labels = {paths['labels']}",
                f"followers = {paths['followers']}",
                f"friends = {paths['friends']}",
                f"coverage_table = {paths['coverage']}",
                "test_split = 0.2",
                "bootstrap_iterations = 150",
                "in_fraction_iterations = 20",
                "maxent_max_iter = 150",
                "r_grid = 0,0.1",
                "runs_per_r = 25",
                "coverage = 0.6",
                "",
            ]
        )
    )
    return {"root": root, "config": config, "out": root / "out"}


def _run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def _small_run(tmp_path, seed):
    """A 20-user, 80-tweet fixture and a config that trains on all of it."""
    data = write_pipeline_fixture(tmp_path / "d", seed=seed, n_users=20, n_tweets=80)
    config = tmp_path / "c.conf"
    config.write_text(
        f"seed = 1\nout = {tmp_path / 'o'}\ntweets = {data['tweets']}\n"
        f"labels = {data['labels']}\ntest_split = 0\nmaxent_max_iter = 60\n"
    )
    return data, config


_STAGES = ("train", "classify", "timeseries", "flownet", "homophily", "gen-net", "sweep")


@pytest.fixture(scope="module")
def finished_out(pipeline_dir, tmp_path_factory):
    """An output directory holding a complete run of all seven stages."""
    out = tmp_path_factory.mktemp("finished")
    for stage in _STAGES:
        result = _run([stage, "--config", str(pipeline_dir["config"]), "--out", str(out)])
        assert result.exit_code == 0, result.output
    return out


@pytest.fixture
def run_copy(pipeline_dir, finished_out, tmp_path):
    """Run a stage on a private copy of the finished output directory."""
    out = tmp_path / "out"
    shutil.copytree(finished_out, out)

    def run(stage, *extra, config=pipeline_dir["config"]):
        return _run([stage, "--config", str(config), "--out", str(out), *extra])

    run.out = out
    return run


@pytest.mark.usefixtures("pipeline_dir")
class TestPipelineCommands:
    def test_01_train(self, pipeline_dir):
        result = _run(["train", "--config", str(pipeline_dir["config"])])
        assert result.exit_code == 0, result.output
        assert (pipeline_dir["out"] / "ensemble_model.json").exists()
        assert "held-out accuracy" in result.output
        assert (pipeline_dir["out"] / "manifest_train.json").exists()

    def test_02_classify(self, pipeline_dir):
        result = _run(["classify", "--config", str(pipeline_dir["config"])])
        assert result.exit_code == 0, result.output
        predictions = (pipeline_dir["out"] / "predictions.csv").read_text()
        assert predictions.startswith("tweet_id,label,source,user_id,timestamp,region\n")
        assert ",predicted" in predictions
        assert ",manual" in predictions

    def test_03_timeseries(self, pipeline_dir):
        result = _run(["timeseries", "--config", str(pipeline_dir["config"])])
        assert result.exit_code == 0, result.output
        out = pipeline_dir["out"]
        for name in ("daily_counts.csv", "moving_avg.csv", "region_scores.csv"):
            assert (out / name).exists()
        corr = json.loads((out / "regional_correlation.json").read_text())
        assert corr["weighted_r"] > 0.3  # coverage tracks regional sentiment

    def test_04_flownet(self, pipeline_dir):
        result = _run(["flownet", "--config", str(pipeline_dir["config"])])
        assert result.exit_code == 0, result.output
        nodes = (pipeline_dir["out"] / "opinion_nodes.csv").read_text().splitlines()
        assert nodes[0] == "id,n_pos,n_neg,n_neu,sign"
        assert len(nodes) > 10

    def test_05_homophily(self, pipeline_dir):
        result = _run(["homophily", "--config", str(pipeline_dir["config"])])
        assert result.exit_code == 0, result.output
        out = pipeline_dir["out"]
        summary = json.loads((out / "homophily.json").read_text())
        # the fixture plants lean-homophilous follow edges
        assert summary["assortativity_r"] > summary["null_max"]
        nulls = (out / "null_distribution.csv").read_text().splitlines()
        assert len(nulls) == 151

    def test_06_gen_net(self, pipeline_dir):
        result = _run(["gen-net", "--config", str(pipeline_dir["config"])])
        assert result.exit_code == 0, result.output
        net = (pipeline_dir["out"] / "contact_network.csv").read_text().splitlines()
        assert net[0] == "u,v,w"

    @pytest.mark.parametrize("seed", [7, 1])
    def test_gen_net_writes_the_calibrated_network_for_any_seed(self, tmp_path, seed):
        result = _run(["gen-net", "--seed", str(seed), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        net = default_contact_network()
        rows = zip(net.edge_u.tolist(), net.edge_v.tolist(), net.edge_w.tolist())
        sentepi.write_csv(tmp_path / "pinned.csv", ["u", "v", "w"], rows)
        written_path = tmp_path / "o" / "contact_network.csv"
        assert result.output == f"wrote {written_path}: 1000 nodes, 3829 edges\n"
        written = written_path.read_bytes()
        assert written == (tmp_path / "pinned.csv").read_bytes()
        manifest = json.loads((tmp_path / "o" / "manifest_gen-net.json").read_text())
        assert manifest["reads"] == {}

    def test_07_sweep(self, pipeline_dir):
        result = _run(["sweep", "--config", str(pipeline_dir["config"])])
        assert result.exit_code == 0, result.output
        report = (pipeline_dir["out"] / "sweep_report.csv").read_text().splitlines()
        assert report[0].startswith("target_r,achieved_r_mean,runs,")
        assert len(report) == 3


class TestErrorHandling:
    def test_missing_config_is_usage_error(self, tmp_path):
        result = _run(["train", "--config", str(tmp_path / "nope.conf")])
        assert result.exit_code == 2

    def test_missing_seed_is_usage_error(self, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text("out = somewhere\n")
        result = _run(["train", "--config", str(config)])
        assert result.exit_code == 2
        assert "seed" in result.output

    def test_missing_label_file_is_usage_error(self, tmp_path):
        data = write_pipeline_fixture(tmp_path / "d", seed=7, n_users=10, n_tweets=40)
        config = tmp_path / "c.conf"
        config.write_text(
            f"seed = 1\nout = {tmp_path / 'o'}\ntweets = {data['tweets']}\n"
            f"labels = {tmp_path / 'missing.csv'}\n"
        )
        result = _run(["train", "--config", str(config)])
        assert result.exit_code == 2
        assert "not found" in result.output

    def test_directory_for_an_input_file_is_usage_error(self, tmp_path):
        data = write_pipeline_fixture(tmp_path / "d", seed=7, n_users=10, n_tweets=40)
        config = tmp_path / "c.conf"
        config.write_text(
            f"seed = 1\nout = {tmp_path / 'o'}\ntweets = {tmp_path / 'd'}\n"
            f"labels = {data['labels']}\n"
        )
        result = _run(["train", "--config", str(config)])
        assert result.exit_code == 2
        assert f"tweets is not a file: {tmp_path / 'd'}" in result.output

    def test_directory_for_the_config_file_is_usage_error(self, tmp_path):
        result = _run(["train", "--config", str(tmp_path)])
        assert result.exit_code == 2
        assert f"config is not a file: {tmp_path}" in result.output

    @pytest.mark.parametrize("under", ["", "sub"], ids=["a_file", "under_a_file"])
    def test_out_naming_a_file_is_usage_error(self, tmp_path, under):
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / under  # "" leaves the path at the file
        result = _run(["train", "--seed", "1", "--out", str(out)])
        assert result.exit_code == 2
        assert f"cannot make out directory {out}: " in result.output
        assert "Traceback" not in result.output

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text("seed = 1\nbogus_key = 2\n")
        result = _run(["train", "--config", str(config)])
        assert result.exit_code == 2
        assert f"{config}:2: unknown config key 'bogus_key'" in result.output

    def test_corrupt_model_is_runtime_failure(self, tmp_path):
        data = write_pipeline_fixture(tmp_path / "d", seed=6, n_users=20, n_tweets=80)
        out = tmp_path / "o"
        out.mkdir()
        config = tmp_path / "c.conf"
        config.write_text(
            f"seed = 1\nout = {out}\ntweets = {data['tweets']}\n"
            f"labels = {data['labels']}\ntest_split = 0\nmaxent_max_iter = 60\n"
        )
        assert _run(["train", "--config", str(config)]).exit_code == 0
        model_path = out / "ensemble_model.json"
        payload = json.loads(model_path.read_text())
        payload["format_version"] = 99
        model_path.write_text(json.dumps(payload))
        # the edited model no longer matches train's manifest...
        stale = _run(["classify", "--config", str(config)])
        assert stale.exit_code == 2
        assert "ensemble_model.json changed" in stale.output
        # ...and loading it anyway fails at run time
        result = _run(["classify", "--config", str(config), "--force"])
        assert result.exit_code == 1
        assert "version" in result.output

    def test_stale_upstream_refused_without_force(self, tmp_path):
        data = write_pipeline_fixture(tmp_path / "d", seed=8, n_users=30, n_tweets=200)
        out = tmp_path / "o"
        base = (
            f"out = {out}\ntweets = {data['tweets']}\nlabels = {data['labels']}\n"
            "test_split = 0\nmaxent_max_iter = 60\n"
        )
        config = tmp_path / "c.conf"
        config.write_text("seed = 1\n" + base)
        assert _run(["train", "--config", str(config)]).exit_code == 0

        # classifying under a different smoothing must refuse...
        config.write_text("seed = 1\nnb_smoothing = 2\n" + base)
        stale = _run(["classify", "--config", str(config)])
        assert stale.exit_code == 2
        assert "stale" in stale.output
        # ...unless forced
        forced = _run(["classify", "--config", str(config), "--force"])
        assert forced.exit_code == 0, forced.output

    def test_truncated_model_is_runtime_failure_naming_the_file(self, run_copy):
        model = run_copy.out / "ensemble_model.json"
        model.write_bytes(model.read_bytes()[:300])
        result = run_copy("classify", "--force")
        assert result.exit_code == 1
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "ensemble_model.json" in errors[0]

    @pytest.mark.parametrize("payload", ["[]", '{"format_version": 2}'])
    def test_non_model_payload_is_runtime_failure_naming_the_file(self, run_copy, payload):
        model = run_copy.out / "ensemble_model.json"
        model.write_text(payload)
        result = run_copy("classify", "--force")
        assert result.exit_code == 1
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [line for line in result.output.splitlines() if line.strip()][-1:]
        assert errors[0].startswith(f"Error: {model}: not a readable model file")

    def test_model_array_of_the_wrong_shape_names_file_and_field(self, run_copy):
        model = run_copy.out / "ensemble_model.json"
        payload = json.loads(model.read_text())
        k, v = len(payload["labels"]), len(payload["vocabulary"])
        payload["maxent"]["weights"] = [row[:-1] for row in payload["maxent"]["weights"]]
        model.write_text(json.dumps(payload))
        result = run_copy("classify", "--force")
        assert result.exit_code == 1
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [
            f"Error: {model}: not a readable model file: "
            f"maxent.weights has shape ({k}, {v - 1}), expected ({k}, {v})"
        ]

    def test_invalid_utf8_in_a_tweet_still_trains(self, tmp_path):
        data, config = _small_run(tmp_path, seed=6)
        raw = data["tweets"].read_bytes()
        assert raw.count(b'"text": "') == 80
        data["tweets"].write_bytes(raw.replace(b'"text": "', b'"text": "\xff', 1))
        result = _run(["train", "--config", str(config)])
        assert result.exit_code == 0, result.output
        assert "skipped" not in result.output

    def test_null_text_is_skipped_and_counted(self, tmp_path):
        data, config = _small_run(tmp_path, seed=6)
        with open(data["tweets"], "a") as fh:
            fh.write('{"id": "tx", "user_id": "u1", "timestamp": "2009-10-02T08:30:00Z", '
                     '"text": null}\n')
        result = _run(["train", "--config", str(config)])
        assert result.exit_code == 0, result.output
        assert "skipped 1 malformed tweet line(s)" in result.output

    def test_invalid_utf8_in_the_config_is_replaced_not_a_traceback(self, tmp_path):
        _, config = _small_run(tmp_path, seed=6)
        # in a comment the byte changes nothing...
        config.write_bytes(config.read_bytes() + b"# caf\xff\n")
        assert _run(["train", "--config", str(config)]).exit_code == 0
        # ...in a value it is a bad value, named like any other
        config.write_bytes(config.read_bytes() + b"coverage = 0.5\xff\n")
        result = _run(["train", "--config", str(config)])
        assert result.exit_code == 2
        assert "bad value for coverage" in result.output

    @pytest.mark.parametrize(
        "row", ["t999999,great", "t999999", "t999999,positive,x"],
        ids=["unknown-label", "one-column", "three-columns"],
    )
    def test_bad_label_row_is_usage_error_with_location(self, tmp_path, row):
        data, config = _small_run(tmp_path, seed=6)
        line = len(data["labels"].read_text().splitlines()) + 1
        with open(data["labels"], "a") as fh:
            fh.write(row + "\n")
        result = _run(["train", "--config", str(config)])
        assert result.exit_code == 2
        assert f"{data['labels']}:{line}: expected tweet_id,label" in result.output

    def test_headerless_labels_file_is_usage_error_with_location(self, tmp_path):
        data, config = _small_run(tmp_path, seed=6)
        rows = data["labels"].read_text().splitlines()
        assert rows[0] == "tweet_id,label"
        data["labels"].write_text("\n".join(rows[1:]) + "\n")
        result = _run(["train", "--config", str(config)])
        assert result.exit_code == 2
        assert f"{data['labels']}:1: expected header" in result.output

    @pytest.mark.parametrize(
        "setting",
        [
            "coverage = 1.5", "coverage = -0.1", "test_split = 1", "test_split = -0.2",
            "moving_average_window = 0", "bootstrap_iterations = 0",
            "in_fraction_iterations = -1", "runs_per_r = 0",
            "coverage = 0", "coverage = 1", "max_stall = 0", "r_grid =", "r_grid = 0.1,0.05",
            "r_grid = 0,1.0",
            "nb_smoothing = 0", "maxent_l2 = -5", "maxent_tol = 0", "maxent_max_iter = 0",
            "min_community_fraction = 2", "seed = -5", *_NON_FINITE, *_RUNAWAY_GRIDS,
        ],
    )
    def test_out_of_range_value_is_usage_error_naming_the_key(self, tmp_path, setting):
        config = tmp_path / "c.conf"
        config.write_text(f"seed = 1\nout = {tmp_path / 'o'}\n{setting}\n")
        result = _run(["train", "--config", str(config)])
        assert result.exit_code == 2
        key = setting.split(" =")[0]
        if setting in _NON_FINITE + _RUNAWAY_GRIDS:
            assert f"{config}:3: bad value for {key}" in result.output
        else:
            assert f"{config}:3: {key} must be" in result.output

    def test_repeated_key_keeps_the_last_value_and_names_its_line(self, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text("seed = 1\ncoverage = 0.3\ncoverage = 2\n")
        result = _run(["train", "--config", str(config)])
        assert result.exit_code == 2
        assert f"{config}:3: coverage must be in (0, 1), got 2.0" in result.output
        config.write_text("seed = 1\ncoverage = 2\ncoverage = 0.3\n")
        assert load_config(config, {}).coverage == 0.3

    def test_a_flag_value_names_no_file_line(self, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text("seed = 1\n")
        result = _run(["train", "--config", str(config), "--seed", "-5"])
        assert result.exit_code == 2
        assert "Error: seed must be non-negative, got -5" in result.output

    def test_start_date_after_end_date_is_usage_error_naming_both(self, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text(
            f"seed = 1\nout = {tmp_path / 'o'}\nstart_date = 2009-09-10\nend_date = 2009-09-09\n"
        )
        result = _run(["timeseries", "--config", str(config)])
        assert result.exit_code == 2
        assert "start_date must not be after end_date" in result.output

    def test_sweep_without_gen_net_manifest_is_usage_error(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "contact_network.csv").write_text("u,v,w\n0,1,120\n")
        config = tmp_path / "c.conf"
        config.write_text(f"seed = 1\nout = {out}\nr_grid = 0\nruns_per_r = 1\n")
        result = _run(["sweep", "--config", str(config)])
        assert result.exit_code == 2
        assert "run 'gen-net' first" in result.output

    def test_non_numeric_coverage_is_usage_error(self, tmp_path):
        data = write_pipeline_fixture(tmp_path / "d", seed=10, n_users=30, n_tweets=200)
        coverage = tmp_path / "coverage.csv"
        config = tmp_path / "c.conf"
        config.write_text(
            f"seed = 1\nout = {tmp_path / 'o'}\ntweets = {data['tweets']}\n"
            f"labels = {data['labels']}\ncoverage_table = {coverage}\n"
            "test_split = 0\nmaxent_max_iter = 60\n"
        )
        for stage in ("train", "classify"):
            assert _run([stage, "--config", str(config)]).exit_code == 0
        # float() reads nan and inf, and a NaN coverage once gave r = 1 with p = 0
        for value in ("abc", "nan", "inf", "-inf"):
            coverage.write_text(f"region,coverage\nR01,0.5\nR02,{value}\n")
            result = _run(["timeseries", "--config", str(config)])
            assert result.exit_code == 2, value
            assert f"{coverage}:3:" in result.output, value


class TestStageProtocol:
    @pytest.mark.parametrize(
        "deleted, upstream, stage",
        [
            ("ensemble_model.json", "train", "classify"),
            ("predictions.csv", "classify", "timeseries"),
            ("predictions.csv", "classify", "flownet"),
            ("opinion_nodes.csv", "flownet", "homophily"),
            ("contact_network.csv", "gen-net", "sweep"),
        ],
    )
    def test_missing_upstream_output_names_the_stage(self, run_copy, deleted, upstream, stage):
        (run_copy.out / deleted).unlink()
        result = run_copy(stage)
        assert result.exit_code == 2
        assert f"run '{upstream}' first" in result.output
        assert deleted in result.output

    def test_unreadable_upstream_manifest_means_run_it_first(self, run_copy):
        manifest = run_copy.out / "manifest_flownet.json"
        manifest.write_bytes(manifest.read_bytes()[:40])
        result = run_copy("homophily")
        assert result.exit_code == 2
        assert "run 'flownet' first" in result.output
        assert "unreadable" in result.output

    def test_old_format_manifest_means_run_it_first(self, run_copy):
        manifest = run_copy.out / "manifest_flownet.json"
        payload = json.loads(manifest.read_text())
        del payload["reads"], payload["upstream"]
        manifest.write_text(json.dumps({**payload, "config_hash": "0" * 64}))
        result = run_copy("homophily")
        assert result.exit_code == 2
        assert "run 'flownet' first" in result.output
        assert "unreadable" in result.output

    def test_key_no_upstream_read_keeps_it_fresh(self, run_copy, pipeline_dir, tmp_path):
        # train and classify never read the smoothing window
        config = tmp_path / "c.conf"
        config.write_text(pipeline_dir["config"].read_text() + "moving_average_window = 7\n")
        result = run_copy("timeseries", config=config)
        assert result.exit_code == 0, result.output
        assert "warning" not in result.output

    def test_staleness_is_transitive(self, run_copy, pipeline_dir, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text(pipeline_dir["config"].read_text() + "maxent_l2 = 0.5\n")
        stale = run_copy("timeseries", config=config)
        assert stale.exit_code == 2
        assert "'train' read a different maxent_l2; rerun 'train'" in stale.output
        forced = run_copy("timeseries", "--force", config=config)
        assert forced.exit_code == 0, forced.output
        assert "warning: stale upstream: 'train' read a different maxent_l2" in forced.output

        # retraining leaves classify holding predictions from the old model
        assert run_copy("train", config=config).exit_code == 0
        stale = run_copy("timeseries", config=config)
        assert stale.exit_code == 2
        assert "'classify' consumed older outputs of 'train'; rerun 'classify'" in stale.output
        forced = run_copy("timeseries", "--force", config=config)
        assert forced.exit_code == 0, forced.output
        assert "warning: stale upstream: 'classify' consumed older" in forced.output

        assert run_copy("classify", config=config).exit_code == 0
        fresh = run_copy("timeseries", config=config)
        assert fresh.exit_code == 0, fresh.output
        assert "warning" not in fresh.output

    def test_edited_upstream_output_is_stale(self, run_copy):
        predictions = run_copy.out / "predictions.csv"
        text = predictions.read_text()
        assert ",positive," in text
        predictions.write_text(text.replace(",positive,", ",negative,", 1))
        result = run_copy("timeseries")
        assert result.exit_code == 2
        assert "stale upstream: predictions.csv changed" in result.output
        forced = run_copy("timeseries", "--force")
        assert forced.exit_code == 0, forced.output
        assert "warning: stale upstream: predictions.csv changed" in forced.output

    @pytest.mark.parametrize(
        "name, row, stage",
        [
            ("opinion_nodes.csv", "u9999,1", "homophily"),
            ("opinion_nodes.csv", "u9999,1,0,0,none", "homophily"),
            ("opinion_nodes.csv", "u9999,x,0,0,positive", "homophily"),
            ("opinion_nodes.csv", "u9999,1,0,0,negative", "homophily"),
            ("predictions.csv", "t9999,bogus,manual,u0001,2009-10-02T08:30:00+00:00,R01",
             "timeseries"),
            ("predictions.csv", "t9999,positive,manual,u0001,2009-10-32T08:30:00+00:00,R01",
             "timeseries"),
            ("predictions.csv", "t9999,positive,manual", "flownet"),
            ("opinion_edges.csv", "u0001,zzz", "homophily"),
        ],
        ids=["nodes-short-row", "nodes-bad-sign", "nodes-non-integer-count",
             "nodes-sign-disagrees-with-counts", "predictions-unknown-label",
             "predictions-bad-timestamp", "predictions-three-field-row",
             "edges-unknown-endpoint"],
    )
    def test_malformed_intermediate_row_is_usage_error_with_location(
        self, run_copy, name, row, stage
    ):
        path = run_copy.out / name
        line = len(path.read_text().splitlines()) + 1
        with open(path, "a") as fh:
            fh.write(row + "\n")
        result = run_copy(stage, "--force")
        assert result.exit_code == 2
        assert f"{name}:{line}: expected " in result.output

    @pytest.mark.parametrize("repeat", [False, True], ids=["self-loop", "repeated-edge"])
    def test_opinion_edge_breaking_the_network_invariant_is_usage_error(self, run_copy, repeat):
        path = run_copy.out / "opinion_edges.csv"
        rows = path.read_text().splitlines()
        source = rows[1].split(",")[0]
        with open(path, "a") as fh:
            fh.write((rows[1] if repeat else f"{source},{source}") + "\n")
        result = run_copy("homophily", "--force")
        assert result.exit_code == 2
        assert f"opinion_edges.csv:{len(rows) + 1}: expected " in result.output

    @pytest.mark.parametrize(
        "name, key, stage",
        [("labels.csv", "labels", "train"), ("coverage.csv", "coverage_table", "timeseries"),
         ("predictions.csv", None, "timeseries"), ("opinion_nodes.csv", None, "homophily")],
    )
    def test_repeated_key_is_usage_error_naming_it(
        self, run_copy, pipeline_dir, tmp_path, name, key, stage
    ):
        config, path = pipeline_dir["config"], run_copy.out / name
        if key:  # an input file: repeat a key in a copy the config names
            path = tmp_path / name
            shutil.copy(pipeline_dir["root"] / "data" / name, path)
            config = tmp_path / "repeat.conf"
            config.write_text(pipeline_dir["config"].read_text() + f"{key} = {path}\n")
        rows = path.read_text().splitlines()
        with open(path, "a") as fh:
            fh.write(rows[1] + "\n")
        result = run_copy(stage, *(() if stage == "train" else ("--force",)), config=config)
        assert result.exit_code == 2
        repeated = rows[1].split(",")[0]
        assert f"{name}:{len(rows) + 1}: repeated " in result.output
        assert f"{repeated!r}" in result.output

    def test_regional_correlation_counts_the_regions_it_used(
        self, run_copy, pipeline_dir, tmp_path
    ):
        rows = (pipeline_dir["root"] / "data" / "coverage.csv").read_text().splitlines()
        assert len(rows) == 11
        partial = tmp_path / "coverage.csv"
        partial.write_text("\n".join(rows[:6]) + "\n")
        config = tmp_path / "partial.conf"
        config.write_text(pipeline_dir["config"].read_text() + f"coverage_table = {partial}\n")
        result = run_copy("timeseries", "--force", config=config)
        assert result.exit_code == 0, result.output
        corr = json.loads((run_copy.out / "regional_correlation.json").read_text())
        assert corr["n_regions"] == 5

    def test_timeseries_failure_is_one_error_line_and_no_manifest(
        self, run_copy, pipeline_dir, tmp_path
    ):
        two_regions = tmp_path / "coverage.csv"
        two_regions.write_text("region,coverage\nR01,0.5\nR02,0.7\n")
        config = tmp_path / "bad.conf"
        config.write_text(pipeline_dir["config"].read_text() + f"coverage_table = {two_regions}\n")
        assert (run_copy.out / "manifest_timeseries.json").exists()
        result = run_copy("timeseries", "--force", config=config)
        assert result.exit_code == 1
        assert "Error: " in result.output
        assert not (run_copy.out / "manifest_timeseries.json").exists()

    @pytest.mark.parametrize("setting, key", [
        ("start_date = 2010-09-01", "start_date 2010-09-01 is after the last labeled tweet"),
        ("end_date = 2000-01-01", "end_date 2000-01-01 is before the first labeled tweet"),
    ])
    def test_date_range_past_the_tweets_is_usage_error_naming_the_key(
        self, run_copy, pipeline_dir, tmp_path, setting, key
    ):
        config = tmp_path / "dates.conf"
        config.write_text(pipeline_dir["config"].read_text() + setting + "\n")
        result = run_copy("timeseries", "--force", config=config)
        assert result.exit_code == 2
        assert key in result.output
        assert not (run_copy.out / "manifest_timeseries.json").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_stall_is_one_error_line_and_no_manifest(self, tmp_path, workers):
        # a 4-node path cannot reach r ~ 0.99 at coverage 1/2; with two
        # workers the stall is raised in a pool process
        net = tmp_path / "path.csv"
        net.write_text("u,v,w\n0,1,90\n1,2,90\n2,3,90\n")
        config = tmp_path / "c.conf"
        config.write_text(
            f"seed = 1\nout = {tmp_path / 'o'}\ncontact_network = {net}\n"
            "coverage = 0.5\nr_grid = 0.99\nruns_per_r = 3\nmax_stall = 300\n"
        )
        result = _run(["sweep", "--config", str(config), "--workers", workers])
        assert result.exit_code == 1
        assert result.output.startswith("Error: ") and "grid point" in result.output
        assert not (tmp_path / "o" / "manifest_sweep.json").exists()

    @pytest.mark.parametrize("stage", ["homophily", "sweep"])
    def test_zero_workers_is_usage_error(self, run_copy, stage):
        result = run_copy(stage, "--workers", "0")
        assert result.exit_code == 2
        assert "--workers" in result.output

    def test_truncated_input_makes_upstream_stale(self, tmp_path):
        data = write_pipeline_fixture(tmp_path / "d", seed=8, n_users=30, n_tweets=200)
        config = tmp_path / "c.conf"
        config.write_text(
            f"seed = 1\nout = {tmp_path / 'o'}\ntweets = {data['tweets']}\n"
            f"labels = {data['labels']}\ntest_split = 0\nmaxent_max_iter = 60\n"
        )
        for stage in ("train", "classify"):
            assert _run([stage, "--config", str(config)]).exit_code == 0
        lines = data["tweets"].read_text().splitlines(keepends=True)
        data["tweets"].write_text("".join(lines[:100]))
        result = _run(["timeseries", "--config", str(config)])
        assert result.exit_code == 2
        assert "stale upstream" in result.output

    def test_an_edited_tweet_file_makes_timeseries_and_flownet_stale(
        self, run_copy, pipeline_dir, tmp_path
    ):
        # Neither stage reads the tweet file; classify's manifest, which
        # does, still ties their predictions to it.
        tweets = tmp_path / "tweets.jsonl"
        shutil.copy(pipeline_dir["root"] / "data" / "tweets.jsonl", tweets)
        config = tmp_path / "c.conf"
        config.write_text(pipeline_dir["config"].read_text() + f"tweets = {tweets}\n")
        for stage in ("timeseries", "flownet"):
            assert run_copy(stage, config=config).exit_code == 0
            manifest = json.loads((run_copy.out / f"manifest_{stage}.json").read_text())
            assert "tweets" not in manifest["reads"]
        tweets.write_text("".join(tweets.read_text().splitlines(keepends=True)[:-1]))
        for stage in ("timeseries", "flownet"):
            result = run_copy(stage, config=config)
            assert result.exit_code == 2
            assert "stale upstream: 'classify' read a different tweets" in result.output

    def test_timeseries_and_flownet_parse_no_tweets(self, tmp_path, monkeypatch):
        data, config = _small_run(tmp_path, seed=6)
        config.write_text(config.read_text() + f"followers = {data['followers']}\n"
                          f"friends = {data['friends']}\n")
        with open(data["tweets"], "a") as fh:
            fh.write("not json\n")
        for stage in ("train", "classify"):
            result = _run([stage, "--config", str(config)])
            assert result.exit_code == 0, result.output
            assert "skipped 1 malformed tweet line(s)" in result.output

        def refuse(lines):
            raise AssertionError("parse_tweets called")

        monkeypatch.setattr("sentepi.corpus.parse_tweets", refuse)
        for stage in ("timeseries", "flownet"):
            result = _run([stage, "--config", str(config)])
            assert result.exit_code == 0, result.output
            assert "skipped" not in result.output

    def test_labeled_tweets_are_the_parsed_tweets_without_their_text(self, tmp_path):
        from sentepi.corpus import SentimentLabel, parse_tweets

        data, config = _small_run(tmp_path, seed=6)
        with open(data["tweets"], "a") as fh:  # no region, and a blank one
            fh.write('{"id": "tx", "user_id": "u1", "timestamp": "2009-10-02T10:30:00.25+02:00", '
                     '"text": "flu shot today"}\n'
                     '{"id": "ty", "user_id": "u2", "timestamp": "2009-10-03T08:30:00", '
                     '"text": "no vaccine for me", "region": " "}\n')
        for stage in ("train", "classify"):
            assert _run([stage, "--config", str(config)]).exit_code == 0
        with open(data["tweets"], encoding="utf-8") as fh:
            tweets, _ = parse_tweets(fh)
        rows = (tmp_path / "o" / "predictions.csv").read_text().splitlines()[1:]
        labeled = cli._labeled_tweets(load_config(config, {}))
        assert labeled == [(replace(t, text=""), SentimentLabel(row.split(",")[1]))
                           for t, row in zip(tweets, rows, strict=True)]
        assert labeled[-2][0].region is labeled[-1][0].region is None

    @pytest.mark.parametrize("row, line", [
        ("1,2", 3), ("1,x,120", 3), ("0,1,120,7", 3),
        ("1,2,50", 3), ("2,2,120", 3), ("1,0,120", 3), ("-1,2,120", 3),
    ])
    def test_malformed_network_row_is_usage_error_with_location(self, tmp_path, row, line):
        net = tmp_path / "net.csv"
        net.write_text(f"u,v,w\n0,1,120\n{row}\n")
        config = tmp_path / "c.conf"
        config.write_text(
            f"seed = 1\nout = {tmp_path / 'o'}\ncontact_network = {net}\n"
            "r_grid = 0\nruns_per_r = 1\n"
        )
        result = _run(["sweep", "--config", str(config)])
        assert result.exit_code == 2
        assert f"net.csv:{line}:" in result.output

    def test_header_only_network_is_usage_error_with_location(self, tmp_path):
        net = tmp_path / "net.csv"
        net.write_text("u,v,w\n")
        config = tmp_path / "c.conf"
        config.write_text(
            f"seed = 1\nout = {tmp_path / 'o'}\ncontact_network = {net}\n"
            "r_grid = 0\nruns_per_r = 1\n"
        )
        result = _run(["sweep", "--config", str(config)])
        assert result.exit_code == 2
        assert "net.csv:2: expected 3 integer fields u,v,w, got end of file" in result.output


class TestSeedOverride:
    def test_flag_overrides_file(self, tmp_path):
        data = write_pipeline_fixture(tmp_path / "d", seed=9, n_users=30, n_tweets=200)
        out = tmp_path / "o"
        config = tmp_path / "c.conf"
        config.write_text(
            f"seed = 1\nout = {out}\ntweets = {data['tweets']}\n"
            f"labels = {data['labels']}\ntest_split = 0\nmaxent_max_iter = 60\n"
        )
        assert _run(["train", "--config", str(config), "--seed", "77"]).exit_code == 0
        manifest = json.loads((out / "manifest_train.json").read_text())
        assert manifest["seed"] == 77


class TestLogLevel:
    def _train_with_a_bad_line(self, tmp_path, *flags):
        data, config = _small_run(tmp_path, seed=6)
        with open(data["tweets"], "a") as fh:
            fh.write("not json\n")
        result = _run([*flags, "train", "--config", str(config)])
        assert result.exit_code == 0, result.output
        assert "skipped 1 malformed tweet line(s)" in result.stdout
        return f"{data['tweets']}:81: invalid JSON (Expecting value), skipped", result

    def test_the_default_level_writes_the_warning_and_no_info(self, tmp_path):
        warning, result = self._train_with_a_bad_line(tmp_path)
        assert result.stderr == warning + "\n"

    @pytest.mark.parametrize(
        "flags", [["-v"], ["-vv"], ["--log-level", "INFO"], ["--log-level", "error", "-vv"]]
    )
    def test_verbose_levels_add_the_maxent_line(self, tmp_path, flags):
        warning, result = self._train_with_a_bad_line(tmp_path, *flags)
        maxent = re.search(r"maxent converged after \d+ iterations", result.stdout).group()
        assert result.stderr == f"{warning}\n{maxent}\n"

    def test_the_error_level_drops_the_warning_but_not_the_count(self, tmp_path):
        _, result = self._train_with_a_bad_line(tmp_path, "--log-level", "error")
        assert result.stderr == ""

    def test_runs_in_one_process_share_one_handler(self, tmp_path):
        _, first = self._train_with_a_bad_line(tmp_path, "-v")
        _, second = self._train_with_a_bad_line(tmp_path / "again", "-v")
        assert second.stderr.splitlines()[1:] == first.stderr.splitlines()[1:]
        [handler] = logging.getLogger("sentepi").handlers
        assert isinstance(handler, cli._StderrHandler)


_STAGE_MODULES = {
    f"sentepi.{name}" for name in ("classify", "epi", "flownet", "homophily", "synthetic", "timeseries")
}


def _imported_modules(*args):
    """The modules a fresh ``python -X importtime *args`` process imports."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


def _scipy(modules):
    return [m for m in modules if m.split(".")[0] == "scipy"]


def test_importing_the_cli_loads_no_numpy_scipy_or_stage_module():
    # Each stage body imports its own modules; importing the CLI loads none,
    # and neither numpy nor any scipy module, so --version and usage errors
    # pay for neither.
    modules = _imported_modules("-c", "import sentepi.cli")
    assert "sentepi.cli" in modules
    assert "numpy" not in modules
    assert not _scipy(modules)
    assert not _STAGE_MODULES.intersection(modules)


@pytest.mark.parametrize("stage", ["classify", "timeseries"])
def test_classify_and_timeseries_processes_load_no_scipy_sparse_or_special(
    run_copy, pipeline_dir, stage
):
    # Only train loads scipy (scipy.sparse, for the MaxEnt fit).
    modules = _imported_modules(
        "-m", "sentepi.cli", stage, "--config", str(pipeline_dir["config"]),
        "--out", str(run_copy.out),
    )
    assert f"sentepi.{stage}" in modules
    assert not _scipy(modules)


def test_importing_stats_loads_no_numpy_or_process_pool():
    modules = _imported_modules("-c", "import sentepi.stats")
    assert "sentepi.stats" in modules
    assert not {"numpy", "concurrent.futures"}.intersection(modules)


@pytest.mark.parametrize(
    "stage, libraries",
    [("train", {"numpy", "scipy"}), ("classify", {"numpy"}), ("timeseries", set()),
     ("flownet", set()), ("homophily", {"numpy"}), ("gen-net", set()), ("sweep", {"numpy"})],
    ids=["train", "classify", "timeseries", "flownet", "homophily", "gen-net", "sweep"],
)
def test_a_manifest_records_the_versions_of_the_libraries_its_stage_uses(
    run_copy, pipeline_dir, finished_out, stage, libraries
):
    modules = _imported_modules(
        "-m", "sentepi.cli", stage, "--config", str(pipeline_dir["config"]),
        "--out", str(run_copy.out),
    )
    assert bool(_scipy(modules)) == ("scipy" in libraries)
    assert ("numpy" in modules) == ("numpy" in libraries)
    loads_corpus = stage in {"train", "classify", "timeseries", "flownet"}
    assert ("sentepi.corpus" in modules) == ("sentepi.stemming" in modules) == loads_corpus
    assert "concurrent.futures.process" not in modules  # none of these stages runs a pool
    manifest = (run_copy.out / f"manifest_{stage}.json").read_bytes()
    assert set(json.loads(manifest)["versions"]) == {"sentepi", "python", *libraries}
    # A fresh process writes the bytes of the in-process run, which ran train first.
    assert manifest == (finished_out / f"manifest_{stage}.json").read_bytes()
