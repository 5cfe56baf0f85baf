"""Command line behavior: artifacts, overrides, and exit codes."""

import json
import os

import numpy as np
import pytest

from mimoloc import cli
from mimoloc.cli import main
from mimoloc.experiment import (
    LOCALIZERS,
    PREDICTORS,
    ExperimentConfig,
    load_config,
    run_experiment,
    save_config,
)
from mimoloc.fingerprint import load_db
from mimoloc.neural import load_model
from mimoloc.predictor import ConvRecurrentPredictor, load_predictor

TINY = dict(
    environment="sparse",
    grid_origin=(2.0, -2.0),
    grid_spacing=0.25,
    grid_rows=5,
    grid_cols=5,
    n_sequences=3,
    sequence_length=6,
    distort_from=3,
    train_epochs=40,
    predictor_epochs=3,
    predictor_train_walks=4,
    seed=0,
)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    save_config(ExperimentConfig(**TINY), path)
    return str(path)


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_build_world_writes_the_trained_world(config_path, tmp_path, capsys,
                                              predictor):
    # build-world trains what run_experiment trains, to the last float32
    # bit a checkpoint keeps, and writes the config it was given
    out = str(tmp_path / "out")
    assert main(["build-world", "--config", config_path, "--out", out,
                 "--predictor", predictor]) == 0
    printed = capsys.readouterr().out
    config = ExperimentConfig(**TINY, predictor=predictor)
    world = run_experiment(config).world
    assert load_config(out + "/config.json") == config
    # exactly the artifacts the README lists: no sidecar beside db.adpf
    assert sorted(os.listdir(out)) == sorted(
        ["config.json", "db.adpf", "localizer_classifier-wknn.ckpt",
         "localizer_regressor.ckpt", "thresholds.json"]
        + ["predictor.ckpt"] * (predictor == "conv-recurrent"))

    db = load_db(out + "/db.adpf")
    assert len(db.positions) == 25
    assert "25 fingerprints" in printed
    for name, kind in zip(LOCALIZERS, ("regression", "classification")):
        model = load_model(f"{out}/localizer_{name}.ckpt")
        assert model.head.kind == kind
        _assert_float32_equal(model, world.localizers[name].model)
    if predictor == "conv-recurrent":
        saved = load_predictor(out + "/predictor.ckpt")
        assert isinstance(saved, ConvRecurrentPredictor)
        _assert_float32_equal(saved, world.predictor)
    assert printed.count("final loss") == 2 + (predictor == "conv-recurrent")

    payload = json.loads((tmp_path / "out" / "thresholds.json").read_text())
    assert payload == {"similarity_floor": world.similarity_floor}
    assert 0.0 < payload["similarity_floor"] <= 1.0


def _assert_float32_equal(saved, trained):
    params = trained.parameters()
    assert len(saved.parameters()) == len(params)
    for p, q in zip(saved.parameters(), params):
        assert p.dtype == q.dtype == np.float32
        assert np.array_equal(p, q)


def test_run_and_report(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", config_path, "--out", out]) == 0
    run_output = capsys.readouterr().out
    assert "median distorted-frame rmse" in run_output
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["scenario"] == "los-block"

    assert main(["report", "--out", out]) == 0
    assert "dynamic" in capsys.readouterr().out


def test_seed_override_lands_in_report(config_path, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", "--config", config_path, "--out", out,
                 "--seed", "9"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["seed"] == 9


@pytest.mark.parametrize("content", [
    json.dumps({"scenario": "jamming"}).encode(),
    json.dumps({"grid_origin": 5}).encode(),
    json.dumps({"grid_origin": ["a", "b"]}).encode(),
    json.dumps({"n_sequences": "abc"}).encode(),
    b'{"scenario": "los-block\xff"}',  # not UTF-8
    None,  # a directory, not a file
    json.dumps({"environment": "ENV_DIR"}).encode(),
    json.dumps({"environment": "ENV_NOT_UTF8"}).encode(),
    b'{"scenario": "nlos-add", "addition_level_db": NaN}',
    b'{"addition_level_db": -Infinity}',
    b'{"scenario": "nlos-add", "addition_level_db": 1e5}',
    b'{"scenario": "nlos-add", "addition_level_db": 1000}',
    b'{"grid_origin": [NaN, 0]}',
    b'{"grid_origin": [0, 1e400]}',  # json.load reads 1e400 as inf
    b'{"grid_origin": [0, 1' + b"0" * 400 + b']}',  # too large for a float
    b'{"grid_spacing": 1e308, "grid_rows": 3}',  # positions overflow
    json.dumps({"predictor": "conv-recurrent", "sequence_length": 1,
                "distort_from": 0}).encode(),
], ids=["unknown-scenario", "number-origin", "text-origin", "text-count",
        "not-utf8", "directory", "environment-directory",
        "environment-not-utf8", "nan-level", "infinite-level",
        "overflowing-level", "infinite-profile-level", "nan-origin",
        "overflowing-origin", "huge-int-origin", "overflowing-extent",
        "one-frame-recurrent"])
def test_bad_config_exits_2(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        # the environment is a directory, or a file that is not UTF-8
        (tmp_path / "env-dir").mkdir()
        (tmp_path / "env.txt").write_bytes(b"\xff\xfe bs_position = 0 0\n")
        path.write_bytes(
            content.replace(b"ENV_DIR", str(tmp_path / "env-dir").encode())
            .replace(b"ENV_NOT_UTF8", str(tmp_path / "env.txt").encode()))
    assert main(["build-world", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_run_prints_what_report_prints(tmp_path, capsys, monkeypatch):
    # the run's summary is read back from its report.json, so an undefined
    # precision prints as the report command prints it
    out = str(tmp_path / "out")

    def run_experiment(config, out_dir, log):
        os.makedirs(out_dir, exist_ok=True)
        report = {
            "config": config.to_dict(),
            "detection": {"tp": 0, "fp": 0, "fn": 2, "tn": 7,
                          "precision": None, "recall": 0.0},
            "median_distorted_rmse_m": {"dynamic": 1.25},
            "runtime_seconds": 3.0,
        }
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(report, fh)

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    cli.cmd_run(ExperimentConfig(**TINY), out)
    run_output = capsys.readouterr().out
    assert "precision=n/a recall=0.000" in run_output
    assert main(["report", "--out", out]) == 0
    assert run_output == (f"report written to {out}\n"
                          + capsys.readouterr().out)


@pytest.mark.parametrize("content,message", [
    (None, "missing file"),
    (b"{not json", "not JSON"),
    (b'"\xff"', "not JSON"),  # not UTF-8
    (json.dumps({"config": {"seed": 0}}).encode(), "not a run report"),
    (b"[]", "not a run report"),
], ids=["missing", "not-json", "not-utf8", "no-detection", "not-an-object"])
def test_missing_report_exits_3(tmp_path, capsys, content, message):
    out = tmp_path / "out"
    if content is not None:
        out.mkdir()
        (out / "report.json").write_bytes(content)
    assert main(["report", "--out", str(out)]) == 3
    assert message in capsys.readouterr().err


def test_bad_environment_file_is_named(tmp_path, capsys):
    env = tmp_path / "office.env"
    env.write_text("bs_position = 0 0\nreflector = 0 6 17 6 nan\n")
    path = tmp_path / "config.json"
    save_config(ExperimentConfig(**dict(TINY, environment=str(env))), path)
    assert main(["build-world", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"environment {env}: line 2: non-finite value" in err


@pytest.mark.parametrize("case", ["out-is-a-file", "report-is-a-directory",
                                  "report-out-is-a-file"])
def test_file_system_error_exits_3(config_path, tmp_path, capsys, case):
    out = tmp_path / "out"
    if case == "report-is-a-directory":
        (out / "report.json").mkdir(parents=True)
    else:
        out.write_text("not a directory\n")
    if case == "out-is-a-file":
        argv = ["build-world", "--config", config_path, "--out", str(out)]
    else:
        argv = ["report", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_unknown_flag_exits_2(config_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", config_path, "--grid", "40"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    # walks are not written to disk: evaluation_walks(config) yields them
    "gen-sequences",
    # build-world writes what these wrote, trained in the helpers
    "build-db", "train-localizer", "train-predictor", "calibrate-thresholds",
])
def test_removed_subcommand_is_gone(config_path, tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config_path,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
