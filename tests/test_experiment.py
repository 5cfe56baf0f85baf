"""Harness tests: metrics, config round-trips, and small end-to-end runs."""

import contextlib
import dataclasses
import json
import os
import signal
import subprocess
import time

import numpy as np
import oracles
import pytest
from oracles import baseline_track

from mimoloc import experiment, pipeline
from mimoloc.channel import Environment, Reflector, format_environment
from mimoloc.cli import main as cli_main
from mimoloc.dynamics import WalkMode, generate_sequence, random_walk
from mimoloc.errors import (
    ConfigError,
    DimensionMismatch,
    DivergedLoss,
    EmptyNeighborhood,
    HelperFailed,
    ZeroAdp,
)
from mimoloc.experiment import (
    METHODS,
    SCENARIOS,
    ExperimentConfig,
    _hold,
    build_world,
    config_from_dict,
    emit_report,
    environment_for,
    evaluate,
    evaluation_walks,
    load_config,
    pieces,
    rich_environment,
    rmse_per_frame,
    run_experiment,
    save_config,
    sparse_environment,
)
from mimoloc.fingerprint import FingerprintDb, build_db
from mimoloc.helper import Helper, collect, serve
from mimoloc.neural import (
    ClassifierGrid,
    ClassifierWknnLocalizer,
    Head,
    TrainConfig,
    build_model,
    classify_then_wknn,
    default_localizer_spec,
    forward,
    train,
)
from mimoloc.predictor import (
    ConvRecurrentPredictor,
    train_predictor,
)

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
    seed=0,
)


class TestRmsePerFrame:
    def test_exact_estimates_give_zero(self):
        assert np.array_equal(rmse_per_frame(np.zeros((4, 7))), np.zeros(7))

    def test_three_four_five(self):
        errors = np.array([[0.0, 5.0, 0.0]])
        assert rmse_per_frame(errors)[1] == 5.0

    def test_two_sequences_mix(self):
        errors = np.array([[0.0], [5.0]])
        assert np.isclose(rmse_per_frame(errors)[0], np.sqrt(12.5))

    def test_needs_a_matrix(self):
        with pytest.raises(DimensionMismatch):
            rmse_per_frame(np.array([1.0, 2.0]))


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(**TINY)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(scenario="nlos-add", seed=7)
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self):
        data = ExperimentConfig().to_dict()
        data["grid_size"] = 40
        with pytest.raises(ConfigError):
            config_from_dict(data)

    @pytest.mark.parametrize("field,value", [
        ("scenario", "jamming"),
        ("localizer", "oracle"),
        ("predictor", "kalman"),
        ("environment", "downtown"),
        ("n_sequences", 0),
        ("grid_spacing", 0.0),
        ("train_learning_rate", -0.1),
        ("distort_from", -1),
        ("grid_origin", (1.0, 2.0, 3.0)),
        ("distort_from", ExperimentConfig().sequence_length),
        ("n_sequences", "abc"),
        ("grid_origin", 5),
        ("wavelength", None),
        ("n_sequences", 2.5),
        ("n_sequences", True),
        ("seed", -1),
        ("addition_level_db", float("nan")),
        ("addition_level_db", float("inf")),
        ("grid_origin", (float("nan"), 0.0)),
        ("grid_origin", (0.0, -float("inf"))),
        ("grid_origin", (10 ** 400, 0)),
        ("addition_level_db", 1e5),
    ])
    def test_bad_field_rejected(self, field, value):
        cfg = ExperimentConfig(**{field: value})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_addition_level_of_100_db_accepted(self):
        cfg = ExperimentConfig(**dict(TINY, scenario="nlos-add",
                                      addition_level_db=100.0))
        cfg.validate()
        for seq in evaluation_walks(cfg):
            assert np.isfinite(seq.adps).all() and seq.distorted.any()

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_environment_presets(self):
        assert len(environment_for(ExperimentConfig()).reflectors) == 1
        rich = ExperimentConfig(environment="rich")
        assert len(environment_for(rich).reflectors) >= 8

    def test_environment_from_file(self, tmp_path):
        env = Environment(bs_position=(1.0, 2.0),
                          reflectors=(Reflector((0.0, 5.0), (8.0, 5.0), 0.7),))
        path = tmp_path / "office.env"
        path.write_text(format_environment(env), encoding="utf-8")
        cfg = ExperimentConfig(environment=str(path))
        cfg.validate()
        loaded = environment_for(cfg)
        assert loaded.bs_position == (1.0, 2.0)
        assert len(loaded.reflectors) == 1

    def test_preset_environments_differ_in_richness(self):
        assert (len(rich_environment().reflectors)
                > len(sparse_environment().reflectors))


@pytest.fixture(scope="module")
def smoke_result():
    return run_experiment(ExperimentConfig(scenario="los-block", **TINY))


@pytest.fixture(scope="module")
def clean_result():
    return run_experiment(ExperimentConfig(scenario="none", **TINY))


class TestRunExperiment:
    def test_smoke_produces_all_methods(self, smoke_result):
        assert set(smoke_result.errors) == set(METHODS)
        for method in METHODS:
            errs = smoke_result.errors[method]
            assert errs.shape == (3, 6)
            assert np.all(np.isfinite(errs))
            assert np.all(errs >= 0.0)
            assert smoke_result.rmse(method).shape == (6,)

    def test_scores_the_walks_of_evaluation_walks(self, smoke_result):
        walks = list(evaluation_walks(smoke_result.config))
        assert np.array_equal(np.stack([w.positions for w in walks]),
                              smoke_result.truths)
        assert np.array_equal(np.stack([w.distorted for w in walks]),
                              smoke_result.distorted)
        assert [w.mode for w in walks] == smoke_result.modes

    def test_walk_modes_split(self, smoke_result):
        modes = smoke_result.modes
        assert modes.count(WalkMode.MODE1) == 1
        assert modes.count(WalkMode.MODE2) == 2

    def test_distorted_mask_matches_onset(self, smoke_result):
        assert not smoke_result.distorted[:, :3].any()
        assert smoke_result.distorted[:, 3:].all()

    def test_detection_counts_are_consistent(self, smoke_result):
        tp, fp, fn, tn = smoke_result.detection_counts()
        assert tp + fn == int(smoke_result.distorted.sum())
        assert tp + fp + fn + tn == smoke_result.distorted.size

    def test_clean_scenario_flags_nothing(self, clean_result):
        assert not clean_result.distorted.any()
        assert not clean_result.flagged.any()

    def test_clean_scenario_pipeline_is_pass_through(self, clean_result):
        assert np.array_equal(clean_result.errors["dynamic"],
                              clean_result.errors["regressor"])

    def test_distorted_errors_flatten(self, smoke_result):
        assert smoke_result.distorted_errors("dynamic").shape == (9,)

    @pytest.mark.parametrize("localizer", ["regressor", "classifier-wknn"])
    def test_baselines_equal_a_second_localization(self, monkeypatch,
                                                   localizer):
        # the dynamic head's baseline reuses detection's fixes; it must be
        # the track a second pass of the same localizer gives
        walks = []

        def run_sequence(adps_of_walks, *args, **kwargs):
            for adps in adps_of_walks:
                adps[2] = 0.0  # a lost link mid-walk: the baseline holds
                walks.append(adps.copy())
            return pipeline.run_sequence(adps_of_walks, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_sequence", run_sequence)
        result = run_experiment(ExperimentConfig(
            scenario="los-block", **dict(TINY, localizer=localizer)))
        assert result.flagged[:, 2].all()  # a lost link is flagged
        x0, y0, x1, y1 = result.world.db.grid.extent()
        center = ((x0 + x1) / 2.0, (y0 + y1) / 2.0)
        for name, loc in result.world.localizers.items():
            for i, adps in enumerate(walks):
                track = baseline_track(loc, adps, center)
                assert np.array_equal(
                    np.linalg.norm(track - result.truths[i], axis=1),
                    result.errors[name][i])


def toy_localizer(frames):
    """A stack localizer whose fix of a frame depends on that frame alone."""
    return np.stack([frames[:, 0, 0], frames.sum(axis=(1, 2))], axis=1)


class TestHold:
    """A static baseline's track, held over lost links, as one frame-by-
    frame pass of the same localizer gives it."""

    FALLBACK = np.array([-1.5, 2.5])

    @pytest.mark.parametrize("lost", [
        [], [0, 1], [2, 4], [5], [0, 1, 2, 3, 4, 5]],
        ids=["no-gaps", "leading-gaps", "middle-gaps", "trailing-gap",
             "all-lost"])
    def test_equals_frame_by_frame_hold(self, lost):
        adps = np.random.default_rng(len(lost)).random((6, 3, 4)) + 0.5
        adps[lost] = 0.0
        track = _hold(pipeline.locate_each(toy_localizer, adps)[None],
                      self.FALLBACK)
        assert track.shape == (1, 6, 2)
        want = baseline_track(lambda adp: toy_localizer(adp[None])[0],
                              adps, self.FALLBACK)
        assert np.array_equal(track[0], want)

    def test_walks_are_held_apart(self):
        fixes = np.full((2, 3, 2), np.nan)
        fixes[0, 0] = (1.0, 2.0)  # walk 0 has a fix before walk 1 has any
        fixes[1, 2] = (3.0, 4.0)
        track = _hold(fixes, self.FALLBACK)
        assert np.array_equal(track[0], [[1.0, 2.0]] * 3)
        assert np.array_equal(track[1], [self.FALLBACK, self.FALLBACK,
                                         (3.0, 4.0)])


@pytest.fixture(scope="module")
def tiny_world():
    return build_world(ExperimentConfig(**TINY))


def assert_same_run(got, want):
    assert got.config == want.config
    assert got.modes == want.modes
    for name in ("truths", "flagged", "distorted"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert set(got.errors) == set(want.errors)
    for method, errors in want.errors.items():
        assert np.array_equal(got.errors[method], errors), method


class TestWorld:
    """One world serves every scenario, as a fresh run of each would."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_evaluate_equals_run_experiment(self, tiny_world, scenario):
        want = run_experiment(ExperimentConfig(**dict(TINY,
                                                      scenario=scenario)))
        assert_same_run(evaluate(tiny_world, scenario), want)

    def test_second_evaluation_is_the_same(self, tiny_world):
        # the peak tracker and the localizers carry nothing from one
        # evaluation over to the next
        first = evaluate(tiny_world, "nlos-add")
        assert_same_run(evaluate(tiny_world, "nlos-add"), first)

    def test_predictor_only_without_predictions_is_dynamic(self,
                                                           tiny_world):
        # with every prediction empty, recovery fuses database entries
        # alone and the predictive arm answers with the pipeline estimate
        world = dataclasses.replace(
            tiny_world, predictor=lambda h: np.zeros_like(h[:, -1]))
        result = evaluate(world, "los-block")
        assert result.flagged.any()
        assert np.array_equal(result.errors["predictor-only"],
                              result.errors["dynamic"])

    def test_runtime_counts_the_build(self, tiny_world):
        result = evaluate(tiny_world, "none")
        assert result.world is tiny_world
        assert result.runtime_seconds >= tiny_world.build_seconds > 0.0

    def test_unknown_scenario_rejected(self, tiny_world):
        with pytest.raises(ConfigError):
            evaluate(tiny_world, "jamming")


@pytest.fixture(scope="module")
def recurrent_world():
    return build_world(ExperimentConfig(**dict(
        TINY, predictor="conv-recurrent", predictor_epochs=3,
        predictor_train_walks=4)))


class TestLockstep:
    """Every walk of a scenario, stepped together in a trained world, gets
    the estimates it gets alone."""

    @pytest.mark.parametrize("localizer", ["regressor", "classifier-wknn"])
    @pytest.mark.parametrize("predictor", ["peak-track", "conv-recurrent"])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_equals_one_walk_at_a_time(self, tiny_world, recurrent_world,
                                       scenario, predictor, localizer):
        world = tiny_world if predictor == "peak-track" else recurrent_world
        config = dataclasses.replace(world.config, scenario=scenario)
        walks = [seq.adps for seq in evaluation_walks(config)]
        assert len(walks) >= 3
        args = (world.localizers[localizer], world.db, world.thresholds,
                world.predictor)
        est = pipeline.run_sequence(walks, *args)
        source = oracles.sources(est)
        measured = source == "measured"
        assert np.array_equal(est.position[measured],
                              est.measured_position[measured])
        if scenario == "none":
            assert measured.all()
        reference = (reference_localizer(world, localizer),) + args[1:]
        for i, adps in enumerate(walks):
            oracles.assert_same_estimates(
                oracles.walk_of(est, i),
                oracles.run_sequence(adps, *reference))

    @pytest.mark.parametrize("localizer", ["regressor", "classifier-wknn"])
    def test_lost_link_mid_walk(self, tiny_world, localizer):
        config = dataclasses.replace(tiny_world.config, scenario="nlos-add")
        walks = [np.array(seq.adps) for seq in evaluation_walks(config)]
        walks[1][3] = 0.0
        args = (tiny_world.db, tiny_world.thresholds, tiny_world.predictor)
        est = pipeline.run_sequence(
            walks, tiny_world.localizers[localizer], *args)
        lost = pipeline.VERDICTS.index(pipeline.Verdict.LOST_LINK)
        assert est.verdict[1, 3] == lost
        for i, adps in enumerate(walks):
            oracles.assert_same_estimates(
                oracles.walk_of(est, i), oracles.run_sequence(
                    adps, reference_localizer(tiny_world, localizer), *args))


def reference_localizer(world, name):
    """The world's localizer, refining one profile at a time with the
    reference ``classify_then_wknn`` when it is the classifier."""
    localizer = world.localizers[name]
    if name == "classifier-wknn":
        return oracles.ReferenceWknnLocalizer(localizer)
    return localizer


def scenario_frames(world):
    """Every frame with energy of every scenario's walks in ``world``."""
    frames = np.concatenate([
        seq.adps for scenario in SCENARIOS for seq in evaluation_walks(
            dataclasses.replace(world.config, scenario=scenario))])
    return frames[frames.any(axis=(1, 2))]


def same_fields(got, want):
    assert type(got) is type(want)
    for name, a, b in zip(want._fields, got, want):
        assert np.array_equal(a, b), name


class TestStackedScoring:
    """The stacked database scoring of detection, recovery, calibration
    and the classifier's refinement gives, field by field, what the
    one-frame references in ``oracles`` give, errors included."""

    def test_calibration(self, tiny_world):
        rich = experiment.database_for(ExperimentConfig(environment="rich"))
        assert len(rich.positions) == 1600
        for db in (tiny_world.db, rich):
            assert (pipeline.calibrate_similarity_floor(db)
                    == oracles.calibrate_similarity_floor(db))

    def test_detection_and_recovery_of_every_frame(self, tiny_world):
        db, thresholds = tiny_world.db, tiny_world.thresholds
        frames = scenario_frames(tiny_world)
        fixes = tiny_world.localizers["regressor"](frames)
        verdicts, best = pipeline.detect_each(frames, fixes, db, thresholds)
        for i, (frame, fix) in enumerate(zip(frames, fixes)):
            want = oracles.detect_distorted(frame, fix, db, thresholds)
            same_fields(pipeline.detect_distorted(frame, fix, db, thresholds),
                        want)
            assert pipeline.VERDICTS[verdicts[i]] is want.verdict
            assert best[i] == want.best_similarity
            # recover around the fix, fusing the previous frame at the
            # previous fix, and without a prediction
            args = (frames[i - 1], fixes[i - 1], fix, db, thresholds)
            same_fields(pipeline.recover_and_locate(frame, *args),
                        oracles.recover_and_locate(frame, *args))
            args = (frames[i - 1], None, fix, db, thresholds)
            same_fields(pipeline.recover_and_locate(frame, *args),
                        oracles.recover_and_locate(frame, *args))
        redo = np.arange(1, len(frames), 3)
        positions, fused, shares = pipeline.recover_each(
            frames[redo], frames[redo - 1], fixes[redo - 1], fixes[redo],
            db, thresholds)
        for j, i in enumerate(redo):
            want = oracles.recover_and_locate(
                frames[i], frames[i - 1], fixes[i - 1], fixes[i], db,
                thresholds)
            same_fields(pipeline.RecoveryResult(positions[j], fused[j],
                                                shares[j]), want)

    def test_refinement_with_an_empty_cell(self, tiny_world):
        classifier = tiny_world.localizers["classifier-wknn"]
        model, db = classifier.model, tiny_world.db
        frames = scenario_frames(tiny_world)
        picked = np.argmax(forward(model, frames), axis=1)
        usable, cell_of_print = classifier.cells
        emptied = db.adps.copy()
        emptied[usable[cell_of_print == picked[0]]] = 0.0
        for adps in (db.adps, emptied):
            stacked = ClassifierWknnLocalizer(
                model, FingerprintDb(db.grid, db.positions, adps),
                classifier.k)
            reference = oracles.ReferenceWknnLocalizer(stacked)
            assert np.array_equal(stacked(frames), reference(frames))
            fallbacks = 0
            for frame in frames:
                got = classify_then_wknn(model, frame, stacked.db, stacked.k)
                same_fields(got, oracles.classify_then_wknn(
                    model, frame, stacked.db, stacked.k))
                fallbacks += got.used_fallback
            assert fallbacks == (0 if adps is db.adps
                                 else np.count_nonzero(picked == picked[0]))

    def test_lost_link_of_any_shape(self, tiny_world):
        # an all-zero frame is lost before its shape or its fix is read,
        # in a stack as alone; a live frame's prediction must match it
        db, thresholds = tiny_world.db, tiny_world.thresholds
        frame = scenario_frames(tiny_world)[0]
        fix = db.positions[3]
        lost = np.zeros((3, 5))
        for scoring in (pipeline, oracles):
            got = scoring.detect_distorted(lost, None, db, thresholds)
            assert got.verdict is pipeline.Verdict.LOST_LINK
            same_fields(got, pipeline.DetectionResult(got.verdict, 0.0))
            with pytest.raises(DimensionMismatch):
                scoring.recover_and_locate(frame, frame[:-1], fix, fix, db,
                                           thresholds)
        verdicts, best = pipeline.detect_each(
            np.zeros((2, 3, 5)), np.full((2, 2), np.nan), db, thresholds)
        assert verdicts.tolist() == [pipeline.LOST_LINK] * 2
        assert best.tolist() == [0.0, 0.0]
        args = (lost, np.ones((3, 5)), fix, fix, db, thresholds)
        same_fields(pipeline.recover_and_locate(*args),
                    oracles.recover_and_locate(*args))

    def test_world_with_zero_prints(self, tiny_world):
        db = tiny_world.db
        empty = FingerprintDb(db.grid, db.positions, np.zeros_like(db.adps))
        classifier = tiny_world.localizers["classifier-wknn"]
        frames = scenario_frames(tiny_world)[:4]
        thresholds = tiny_world.thresholds
        for scoring, wknn in ((pipeline, classify_then_wknn),
                              (oracles, oracles.classify_then_wknn)):
            with pytest.raises(EmptyNeighborhood):
                scoring.calibrate_similarity_floor(empty)
            with pytest.raises(EmptyNeighborhood):
                scoring.recover_and_locate(frames[1], frames[0], None,
                                           db.positions[3], empty, thresholds)
            with pytest.raises(ZeroDivisionError):
                wknn(classifier.model, frames[0], empty)
            with pytest.raises(ZeroAdp):
                wknn(classifier.model, np.zeros_like(frames[0]), db)
            with pytest.raises(DimensionMismatch):
                scoring.detect_distorted(frames[0][:-1], db.positions[3], db,
                                         thresholds)
        fix = db.positions[3]
        same_fields(
            pipeline.detect_distorted(frames[0], fix, empty, thresholds),
            oracles.detect_distorted(frames[0], fix, empty, thresholds))
        args = (frames[0], fix, fix, empty, thresholds)
        same_fields(pipeline.recover_and_locate(frames[1], *args),
                    oracles.recover_and_locate(frames[1], *args))
        with pytest.raises(ZeroDivisionError):
            ClassifierWknnLocalizer(classifier.model, empty)(frames)


class TestEmitReport:
    def test_report_files(self, smoke_result, tmp_path):
        emit_report(smoke_result, tmp_path)
        rmse_lines = (tmp_path / "rmse.csv").read_text().splitlines()
        assert rmse_lines[0] == "method,frame,rmse_m"
        assert len(rmse_lines) == 1 + len(METHODS) * 6

        by_mode = (tmp_path / "rmse_by_mode.csv").read_text().splitlines()
        assert by_mode[0] == "method,mode,frame,rmse_m"
        assert len(by_mode) == 1 + len(METHODS) * 2 * 6

        for method in METHODS:
            values = [float(line) for line in
                      (tmp_path / f"cdf_{method}.txt").read_text().split()]
            assert values == sorted(values)
            assert len(values) == 9

        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"] == smoke_result.config.to_dict()
        assert set(report["median_distorted_rmse_m"]) == set(METHODS)
        assert report["runtime_seconds"] > 0.0

    def test_undefined_ratios_are_null_in_strict_json(self, clean_result,
                                                      tmp_path, capsys):
        # nothing distorted and nothing flagged: precision and recall are
        # ratios over empty sets
        emit_report(clean_result, tmp_path)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads((tmp_path / "report.json").read_text(),
                            parse_constant=reject)
        assert report["detection"]["precision"] is None
        assert report["detection"]["recall"] is None
        assert cli_main(["report", "--out", str(tmp_path)]) == 0
        assert "precision=n/a recall=n/a" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(scenario="nlos-block", **TINY)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        run_experiment(cfg, out_dir=dir_a)
        run_experiment(cfg, out_dir=dir_b)
        names = sorted(os.listdir(dir_a))
        assert names == sorted(os.listdir(dir_b))
        for name in names:
            if name == "report.json":
                a = json.loads((dir_a / name).read_text())
                b = json.loads((dir_b / name).read_text())
                a.pop("runtime_seconds")
                b.pop("runtime_seconds")
                assert a == b
            else:
                assert ((dir_a / name).read_bytes()
                        == (dir_b / name).read_bytes())


def train_in_process(config):
    """The models and loss curves of a run, trained here, one at a time.

    Regressor at the config seed, classifier at seed + 1, and the
    recurrent predictor on clean walks seeded [seed, 9_000_000 + i].
    """
    env, array, ofdm, grid, dft = pieces(config)
    db = build_db(env, grid, array, ofdm, dft, seed=config.seed)
    cells = ClassifierGrid(config.classifier_cells, config.classifier_cells)
    models, curves = {}, {}
    for name, head, seed in (
            ("regressor", Head("regression"), config.seed),
            ("classifier-wknn", Head("classification", cells),
             config.seed + 1)):
        model = build_model(default_localizer_spec(db.n_t, db.n_c, head),
                            (1, db.n_t, db.n_c), head, seed=seed,
                            normalize_input=True)
        curves[name] = train(model, db, TrainConfig(
            epochs=config.train_epochs,
            learning_rate=config.train_learning_rate, seed=seed))
        models[name] = model
    curves["predictor"] = []
    if config.predictor == "conv-recurrent":
        clean = []
        for i in range(config.predictor_train_walks):
            mode = WalkMode.MODE1 if i % 2 == 0 else WalkMode.MODE2
            walk = random_walk(grid, mode, config.sequence_length,
                               [config.seed, 9_000_000 + i])
            clean.append(generate_sequence(env, walk, None, 0, array, ofdm,
                                           dft).adps)
        models["predictor"] = ConvRecurrentPredictor(db.n_t, db.n_c,
                                                     seed=config.seed)
        curves["predictor"] = train_predictor(
            models["predictor"], clean, TrainConfig(
                epochs=config.predictor_epochs, batch_size=8,
                learning_rate=0.2, seed=config.seed))
    return models, curves


class TestHelpers:
    """Training runs in helper processes; the caller sees the same run."""

    @pytest.mark.parametrize("predictor", ["peak-track", "conv-recurrent"])
    def test_run_equals_in_process_training(self, predictor):
        config = ExperimentConfig(
            scenario="los-block", predictor=predictor, predictor_epochs=3,
            predictor_train_walks=4, **TINY)
        environ = dict(os.environ)
        result = run_experiment(config)
        assert dict(os.environ) == environ
        models, curves = train_in_process(config)
        assert result.world.train_losses == curves
        for name, localizer in result.world.localizers.items():
            got, want = localizer.model, models[name]
            for p, q in zip(got.parameters(), want.parameters()):
                assert np.array_equal(p, q)
            assert np.array_equal(got.pos_offset, want.pos_offset)
            assert np.array_equal(got.pos_scale, want.pos_scale)
        if predictor == "conv-recurrent":
            got, want = result.world.predictor, models["predictor"]
            assert got.scale == want.scale
            for p, q in zip(got.parameters(), want.parameters()):
                assert np.array_equal(p, q)

    def test_diverged_training_raises_in_the_caller(self):
        with pytest.raises(DivergedLoss):
            run_experiment(ExperimentConfig(**dict(TINY,
                                                   train_learning_rate=1e6)))

    def test_helper_runs_with_one_blas_thread(self):
        environ = dict(os.environ)
        with Helper() as helper:
            helper.send([(os.getenv, (name,)) for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")])
            assert collect([helper]) == [["1", "1", "1"]]
        assert dict(os.environ) == environ

    def test_helper_refuses_another_package_tree(self, capsys):
        # a helper that imported mimoloc from elsewhere (say, a copy in
        # its working directory) would train with other sources
        assert serve(os.path.join("elsewhere", "src")) == 2
        assert "elsewhere" in capsys.readouterr().err

    def test_job_that_exits_without_a_result(self):
        t0 = time.perf_counter()
        with Helper() as sleeper, Helper() as failing:
            sleeper.send([(time.sleep, (120,))])
            failing.send([(os._exit, (3,))])
            with pytest.raises(HelperFailed, match="_exit.*status 3"):
                collect([failing])
        # leaving the block kills the helper still at work, and reaps both
        assert time.perf_counter() - t0 < 60.0
        assert failing.proc.returncode == 3
        assert sleeper.proc.returncode is not None

    def test_failure_surfaces_before_a_slower_helper_ends(self):
        # collected as they end, not in order: the second helper's failure
        # arrives while the first still sleeps
        t0 = time.perf_counter()
        with pytest.raises(HelperFailed, match="_exit.*status 3"):
            with contextlib.ExitStack() as stack:
                helpers = [stack.enter_context(Helper()) for _ in range(2)]
                helpers[0].send([(time.sleep, (120,))])
                helpers[1].send([(os._exit, (3,))])
                collect(helpers)
        assert time.perf_counter() - t0 < 60.0
        assert [h.proc.returncode for h in helpers][1] == 3
        assert helpers[0].proc.returncode is not None

    def test_collect_returns_results_in_the_order_given(self):
        with Helper() as slow, Helper() as fast:
            slow.send([(time.sleep, (0.5,)),
                       (os.getenv, ("OMP_NUM_THREADS",))])
            fast.send([(abs, (-2,))])
            assert collect([slow, fast]) == [[None, "1"], [2]]

    def test_large_calls_arrive_whole(self):
        # far more than the pipe holds: arrays in either order, and a str
        # whose only owner is the temporary list of calls
        data = np.arange(1 << 18, dtype=np.float64).reshape(512, 512)
        with Helper() as helper:
            helper.send([(np.copy, (data,)),
                         (np.copy, (np.asfortranarray(data),)),
                         (str.encode, ("x" * (1 << 17),))])
            (c_order, f_order, raw), = collect([helper])
        assert np.array_equal(c_order, data) and c_order.flags.c_contiguous
        assert np.array_equal(f_order, data) and f_order.flags.f_contiguous
        assert raw == b"x" * (1 << 17)

    def test_helper_never_handed_a_job_is_killed(self):
        with Helper() as idle:
            pass
        assert idle.proc.returncode is not None
        assert idle.proc.stdin.closed and idle.proc.stdout.closed

    def test_collect_needs_every_helper_handed_its_calls(self):
        with Helper() as idle:
            with pytest.raises(ValueError, match="no calls"):
                collect([idle])
            idle.send([(abs, (-1,))])
            with pytest.raises(ValueError, match="already"):
                idle.send([(abs, (-1,))])

    @pytest.mark.parametrize("dies", ["before send", "during send"])
    def test_helper_that_dies_before_its_hand_off(self, dies):
        calls = [(len, (np.zeros(1 << 18),))]  # more than the pipe holds

        def kill(signum, frame):
            helper.proc.kill()

        with Helper() as helper:
            if dies == "during send":
                # the helper reads nothing, so send waits until it dies
                os.kill(helper.proc.pid, signal.SIGSTOP)
                handler = signal.signal(signal.SIGALRM, kill)
                signal.setitimer(signal.ITIMER_REAL, 0.5)
                try:
                    helper.send(calls)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    signal.signal(signal.SIGALRM, handler)
            else:
                helper.proc.kill()
                helper.proc.wait()
                helper.send(calls)
            with pytest.raises(HelperFailed, match="len.*status -9"):
                collect([helper])

    def test_database_error_leaves_no_helper(self, monkeypatch):
        started = []

        class Recorded(Helper):
            def __init__(self):
                super().__init__()
                started.append(self)

        def broken(config):
            raise MemoryError("no room for the database")

        monkeypatch.setattr(experiment, "Helper", Recorded)
        monkeypatch.setattr(experiment, "database_for", broken)
        for predictor in ("peak-track", "conv-recurrent"):
            with pytest.raises(MemoryError):
                build_world(ExperimentConfig(predictor=predictor, **TINY))
        assert len(started) == 4
        assert all(h.proc.returncode is not None for h in started)

    def test_bad_config_starts_no_process(self, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(subprocess, "Popen", no_process)
        with pytest.raises(ConfigError):
            build_world(ExperimentConfig(**dict(TINY, scenario="jamming")))

    def test_one_frame_recurrent_config_starts_no_process(self, monkeypatch):
        # the recurrent predictor cannot train on one-frame walks, so the
        # config is refused before a helper starts or the database is built
        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(subprocess, "Popen", no_process)
        with pytest.raises(ConfigError, match="sequence_length"):
            build_world(ExperimentConfig(**dict(
                TINY, predictor="conv-recurrent", sequence_length=1,
                distort_from=0)))
