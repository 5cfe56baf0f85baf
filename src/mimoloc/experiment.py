"""End-to-end evaluation harness over simulated walks.

One experiment run has two parts. ``build_world`` builds a fingerprint
database for a chosen environment and trains both localizer heads on it
(and the recurrent predictor, when one is chosen) in two helper
processes, started before the database is built, while it calibrates
detection thresholds; none of this depends on the distortion scenario.
``evaluate`` then simulates a batch of random walks with one distortion
scenario in that world and scores four estimation methods frame by
frame:

* ``dynamic``: detection plus prediction-fused recovery (the full
  pipeline).
* ``regressor``: the plain regression localizer applied to every frame
  as measured.
* ``classifier-wknn``: the classification localizer with in-cell
  k-nearest refinement, applied to every frame as measured.
* ``predictor-only``: the position of the profile predicted from the
  rolling history, without database fusion, on every frame that has a
  history; the first frame is identical to ``dynamic``.

Reports are written as flat CSV/text files whose bodies depend only on
the configuration, so a rerun is byte-identical; wall-clock figures go
to a separate JSON report.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .adp import build_dft_pair
from .channel import ArrayConfig, Environment, OfdmConfig, Reflector, load_environment
from .dynamics import (
    DistortionKind,
    DistortionScenario,
    WalkMode,
    generate_sequence,
    random_walk,
)
from .errors import ConfigError, DimensionMismatch
from .fingerprint import FingerprintDb, GridSpec, build_db
from .helper import Helper, collect
from .neural import (
    ClassifierGrid,
    ClassifierWknnLocalizer,
    Head,
    RegressionLocalizer,
    TrainConfig,
    build_model,
    default_localizer_spec,
    train,
)
from .pipeline import (
    Thresholds,
    Verdict,
    calibrate_similarity_floor,
    default_thresholds,
    locate_each,
    run_sequence,
)
from .predictor import (
    ConvRecurrentPredictor,
    PeakTrackingPredictor,
    PredictorTrainConfig,
    train_predictor,
)

METHODS = ("dynamic", "regressor", "classifier-wknn", "predictor-only")
SCENARIOS = ("los-block", "nlos-block", "nlos-add", "none")
LOCALIZERS = ("regressor", "classifier-wknn")
PREDICTORS = ("peak-track", "conv-recurrent")


def sparse_environment() -> Environment:
    """Line of sight plus one wall: two paths everywhere on the grid.

    With so few paths, blocking or spoofing a single one destroys a large
    share of the angular information, which is what makes this the hard
    setting for static localizers.
    """
    return Environment(
        bs_position=(0.0, 0.0),
        reflectors=(Reflector((0.0, 6.0), (17.0, 6.0), 0.9),),
    )


def rich_environment() -> Environment:
    """A ring of walls around the grid: eight or more paths per point."""
    return Environment(
        bs_position=(0.0, 0.0),
        reflectors=(
            Reflector((0.0, 6.0), (17.0, 6.0), 0.9),
            Reflector((17.0, -7.0), (17.0, 6.0), 0.85),
            Reflector((-1.0, -7.0), (17.0, -7.0), 0.8),
            Reflector((-2.0, -8.0), (-2.0, 8.0), 0.85),
            Reflector((0.0, 8.0), (18.0, 8.0), 0.7),
            Reflector((19.0, -9.0), (19.0, 8.0), 0.7),
            Reflector((-1.0, -9.0), (19.0, -9.0), 0.65),
            Reflector((-4.0, -10.0), (-4.0, 10.0), 0.6),
        ),
    )


_NAMED_ENVIRONMENTS = {
    "sparse": sparse_environment,
    "rich": rich_environment,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; round-trips through JSON.

    ``environment`` is "sparse", "rich", or a path to an environment
    text file.
    """

    environment: str = "sparse"
    n_antennas: int = 16
    n_subcarriers: int = 16
    wavelength: float = 0.1
    bandwidth: float = 125e6
    grid_origin: tuple = (6.0, -5.0)
    grid_spacing: float = 0.25
    grid_rows: int = 40
    grid_cols: int = 40
    n_sequences: int = 200
    sequence_length: int = 20
    distort_from: int = 10
    scenario: str = "los-block"
    addition_level_db: float = -6.0
    localizer: str = "regressor"
    predictor: str = "peak-track"
    classifier_cells: int = 4
    wknn_k: int = 3
    history_length: int = 4
    train_epochs: int = 300
    train_learning_rate: float = 0.1
    predictor_epochs: int = 40
    predictor_train_walks: int = 20
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ConfigError`` unless every field holds a usable value.

        Each field takes the type it is annotated with (see ``_IS_TYPE``).
        """
        for f in dataclasses.fields(self):
            if not _IS_TYPE[f.type](getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be of type {f.type}")
        for name, allowed in (("scenario", SCENARIOS),
                              ("localizer", LOCALIZERS),
                              ("predictor", PREDICTORS)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}")
        if (self.environment not in _NAMED_ENVIRONMENTS
                and not os.path.isfile(self.environment)):
            raise ConfigError(
                f"environment {self.environment!r} is neither a preset "
                f"({sorted(_NAMED_ENVIRONMENTS)}) nor a file"
            )
        for name in ("n_antennas", "n_subcarriers", "grid_rows", "grid_cols",
                     "n_sequences", "sequence_length", "classifier_cells",
                     "wknn_k", "history_length", "train_epochs",
                     "predictor_epochs", "predictor_train_walks"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for name in ("wavelength", "bandwidth", "grid_spacing",
                     "train_learning_rate"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be at least 0")
        if not 0 <= self.distort_from < self.sequence_length:
            raise ConfigError(
                "distort_from must be nonnegative and below sequence_length, "
                "so that some frames are distorted")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["grid_origin"] = list(self.grid_origin)
        return d


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what each field annotation of ExperimentConfig admits: an int field
# takes no bool, a float field takes an int, grid_origin two numbers
_IS_TYPE = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: _is_real(v) and isinstance(v, int),
    "float": _is_real,
    "tuple": lambda v: (isinstance(v, (tuple, list)) and len(v) == 2
                        and all(map(_is_real, v))),
}


def config_from_dict(data: dict) -> ExperimentConfig:
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    origin = data.get("grid_origin")
    if isinstance(origin, list) and all(_is_real(v) for v in origin):
        data = dict(data, grid_origin=tuple(float(v) for v in origin))
    config = ExperimentConfig(**data)
    config.validate()
    return config


def load_config(path) -> ExperimentConfig:
    """Read a config file; an unreadable or malformed one is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return config_from_dict(data)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def environment_for(config: ExperimentConfig) -> Environment:
    """A preset, or the environment file; one that cannot be read or is
    not UTF-8 is a ConfigError."""
    builder = _NAMED_ENVIRONMENTS.get(config.environment)
    if builder is not None:
        return builder()
    try:
        return load_environment(config.environment)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"environment {config.environment}: {exc}") from exc


def pieces(config: ExperimentConfig):
    """(environment, array, OFDM band, grid, DFT pair) of a config."""
    array = ArrayConfig(config.n_antennas, config.wavelength)
    ofdm = OfdmConfig(config.n_subcarriers, config.bandwidth)
    grid = GridSpec(origin=tuple(config.grid_origin),
                    spacing=config.grid_spacing,
                    n_rows=config.grid_rows, n_cols=config.grid_cols)
    dft = build_dft_pair(config.n_antennas, config.n_subcarriers)
    return environment_for(config), array, ofdm, grid, dft


def database_for(config: ExperimentConfig) -> FingerprintDb:
    """The fingerprint database of a config's world."""
    env, array, ofdm, grid, dft = pieces(config)
    return build_db(env, grid, array, ofdm, dft, seed=config.seed)


def evaluation_walks(config: ExperimentConfig):
    """Yield each evaluation walk of ``config`` as a ``FrameSequence``.

    Walk ``i`` takes the seed ``[seed, i]``. The first half keeps a heading
    (mode 1), the second half redraws it every step (mode 2).
    """
    env, array, ofdm, grid, dft = pieces(config)
    scenario = None
    if config.scenario != "none":
        scenario = DistortionScenario(
            kind=DistortionKind(config.scenario),
            addition_level_db=config.addition_level_db,
            rng_seed=config.seed)
    n_seq = config.n_sequences
    for i in range(n_seq):
        mode = WalkMode.MODE1 if i < n_seq // 2 else WalkMode.MODE2
        walk = random_walk(grid, mode, config.sequence_length,
                           [config.seed, i])
        yield generate_sequence(env, walk, scenario, config.distort_from,
                                array, ofdm, dft)


# --- training jobs -----------------------------------------------------------
# build_world runs these in helper processes and the CLI's stage commands
# call them directly, so both train the same models from the same seeds

def train_localizer(config: ExperimentConfig, db: FingerprintDb,
                    localizer: str):
    """Train the ``localizer`` head ("regressor" or "classifier-wknn").

    Returns (model, per-epoch losses). The classifier takes ``seed + 1``
    for its weights and its batch order, so the two heads differ.
    """
    if localizer == "regressor":
        head, seed = Head("regression"), config.seed
    else:
        head = Head("classification",
                    ClassifierGrid(config.classifier_cells,
                                   config.classifier_cells))
        seed = config.seed + 1
    model = build_model(default_localizer_spec(db.n_t, db.n_c, head),
                        (1, db.n_t, db.n_c), head, seed=seed,
                        normalize_input=True)
    losses = train(model, db,
                   TrainConfig(epochs=config.train_epochs,
                               learning_rate=config.train_learning_rate,
                               seed=seed))
    return model, losses


def train_recurrent_predictor(config: ExperimentConfig):
    """Fit the conv-recurrent predictor on clean walks of the world.

    Returns (predictor, per-epoch losses). Walk ``i`` takes the seed
    ``[seed, 9_000_000 + i]``, apart from every evaluation walk's.
    """
    env, array, ofdm, grid, dft = pieces(config)
    clean = []
    for i in range(config.predictor_train_walks):
        mode = WalkMode.MODE1 if i % 2 == 0 else WalkMode.MODE2
        walk = random_walk(grid, mode, config.sequence_length,
                           [config.seed, 9_000_000 + i])
        clean.append(generate_sequence(env, walk, None, 0, array, ofdm, dft))
    predictor = ConvRecurrentPredictor(config.n_antennas,
                                       config.n_subcarriers,
                                       seed=config.seed)
    losses = train_predictor(predictor, clean,
                             PredictorTrainConfig(
                                 epochs=config.predictor_epochs,
                                 seed=config.seed))
    return predictor, losses


@dataclass
class World:
    """What a run builds and trains before its walks.

    Nothing in it depends on the distortion scenario, so one world serves
    every scenario (see ``evaluate``).
    """

    config: ExperimentConfig
    db: FingerprintDb
    thresholds: Thresholds
    localizers: dict
    predictor: object
    train_losses: dict
    build_seconds: float


@dataclass
class ExperimentResult:
    """Everything produced by one run, kept for scoring and reporting.

    ``runtime_seconds`` counts the build of ``world`` and the evaluation.
    """

    config: ExperimentConfig
    world: World
    modes: list
    truths: np.ndarray
    errors: dict
    flagged: np.ndarray
    distorted: np.ndarray
    runtime_seconds: float

    def rmse(self, method: str) -> np.ndarray:
        return rmse_per_frame(self.errors[method])

    def rmse_by_mode(self, method: str, mode: WalkMode) -> np.ndarray:
        rows = [i for i, m in enumerate(self.modes) if m is mode]
        return rmse_per_frame(self.errors[method][rows])

    def distorted_errors(self, method: str) -> np.ndarray:
        """Errors on the frames past the distortion onset, flattened."""
        return self.errors[method][:, self.config.distort_from:].ravel()

    def median_distorted_rmse(self, method: str) -> float:
        """Median over the distorted frames of the per-frame RMSE."""
        return float(np.median(self.rmse(method)[self.config.distort_from:]))

    def detection_counts(self) -> tuple:
        truth = self.distorted.astype(bool)
        flagged = self.flagged.astype(bool)
        tp = int(np.sum(truth & flagged))
        fp = int(np.sum(~truth & flagged))
        fn = int(np.sum(truth & ~flagged))
        tn = int(np.sum(~truth & ~flagged))
        return tp, fp, fn, tn

    def precision_recall(self) -> tuple:
        tp, fp, fn, _ = self.detection_counts()
        precision = tp / (tp + fp) if tp + fp else float("nan")
        recall = tp / (tp + fn) if tp + fn else float("nan")
        return precision, recall


def rmse_per_frame(errors) -> np.ndarray:
    """Column-wise RMSE of an (n_sequences, n_frames) error matrix."""
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 2:
        raise DimensionMismatch(f"expected a 2D error matrix, got {e.shape}")
    return np.sqrt(np.mean(e * e, axis=0))


def _baseline_track(fixes, fallback):
    # ``fixes`` holds a static localizer's position for each frame, None on
    # a lost-link frame, which gives it nothing to work with; the baseline
    # holds its previous estimate (or the grid center before any fix)
    positions = []
    last = np.asarray(fallback, dtype=float)
    for fix in fixes:
        if fix is not None:
            last = np.asarray(fix, dtype=float)
        positions.append(last)
    return np.stack(positions)


def _predictor_only_track(estimates):
    """Positions of the predictive arm alone, without database fusion.

    Wherever a frame has a localized prediction out of its history, that
    is the method's answer; the first frame has no history and keeps the
    pipeline estimate.
    """
    positions = []
    for e in estimates:
        if e.predicted_position is not None:
            positions.append(np.asarray(e.predicted_position, dtype=float))
        else:
            positions.append(np.asarray(e.position, dtype=float))
    return np.stack(positions)


def build_world(config: ExperimentConfig, log=None) -> World:
    """Build the database and thresholds, train the localizers and predictor.

    Training runs in two helper processes (see ``mimoloc.helper``), one
    per head, or, with the recurrent predictor, one for both heads and
    one for the predictor; each uses one BLAS thread. Both helpers start
    before the database is built, so their start-up overlaps the build,
    and each is handed its job as soon as that job exists: the
    predictor's, which needs no database, at once, and the heads' once
    the database is built (a job larger than the pipe is handed over
    once its helper reads it). The caller calibrates the thresholds
    while they train. Leaving the build for any reason kills and reaps
    every helper it started.
    """
    config.validate()
    say = log if log is not None else (lambda msg: None)
    t0 = time.perf_counter()
    recurrent = config.predictor == "conv-recurrent"
    with contextlib.ExitStack() as stack:
        helpers = [stack.enter_context(Helper()) for _ in range(2)]
        if recurrent:
            say("training the recurrent predictor in a helper process")
            helpers[1].send([(train_recurrent_predictor, (config,))])
        say("building fingerprint database")
        db = database_for(config)
        heads = [(train_localizer, (config, db, name)) for name in LOCALIZERS]
        if recurrent:
            say("training the localizers in a helper process")
            helpers[0].send(heads)
        else:
            say("training the localizers in two helper processes")
            helpers[0].send(heads[:1])
            helpers[1].send(heads[1:])
        thresholds = default_thresholds(db.grid,
                                        calibrate_similarity_floor(db))
        say(f"similarity floor {thresholds.similarity_floor:.4f}")
        trained = [r for results in collect(helpers) for r in results]
    (reg_model, reg_losses), (cls_model, cls_losses) = trained[:2]
    predictor, predictor_losses = (
        trained[2] if len(trained) > 2 else (PeakTrackingPredictor(), []))
    return World(
        config=config, db=db, thresholds=thresholds,
        localizers={
            "regressor": RegressionLocalizer(reg_model),
            "classifier-wknn": ClassifierWknnLocalizer(cls_model, db,
                                                       k=config.wknn_k),
        },
        predictor=predictor,
        train_losses={"regressor": reg_losses, "classifier-wknn": cls_losses,
                      "predictor": predictor_losses},
        build_seconds=time.perf_counter() - t0,
    )


def evaluate(world: World, scenario: str, out_dir=None,
             log=None) -> ExperimentResult:
    """Score the four methods on ``scenario``'s walks in ``world``.

    Optionally writes the reports to ``out_dir``. An unknown scenario
    raises ``ConfigError``.
    """
    config = dataclasses.replace(world.config, scenario=scenario)
    config.validate()
    say = log if log is not None else (lambda msg: None)
    t0 = time.perf_counter()
    n_seq, length = config.n_sequences, config.sequence_length
    x0, y0, x1, y1 = world.db.grid.extent()
    fallback = np.array([(x0 + x1) / 2.0, (y0 + y1) / 2.0])
    errors = {m: np.zeros((n_seq, length)) for m in METHODS}
    flagged = np.zeros((n_seq, length), dtype=bool)
    distorted = np.zeros((n_seq, length), dtype=bool)
    truths = np.zeros((n_seq, length, 2))
    modes, walks = [], []
    say(f"running {n_seq} sequences")
    for i, seq in enumerate(evaluation_walks(config)):
        modes.append(seq.mode)
        truths[i] = seq.positions()
        distorted[i] = [fr.distorted for fr in seq.frames]
        walks.append(seq.adps())
    runs = run_sequence(walks, world.localizers[config.localizer], world.db,
                        world.thresholds, world.predictor,
                        history_length=config.history_length)
    # the dynamic head's baseline is the fix detection already took of each
    # measured frame; only the other head localizes the walks again, each
    # time step of every walk in one call
    other = next(name for name in LOCALIZERS if name != config.localizer)
    other_fixes = [locate_each(world.localizers[other],
                               [walk[t] for walk in walks])
                   for t in range(length)]
    for i, estimates in enumerate(runs):
        flagged[i] = [e.verdict is not Verdict.ACCURATE for e in estimates]
        tracks = {
            "dynamic": np.stack([e.position for e in estimates]),
            "predictor-only": _predictor_only_track(estimates),
            config.localizer: _baseline_track(
                [e.measured_position for e in estimates], fallback),
            other: _baseline_track([fixes[i] for fixes in other_fixes],
                                   fallback),
        }
        for method, track in tracks.items():
            errors[method][i] = np.linalg.norm(track - truths[i], axis=1)
    result = ExperimentResult(
        config=config, world=world, modes=modes, truths=truths,
        errors=errors, flagged=flagged, distorted=distorted,
        runtime_seconds=world.build_seconds + time.perf_counter() - t0,
    )
    if out_dir is not None:
        emit_report(result, out_dir)
    return result


def run_experiment(config: ExperimentConfig, out_dir=None,
                   log=None) -> ExperimentResult:
    """Build ``config``'s world and evaluate its scenario in it."""
    return evaluate(build_world(config, log), config.scenario, out_dir, log)


# --- reports -----------------------------------------------------------------

def emit_report(result: ExperimentResult, out_dir) -> None:
    """Write rmse.csv, rmse_by_mode.csv, per-method CDFs, and report.json.

    Every file except report.json is a pure function of the configuration,
    so reruns produce identical bytes; report.json carries the wall-clock
    numbers and aggregate metrics.
    """
    os.makedirs(out_dir, exist_ok=True)
    lines = ["method,frame,rmse_m"]
    for method in METHODS:
        for k, value in enumerate(result.rmse(method)):
            lines.append(f"{method},{k},{float(value)!r}")
    _write_lines(os.path.join(out_dir, "rmse.csv"), lines)

    lines = ["method,mode,frame,rmse_m"]
    for method in METHODS:
        for mode in (WalkMode.MODE1, WalkMode.MODE2):
            if not any(m is mode for m in result.modes):
                continue
            for k, value in enumerate(result.rmse_by_mode(method, mode)):
                lines.append(
                    f"{method},mode{mode.value},{k},{float(value)!r}")
    _write_lines(os.path.join(out_dir, "rmse_by_mode.csv"), lines)

    for method in METHODS:
        values = np.sort(result.distorted_errors(method))
        _write_lines(os.path.join(out_dir, f"cdf_{method}.txt"),
                     [repr(float(v)) for v in values])

    tp, fp, fn, tn = result.detection_counts()
    precision, recall = result.precision_recall()
    report = {
        "config": result.config.to_dict(),
        "thresholds": dataclasses.asdict(result.world.thresholds),
        # a ratio over an empty set (nothing flagged, nothing distorted)
        # is undefined and written as null
        "detection": {"tp": tp, "fp": fp, "fn": fn, "tn": tn,
                      "precision": None if np.isnan(precision) else precision,
                      "recall": None if np.isnan(recall) else recall},
        "median_distorted_error_m": {
            m: float(np.median(result.distorted_errors(m))) for m in METHODS
        },
        "median_distorted_rmse_m": {
            m: result.median_distorted_rmse(m) for m in METHODS
        },
        "final_train_loss": {
            name: (losses[-1] if losses else None)
            for name, losses in result.world.train_losses.items()
        },
        "runtime_seconds": result.runtime_seconds,
    }
    with open(os.path.join(out_dir, "report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
