"""End-to-end evaluation harness over simulated walks.

One experiment run has two parts. ``build_world`` builds a fingerprint
database for a chosen environment and trains both localizer heads on it
(and the recurrent predictor, when one is chosen) in two helper
processes forked from the caller, while it calibrates detection
thresholds; none of this depends on the distortion scenario.
``evaluate`` then simulates a batch of random walks with one distortion
scenario in that world, on two cores: the caller runs the first half of
the walks while one helper process forked from it runs the rest, with
the world shared copy-on-write, and each half scores its own walks. It
scores four estimation methods frame by frame:

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
from .errors import ConfigError, DimensionMismatch, FormatError, is_finite
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
    ACCURATE,
    Thresholds,
    calibrate_similarity_floor,
    default_thresholds,
    locate_each,
    run_sequence,
)
from .predictor import (
    ConvRecurrentPredictor,
    PeakTrackingPredictor,
    train_predictor,
)

METHODS = ("dynamic", "regressor", "classifier-wknn", "predictor-only")
SCENARIOS = ("los-block", "nlos-block", "nlos-add", "none")
LOCALIZERS = ("regressor", "classifier-wknn")
PREDICTORS = ("peak-track", "conv-recurrent")
# the classifier head's cells per grid side
CLASSIFIER_CELLS = 4


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
                finite = " and finite" if f.type in ("float", "tuple") else ""
                raise ConfigError(f"{f.name} must be of type {f.type}{finite}")
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
                     "n_sequences", "sequence_length", "history_length",
                     "train_epochs", "predictor_epochs",
                     "predictor_train_walks"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.predictor == "conv-recurrent" and self.sequence_length < 2:
            raise ConfigError(
                "sequence_length must be at least 2 with the conv-recurrent "
                "predictor, which trains on walks of two frames or more")
        for name in ("wavelength", "bandwidth", "grid_spacing",
                     "train_learning_rate"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be at least 0")
        if self.addition_level_db > 100.0:
            raise ConfigError(
                "addition_level_db must be at most 100 dB, a foreign path "
                "1e5 times the strongest one")
        if not 0 <= self.distort_from < self.sequence_length:
            raise ConfigError(
                "distort_from must be nonnegative and below sequence_length, "
                "so that some frames are distorted")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["grid_origin"] = list(self.grid_origin)
        return d


# what each field annotation of ExperimentConfig admits: an int field
# takes no bool, a float field takes an int, grid_origin two numbers;
# every float is finite
_IS_TYPE = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": is_finite,
    "tuple": lambda v: (isinstance(v, (tuple, list)) and len(v) == 2
                        and all(map(is_finite, v))),
}


def config_from_dict(data: dict) -> ExperimentConfig:
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    origin = data.get("grid_origin")
    if isinstance(origin, list) and all(map(is_finite, origin)):
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
    except FormatError as exc:
        raise FormatError(f"environment {config.environment}: {exc}") from exc


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
    return build_db(env, grid, array, ofdm, dft)


def evaluation_walks(config: ExperimentConfig, indices=None):
    """Yield evaluation walk ``i`` of ``config`` for each ``i`` of
    ``indices`` (every walk by default) as a ``FrameSequence`` record: its
    true positions, float32 profiles and distorted flags (set from
    ``distort_from`` on unless the scenario is "none").

    Walk ``i`` takes the seed ``[seed, i]``. The first half keeps a heading
    (mode 1), the second half redraws it every step (mode 2). So a walk is
    the same whichever indices it is yielded with.
    """
    scenario = None
    if config.scenario != "none":
        scenario = DistortionScenario(
            kind=DistortionKind(config.scenario),
            addition_level_db=config.addition_level_db,
            rng_seed=config.seed)
    n_seq = config.n_sequences
    yield from _walks(config, (
        (i, WalkMode.MODE1 if i < n_seq // 2 else WalkMode.MODE2)
        for i in (range(n_seq) if indices is None else indices)),
        scenario, config.distort_from)


def _walks(config: ExperimentConfig, steps, scenario=None,
           distort_from: int = 0):
    """Yield a ``FrameSequence`` for each (seed offset, mode) of ``steps``:
    the ``random_walk`` of that mode seeded ``[seed, offset]``, measured in
    ``config``'s world under ``scenario`` from frame ``distort_from`` on."""
    env, array, ofdm, grid, dft = pieces(config)
    for offset, mode in steps:
        walk = random_walk(grid, mode, config.sequence_length,
                           [config.seed, offset])
        yield generate_sequence(env, walk, scenario, distort_from, array,
                                ofdm, dft)


def thresholds_for(db: FingerprintDb) -> Thresholds:
    """Detection and recovery thresholds calibrated on ``db``."""
    return default_thresholds(db.grid, calibrate_similarity_floor(db))


# --- training jobs -----------------------------------------------------------
# build_world runs these as helper jobs (see mimoloc.helper)

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
                    ClassifierGrid(CLASSIFIER_CELLS, CLASSIFIER_CELLS))
        seed = config.seed + 1
    model = build_model(default_localizer_spec(db.n_t, db.n_c, head),
                        (1, db.n_t, db.n_c), head, seed=seed)
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
    clean = [seq.adps for seq in _walks(config, (
        (9_000_000 + i, WalkMode.MODE1 if i % 2 == 0 else WalkMode.MODE2)
        for i in range(config.predictor_train_walks)))]
    predictor = ConvRecurrentPredictor(config.n_antennas,
                                       config.n_subcarriers,
                                       seed=config.seed)
    losses = train_predictor(predictor, clean,
                             TrainConfig(epochs=config.predictor_epochs,
                                         batch_size=8, learning_rate=0.2,
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
    helpers: list  # per helper process, what it trained and its usage
    stages: dict  # the caller's own stages and their wall times
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
    walkers: list  # per walk process, its walk range and times

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


def _hold(fixes, fallback):
    """A static localizer's (n, T, 2) track from its fixes of every frame.

    A fix is NaN on a lost-link frame, which gives the localizer nothing
    to work with; the track holds its previous fix there, or
    ``fallback`` (the grid center) before any fix.
    """
    n, length = fixes.shape[:2]
    held = np.concatenate([np.broadcast_to(fallback, (n, 1, 2)), fixes],
                          axis=1)
    last = np.where(np.isnan(fixes[..., 0]), 0, np.arange(1, length + 1))
    last = np.maximum.accumulate(last, axis=1)
    return np.take_along_axis(held, last[..., None], axis=1)


def build_world(config: ExperimentConfig, log=None) -> World:
    """Build the database and thresholds, train the localizers and predictor.

    Training runs in two helper processes forked from this one (see
    ``mimoloc.helper``): one per head or, with the recurrent predictor,
    one for both heads and one for the predictor, which starts at once.
    The heads' start once the database is built, and the caller then
    calibrates the thresholds while they train. ``World.helpers`` records
    each helper's usage and per-job wall times, and ``World.stages`` the
    wall times of the caller's database and threshold stages. Leaving the
    build for any reason kills and reaps every helper it started.
    """
    config.validate()
    say = log if log is not None else (lambda msg: None)
    t0 = time.perf_counter()
    recurrent = config.predictor == "conv-recurrent"
    with contextlib.ExitStack() as stack:
        if recurrent:
            say("training the recurrent predictor in a helper process")
            predictor_helper = stack.enter_context(
                Helper([(train_recurrent_predictor, (config,))]))
        say("building fingerprint database")
        t_db = time.perf_counter()
        db = database_for(config)
        database_s = time.perf_counter() - t_db
        heads = [(train_localizer, (config, db, name)) for name in LOCALIZERS]
        if recurrent:
            say("training the localizers in a helper process")
            jobs = [list(LOCALIZERS), ["predictor"]]
            helpers = [stack.enter_context(Helper(heads)), predictor_helper]
        else:
            say("training the localizers in two helper processes")
            jobs = [[name] for name in LOCALIZERS]
            helpers = [stack.enter_context(Helper([head])) for head in heads]
        t_thresholds = time.perf_counter()
        thresholds = thresholds_for(db)
        thresholds_s = time.perf_counter() - t_thresholds
        say(f"similarity floor {thresholds.similarity_floor:.4f}")
        trained = [r for results in collect(helpers) for r in results]
    (reg_model, reg_losses), (cls_model, cls_losses) = trained[:2]
    predictor, predictor_losses = (
        trained[2] if len(trained) > 2 else (PeakTrackingPredictor(), []))
    return World(
        config=config, db=db, thresholds=thresholds,
        localizers={
            "regressor": RegressionLocalizer(reg_model),
            "classifier-wknn": ClassifierWknnLocalizer(cls_model, db),
        },
        predictor=predictor,
        train_losses={"regressor": reg_losses, "classifier-wknn": cls_losses,
                      "predictor": predictor_losses},
        helpers=[dict(helper.usage, trains=names)
                 for helper, names in zip(helpers, jobs)],
        stages={"database_s": database_s, "thresholds_s": thresholds_s},
        build_seconds=time.perf_counter() - t0,
    )


def run_walks(world: World, config: ExperimentConfig, indices) -> tuple:
    """Run and score the evaluation walks ``indices`` of ``config``.

    Returns (modes, truths, distorted, errors, flagged): the walks' modes,
    (n, T, 2) true positions and (n, T) distorted flags, each method's
    (n, T) distance to the truths, and the (n, T) frames detection did not
    accept. Every row is its walk's alone, so the rows of a run over some
    of the walks are those of a run over all of them.
    """
    seqs = list(evaluation_walks(config, indices))
    walks = [seq.adps for seq in seqs]
    truths = np.stack([seq.positions for seq in seqs])
    est = run_sequence(walks, world.localizers[config.localizer], world.db,
                       world.thresholds, world.predictor,
                       history_length=config.history_length)
    # the dynamic head's baseline is the fix detection already took of each
    # measured frame; only the other head localizes the walks again, each
    # time step of every walk in one call
    other = next(name for name in LOCALIZERS if name != config.localizer)
    other_fixes = np.stack([
        locate_each(world.localizers[other], [walk[t] for walk in walks])
        for t in range(config.sequence_length)], axis=1)
    x0, y0, x1, y1 = world.db.grid.extent()
    fallback = np.array([(x0 + x1) / 2.0, (y0 + y1) / 2.0])
    tracks = {
        "dynamic": est.position,
        # the predictive arm alone: each frame's localized prediction out
        # of its history, and the pipeline estimate where there is none
        "predictor-only": np.where(np.isnan(est.predicted_position),
                                   est.position, est.predicted_position),
        config.localizer: _hold(est.measured_position, fallback),
        other: _hold(other_fixes, fallback),
    }
    errors = {m: np.linalg.norm(tracks[m] - truths, axis=2) for m in METHODS}
    return ([seq.mode for seq in seqs], truths,
            np.stack([seq.distorted for seq in seqs]), errors,
            est.verdict != ACCURATE)


def evaluate(world: World, scenario: str, out_dir=None,
             log=None) -> ExperimentResult:
    """Score the four methods on ``scenario``'s walks in ``world``.

    The walks run on two cores: a helper process forked from this one
    (see ``mimoloc.helper``) runs walks ``[n // 2, n)``, the mode-2 half,
    while this process runs walks ``[0, n // 2)``. Each half runs and
    scores its own walks with ``run_walks``; the helper shares the world
    copy-on-write and sends back only its walks' rows, which are those one
    pass over every walk gives (see ``run_sequence``). Leaving for any
    reason kills and reaps the helper. ``ExperimentResult.walkers``
    records the caller's walk range and wall time for it, then the
    helper's range and resource usage.

    Optionally writes the reports to ``out_dir``. An unknown scenario
    raises ``ConfigError`` before the helper starts.
    """
    config = dataclasses.replace(world.config, scenario=scenario)
    config.validate()
    say = log if log is not None else (lambda msg: None)
    t0 = time.perf_counter()
    n_seq = config.n_sequences
    half = n_seq // 2
    say(f"running {n_seq} sequences")
    with Helper([(run_walks, (world, config, range(half, n_seq)))]) as helper:
        t_lower = time.perf_counter()
        parts = [run_walks(world, config, range(half))] if half else []
        lower_s = time.perf_counter() - t_lower
        parts += collect([helper])[0]
    modes, truths, distorted, errors, flagged = zip(*parts)
    result = ExperimentResult(
        config=config, world=world, modes=sum(modes, []),
        truths=np.concatenate(truths),
        errors={m: np.concatenate([e[m] for e in errors]) for m in METHODS},
        flagged=np.concatenate(flagged), distorted=np.concatenate(distorted),
        runtime_seconds=world.build_seconds + time.perf_counter() - t0,
        walkers=[{"walks": [0, half], "wall_s": lower_s},
                 dict(helper.usage, walks=[half, n_seq])],
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
    numbers (the run's; each training helper's resource usage and per-job
    times under ``helpers``; the database and threshold stages under
    ``stages``; each walk process's range and times under ``walkers``)
    and aggregate metrics.
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
        "helpers": result.world.helpers,
        "stages": result.world.stages,
        "walkers": result.walkers,
    }
    with open(os.path.join(out_dir, "report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
