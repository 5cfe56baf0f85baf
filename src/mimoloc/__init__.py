"""Massive-MIMO CSI fingerprinting and dynamic localization, desk scale.

The pieces chain up like the deployment would: a geometric channel
simulator produces CSI per position, the angle-delay transform turns CSI
into fingerprint images, a grid database and a small convolutional
localizer do static positioning, and the dynamic pipeline detects
distorted frames and recovers them by fusing a predicted frame with
database neighbors.
"""

from .adp import DftPair, adp_from_csi, build_dft_pair, similarity
from .channel import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    Blocker,
    Environment,
    OfdmConfig,
    Paths,
    Reflector,
    array_response,
    load_environment,
    parse_environment,
    quantize_delay,
    synthesize_csi,
    trace_paths,
)
from .dynamics import (
    DistortionKind,
    DistortionScenario,
    FrameSequence,
    Walk,
    WalkMode,
    generate_sequence,
    random_walk,
)
from .fingerprint import (
    FingerprintDb,
    GridSpec,
    build_db,
    load_db,
    save_db,
)
from .neural import (
    ClassifierGrid,
    ClassifierWknnLocalizer,
    Head,
    Model,
    RegressionLocalizer,
    TrainConfig,
    build_model,
    classify_then_wknn,
    default_localizer_spec,
    forward,
    load_model,
    save_model,
    train,
)
from .predictor import (
    ConvRecurrentPredictor,
    PeakTrackingPredictor,
    detect_peaks,
    load_predictor,
    save_predictor,
    train_predictor,
)
from .pipeline import (
    VERDICTS,
    Estimates,
    RecoveryResult,
    Thresholds,
    Verdict,
    calibrate_similarity_floor,
    default_thresholds,
    detect_distorted,
    recover_and_locate,
    run_sequence,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    World,
    build_world,
    config_from_dict,
    emit_report,
    environment_for,
    evaluate,
    load_config,
    rich_environment,
    rmse_per_frame,
    run_experiment,
    save_config,
    sparse_environment,
)

__version__ = "0.1.0"
