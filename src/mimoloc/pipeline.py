"""Distortion detection and location recovery over frame sequences.

Glue between the fingerprint database, a trained localizer, and a
next-frame predictor. Every measured frame is first checked for
plausibility: locate it, then ask whether the database entries around
that location actually resemble the frame. Frames that fail the check
are not trusted; their position and profile are rebuilt from a
prediction out of recent history, fused with database entries around
the previous position.

``run_sequence`` steps any number of equal-length walks together, so the
localizer and the predictor see each time step's frames of every walk as
one stack, and returns every walk's per-frame outcomes as one array
record, ``Estimates``. Localizers and predictors are plain callables here
(a stack of profiles in, a stack of positions out; a stack of
equal-length histories in, a stack of predicted profiles out), so the
pieces can be swapped or faked independently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .adp import similarity
from .errors import EmptyNeighborhood, LengthMismatch, check_positive
from .fingerprint import FingerprintDb, GridSpec, neighbor_indices_within


class Verdict(Enum):
    """What the detector concluded about one measured frame."""

    ACCURATE = "accurate"
    DISTORTED = "distorted"
    LOST_LINK = "lost-link"


VERDICTS = tuple(Verdict)  # ``Estimates.verdict`` indexes this


@dataclass(frozen=True)
class Thresholds:
    """Decision radii (meters) and the similarity floor for detection.

    Attributes:
        neighborhood_radius: how far around the localized position to look
            for database entries when judging a frame.
        similarity_floor: minimum best-neighbor similarity for a frame to
            count as accurate.
        recovery_radius: how far around the previous position to gather
            fusion candidates when rebuilding a distorted frame.
    """

    neighborhood_radius: float
    similarity_floor: float
    recovery_radius: float

    def __post_init__(self):
        check_positive("neighborhood_radius", self.neighborhood_radius)
        check_positive("recovery_radius", self.recovery_radius)
        if not 0.0 <= self.similarity_floor <= 1.0:
            raise ValueError("similarity floor must lie in [0, 1]")


def default_thresholds(grid: GridSpec, similarity_floor: float) -> Thresholds:
    """Radii tied to the grid pitch: 3 cells for detection, 2 for recovery."""
    return Thresholds(3.0 * grid.spacing, similarity_floor, 2.0 * grid.spacing)


def calibrate_similarity_floor(db: FingerprintDb) -> float:
    """Derive the detection similarity floor from the database itself.

    For every identifiable grid point, take the best similarity to any
    other identifiable point within 3 grid spacings. A clean frame
    measured near the grid should score at least like a grid point scores
    against its own neighborhood, so the floor is the 1st percentile of
    those per-point maxima. That is deliberately tight to the bottom of
    that distribution: a path loss or a strong foreign path drops the
    best-neighbor similarity far below anything clean frames produce,
    while a floor set higher up starts flagging frames whose distortion
    is too mild to hurt the localizer, and rebuilding those replaces a
    good estimate with a worse one.

    Raises:
        EmptyNeighborhood: if no grid point has a neighbor in range.
    """
    radius = 3.0 * db.grid.spacing
    maxima = []
    for i in np.flatnonzero(~db.zero_flags):
        idx = neighbor_indices_within(db, db.positions[i], radius)
        idx = idx[(idx != i) & ~db.zero_flags[idx]]
        if idx.size == 0:
            continue
        maxima.append(similarity(db.adps[i], db.adps[idx]).max())
    if not maxima:
        raise EmptyNeighborhood("no grid point has a neighbor within the radius")
    return float(np.percentile(maxima, 1.0))


class DetectionResult(NamedTuple):
    verdict: Verdict
    best_similarity: float


def detect_distorted(adp, position, db: FingerprintDb,
                     thresholds: Thresholds) -> DetectionResult:
    """Judge one measured frame, given the localizer's fix of it.

    An all-zero frame is ``LOST_LINK``, and its ``position`` is not read
    (it can be None). Otherwise the frame is compared against
    identifiable database entries within the detection radius of its
    fix: ``ACCURATE`` when the best similarity reaches the floor,
    ``DISTORTED`` when it does not (in particular when there are no
    neighbors at all to vouch for it).
    """
    frame = np.asarray(adp, dtype=np.float64)
    if not np.any(frame):
        return DetectionResult(Verdict.LOST_LINK, 0.0)
    idx = neighbor_indices_within(db, position, thresholds.neighborhood_radius)
    idx = idx[~db.zero_flags[idx]]
    best = float(np.max(similarity(frame, db.adps[idx]), initial=0.0))
    verdict = (Verdict.ACCURATE if best >= thresholds.similarity_floor
               else Verdict.DISTORTED)
    return DetectionResult(verdict, best)


class RecoveryResult(NamedTuple):
    position: np.ndarray
    adp: np.ndarray
    prediction_weight: float


def recover_and_locate(measured, predicted, predicted_position,
                       prev_position, db: FingerprintDb,
                       thresholds: Thresholds) -> RecoveryResult:
    """Rebuild position and profile for a frame that cannot be trusted.

    ``predicted`` is the frame a predictor extrapolated from recent
    history and ``predicted_position`` the localizer's fix of it, or None
    when the prediction is empty (all zero) and so unusable. Fusion
    candidates are the identifiable database entries within the recovery
    radius of the previous position, plus the predicted frame itself at
    its fix. Every candidate is weighted by its similarity to the
    measured frame, distorted as it is: the distortion usually leaves
    part of the profile intact, and that part votes for the right
    candidates. Weights are normalized to sum to one; if every similarity
    is zero the candidates are weighted uniformly. The fused position and
    profile are the weighted means.

    A measured frame with no energy carries no vote at all, so recovery
    falls back to the prediction alone: its localized position and the
    predicted profile are returned as they are.

    Raises:
        EmptyNeighborhood: no candidates (no identifiable database entry
            in range and no usable prediction), or a lost link without a
            usable prediction.
    """
    frame = np.asarray(measured, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    has_prediction = predicted_position is not None
    if has_prediction:
        predicted_position = np.asarray(predicted_position, dtype=float)
    if not np.any(frame):
        if not has_prediction:
            raise EmptyNeighborhood(
                "link lost and the prediction out of history is empty"
            )
        return RecoveryResult(predicted_position, predicted, 1.0)
    idx = np.empty(0, dtype=int)
    if prev_position is not None:
        idx = neighbor_indices_within(db, prev_position,
                                      thresholds.recovery_radius)
        idx = idx[~db.zero_flags[idx]]
    positions = db.positions[idx]
    adps = db.adps[idx].astype(np.float64)
    weights = similarity(frame, adps)
    if has_prediction:
        weights = np.append(weights, similarity(frame, predicted))
        positions = np.vstack([positions, predicted_position])
        adps = np.concatenate([adps, predicted[None]])
    if not weights.size:
        raise EmptyNeighborhood(
            "no database entries near the previous position and no usable "
            "prediction"
        )
    total = float(weights.sum())
    if total > 0.0:
        weights /= total
    else:
        weights = np.full(weights.size, 1.0 / weights.size)
    position = np.einsum("i,ij->j", weights, positions)
    fused = np.einsum("i,ijk->jk", weights, adps)
    prediction_weight = float(weights[-1]) if has_prediction else 0.0
    return RecoveryResult(position, fused, prediction_weight)


class Estimates(NamedTuple):
    """Every frame's outcome for n walks of T frames, as (n, T) arrays.

    ``position`` is the pipeline's estimate, ``measured_position`` the
    localizer's fix of the frame as measured (the fix detection judged)
    and ``predicted_position`` its fix of the frame predicted out of the
    walk's history. Each is (n, T, 2) float64 meters and NaN where there
    is no such fix: on a lost-link frame for ``measured_position``, and
    on a first frame or an empty (all-zero) prediction for
    ``predicted_position``. ``verdict`` is (n, T) int8, an index into
    ``VERDICTS``; ``best_similarity`` and ``prediction_weight`` (the
    prediction's share of a recovery, 0 where none ran) are (n, T)
    float64.

    A frame's source follows from its verdict: an accurate frame is
    measured (its ``position`` is its ``measured_position``); an
    untrusted first frame is a fallback, which keeps its untrusted fix as
    the best available; every later untrusted frame is recovered.
    """

    position: np.ndarray
    measured_position: np.ndarray
    predicted_position: np.ndarray
    verdict: np.ndarray
    best_similarity: np.ndarray
    prediction_weight: np.ndarray


def locate_each(localizer, frames) -> np.ndarray:
    """The localizer's fix of each frame of a stack, as an (n, 2) array
    with a NaN row for each all-zero frame; the frames with energy are
    located in one call."""
    frames = np.asarray(frames)
    live = frames.any(axis=tuple(range(1, frames.ndim)))
    fixes = np.full((len(frames), 2), np.nan)
    if live.any():
        fixes[live] = localizer(frames[live])
    return fixes


def run_sequence(walks, localizer, db: FingerprintDb, thresholds: Thresholds,
                 predictor, history_length: int = 4) -> Estimates:
    """Estimate a position for every frame of each of ``walks``.

    ``walks`` is a list of equal-length walks, each a sequence of profiles;
    one walk is a list of one. They are stepped together: at each time
    step the localizer locates the frames with energy of every walk in one
    call, the predictor predicts every walk's history in one call, and the
    localizer locates the nonempty predictions in one more. Every walk is
    then judged and recovered on its own, and its estimates are those it
    would get alone, since a localizer or predictor answers each row of a
    stack as it would answer that row by itself.

    Accurate frames, and an untrusted first frame, which has no history to
    predict from, feed a walk's rolling history as measured; every later
    distorted or lost-link frame is recovered around the walk's previous
    position and feeds it as rebuilt.

    The predictor runs on every frame that has a history, accepted or
    not, and its localized output is recorded as ``predicted_position``.
    That keeps the predictive arm observable as a method of its own even
    on frames the detector waves through. Recovery fuses that same
    prediction at that same fix, so each prediction is localized once.

    Returns:
        One ``Estimates`` record; row i is walk i of ``walks``.

    Raises:
        EmptyNeighborhood: if the link is lost on the very first frame of
            a walk.
        LengthMismatch: if the walks differ in length.
    """
    if len({len(w) for w in walks}) > 1:
        raise LengthMismatch("the walks differ in length")
    n, length = len(walks), len(walks[0]) if walks else 0
    est = Estimates(
        np.full((n, length, 2), np.nan), np.full((n, length, 2), np.nan),
        np.full((n, length, 2), np.nan), np.zeros((n, length), np.int8),
        np.zeros((n, length)), np.zeros((n, length)))
    histories = [deque(maxlen=history_length) for _ in walks]
    for t in range(length):
        frames = np.stack([np.asarray(w[t], dtype=np.float64) for w in walks])
        est.measured_position[:, t] = locate_each(localizer, frames)
        if t > 0:  # every history holds min(t, history_length) frames
            predicted = predictor(np.stack([np.stack(h) for h in histories]))
            est.predicted_position[:, t] = locate_each(localizer, predicted)
        for i, frame in enumerate(frames):
            det = detect_distorted(frame, est.measured_position[i, t], db,
                                   thresholds)
            est.verdict[i, t] = VERDICTS.index(det.verdict)
            est.best_similarity[i, t] = det.best_similarity
            if det.verdict is Verdict.ACCURATE or t == 0:
                if det.verdict is Verdict.LOST_LINK:
                    raise EmptyNeighborhood(
                        f"frame {t}: link lost before any usable frame"
                    )
                histories[i].append(frame)
                est.position[i, t] = est.measured_position[i, t]
            else:
                fix = est.predicted_position[i, t]
                rec = recover_and_locate(
                    frame, predicted[i], None if np.isnan(fix[0]) else fix,
                    est.position[i, t - 1], db, thresholds)
                histories[i].append(rec.adp)
                est.position[i, t] = rec.position
                est.prediction_weight[i, t] = rec.prediction_weight
    return est
