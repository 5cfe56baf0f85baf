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
one stack. Localizers and predictors are plain callables here (a stack
of profiles in, a stack of positions out; a stack of equal-length
histories in, a stack of predicted profiles out), so the pieces can be
swapped or faked independently.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .adp import similarity
from .errors import (
    EmptyNeighborhood,
    FormatError,
    LengthMismatch,
    VersionError,
    check_positive,
)
from .fingerprint import FingerprintDb, GridSpec, neighbor_indices_within

ESTIMATES_FORMAT = "mimoloc-estimates"
ESTIMATES_VERSION = 1


class Verdict(Enum):
    """What the detector concluded about one measured frame."""

    ACCURATE = "accurate"
    DISTORTED = "distorted"
    LOST_LINK = "lost-link"


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
    position: np.ndarray | None
    best_similarity: float
    neighbor_count: int


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
        return DetectionResult(Verdict.LOST_LINK, None, 0.0, 0)
    position = np.asarray(position, dtype=float)
    idx = neighbor_indices_within(db, position, thresholds.neighborhood_radius)
    idx = idx[~db.zero_flags[idx]]
    best = float(np.max(similarity(frame, db.adps[idx]), initial=0.0))
    verdict = (Verdict.ACCURATE if best >= thresholds.similarity_floor
               else Verdict.DISTORTED)
    return DetectionResult(verdict, position, best, int(idx.size))


class RecoveryResult(NamedTuple):
    position: np.ndarray
    adp: np.ndarray
    predicted_position: np.ndarray | None
    prediction_weight: float
    neighbor_count: int


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
        return RecoveryResult(predicted_position, predicted,
                              predicted_position, 1.0, 0)
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
    return RecoveryResult(position, fused, predicted_position,
                          prediction_weight, int(idx.size))


class FrameEstimate(NamedTuple):
    """One frame's outcome. ``measured_position`` is the localizer's fix
    of the frame as measured, the one detection judged (None on a
    lost-link frame); the estimate stream does not carry it."""

    frame_index: int
    verdict: Verdict
    position: np.ndarray
    best_similarity: float
    source: str
    predicted_position: np.ndarray | None
    prediction_weight: float
    measured_position: np.ndarray | None = None


def locate_each(localizer, frames) -> list:
    """The localizer's fix of each frame of a stack that has energy, all
    taken in one call, and None for each all-zero frame."""
    frames = np.asarray(frames)
    live = [i for i, frame in enumerate(frames) if np.any(frame)]
    fixes = [None] * len(frames)
    if live:
        for i, fix in zip(live, localizer(frames[live])):
            fixes[i] = fix
    return fixes


def run_sequence(walks, localizer, db: FingerprintDb, thresholds: Thresholds,
                 predictor,
                 history_length: int = 4) -> list[list[FrameEstimate]]:
    """Estimate a position for every frame of each of ``walks``.

    ``walks`` is a list of equal-length walks, each a sequence of profiles;
    one walk is a list of one. They are stepped together: at each time
    step the localizer locates the frames with energy of every walk in one
    call, the predictor predicts every walk's history in one call, and the
    localizer locates the nonempty predictions in one more. Every walk is
    then judged, recovered and scored on its own, and its estimates are
    those it would get alone, since a localizer or predictor answers each
    row of a stack as it would answer that row by itself.

    Accurate frames feed a walk's rolling history as measured; distorted
    and lost-link frames are recovered and feed it as rebuilt. ``source``
    records which happened: "measured", "recovered", or "fallback" for a
    distorted very first frame, where there is no history to predict
    from and the untrusted estimate is kept as the best available.

    The predictor runs on every frame that has a history, accepted or
    not, and its localized output is recorded as ``predicted_position``.
    That keeps the predictive arm observable as a method of its own even
    on frames the detector waves through. Recovery fuses that same
    prediction at that same fix, so each prediction is localized once.

    Returns:
        One list of estimates per walk, in the order of ``walks``.

    Raises:
        EmptyNeighborhood: if the link is lost on the very first frame of
            a walk.
        LengthMismatch: if the walks differ in length.
    """
    if len({len(w) for w in walks}) > 1:
        raise LengthMismatch("the walks differ in length")
    histories = [deque(maxlen=history_length) for _ in walks]
    prev_positions = [None] * len(walks)
    estimates = [[] for _ in walks]
    for t in range(len(walks[0]) if walks else 0):
        frames = np.stack([np.asarray(w[t], dtype=np.float64) for w in walks])
        fixes = locate_each(localizer, frames)
        predicted = predicted_positions = [None] * len(walks)
        if t > 0:  # every history holds min(t, history_length) frames
            predicted = predictor(np.stack([np.stack(h) for h in histories]))
            predicted_positions = locate_each(localizer, predicted)
        for i, frame in enumerate(frames):
            det = detect_distorted(frame, fixes[i], db, thresholds)
            history = histories[i]
            if det.verdict is Verdict.ACCURATE:
                history.append(frame)
                estimate = FrameEstimate(
                    t, det.verdict, det.position, det.best_similarity,
                    "measured", predicted_positions[i], 0.0, det.position)
            elif not history:
                if det.verdict is Verdict.LOST_LINK:
                    raise EmptyNeighborhood(
                        f"frame {t}: link lost before any usable frame"
                    )
                history.append(frame)
                estimate = FrameEstimate(
                    t, det.verdict, det.position, det.best_similarity,
                    "fallback", predicted_positions[i], 0.0, det.position)
            else:
                rec = recover_and_locate(frame, predicted[i],
                                         predicted_positions[i],
                                         prev_positions[i], db, thresholds)
                history.append(rec.adp)
                estimate = FrameEstimate(
                    t, det.verdict, rec.position, det.best_similarity,
                    "recovered", rec.predicted_position,
                    rec.prediction_weight, det.position)
            estimates[i].append(estimate)
            prev_positions[i] = estimate.position
    return estimates


# --- estimate stream ---------------------------------------------------------

def save_estimates(path, estimates) -> None:
    """Write estimates as JSON lines under a versioned header line."""
    header = {"format": ESTIMATES_FORMAT, "format_version": ESTIMATES_VERSION}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for e in estimates:
            row = {
                "frame_index": e.frame_index,
                "verdict": e.verdict.value,
                "position": [float(e.position[0]), float(e.position[1])],
                "best_similarity": e.best_similarity,
                "source": e.source,
                "predicted_position": (
                    None if e.predicted_position is None
                    else [float(e.predicted_position[0]),
                          float(e.predicted_position[1])]
                ),
                "prediction_weight": e.prediction_weight,
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_estimates(path) -> list[FrameEstimate]:
    """Read estimates written by ``save_estimates``.

    Raises:
        FormatError: an empty file, a header or row that is not JSON, a
            header of another format, or a row that lacks a field or
            holds a bad value (an unknown verdict, say).
        VersionError: unsupported estimate version.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    if not lines:
        raise FormatError("empty estimate file")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise FormatError(f"estimate header is not JSON: {exc}") from exc
    if (not isinstance(header, dict)
            or header.get("format") != ESTIMATES_FORMAT):
        raise FormatError(f"unexpected header {header!r}")
    if header.get("format_version") != ESTIMATES_VERSION:
        raise VersionError(
            f"unsupported estimate version {header.get('format_version')!r}"
        )
    estimates = []
    for number, line in enumerate(lines[1:], start=1):
        try:
            row = json.loads(line)
            predicted = row["predicted_position"]
            estimates.append(FrameEstimate(
                int(row["frame_index"]),
                Verdict(row["verdict"]),
                np.asarray(row["position"], dtype=float),
                float(row["best_similarity"]),
                str(row["source"]),
                None if predicted is None
                else np.asarray(predicted, dtype=float),
                float(row["prediction_weight"]),
            ))
        except (LookupError, TypeError, ValueError) as exc:
            raise FormatError(f"estimate row {number}: {exc!r}") from exc
    return estimates
