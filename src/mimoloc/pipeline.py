"""Distortion detection and location recovery over frame sequences.

Glue between the fingerprint database, a trained localizer, and a
next-frame predictor. Every measured frame is first checked for
plausibility: locate it, then ask whether the database entries around
that location actually resemble the frame. Frames that fail the check
are not trusted; their position and profile are rebuilt from a
prediction out of recent history, fused with database entries around
the previous position.

``run_sequence`` steps a walk stack (n equal-length walks) as one array
of the profiles its frames feed to the walks' histories, so the localizer
sees each time step's frames of every walk as one stack and the predictor
a window of that array, and returns every walk's per-frame outcomes as
one array record, ``Estimates``. Each step makes one localizer call, on
the step's measured frames stacked with the frames predicted for them.
Localizers and predictors are plain callables here (a stack of profiles
in, a stack of positions out; a stack of equal-length histories in, a
stack of predicted profiles out), so the pieces can be swapped or faked
independently.

Detection, recovery and the threshold calibration score frames against
database prints through one stacked kernel: ``neighbors_each`` finds the
prints around many centers in one pass, and ``score_lists`` scores each
frame against its own list of rows, with one matrix-vector product per
frame in a stack of frames whose lists have one length. The print norms
are ``FingerprintDb.norms``. Every similarity equals, bit for bit, the one
``adp.similarity`` gives for that frame and those rows, so a time step's
frames are judged, and its untrusted frames recovered, in one pass each,
and every walk still gets the estimates it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

# ``similarity`` and ``neighbor_indices_within`` are the one-frame forms of
# the stacked kernel below; they stay importable here, where perfbench's
# tracer wraps them
from .adp import similarity, stacked_similarity  # noqa: F401
from .errors import (
    DimensionMismatch,
    EmptyNeighborhood,
    LengthMismatch,
    check_int,
    check_positive,
)
from .fingerprint import (  # noqa: F401
    PRINT_BLOCK,
    FingerprintDb,
    GridSpec,
    neighbor_indices_within,
)

# float64 bytes a stacked pass may gather at most (about 1 MB), so a
# time step's transient stacks stay that small at any grid size
STACK_BYTES = 1 << 20

# default radii in grid spacings; the similarity floor is calibrated at
# the detection radius
DETECTION_CELLS = 3.0
RECOVERY_CELLS = 2.0


class Verdict(Enum):
    """What the detector concluded about one measured frame."""

    ACCURATE = "accurate"
    DISTORTED = "distorted"
    LOST_LINK = "lost-link"


VERDICTS = tuple(Verdict)  # ``Estimates.verdict`` indexes this
ACCURATE, DISTORTED, LOST_LINK = (VERDICTS.index(v) for v in Verdict)


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
    """Radii tied to the grid pitch, for detection and recovery."""
    return Thresholds(DETECTION_CELLS * grid.spacing, similarity_floor,
                      RECOVERY_CELLS * grid.spacing)


def neighbors_each(db: FingerprintDb, centers, radius: float) -> list:
    """The identifiable prints within ``radius`` of each of ``centers``.

    Entry i is ``neighbor_indices_within(db, centers[i], radius)`` without
    the zero-profile prints: sorted by distance, computed as there, ties
    broken by row-major grid order. A NaN center has no neighbors. The
    distances to all prints are taken for a pass of centers at a time,
    the pass's two (centers, prints) arrays ``STACK_BYTES`` at most.
    """
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    x, y = db.positions.T
    step = max(1, STACK_BYTES // (16 * max(len(x), 1)))
    out = []
    for start in range(0, len(centers), step):
        block = centers[start:start + step]
        # in place, the terms and the sum np.linalg.norm(positions - c,
        # axis=1) takes
        dist = x - block[:, :1]
        dy = y - block[:, 1:]
        dist *= dist
        dy *= dy
        dist += dy
        np.sqrt(dist, out=dist)
        rows, cols = np.nonzero((dist <= radius) & ~db.zero_flags)
        order = np.lexsort((cols, dist[rows, cols], rows))
        counts = np.bincount(rows, minlength=len(block))
        out += np.split(cols[order], np.cumsum(counts)[:-1])
    return out


def score_lists(frames, lists, table, norms) -> list:
    """``similarity(frames[i], table[lists[i]])`` for every i, stacked.

    ``table`` is (N, n_t, n_c), ``norms`` its (N,) row norms and
    ``lists[i]`` the rows frame i is scored against, in order. Frames
    whose lists have one length are scored in one ``stacked_similarity``
    pass (several when the rows gathered would exceed ``STACK_BYTES``),
    each frame against exactly its own rows.

    Raises:
        DimensionMismatch: if the frames are not shaped like the rows.
        ZeroAdp: if a frame or a listed row is all zero.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[1:] != table.shape[1:]:
        raise DimensionMismatch(
            f"profile shapes {frames.shape[1:]} vs {table.shape[1:]}")
    size = math.prod(table.shape[1:])
    flat = frames.reshape(len(frames), size)
    table = table.reshape(len(table), size)
    sizes = np.array([len(idx) for idx in lists], dtype=int)
    out = [None] * len(lists)
    for k in np.unique(sizes):
        group = np.flatnonzero(sizes == k)
        step = max(1, STACK_BYTES // (8 * max(k * size, 1)))
        for start in range(0, len(group), step):
            sel = group[start:start + step]
            idx = np.array([lists[j] for j in sel], dtype=int)
            idx = idx.reshape(len(sel), k)
            sims = stacked_similarity(
                flat[sel], table[idx].astype(np.float64), norms[idx])
            for j, row in zip(sel, sims):
                out[j] = row
    return out


def calibrate_similarity_floor(db: FingerprintDb) -> float:
    """Derive the detection similarity floor from the database itself.

    For every identifiable grid point, take the best similarity to any
    other identifiable point within the detection radius
    (``DETECTION_CELLS`` grid spacings). A clean frame measured near the
    grid should score at least like a grid point scores against its own
    neighborhood, so the floor is the 1st percentile of those per-point
    maxima. That is deliberately tight to the bottom of
    that distribution: a path loss or a strong foreign path drops the
    best-neighbor similarity far below anything clean frames produce,
    while a floor set higher up starts flagging frames whose distortion
    is too mild to hurt the localizer, and rebuilding those replaces a
    good estimate with a worse one.

    The points are scored with ``score_lists``, ``PRINT_BLOCK`` at a
    time.

    Raises:
        EmptyNeighborhood: if no grid point has a neighbor in range.
    """
    radius = DETECTION_CELLS * db.grid.spacing
    points = np.flatnonzero(~db.zero_flags)
    maxima = []
    for start in range(0, len(points), PRINT_BLOCK):
        block = points[start:start + PRINT_BLOCK]
        lists = [idx[idx != i] for idx, i in
                 zip(neighbors_each(db, db.positions[block], radius), block)]
        sims = score_lists(db.adps[block], lists, db.adps, db.norms)
        maxima += [s.max() for s in sims if s.size]
    if not maxima:
        raise EmptyNeighborhood("no grid point has a neighbor within the radius")
    return float(np.percentile(maxima, 1.0))


class DetectionResult(NamedTuple):
    verdict: Verdict
    best_similarity: float


def detect_each(frames, positions, db: FingerprintDb,
                thresholds: Thresholds):
    """Judge each frame of a stack, given the localizer's fix of each.

    An all-zero frame is ``LOST_LINK``, and its position is not read (it
    can be NaN). Every other frame is compared against the identifiable
    database entries within the detection radius of its fix, all frames in
    one ``score_lists`` pass: ``ACCURATE`` when the best similarity
    reaches the floor, ``DISTORTED`` when it does not (in particular when
    there are no neighbors at all to vouch for it).

    Returns:
        (verdicts, best similarities): (n,) int8 indices into ``VERDICTS``
        and (n,) float64, 0 for a lost link.
    """
    frames = np.asarray(frames, dtype=np.float64)
    live = frames.any(axis=tuple(range(1, frames.ndim)))
    best = np.zeros(len(frames))
    if live.any():
        lists = neighbors_each(db, np.asarray(positions, dtype=float)[live],
                               thresholds.neighborhood_radius)
        best[live] = [np.max(s, initial=0.0) for s in
                      score_lists(frames[live], lists, db.adps, db.norms)]
    verdicts = np.where(best >= thresholds.similarity_floor, ACCURATE,
                        DISTORTED).astype(np.int8)
    verdicts[~live] = LOST_LINK
    return verdicts, best


def detect_distorted(adp, position, db: FingerprintDb,
                     thresholds: Thresholds) -> DetectionResult:
    """Judge one measured frame, given the localizer's fix of it.

    ``detect_each`` on a stack of one; ``position`` can be None for an
    all-zero frame, which is ``LOST_LINK``.
    """
    fix = np.full(2, np.nan) if position is None else position
    verdicts, best = detect_each(np.asarray(adp, dtype=np.float64)[None],
                                 [fix], db, thresholds)
    return DetectionResult(VERDICTS[verdicts[0]], float(best[0]))


class RecoveryResult(NamedTuple):
    position: np.ndarray
    adp: np.ndarray
    prediction_weight: float


def recover_each(frames, predicted, predicted_positions, prev_positions,
                 db: FingerprintDb, thresholds: Thresholds):
    """Rebuild position and profile for each frame of a stack that cannot
    be trusted.

    ``predicted`` holds the frames a predictor extrapolated from each
    frame's recent history and ``predicted_positions`` the localizer's
    fixes of them, a NaN row where the prediction is empty (all zero) and
    so unusable; ``prev_positions`` are the previous positions, a NaN row
    where there is none. Fusion candidates of a frame are the identifiable
    database entries within the recovery radius of its previous position,
    plus its predicted frame at its fix. Every candidate is weighted by
    its similarity to the measured frame, distorted as it is: the
    distortion usually leaves part of the profile intact, and that part
    votes for the right candidates. Weights are normalized to sum to one;
    if every similarity is zero the candidates are weighted uniformly. The
    fused position and profile are the weighted means.

    A measured frame with no energy carries no vote at all, so recovery
    falls back to the prediction alone: its localized position and the
    predicted profile are returned as they are.

    The similarities of all frames are taken in one ``score_lists`` pass
    over the database candidates and one ``stacked_similarity`` pass over
    the predictions; each frame's weights are then normalized and fused on
    its own.

    Returns:
        (positions, profiles, prediction weights): (n, 2), the frames'
        shape and (n,) float64, the last the prediction's share of each
        fusion.

    Raises:
        EmptyNeighborhood: for the first frame, in stack order, without
            candidates (no identifiable database entry in range and no
            usable prediction), or a lost link without a usable
            prediction.
    """
    frames = np.asarray(frames, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    predicted_positions = np.asarray(predicted_positions, dtype=float)
    has_prediction = ~np.isnan(predicted_positions[:, 0])
    live = frames.any(axis=tuple(range(1, frames.ndim)))
    lists = db_sims = []
    if live.any():
        lists = neighbors_each(
            db, np.asarray(prev_positions, dtype=float)[live],
            thresholds.recovery_radius)
        db_sims = score_lists(frames[live], lists, db.adps, db.norms)
    voting = np.flatnonzero(live & has_prediction)
    prediction_sims = np.zeros(len(frames))
    if voting.size:
        if predicted.shape[1:] != frames.shape[1:]:
            raise DimensionMismatch(
                f"profile shapes {frames.shape[1:]} vs {predicted.shape[1:]}")
        votes = predicted[voting].reshape(len(voting), -1)
        prediction_sims[voting] = stacked_similarity(
            frames[voting].reshape(len(voting), -1), votes[:, None],
            np.linalg.norm(votes, axis=1)[:, None])[:, 0]
    positions = np.empty((len(frames), 2))
    fused = np.empty(frames.shape)
    shares = np.zeros(len(frames))
    for i, rank in enumerate(np.cumsum(live) - 1):
        if not live[i]:
            if not has_prediction[i]:
                raise EmptyNeighborhood(
                    "link lost and the prediction out of history is empty"
                )
            positions[i], fused[i], shares[i] = (predicted_positions[i],
                                                 predicted[i], 1.0)
            continue
        weights = db_sims[rank]
        candidates = db.positions[lists[rank]]
        adps = db.adps[lists[rank]].astype(np.float64)
        if has_prediction[i]:
            weights = np.append(weights, prediction_sims[i])
            candidates = np.vstack([candidates, predicted_positions[i]])
            adps = np.concatenate([adps, predicted[i][None]])
        if not weights.size:
            raise EmptyNeighborhood(
                "no database entries near the previous position and no "
                "usable prediction"
            )
        total = float(weights.sum())
        if total > 0.0:
            weights = weights / total
        else:
            weights = np.full(weights.size, 1.0 / weights.size)
        positions[i] = np.einsum("i,ij->j", weights, candidates)
        fused[i] = np.einsum("i,ijk->jk", weights, adps)
        shares[i] = weights[-1] if has_prediction[i] else 0.0
    return positions, fused, shares


def recover_and_locate(measured, predicted, predicted_position,
                       prev_position, db: FingerprintDb,
                       thresholds: Thresholds) -> RecoveryResult:
    """Rebuild position and profile for one frame that cannot be trusted.

    ``recover_each`` on a stack of one; ``predicted_position`` is None
    when the prediction is empty, and ``prev_position`` None when there is
    no previous position.

    Raises:
        EmptyNeighborhood: no candidates (no identifiable database entry
            in range and no usable prediction), or a lost link without a
            usable prediction.
    """
    nan = np.full(2, np.nan)
    positions, fused, shares = recover_each(
        np.asarray(measured, dtype=np.float64)[None],
        np.asarray(predicted, dtype=np.float64)[None],
        [nan if predicted_position is None else predicted_position],
        [nan if prev_position is None else prev_position], db, thresholds)
    return RecoveryResult(positions[0], fused[0], float(shares[0]))


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

    ``walks`` is a walk stack of n equal-length walks of T profiles, an
    (n, T, n_t, n_c) array or a list of n walks (one walk is a list of
    one), copied once as float64 into the fed profiles. The walks are
    stepped together: at each time step from t = 1 the predictor
    predicts every walk's history in one call, and at every step the
    localizer locates the step's measured frames stacked with their
    predictions in one call (``locate_each``, which skips the all-zero
    rows; step 0 has no history, and its predictions are all zero). The
    step's frames are then judged in one ``detect_each`` pass and its
    untrusted frames recovered in one ``recover_each`` pass. Every walk's
    estimates are those it would get alone, since a localizer or
    predictor answers each row of a stack as it would answer that row by
    itself, and the stacked scoring gives each frame the similarities it
    gets alone.

    Accurate frames, and an untrusted first frame, which has no history to
    predict from, are fed as measured; every later distorted or lost-link
    frame is recovered around the walk's previous position and fed as
    rebuilt. The histories at step t are the (n, min(t, history_length),
    n_t, n_c) window of the fed profiles before t, a read-only view.

    The predictor runs on every frame that has a history, accepted or
    not, and its localized output is recorded as ``predicted_position``.
    That keeps the predictive arm observable as a method of its own even
    on frames the detector waves through. Recovery fuses that same
    prediction at that same fix, so each prediction is localized once.

    Returns:
        One ``Estimates`` record; row i is walk i of ``walks``.

    Raises:
        ValueError: if ``history_length`` is not an integer of at least 1.
        EmptyNeighborhood: if the link is lost on the very first frame of
            a walk.
        LengthMismatch: if the walks differ in length.
        DimensionMismatch: if the predictor's stack is not shaped like
            the step's frames.
    """
    check_int("history_length", history_length)
    if len({len(w) for w in walks}) > 1:
        raise LengthMismatch("the walks differ in length")
    n, length = len(walks), len(walks[0]) if len(walks) else 0
    fed = np.array(walks, dtype=np.float64)
    est = Estimates(
        np.full((n, length, 2), np.nan), np.full((n, length, 2), np.nan),
        np.full((n, length, 2), np.nan), np.zeros((n, length), np.int8),
        np.zeros((n, length)), np.zeros((n, length)))
    for t in range(length):
        frames = fed[:, t]  # recovery writes the rebuilt frames into fed
        if t == 0:  # no history: all-zero predictions, located as NaN
            predicted = np.zeros_like(frames)
        else:
            history = fed[:, max(0, t - history_length):t]
            history.flags.writeable = False
            predicted = np.asarray(predictor(history))
            if predicted.shape != frames.shape:
                raise DimensionMismatch(
                    f"predicted stack {predicted.shape} vs frames "
                    f"{frames.shape}")
        fixes = locate_each(localizer, np.concatenate([frames, predicted]))
        est.measured_position[:, t] = fixes[:n]
        est.predicted_position[:, t] = fixes[n:]
        verdicts, est.best_similarity[:, t] = detect_each(
            frames, est.measured_position[:, t], db, thresholds)
        est.verdict[:, t] = verdicts
        trusted = verdicts == ACCURATE
        if t == 0:  # no history to recover from: keep the untrusted fix
            if (verdicts == LOST_LINK).any():
                raise EmptyNeighborhood(
                    f"frame {t}: link lost before any usable frame"
                )
            trusted[:] = True
        est.position[trusted, t] = est.measured_position[trusted, t]
        redo = np.flatnonzero(~trusted)
        if redo.size:
            positions, frames[redo], weights = recover_each(
                frames[redo], predicted[redo],
                est.predicted_position[redo, t], est.position[redo, t - 1],
                db, thresholds)
            est.position[redo, t] = positions
            est.prediction_weight[redo, t] = weights
    return est
