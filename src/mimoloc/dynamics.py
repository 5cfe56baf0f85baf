"""User motion and channel distortion over walks.

Random walks live on the fingerprint grid and step to one of the four
neighboring cells. Two regimes: mode 1 keeps a heading until the grid
edge forces a new uniformly-drawn feasible one, mode 2 redraws a feasible
heading every step. Distortions model a foreground object appearing
mid-walk: blocking the strongest path, blocking the second-strongest,
or adding a foreign reflection a fixed level below the strongest path.
Each is one column operation on the distorted rows of a walk's traced
paths: a blockage clears a column, an addition appends one. A simulated
walk is one ``FrameSequence`` record of per-frame arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .adp import DftPair, adp_from_csi, build_dft_pair
from .channel import (
    ArrayConfig,
    Environment,
    OfdmConfig,
    Paths,
    synthesize_csi,
    trace_paths,
)
from .errors import NotEnoughPaths
from .fingerprint import GridSpec

_DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))


class WalkMode(enum.Enum):
    MODE1 = 1
    MODE2 = 2


class DistortionKind(enum.Enum):
    LOS_BLOCKAGE = "los-block"
    NLOS_BLOCKAGE = "nlos-block"
    NLOS_ADDITION = "nlos-add"


@dataclass(frozen=True)
class DistortionScenario:
    """What the foreground object does to frames from ``distort_from`` on.

    Blockage clears each distorted frame's strongest path (los-block) or
    its second strongest (nlos-block) in the walk's traced paths; addition
    appends one foreign path to them. ``addition_level_db`` sets its
    magnitude relative to the strongest existing path (amplitude dB,
    default -6). Its angle, delay and phase come from ``rng_seed`` alone,
    so every sequence generated with one scenario shares them:
    ``evaluation_walks`` seeds it with the config's seed, which makes every
    walk of an evaluation carry the same draw. Only its magnitude follows
    each sequence, set from the strongest path of its first distorted
    frame, and the path is held fixed across that sequence's distorted
    frames.
    """

    kind: DistortionKind
    addition_level_db: float = -6.0
    rng_seed: int = 0


@dataclass
class Walk:
    mode: WalkMode
    cells: np.ndarray  # (length, 2) int rows/cols
    grid: GridSpec

    def positions(self) -> np.ndarray:
        """(length, 2) positions in meters."""
        x = self.grid.origin[0] + self.cells[:, 1] * self.grid.spacing
        y = self.grid.origin[1] + self.cells[:, 0] * self.grid.spacing
        return np.stack([x, y], axis=1)


@dataclass
class FrameSequence:
    """One walk of T frames; len() is T."""

    positions: np.ndarray  # (T, 2) float64 meters
    adps: np.ndarray  # (T, n_t, n_c) float32, the database's precision
    distorted: np.ndarray  # (T,) bool, set where the scenario applies
    mode: WalkMode

    def __len__(self) -> int:
        return len(self.adps)


def random_walk(grid: GridSpec, mode: WalkMode, length: int, rng_seed) -> Walk:
    """Seeded on-grid random walk of ``length`` positions.

    Start cell is uniform over the grid. Every move stays on the grid; when
    no move is feasible (degenerate 1x1 grid) the walk stands still.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(rng_seed)
    cell = (int(rng.integers(grid.n_rows)), int(rng.integers(grid.n_cols)))
    cells = [cell]
    heading = None
    for _ in range(length - 1):
        feasible = [
            d
            for d in _DIRECTIONS
            if 0 <= cell[0] + d[0] < grid.n_rows and 0 <= cell[1] + d[1] < grid.n_cols
        ]
        if not feasible:
            cells.append(cell)
            continue
        if mode is WalkMode.MODE2 or heading not in feasible:
            heading = feasible[int(rng.integers(len(feasible)))]
        cell = (cell[0] + heading[0], cell[1] + heading[1])
        cells.append(cell)
    return Walk(mode=mode, cells=np.array(cells, dtype=int), grid=grid)


def _distort(paths: Paths, scenario: DistortionScenario, start: int,
             ofdm: OfdmConfig, speed_of_light: float) -> Paths:
    """A walk's paths with one scenario applied to rows ``start`` on.

    Rows hold their paths strongest first, as ``trace_paths`` sorts them,
    so blockage clears column 0 or 1 of those rows. Addition appends a
    column holding the foreground path in those rows: angle, delay bin and
    phase uniform over (0, pi), the OFDM window and a turn, drawn from
    ``scenario.rng_seed`` alone; magnitude ``addition_level_db`` below the
    strongest path of row ``start``. ``paths`` is not modified.

    Raises:
        NotEnoughPaths: a distorted row without the path to block, or
            addition to a row ``start`` without a path.
    """
    hit = np.arange(len(paths)) >= start
    if not hit.any():
        return paths
    if scenario.kind is DistortionKind.NLOS_ADDITION:
        first = int(np.argmax(hit))
        reference = paths.gain[first][paths.valid[first]].tolist()
        if not reference:
            raise NotEnoughPaths("addition needs at least one reference path")
        rng = np.random.default_rng(scenario.rng_seed)
        aoa = float(rng.uniform(0.0, np.pi))
        nbin = int(rng.integers(0, ofdm.n_subcarriers))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        magnitude = 10.0 ** (scenario.addition_level_db / 20.0) * max(
            map(abs, reference))
        gain = complex(magnitude * np.exp(1j * phase))
        length = nbin * ofdm.sample_duration * speed_of_light

        def grow(field, value):
            return np.column_stack([field, np.broadcast_to(value, len(hit))])

        return Paths(grow(paths.aoa, aoa), grow(paths.sampled_delay, nbin),
                     grow(paths.gain, gain), grow(paths.length, length),
                     grow(paths.cluster, -1), grow(paths.valid, hit))
    blocked = 0 if scenario.kind is DistortionKind.LOS_BLOCKAGE else 1
    if paths.valid.shape[1] <= blocked or not paths.valid[hit, blocked].all():
        raise NotEnoughPaths("no path to block" if blocked == 0 else
                             "second-path blockage needs >= 2 paths")
    valid = paths.valid.copy()
    valid[hit, blocked] = False
    return replace(paths, valid=valid)


def generate_sequence(
    env: Environment,
    walk: Walk,
    scenario: DistortionScenario | None,
    distort_from: int,
    array: ArrayConfig,
    ofdm: OfdmConfig,
    dft: DftPair | None = None,
) -> FrameSequence:
    """Simulate one walk into a record of angle-delay profiles.

    Frames before ``distort_from`` (or all frames when ``scenario`` is
    None) replay the static pipeline exactly, so their profiles match the
    fingerprint database bit for bit. From ``distort_from`` on, the
    scenario is applied to the traced paths before CSI synthesis; a frame
    left with no path has an all-zero profile. The whole walk is traced
    in one call and its frames are synthesized in one call.
    """
    if dft is None:
        dft = build_dft_pair(array.n_antennas, ofdm.n_subcarriers)
    positions = walk.positions()
    paths = trace_paths(env, positions, array, ofdm)
    distorted = np.zeros(len(positions), dtype=bool)
    if scenario is not None:
        paths = _distort(paths, scenario, distort_from, ofdm,
                         env.speed_of_light)
        distorted = np.arange(len(positions)) >= distort_from
    adps = adp_from_csi(synthesize_csi(paths, array, ofdm), dft).astype("<f4")
    return FrameSequence(positions, adps, distorted, walk.mode)
