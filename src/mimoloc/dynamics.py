"""User motion and channel distortion over frame sequences.

Random walks live on the fingerprint grid (4-neighborhood by default).
Two regimes: mode 1 keeps a heading until the grid edge forces a new
uniformly-drawn feasible one, mode 2 redraws a feasible heading every
step. Distortions model a foreground object appearing mid-sequence:
blocking the strongest path, blocking the second-strongest, or adding a
foreign reflection a fixed level below the strongest path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import container
from .adp import DftPair, adp_from_csi, build_dft_pair
from .channel import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    Environment,
    OfdmConfig,
    Path,
    synthesize_csi,
    trace_paths,
)
from .errors import NotEnoughPaths
from .fingerprint import GridSpec

_DIRECTIONS_4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_DIRECTIONS_8 = _DIRECTIONS_4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


class WalkMode(enum.Enum):
    MODE1 = 1
    MODE2 = 2


class DistortionKind(enum.Enum):
    LOS_BLOCKAGE = "los-block"
    NLOS_BLOCKAGE = "nlos-block"
    NLOS_ADDITION = "nlos-add"


@dataclass(frozen=True)
class DistortionScenario:
    """What the foreground object does to frames past ``distort_from``.

    ``addition_level_db`` sets the injected path magnitude relative to the
    strongest existing path (amplitude dB, default -6). The injected path's
    angle, delay and phase come from ``rng_seed`` alone, so every sequence
    generated with one scenario shares them: ``evaluation_walks`` seeds it
    with the config's seed, which makes every walk of an evaluation carry
    the same draw. Only its magnitude follows each sequence, set from the
    strongest path of its first distorted frame, and the path is held
    fixed across that sequence's distorted frames.
    """

    kind: DistortionKind
    addition_level_db: float = -6.0
    rng_seed: int = 0


@dataclass
class Walk:
    mode: WalkMode
    cells: np.ndarray  # (length, 2) int rows/cols
    grid: GridSpec

    @property
    def length(self) -> int:
        return len(self.cells)

    def positions(self) -> np.ndarray:
        """(length, 2) positions in meters."""
        x = self.grid.origin[0] + self.cells[:, 1] * self.grid.spacing
        y = self.grid.origin[1] + self.cells[:, 0] * self.grid.spacing
        return np.stack([x, y], axis=1)


@dataclass
class Frame:
    position: np.ndarray
    adp: np.ndarray  # (n_t, n_c) float32, the persisted precision
    distorted: bool
    lost_link: bool
    paths: tuple[Path, ...] | None = None


@dataclass
class FrameSequence:
    frames: list[Frame]
    mode: WalkMode | None = None
    scenario: DistortionScenario | None = None
    distort_from: int | None = None

    def __len__(self) -> int:
        return len(self.frames)

    def adps(self) -> np.ndarray:
        return np.stack([f.adp for f in self.frames])

    def positions(self) -> np.ndarray:
        return np.stack([f.position for f in self.frames])


def random_walk(
    grid: GridSpec,
    mode: WalkMode,
    length: int,
    rng_seed,
    neighborhood: int = 4,
) -> Walk:
    """Seeded on-grid random walk of ``length`` positions.

    Start cell is uniform over the grid. Every move stays on the grid; when
    no move is feasible (degenerate 1x1 grid) the walk stands still.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if neighborhood not in (4, 8):
        raise ValueError("neighborhood must be 4 or 8")
    dirs = _DIRECTIONS_4 if neighborhood == 4 else _DIRECTIONS_8
    rng = np.random.default_rng(rng_seed)
    cell = (int(rng.integers(grid.n_rows)), int(rng.integers(grid.n_cols)))
    cells = [cell]
    heading = None
    for _ in range(length - 1):
        feasible = [
            d
            for d in dirs
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


def _strongest_index(paths: list[Path]) -> int:
    return max(range(len(paths)), key=lambda i: abs(paths[i].gain))


def draw_foreground_path(
    scenario: DistortionScenario,
    paths: list[Path],
    ofdm: OfdmConfig,
    speed_of_light: float = SPEED_OF_LIGHT,
) -> Path:
    """Draw the injected foreign path for an addition scenario.

    The draw is seeded by ``scenario.rng_seed`` alone, so every call with
    one scenario draws the same angle, delay and phase; only the magnitude
    depends on ``paths``.

    Arrival angle is uniform over (0, pi), the delay bin uniform over the
    OFDM window, the phase uniform; magnitude sits ``addition_level_db``
    below the strongest path in ``paths``.
    """
    if not paths:
        raise NotEnoughPaths("addition needs at least one reference path")
    rng = np.random.default_rng(scenario.rng_seed)
    aoa = float(rng.uniform(0.0, np.pi))
    nbin = int(rng.integers(0, ofdm.n_subcarriers))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    magnitude = 10.0 ** (scenario.addition_level_db / 20.0) * max(
        abs(p.gain) for p in paths
    )
    delay = nbin * ofdm.sample_duration
    return Path(
        aoa=aoa,
        delay=delay,
        sampled_delay=nbin,
        gain=complex(magnitude * np.exp(1j * phase)),
        path_length=delay * speed_of_light,
        cluster_id=-1,
        is_los=False,
    )


def distort_paths(
    paths: list[Path],
    scenario: DistortionScenario,
    ofdm: OfdmConfig | None = None,
    speed_of_light: float = SPEED_OF_LIGHT,
    foreground: Path | None = None,
) -> list[Path]:
    """Apply one scenario to a path list, returning a new list.

    Blockage removes the strongest (or second-strongest) path by gain
    magnitude, first index winning ties. Addition appends ``foreground`` if
    given, else draws one from the scenario seed (``ofdm`` required then).

    Raises:
        NotEnoughPaths: blockage of an empty list, second-path blockage
            with fewer than two paths, or addition with no reference path.
    """
    result = list(paths)
    if scenario.kind is DistortionKind.LOS_BLOCKAGE:
        if not result:
            raise NotEnoughPaths("no path to block")
        result.pop(_strongest_index(result))
    elif scenario.kind is DistortionKind.NLOS_BLOCKAGE:
        if len(result) < 2:
            raise NotEnoughPaths("second-path blockage needs >= 2 paths")
        order = sorted(range(len(result)), key=lambda i: (-abs(result[i].gain), i))
        result.pop(order[1])
    elif scenario.kind is DistortionKind.NLOS_ADDITION:
        if foreground is None:
            if ofdm is None:
                raise ValueError("addition without a prebuilt path needs ofdm")
            foreground = draw_foreground_path(scenario, result, ofdm, speed_of_light)
        result.append(foreground)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown distortion kind {scenario.kind}")
    return result


def generate_sequence(
    env: Environment,
    walk: Walk,
    scenario: DistortionScenario | None,
    distort_from: int,
    array: ArrayConfig,
    ofdm: OfdmConfig,
    dft: DftPair | None = None,
) -> FrameSequence:
    """Simulate one walk into a frame sequence of angle-delay profiles.

    Frames before ``distort_from`` (or all frames when ``scenario`` is
    None) replay the static pipeline exactly, so their profiles match the
    fingerprint database bit for bit. From ``distort_from`` on, the
    scenario is applied to the traced paths before CSI synthesis. A frame
    with no remaining path is marked ``lost_link``. The whole walk is
    traced in one call and its frames are synthesized in one call.
    """
    if dft is None:
        dft = build_dft_pair(array.n_antennas, ofdm.n_subcarriers)
    positions = walk.positions()
    traced = trace_paths(env, positions, array, ofdm)
    foreground: Path | None = None
    flags = []
    effective = []
    for i, paths in enumerate(traced):
        distorted = scenario is not None and i >= distort_from
        if distorted:
            if (scenario.kind is DistortionKind.NLOS_ADDITION
                    and foreground is None):
                foreground = draw_foreground_path(
                    scenario, paths, ofdm, env.speed_of_light
                )
            paths = distort_paths(paths, scenario, ofdm,
                                  foreground=foreground)
        flags.append(distorted)
        effective.append(paths)
    adps = adp_from_csi(synthesize_csi(effective, array, ofdm), dft)
    adps32 = adps.astype("<f4")
    frames = [
        Frame(
            position=pos,
            adp=adp32,
            distorted=distorted,
            lost_link=not np.any(adp32),
            paths=tuple(paths),
        )
        for pos, adp32, distorted, paths in zip(positions, adps32, flags,
                                                traced)
    ]
    return FrameSequence(
        frames=frames,
        mode=walk.mode,
        scenario=scenario,
        distort_from=distort_from if scenario is not None else None,
    )


def save_sequences(path, sequences: list[FrameSequence]) -> None:
    """Persist sequences to an ADPF version-2 container.

    Sequence ids are assigned by list position; path lists are simulation
    intermediates and are not persisted.
    """
    if not sequences:
        raise ValueError("nothing to save")
    n_t, n_c = sequences[0].frames[0].adp.shape
    total = sum(len(s.frames) for s in sequences)
    records = container.make_records(container.VERSION_SEQUENCES, n_t, n_c, total)
    k = 0
    for sid, seq in enumerate(sequences):
        for fi, fr in enumerate(seq.frames):
            records[k]["position"] = fr.position
            records[k]["pixels"] = fr.adp
            records[k]["sequence_id"] = sid
            records[k]["frame_index"] = fi
            records[k]["distorted"] = int(fr.distorted)
            k += 1
    container.write_container(path, container.VERSION_SEQUENCES, n_t, n_c, records)


def load_sequences(path) -> list[FrameSequence]:
    _, _, _, records = container.read_container(
        path, expect_version=container.VERSION_SEQUENCES
    )
    by_id: dict[int, list] = {}
    for rec in records:
        by_id.setdefault(int(rec["sequence_id"]), []).append(rec)
    sequences = []
    for sid in sorted(by_id):
        recs = sorted(by_id[sid], key=lambda r: int(r["frame_index"]))
        frames = [
            Frame(
                position=rec["position"].astype(np.float64),
                adp=rec["pixels"].copy(),
                distorted=bool(rec["distorted"]),
                lost_link=not np.any(rec["pixels"]),
            )
            for rec in recs
        ]
        flags = [f.distorted for f in frames]
        first = flags.index(True) if any(flags) else None
        sequences.append(FrameSequence(frames=frames, distort_from=first))
    return sequences
