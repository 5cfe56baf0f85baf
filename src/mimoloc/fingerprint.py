"""Grid-indexed fingerprint database of angle-delay profiles.

One profile per grid point, built by running the full channel pipeline
over the grid in blocks of positions. Profiles are stored as float32
images (the persisted precision) in row-major grid order, so a rebuild
with identical configs is byte-identical on disk.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import container
from .adp import DftPair, adp_from_csi, build_dft_pair
from .channel import (
    ArrayConfig,
    Environment,
    OfdmConfig,
    format_environment,
    synthesize_csi,
    trace_paths,
)
from .errors import FormatError, check_int, check_positive, is_finite

META_FORMAT_VERSION = 1

# positions per pass of the channel kernel. A pass holds about 25 kB per
# position (traced paths, CSI and profile temporaries): 64 keeps the build's
# peak near 3.5 MB on a 40x40 grid, where one pass over the whole grid
# peaks near 36 MB; larger blocks are no faster
BUILD_BLOCK = 64

# prints per float64 pass over a whole database (the print norms, the
# threshold calibration): a pass copies 128 kB of 16x16 profiles, where
# one pass over a 40x40 grid would copy 3.3 MB
PRINT_BLOCK = 64


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid of candidate positions.

    Point (row, col) sits at origin + (col*spacing, row*spacing); row-major
    flattening defines the database order and all tie-breaking.

    Raises:
        ValueError: ``origin`` is not two finite numbers, ``spacing`` is
            not finite and above 0, or a count is not an integer above 0.
    """

    origin: tuple[float, float]
    spacing: float
    n_rows: int
    n_cols: int

    def __post_init__(self):
        if len(self.origin) != 2 or not all(map(is_finite, self.origin)):
            raise ValueError(f"origin must be two finite numbers, got "
                             f"{self.origin!r}")
        check_positive("spacing", self.spacing)
        check_int("n_rows", self.n_rows)
        check_int("n_cols", self.n_cols)

    @property
    def n_points(self) -> int:
        return self.n_rows * self.n_cols

    def position(self, row: int, col: int) -> np.ndarray:
        return np.array(
            [self.origin[0] + col * self.spacing, self.origin[1] + row * self.spacing]
        )

    def all_positions(self) -> np.ndarray:
        cols, rows = np.meshgrid(np.arange(self.n_cols), np.arange(self.n_rows))
        x = self.origin[0] + cols.ravel() * self.spacing
        y = self.origin[1] + rows.ravel() * self.spacing
        return np.stack([x, y], axis=1)

    def extent(self) -> tuple[float, float, float, float]:
        """(x_min, y_min, x_max, y_max) of the grid bounding box."""
        return (
            self.origin[0],
            self.origin[1],
            self.origin[0] + (self.n_cols - 1) * self.spacing,
            self.origin[1] + (self.n_rows - 1) * self.spacing,
        )

    def to_meta(self) -> dict:
        return {
            "origin": [self.origin[0], self.origin[1]],
            "spacing": self.spacing,
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "GridSpec":
        return cls(
            origin=(meta["origin"][0], meta["origin"][1]),
            spacing=meta["spacing"],
            n_rows=meta["n_rows"],
            n_cols=meta["n_cols"],
        )


@dataclass
class FingerprintDb:
    """Fingerprints plus the grid they were sampled on.

    Attributes:
        grid: sampling grid.
        positions: (n_points, 2) float64, row-major grid order.
        adps: (n_points, n_t, n_c) float32 profiles.
        meta: build configs; round-trips through the JSON sidecar.
        zero_flags: (n_points,) bool, True for an all-zero profile.
        norms: (n_points,) float64 Frobenius norm of each profile, taken
            as ``adp.similarity`` takes the norms of a stack, so a
            similarity against any subset of prints can reuse them.
    """

    grid: GridSpec
    positions: np.ndarray
    adps: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # Zero-profile points (no traced paths) stay in the database but are
        # flagged so similarity-based consumers can skip them.
        flat = self.adps.reshape(len(self.adps), -1)
        self.zero_flags = ~flat.any(axis=1)
        self.norms = np.zeros(len(flat))
        for start in range(0, len(flat), PRINT_BLOCK):
            block = slice(start, start + PRINT_BLOCK)
            rows = flat[block].astype(np.float64)
            self.norms[block] = np.linalg.norm(rows, axis=1)

    @property
    def n_t(self) -> int:
        return self.adps.shape[1]

    @property
    def n_c(self) -> int:
        return self.adps.shape[2]


def build_db(
    env: Environment,
    grid: GridSpec,
    array: ArrayConfig,
    ofdm: OfdmConfig,
    dft: DftPair | None = None,
    seed: int | None = None,
) -> FingerprintDb:
    """Build the fingerprint database by simulation at every grid point.

    Deterministic: no randomness is involved, the optional seed is recorded
    in the metadata only so downstream artifacts can echo it.
    """
    if dft is None:
        dft = build_dft_pair(array.n_antennas, ofdm.n_subcarriers)
    positions = grid.all_positions()
    adps = np.zeros(
        (grid.n_points, array.n_antennas, ofdm.n_subcarriers), dtype="<f4"
    )
    for start in range(0, grid.n_points, BUILD_BLOCK):
        block = slice(start, start + BUILD_BLOCK)
        paths = trace_paths(env, positions[block], array, ofdm)
        csi = synthesize_csi(paths, array, ofdm)
        adps[block] = adp_from_csi(csi, dft)
    meta = {
        "format_version": META_FORMAT_VERSION,
        "grid": grid.to_meta(),
        "array": {
            "n_antennas": array.n_antennas,
            "wavelength": array.wavelength,
            "element_spacing": array.element_spacing,
        },
        "ofdm": {"n_subcarriers": ofdm.n_subcarriers, "bandwidth": ofdm.bandwidth},
        "environment": format_environment(env),
        "seed": seed,
    }
    return FingerprintDb(grid=grid, positions=positions, adps=adps, meta=meta)


def neighbor_indices_within(db: FingerprintDb, center, radius: float) -> np.ndarray:
    """Indices of the entries within ``radius`` of ``center``.

    Sorted by distance, ties broken by row-major grid order. Zero-profile
    entries are included; callers that feed similarities filter them via
    ``db.zero_flags``.
    """
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    c = np.asarray(center, dtype=float)
    dist = np.linalg.norm(db.positions - c, axis=1)
    hit = np.flatnonzero(dist <= radius)
    order = np.lexsort((hit, dist[hit]))
    return hit[order]


def save_db(db: FingerprintDb, path) -> None:
    """Persist to an ADPF container plus a '<path>.meta.json' sidecar."""
    records = container.make_records(db.n_t, db.n_c, len(db.positions))
    records["position"] = db.positions
    records["pixels"] = db.adps
    container.write_container(path, db.n_t, db.n_c, records)
    with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(db.meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_db(path) -> FingerprintDb:
    """Read a database written by ``save_db``.

    Raises:
        FormatError: the container is malformed; the sidecar is not UTF-8
            JSON, lacks a grid ``GridSpec`` accepts, or describes a grid
            whose point count differs from the record count; the record
            positions are not that grid's points in row-major order; the
            sidecar's ``array.n_antennas`` or ``ofdm.n_subcarriers``
            differs from the container's profile size; or a pixel is NaN,
            infinite or negative.
        TruncatedFile: the container is cut short.
        VersionError: the container's version is not 1.
    """
    n_t, n_c, records = container.read_container(path)
    sidecar = _sidecar_path(path)
    with open(sidecar, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise FormatError(f"{sidecar}: not JSON: {exc}") from exc
    try:
        grid = GridSpec.from_meta(meta["grid"])
    except (LookupError, TypeError, ValueError) as exc:
        raise FormatError(f"{sidecar}: no valid grid: {exc!r}") from exc
    if grid.n_points != len(records):
        raise FormatError(
            f"{sidecar}: grid has {grid.n_points} points, container "
            f"holds {len(records)} records"
        )
    if not np.array_equal(records["position"], grid.all_positions()):
        raise FormatError(f"{path}: positions are not the grid's points")
    try:
        sizes = (meta["array"]["n_antennas"], meta["ofdm"]["n_subcarriers"])
    except (LookupError, TypeError) as exc:
        raise FormatError(f"{sidecar}: no profile size: {exc!r}") from exc
    if sizes != (n_t, n_c):
        raise FormatError(
            f"{sidecar}: describes {sizes[0]}x{sizes[1]} profiles, the "
            f"container holds {n_t}x{n_c}"
        )
    pixels = records["pixels"]
    if not (np.isfinite(pixels) & (pixels >= 0)).all():
        raise FormatError(f"{path}: a pixel is NaN, infinite or negative")
    return FingerprintDb(
        grid=grid,
        positions=records["position"].astype(np.float64),
        adps=pixels,
        meta=meta,
    )


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".meta.json"
