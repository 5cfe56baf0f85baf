"""Grid-indexed fingerprint database of angle-delay profiles.

One profile per grid point, built by running the full channel pipeline
over the grid in blocks of positions. Profiles are stored as float32
images (the persisted precision) in row-major grid order. On disk
(``save_db``) the build configs are the header and the profiles the
float32 body of ``mimoloc.container``'s one layout; positions are not
stored, since they are the grid's. A rebuild with identical configs is
byte-identical on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import container
from .adp import DftPair, adp_from_csi, build_dft_pair
from .channel import (
    ArrayConfig,
    Environment,
    OfdmConfig,
    format_environment,
    parse_environment,
    synthesize_csi,
    trace_paths,
)
from .errors import FormatError, check_int, check_positive, is_finite

DB_MAGIC = b"ADPF"
# 1 was records plus a JSON sidecar, 2 the retired walk layout
DB_VERSION = 3

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
    flattening defines the database order and all tie-breaking. ``origin``
    and ``spacing`` are stored as floats.

    Raises:
        ValueError: ``origin`` is not two finite numbers, ``spacing`` is
            not finite and above 0, or a count is not an integer above 0.
    """

    origin: tuple[float, float]
    spacing: float
    n_rows: int
    n_cols: int

    def __post_init__(self):
        if not (np.iterable(self.origin) and len(self.origin) == 2
                and all(map(is_finite, self.origin))):
            raise ValueError(f"origin must be two finite numbers, got "
                             f"{self.origin!r}")
        check_positive("spacing", self.spacing)
        check_int("n_rows", self.n_rows)
        check_int("n_cols", self.n_cols)
        # as floats, so that a JSON integer too large for int64 (a spacing
        # of 2**63, say) cannot overflow the position arithmetic
        object.__setattr__(self, "origin", tuple(map(float, self.origin)))
        object.__setattr__(self, "spacing", float(self.spacing))

    @property
    def n_points(self) -> int:
        return self.n_rows * self.n_cols

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
        meta: build configs; round-trips as the file's header.
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
    """Write the database in the layout of ``mimoloc.container``: ``meta``
    as the header, the profiles as the float32 body."""
    container.write_checkpoint(path, DB_MAGIC, DB_VERSION, db.meta, [db.adps])


def load_db(path) -> FingerprintDb:
    """Read a database written by ``save_db``.

    The grid and the profile size come from the header. The pixel count
    they imply is compared with the body before any profile is made.

    Raises:
        TruncatedFile: the file is cut short, or holds fewer pixels than
            its header implies.
        FormatError: bad magic; a header that is not a JSON object, lacks
            a grid ``GridSpec`` accepts, or whose ``array.n_antennas`` or
            ``ofdm.n_subcarriers`` is not an integer of at least 1, whose
            ``array.wavelength``, ``array.element_spacing`` or
            ``ofdm.bandwidth`` is not a finite number above 0, whose
            ``environment`` is not a text ``parse_environment`` accepts, or
            whose ``seed`` is neither null nor an integer of at least 0; a
            grid whose positions overflow; trailing bytes; or a pixel that
            is NaN, infinite or negative.
        VersionError: a version other than 3.
    """
    meta, body = container.read_checkpoint(path, DB_MAGIC, DB_VERSION)
    try:
        grid = GridSpec.from_meta(meta["grid"])
        n_t, n_c = meta["array"]["n_antennas"], meta["ofdm"]["n_subcarriers"]
        check_int("array.n_antennas", n_t)
        check_int("ofdm.n_subcarriers", n_c)
        for section, key in (("array", "wavelength"),
                             ("array", "element_spacing"),
                             ("ofdm", "bandwidth")):
            check_positive(f"{section}.{key}", meta[section][key])
        if meta["seed"] is not None:
            check_int("seed", meta["seed"], least=0)
        if not isinstance(meta["environment"], str):
            raise TypeError("environment must be a string")
        parse_environment(meta["environment"])
    except (LookupError, TypeError, ValueError, FormatError) as exc:
        raise FormatError(f"{path}: header does not describe a database: "
                          f"{exc!r}") from exc
    # the pixel count the header implies, checked before any is made
    container.check_weight_count(body, grid.n_points * n_t * n_c)
    if not all(map(is_finite, grid.extent())):
        raise FormatError(f"{path}: the grid's positions overflow")
    adps = np.empty((grid.n_points, n_t, n_c), dtype="<f4")
    container.read_weights(body, [adps])
    if (adps < 0).any():
        raise FormatError(f"{path}: a pixel is negative")
    return FingerprintDb(grid=grid, positions=grid.all_positions(), adps=adps,
                         meta=meta)
