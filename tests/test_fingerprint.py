"""Fingerprint database and its file."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from mimoloc.adp import similarity
from mimoloc.channel import (
    ArrayConfig,
    Environment,
    OfdmConfig,
    Reflector,
    format_environment,
    parse_environment,
)
from mimoloc.container import read_checkpoint, write_checkpoint
from mimoloc.errors import (
    FormatError,
    MimolocError,
    TruncatedFile,
    VersionError,
)
from mimoloc.experiment import ExperimentConfig, database_for, pieces
from mimoloc.fingerprint import (
    DB_MAGIC,
    DB_VERSION,
    FingerprintDb,
    GridSpec,
    build_db,
    load_db,
    neighbor_indices_within,
    save_db,
)

from test_acceptance import numeric_environment

ARRAY = ArrayConfig(n_antennas=8, wavelength=0.1)
OFDM = OfdmConfig(n_subcarriers=8, bandwidth=20e6)
ENV = Environment(
    bs_position=(0.0, 0.0),
    reflectors=(Reflector((-30.0, 6.0), (30.0, 6.0), 0.8),),
)


def _random_db(n_rows=2, n_cols=3, n_t=4, n_c=6, seed=1):
    """A database of random pixels with the header ``load_db`` reads."""
    grid = GridSpec(origin=(-5.0, 2.5), spacing=0.5, n_rows=n_rows,
                    n_cols=n_cols)
    adps = np.random.default_rng(seed).uniform(
        0, 1, size=(grid.n_points, n_t, n_c)).astype("<f4")
    meta = {"grid": grid.to_meta(),
            "array": {"n_antennas": n_t, "wavelength": 0.1,
                      "element_spacing": 0.05},
            "ofdm": {"n_subcarriers": n_c, "bandwidth": 20e6},
            "environment": format_environment(ENV)}
    return FingerprintDb(grid=grid, positions=grid.all_positions(),
                         adps=adps, meta=meta)


DELETE = object()


def _saved_db(tmp_path, section, key, value):
    """Save a 4x4 database of 8x8 profiles with ``meta[section][key]``
    (``meta[key]`` for a ``section`` of None) set to ``value``, or deleted
    for ``DELETE``, and return its path."""
    grid = GridSpec(origin=(2.0, -2.0), spacing=1.0, n_rows=4, n_cols=4)
    db = build_db(ENV, grid, ARRAY, OFDM)
    path = tmp_path / "db.adpf"
    save_db(db, path)
    load_db(path)  # the file as saved loads
    target = db.meta if section is None else db.meta[section]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    save_db(db, path)
    return path


class TestContainer:
    """The database file: the layout of ``mimoloc.container``."""

    def test_write_read_write_byte_identical(self, tmp_path):
        db = _random_db()
        p1, p2 = tmp_path / "a.adpf", tmp_path / "b.adpf"
        save_db(db, p1)
        loaded = load_db(p1)
        assert (loaded.n_t, loaded.n_c) == (4, 6)
        np.testing.assert_array_equal(loaded.adps, db.adps)
        np.testing.assert_array_equal(loaded.positions, db.positions)
        save_db(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.adpf",
                                                             "b.adpf"]

    def test_header_layout(self, tmp_path):
        db = _random_db(n_rows=1, n_cols=1, n_t=2, n_c=3)
        path = tmp_path / "h.adpf"
        save_db(db, path)
        raw = path.read_bytes()
        assert raw[:4] == b"ADPF"
        assert int.from_bytes(raw[4:6], "little") == DB_VERSION
        head_len = int.from_bytes(raw[6:10], "little")
        assert json.loads(raw[10:10 + head_len]) == db.meta
        # the body: one 2x3 float32 profile, and no positions
        assert raw[10 + head_len:] == db.adps.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.adpf"
        save_db(_random_db(), path)
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(FormatError):
            load_db(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_layouts_are_unsupported(self, tmp_path, version):
        # after two u32 profile sizes and a u64 record count, version 1 held
        # records of a float64 position and float32 pixels; version 2, the
        # walk layout, added a sequence id (u32), a frame index (u16) and a
        # distorted flag (u8) to each
        path = tmp_path / "old.adpf"
        path.write_bytes(b"ADPF" + version.to_bytes(2, "little")
                         + (2).to_bytes(4, "little") + (2).to_bytes(4, "little")
                         + (1).to_bytes(8, "little")
                         + bytes(16 + 16 + 7 * (version == 2)))
        with pytest.raises(VersionError):
            load_db(path)

    def test_retired_seed_layout_is_unsupported(self, tmp_path):
        # version 3 also held a seed that nothing in the database used
        path = tmp_path / "old.adpf"
        db = _random_db()
        write_checkpoint(path, DB_MAGIC, 3, dict(db.meta, seed=None),
                         [db.adps])
        with pytest.raises(VersionError):
            load_db(path)

    def test_header_holds_only_the_build_configs(self, tmp_path):
        grid = GridSpec(origin=(4.0, -1.0), spacing=0.5, n_rows=2, n_cols=3)
        path = tmp_path / "db.adpf"
        save_db(build_db(ENV, grid, ARRAY, OFDM), path)
        header, _ = read_checkpoint(path, DB_MAGIC, DB_VERSION)
        assert sorted(header) == ["array", "environment", "grid", "ofdm"]

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.adpf"
        save_db(_random_db(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + (99).to_bytes(2, "little") + raw[6:])
        with pytest.raises(VersionError):
            load_db(path)

    def test_every_cut_raises_truncated(self, tmp_path):
        path = tmp_path / "c.adpf"
        save_db(_random_db(n_t=2, n_c=3), path)
        raw = path.read_bytes()
        load_db(path)  # the uncut file loads
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(TruncatedFile):
                load_db(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "g.adpf"
        save_db(_random_db(), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            load_db(path)


class TestGridSpec:
    GRID = GridSpec(origin=(1.0, 2.0), spacing=0.5, n_rows=3, n_cols=4)

    def test_positions_row_major(self):
        pos = self.GRID.all_positions()
        assert pos.shape == (12, 2)
        np.testing.assert_allclose(pos[0], [1.0, 2.0])
        np.testing.assert_allclose(pos[1], [1.5, 2.0])  # col varies fastest
        np.testing.assert_allclose(pos[4], [1.0, 2.5])
        np.testing.assert_allclose(pos[2 * 4 + 3], [2.5, 3.0])

    def test_extent(self):
        assert self.GRID.extent() == (1.0, 2.0, 2.5, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(origin=(0, 0), spacing=0.0, n_rows=2, n_cols=2)
        with pytest.raises(ValueError):
            GridSpec(origin=(0, 0), spacing=1.0, n_rows=0, n_cols=2)
        good = dict(origin=(0, 0), spacing=1.0, n_rows=2, n_cols=2)
        for bad in [{"spacing": math.nan}, {"spacing": math.inf},
                    {"origin": (math.nan, 0.0)}, {"origin": 5.0},
                    {"origin": (1.0, 2.0, 3.0)}, {"n_rows": 3.0},
                    {"n_cols": True}]:
            with pytest.raises(ValueError, match=next(iter(bad))):
                GridSpec(**dict(good, **bad))

    @pytest.mark.parametrize("bad", [
        {"spacing": 1e308, "n_rows": 3},  # positions past the largest float
        {"origin": (1.7e308, 0.0), "spacing": 1e308},
        {"n_rows": 10 ** 400},  # a count too large for a float
    ], ids=["spacing", "origin", "huge-count"])
    def test_positions_that_overflow_are_refused(self, bad):
        good = dict(origin=(0, 0), spacing=1.0, n_rows=2, n_cols=2)
        with pytest.raises(ValueError, match="overflow"):
            GridSpec(**dict(good, **bad))


# the first 16 hex characters of the sha256 of the 4x4 sparse database's
# file, keyed by the numeric environment that wrote it
SMALL_DB_DIGESTS = {
    ("3.11.7", "2.4.6", "scipy-openblas 0.3.31.188.0"): "a1fb951e6c78ec1c",
}

# the benchmark's worlds: the acceptance grid and the 40x40 rich grid
SPARSE_16 = ExperimentConfig(grid_origin=(2.0, -2.0), grid_rows=16,
                             grid_cols=16)
RICH_40 = ExperimentConfig(environment="rich")


class TestBuildDb:
    @pytest.mark.parametrize("config", [SPARSE_16, RICH_40],
                             ids=["sparse16", "rich40"])
    def test_matches_point_by_point_oracle(self, config):
        env, array, ofdm, grid, dft = pieces(config)
        db = build_db(env, grid, array, ofdm, dft)
        want = oracles.build_db_adps(env, grid, array, ofdm, dft)
        assert db.adps.dtype == want.dtype
        assert np.array_equal(db.adps, want)

    def test_memory_stays_below_a_point_by_point_loop(self):
        # tracemalloc peaks measured on this grid: the point-by-point loop
        # 8.3 MB (mostly the float64 copies of its zero-profile check), one
        # pass over the whole grid 36 MB, blocks of 64 positions 3.4 MB
        env, array, ofdm, grid, dft = pieces(RICH_40)
        tracemalloc.start()
        try:
            build_db(env, grid, array, ofdm, dft)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_single_point(self):
        grid = GridSpec(origin=(5.0, 1.0), spacing=1.0, n_rows=1, n_cols=1)
        db = build_db(ENV, grid, ARRAY, OFDM)
        assert db.adps.shape == (1, 8, 8)
        assert db.adps.dtype == np.dtype("<f4")
        assert not db.zero_flags[0]

    def test_free_space_grid_all_nonzero(self):
        grid = GridSpec(origin=(4.0, -1.0), spacing=1.0, n_rows=3, n_cols=3)
        db = build_db(Environment(bs_position=(0.0, 0.0)), grid, ARRAY, OFDM)
        assert not db.zero_flags.any()
        # profiles differ across positions
        assert similarity(db.adps[0], db.adps[8]) < 1.0

    def test_deterministic_rebuild_byte_identical(self, tmp_path):
        grid = GridSpec(origin=(4.0, -1.0), spacing=0.5, n_rows=2, n_cols=3)
        p1, p2 = tmp_path / "a.adpf", tmp_path / "b.adpf"
        save_db(build_db(ENV, grid, ARRAY, OFDM), p1)
        save_db(build_db(ENV, grid, ARRAY, OFDM), p2)
        # the bytes hold the build configs too, as the header
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_round_trip(self, tmp_path):
        grid = GridSpec(origin=(4.0, -1.0), spacing=0.5, n_rows=2, n_cols=3)
        db = build_db(ENV, grid, ARRAY, OFDM)
        path = tmp_path / "db.adpf"
        save_db(db, path)
        loaded = load_db(path)
        assert loaded.grid == db.grid
        np.testing.assert_array_equal(loaded.positions, db.positions)
        np.testing.assert_array_equal(loaded.adps, db.adps)
        assert loaded.meta == db.meta
        assert parse_environment(loaded.meta["environment"]) == ENV
        # save the loaded copy again: bytes identical
        path2 = tmp_path / "db2.adpf"
        save_db(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("header", [
        b"{not json", b"[1, 2]", b'{"grid": "\xff"}'])  # the last not UTF-8
    def test_header_that_is_no_json_object_is_a_format_error(self, tmp_path,
                                                             header):
        path = tmp_path / "db.adpf"
        path.write_bytes(b"ADPF" + DB_VERSION.to_bytes(2, "little")
                         + len(header).to_bytes(4, "little") + header
                         + bytes(4))
        with pytest.raises(FormatError):
            load_db(path)

    @pytest.mark.parametrize("section,key,value", [
        (None, "grid", DELETE),
        ("grid", "n_cols", DELETE),
        ("grid", "spacing", 0.0),
        ("grid", "spacing", math.nan),
        ("grid", "spacing", math.inf),
        ("grid", "origin", [math.nan, -2.0]),
        ("grid", "n_rows", 4.0),
        ("grid", "spacing", 1e308),  # positions past the largest float
        ("grid", "n_rows", 2),  # fewer pixels than the body holds
        ("grid", "origin", [2.0, -2.0, 0.0]),  # once read as its first two
        ("grid", "rotation", 0.0),  # a key GridSpec does not know
        ("array", "element_spacing", None),  # only the constructor defaults
        (None, "array", DELETE),
        ("array", "n_antennas", 0),
        ("array", "n_antennas", True),
        ("array", "wavelength", 0.0),
        ("array", "element_spacing", -0.05),
        ("ofdm", "n_subcarriers", 2.5),
        ("ofdm", "n_subcarriers", 4),  # fewer pixels than the body holds
        ("ofdm", "bandwidth", math.inf),
        (None, "environment", "bs_position = 0"),
    ])
    def test_bad_header_is_a_format_error(self, tmp_path, section, key,
                                          value):
        path = _saved_db(tmp_path, section, key, value)
        with pytest.raises(FormatError):
            load_db(path)

    def test_small_database_file_is_pinned(self, tmp_path):
        # nothing else compares the header's bytes with an earlier
        # build's; keyed as the acceptance digests are
        path = tmp_path / "db.adpf"
        save_db(database_for(ExperimentConfig(
            grid_origin=(2.0, -2.0), grid_rows=4, grid_cols=4)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        env = numeric_environment()
        if env not in SMALL_DB_DIGESTS:
            pytest.skip(f"no digest recorded for {env}; measured {digest}")
        assert digest == SMALL_DB_DIGESTS[env]

    @pytest.mark.parametrize("section,key,value", [
        ("grid", "n_rows", 5), ("array", "n_antennas", 64)])
    def test_header_implying_more_pixels_than_the_body_is_truncated(
            self, tmp_path, section, key, value):
        path = _saved_db(tmp_path, section, key, value)
        with pytest.raises(TruncatedFile):
            load_db(path)

    @pytest.mark.parametrize("section,key,value", [
        # integers past int64 once overflowed the grid's positions
        ("grid", "spacing", 2**63), ("grid", "origin", [2**63, -1])])
    def test_huge_integer_grid_loads_or_is_a_typed_error(
            self, tmp_path, section, key, value):
        path = _saved_db(tmp_path, section, key, value)
        try:
            load_db(path)
        except MimolocError:
            pass

    @pytest.mark.parametrize("section,key", [
        ("grid", "n_rows"), ("array", "n_antennas")])
    def test_huge_sizes_fail_before_any_profile_is_allocated(
            self, tmp_path, section, key):
        # 10^7 rows or antennas ask for gigabytes of profiles: the pixel
        # count they imply is compared with the body first
        path = _saved_db(tmp_path, section, key, 10_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFile):
                load_db(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1e-3],
                             ids=["nan-pixel", "inf-pixel", "negative-pixel"])
    def test_bad_pixel_is_a_format_error(self, tmp_path, value):
        grid = GridSpec(origin=(2.0, -2.0), spacing=1.0, n_rows=4, n_cols=4)
        db = build_db(ENV, grid, ARRAY, OFDM)
        db.adps[2, 0, 0] = value
        path = tmp_path / "db.adpf"
        save_db(db, path)
        with pytest.raises(FormatError):
            load_db(path)


@pytest.fixture(scope="module")
def db():
    grid = GridSpec(origin=(0.0, 0.0), spacing=1.0, n_rows=3, n_cols=3)
    adps = np.ones((9, 2, 2), dtype="<f4")
    return FingerprintDb(grid=grid, positions=grid.all_positions(), adps=adps)


class TestNeighborsWithin:

    def test_radius_counts(self, db):
        center = (1.0, 1.0)
        assert len(neighbor_indices_within(db, center, 0.5)) == 1
        assert len(neighbor_indices_within(db, center, 1.1)) == 5
        assert len(neighbor_indices_within(db, center, 1.5)) == 9

    def test_monotone_in_radius(self, db):
        rng = np.random.default_rng(2)
        for _ in range(20):
            center = rng.uniform(-1, 3, size=2)
            r1, r2 = sorted(rng.uniform(0, 4, size=2))
            n1 = set(neighbor_indices_within(db, center, r1).tolist())
            n2 = set(neighbor_indices_within(db, center, r2).tolist())
            assert n1 <= n2

    def test_sorted_by_distance_then_row_major(self, db):
        idx = neighbor_indices_within(db, (1.0, 1.0), 1.5)
        assert idx[0] == 4  # the center itself
        dist = np.linalg.norm(db.positions[idx] - np.array([1.0, 1.0]), axis=1)
        assert all(dist[i] <= dist[i + 1] + 1e-12 for i in range(len(dist) - 1))
        # the four distance-1 neighbors tie: row-major order
        np.testing.assert_array_equal(idx[1:5], [1, 3, 5, 7])
