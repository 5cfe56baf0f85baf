"""ADPF container and fingerprint database."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from mimoloc import container
from mimoloc.adp import similarity
from mimoloc.channel import (
    ArrayConfig,
    Environment,
    OfdmConfig,
    Reflector,
    parse_environment,
)
from mimoloc.errors import FormatError, TruncatedFile, VersionError
from mimoloc.experiment import ExperimentConfig, pieces
from mimoloc.fingerprint import (
    FingerprintDb,
    GridSpec,
    build_db,
    load_db,
    neighbor_indices_within,
    save_db,
)

ARRAY = ArrayConfig(n_antennas=8, wavelength=0.1)
OFDM = OfdmConfig(n_subcarriers=8, bandwidth=20e6)
ENV = Environment(
    bs_position=(0.0, 0.0),
    reflectors=(Reflector((-30.0, 6.0), (30.0, 6.0), 0.8),),
)


def _fill_records(n_t, n_c, count, rng):
    recs = container.make_records(n_t, n_c, count)
    recs["position"] = rng.uniform(-5, 5, size=(count, 2))
    recs["pixels"] = rng.uniform(0, 1, size=(count, n_t, n_c)).astype("<f4")
    return recs


class TestContainer:
    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        recs = _fill_records(4, 6, 5, rng)
        p1 = tmp_path / "a.adpf"
        p2 = tmp_path / "b.adpf"
        container.write_container(p1, 4, 6, recs)
        n_t, n_c, loaded = container.read_container(p1)
        assert (n_t, n_c) == (4, 6)
        container.write_container(p2, 4, 6, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        recs = container.make_records(2, 3, 1)
        path = tmp_path / "h.adpf"
        container.write_container(path, 2, 3, recs)
        raw = path.read_bytes()
        assert raw[:4] == b"ADPF"
        assert int.from_bytes(raw[4:6], "little") == 1
        assert int.from_bytes(raw[6:10], "little") == 2
        assert int.from_bytes(raw[10:14], "little") == 3
        assert int.from_bytes(raw[14:22], "little") == 1
        # record: 2 float64 + 6 float32
        assert len(raw) == 22 + 16 + 24

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.adpf"
        path.write_bytes(b"NOPE" + bytes(18))
        with pytest.raises(FormatError):
            container.read_container(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.adpf"
        path.write_bytes(b"ADPF" + (99).to_bytes(2, "little") + bytes(16))
        with pytest.raises(VersionError):
            container.read_container(path)

    def test_version_2_is_unsupported(self, tmp_path):
        # the retired walk layout: each record also held a sequence id
        # (u32), a frame index (u16) and a distorted flag (u8)
        path = tmp_path / "v2.adpf"
        path.write_bytes(b"ADPF" + (2).to_bytes(2, "little")
                         + (2).to_bytes(4, "little") + (2).to_bytes(4, "little")
                         + (1).to_bytes(8, "little") + bytes(16 + 16 + 7))
        with pytest.raises(VersionError):
            container.read_container(path)

    def test_truncated(self, tmp_path):
        recs = container.make_records(4, 4, 3)
        path = tmp_path / "t.adpf"
        container.write_container(path, 4, 4, recs)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(TruncatedFile):
            container.read_container(path)
        path.write_bytes(raw[:10])
        with pytest.raises(TruncatedFile):
            container.read_container(path)

    def test_every_cut_raises_truncated(self, tmp_path):
        recs = _fill_records(2, 3, 2, np.random.default_rng(2))
        path = tmp_path / "c.adpf"
        container.write_container(path, 2, 3, recs)
        raw = path.read_bytes()
        container.read_container(path)  # the uncut file loads
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(TruncatedFile):
                container.read_container(path)

    @pytest.mark.parametrize("n_t,n_c", [
        (0, 4), (4, 0), (2**20, 2**20), (2**32 - 1, 2**32 - 1)])
    def test_bad_profile_size_in_header(self, tmp_path, n_t, n_c):
        # the body is one record of an empty profile (its position
        # alone); numpy refuses the last two layouts with a bare ValueError
        path = tmp_path / "s.adpf"
        path.write_bytes(b"ADPF" + (1).to_bytes(2, "little")
                         + n_t.to_bytes(4, "little")
                         + n_c.to_bytes(4, "little")
                         + (1).to_bytes(8, "little") + bytes(16))
        with pytest.raises(FormatError):
            container.read_container(path)

    def test_trailing_garbage(self, tmp_path):
        recs = container.make_records(4, 4, 1)
        path = tmp_path / "g.adpf"
        container.write_container(path, 4, 4, recs)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            container.read_container(path)


class TestGridSpec:
    GRID = GridSpec(origin=(1.0, 2.0), spacing=0.5, n_rows=3, n_cols=4)

    def test_positions_row_major(self):
        pos = self.GRID.all_positions()
        assert pos.shape == (12, 2)
        np.testing.assert_allclose(pos[0], [1.0, 2.0])
        np.testing.assert_allclose(pos[1], [1.5, 2.0])  # col varies fastest
        np.testing.assert_allclose(pos[4], [1.0, 2.5])
        np.testing.assert_allclose(self.GRID.position(2, 3), [2.5, 3.0])

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
        save_db(build_db(ENV, grid, ARRAY, OFDM, seed=3), p1)
        save_db(build_db(ENV, grid, ARRAY, OFDM, seed=3), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (
            (tmp_path / "a.adpf.meta.json").read_bytes()
            == (tmp_path / "b.adpf.meta.json").read_bytes()
        )

    def test_save_load_round_trip(self, tmp_path):
        grid = GridSpec(origin=(4.0, -1.0), spacing=0.5, n_rows=2, n_cols=3)
        db = build_db(ENV, grid, ARRAY, OFDM, seed=3)
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

    @pytest.mark.parametrize("sidecar", [
        "{not json",
        "[1, 2]",
        '{"format_version": 1}',
        '{"grid": {"origin": [4.0, -1.0], "spacing": 0.5, "n_rows": 2}}',
        '{"grid": {"origin": [4.0, -1.0], "spacing": 0.0, "n_rows": 2, '
        '"n_cols": 3}}',
        '{"grid": {"origin": [4.0, -1.0], "spacing": 0.5, "n_rows": 3, '
        '"n_cols": 3}}',
        b'{"grid": "\xff"}',  # not UTF-8
        '{"grid": {"origin": [4.0, -1.0], "spacing": NaN, "n_rows": 2, '
        '"n_cols": 3}}',
        '{"grid": {"origin": [4.0, -1.0], "spacing": Infinity, "n_rows": 2, '
        '"n_cols": 3}}',
        '{"grid": {"origin": [NaN, -1.0], "spacing": 0.5, "n_rows": 2, '
        '"n_cols": 3}}',
        '{"grid": {"origin": [4.0, -1.0], "spacing": 0.5, "n_rows": 2.0, '
        '"n_cols": 3}}',
        # integers past int64 once overflowed the grid's positions
        '{"grid": {"origin": [4.0, -1.0], "spacing": 9223372036854775808, '
        '"n_rows": 2, "n_cols": 3}}',
        '{"grid": {"origin": [9223372036854775808, -1], "spacing": 1, '
        '"n_rows": 2, "n_cols": 3}}',
    ])
    def test_bad_sidecar_is_a_format_error(self, tmp_path, sidecar):
        grid = GridSpec(origin=(4.0, -1.0), spacing=0.5, n_rows=2, n_cols=3)
        path = tmp_path / "db.adpf"
        save_db(build_db(ENV, grid, ARRAY, OFDM), path)
        meta = tmp_path / "db.adpf.meta.json"
        if isinstance(sidecar, bytes):
            meta.write_bytes(sidecar)
        else:
            meta.write_text(sidecar)
        with pytest.raises(FormatError):
            load_db(path)

    def test_sidecar_contradicting_the_profile_size_is_a_format_error(
            self, tmp_path):
        grid = GridSpec(origin=(2.0, -2.0), spacing=1.0, n_rows=4, n_cols=4)
        path = tmp_path / "db.adpf"
        save_db(build_db(ENV, grid, ARRAY, OFDM), path)
        load_db(path)  # the file as saved loads
        sidecar = tmp_path / "db.adpf.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["array"]["n_antennas"] = 64
        meta["ofdm"]["n_subcarriers"] = 3
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="64x3"):
            load_db(path)

    @pytest.mark.parametrize("field,index,value", [
        ("position", (1, 0), np.nan),
        ("position", (1,), (100.0, 100.0)),
        ("pixels", (2, 0, 0), np.inf),
        ("pixels", (2, 0, 0), -1e-3),
    ], ids=["nan-position", "off-grid-position", "inf-pixel",
            "negative-pixel"])
    def test_record_contradicting_the_grid_is_a_format_error(
            self, tmp_path, field, index, value):
        grid = GridSpec(origin=(2.0, -2.0), spacing=1.0, n_rows=4, n_cols=4)
        path = tmp_path / "db.adpf"
        save_db(build_db(ENV, grid, ARRAY, OFDM), path)
        load_db(path)  # the file as saved loads
        n_t, n_c, records = container.read_container(path)
        records[field][index] = value
        container.write_container(path, n_t, n_c, records)
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
