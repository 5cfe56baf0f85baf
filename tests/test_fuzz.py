"""A seeded, bounded fuzz of the files mimoloc writes.

The fingerprint database (``ADPF``) and both checkpoints (``NNCK``,
``PRED``) share one layout (``mimoloc.container``). Every cut in the first
400 bytes of each is a ``TruncatedFile``. Every byte of each prefix and
header set to 0x00 or 0xff or with its lowest bit flipped, and every JSON
leaf of each header set to each of a fixed list of odd values or deleted,
loads or raises a ``MimolocError``, and no case allocates more than a few
megabytes.
"""

import functools
import json
import math
import operator
import tracemalloc

import numpy as np
import pytest

from mimoloc.channel import ArrayConfig, Environment, OfdmConfig, Reflector
from mimoloc.container import read_checkpoint, write_checkpoint
from mimoloc.errors import MimolocError, TruncatedFile
from mimoloc.fingerprint import (
    DB_MAGIC,
    DB_VERSION,
    GridSpec,
    build_db,
    load_db,
    save_db,
)
from mimoloc.neural import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ClassifierGrid,
    Head,
    build_model,
    load_model,
    save_model,
)
from mimoloc.predictor import (
    PREDICTOR_MAGIC,
    PREDICTOR_VERSION,
    ConvRecurrentPredictor,
    load_predictor,
    save_predictor,
)

ODD_VALUES = (0, -1, 1.5, True, None, "x", 10**7, 2**63, math.nan, [], {})
DELETE = object()


def save_small_db(path):
    env = Environment(bs_position=(0.0, 0.0),
                      reflectors=(Reflector((-30.0, 6.0), (30.0, 6.0), 0.8),))
    grid = GridSpec(origin=(4.0, -1.0), spacing=0.5, n_rows=2, n_cols=3)
    save_db(build_db(env, grid, ArrayConfig(n_antennas=4, wavelength=0.1),
                     OfdmConfig(n_subcarriers=4, bandwidth=20e6), seed=3),
            path)


def save_small_model(path):
    # one layer of each kind, so that each kind's fields are mutated
    head = Head("classification", ClassifierGrid(2, 2))
    specs = [{"kind": "conv2d", "out_channels": 2, "kernel_size": 3,
              "padding": "same"}, {"kind": "relu"}, {"kind": "maxpool2x2"},
             {"kind": "flatten"}, {"kind": "dense", "out_width": 4},
             {"kind": "softmax"}]
    save_model(build_model(specs, (1, 4, 4), head, seed=1,
                           normalize_input=True), path)


def save_small_predictor(path):
    save_predictor(ConvRecurrentPredictor(4, 4, hidden_channels=2, seed=0),
                   path)


FILES = pytest.mark.parametrize("save,magic,version,load", [
    (save_small_db, DB_MAGIC, DB_VERSION, load_db),
    (save_small_model, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_model),
    (save_small_predictor, PREDICTOR_MAGIC, PREDICTOR_VERSION,
     load_predictor),
], ids=["db", "model", "predictor"])


def leaves(node, trail=()):
    """The key paths to every leaf of a JSON value; an empty object or
    array is a leaf."""
    if isinstance(node, dict) and node:
        children = node.items()
    elif isinstance(node, list) and node:
        children = enumerate(node)
    else:
        yield trail
        return
    for key, child in children:
        yield from leaves(child, trail + (key,))


def mutated(header: dict, trail: tuple, value) -> dict:
    """A copy of ``header`` with the leaf at ``trail`` set to ``value``,
    or deleted for ``DELETE``."""
    copy = json.loads(json.dumps(header))
    parent = functools.reduce(operator.getitem, trail[:-1], copy)
    if value is DELETE:
        del parent[trail[-1]]
    else:
        parent[trail[-1]] = value
    return copy


@FILES
def test_every_cut_in_the_first_400_bytes_is_truncated(tmp_path, save, magic,
                                                       version, load):
    full = tmp_path / "full"
    save(full)
    raw = full.read_bytes()
    assert len(raw) > 400
    load(full)  # the uncut file loads
    cut = tmp_path / "cut"
    for size in range(400):
        cut.write_bytes(raw[:size])
        with pytest.raises(MimolocError) as info:
            load(cut)
        assert isinstance(info.value, TruncatedFile), (size, info.value)


def load_each(load, path, cases):
    """Write each case's bytes to ``path`` and load it; return the cases
    that raised anything but a ``MimolocError``, and the traced peak."""
    failures = []
    tracemalloc.start()
    try:
        for case, raw in cases:
            path.write_bytes(raw)
            try:
                load(path)
            except MimolocError:
                pass
            except Exception as exc:  # noqa: BLE001 - the finding
                failures.append((case, repr(exc)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return failures, peak


@FILES
def test_every_header_byte_flipped(tmp_path, save, magic, version, load):
    path = tmp_path / "file"
    save(path)
    raw = path.read_bytes()
    head_end = len(raw) - len(read_checkpoint(path, magic, version)[1])

    def cases():
        for offset in range(head_end):
            for new in {0x00, 0xFF, raw[offset] ^ 0x01}:
                yield ((offset, new),
                       raw[:offset] + bytes([new]) + raw[offset + 1:])

    failures, peak = load_each(load, path, cases())
    assert not failures
    assert peak < 4e6


@FILES
def test_every_header_leaf_set_to_an_odd_value_or_deleted(
        tmp_path, save, magic, version, load):
    path = tmp_path / "file"
    save(path)
    header, body = read_checkpoint(path, magic, version)
    weights = np.frombuffer(body, dtype="<f4")
    trails = list(leaves(header))
    assert len(trails) >= 7

    def cases():
        for trail in trails:
            for value in ODD_VALUES + (DELETE,):
                write_checkpoint(path, magic, version,
                                 mutated(header, trail, value), [weights])
                yield (trail, value), path.read_bytes()

    failures, peak = load_each(load, path, cases())
    assert not failures
    assert peak < 4e6
