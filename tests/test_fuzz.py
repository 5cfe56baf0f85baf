"""A seeded, bounded fuzz of the files mimoloc writes and reads.

The fingerprint database (``ADPF``) and both checkpoints (``NNCK``,
``PRED``) share one layout (``mimoloc.container``). Every cut in the first
400 bytes of each is a ``TruncatedFile``. Every byte of each prefix and
header set to 0x00 or 0xff or with its lowest bit flipped, and every JSON
leaf of each header set to each of a fixed list of odd values or deleted,
loads or raises a ``MimolocError``, and no case allocates more than a few
megabytes; a database header whose build record (array, OFDM,
environment, seed) takes a value it does not allow raises a
``FormatError``. A config with any field set to one of those values or
deleted loads or raises a ``ConfigError``, and an environment text with
any token replaced, or any line deleted or doubled, parses to an
environment that round-trips through ``format_environment`` or raises a
``FormatError``.
"""

import functools
import json
import math
import operator
import tracemalloc

import numpy as np
import pytest

from mimoloc.channel import (
    ArrayConfig,
    Environment,
    OfdmConfig,
    Reflector,
    format_environment,
    parse_environment,
)
from mimoloc.container import read_checkpoint, write_checkpoint
from mimoloc.errors import ConfigError, FormatError, MimolocError, TruncatedFile
from mimoloc.experiment import ExperimentConfig, load_config
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


def positive(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


# which odd values each leaf of a database header's build record takes:
# a finite number above 0, null or an integer of at least 0; no odd value
# is an environment text
BUILD_RECORD = {
    ("array", "wavelength"): positive,
    ("array", "element_spacing"): positive,
    ("ofdm", "bandwidth"): positive,
    ("environment",): lambda value: False,
    ("seed",): lambda value: value is None or (
        type(value) is int and value >= 0),
}


def test_every_build_record_leaf_loads_only_if_valid(tmp_path):
    path = tmp_path / "db"
    save_small_db(path)
    header, body = read_checkpoint(path, DB_MAGIC, DB_VERSION)
    weights = np.frombuffer(body, dtype="<f4")
    for trail, valid in BUILD_RECORD.items():
        for value in ODD_VALUES + (DELETE,):
            meta = mutated(header, trail, value)
            write_checkpoint(path, DB_MAGIC, DB_VERSION, meta, [weights])
            if value is not DELETE and valid(value):
                assert load_db(path).meta == meta, (trail, value)
            else:
                with pytest.raises(FormatError):
                    load_db(path)


def test_every_config_field_set_to_an_odd_value_or_deleted(tmp_path):
    config = ExperimentConfig().to_dict()
    path = tmp_path / "config.json"
    failures = []
    for field in config:
        for value in ODD_VALUES + (DELETE,):
            path.write_text(json.dumps(mutated(config, (field,), value)))
            try:
                load_config(path)
            except ConfigError:
                pass
            except Exception as exc:  # noqa: BLE001 - the finding
                failures.append((field, value, repr(exc)))
    assert not failures


ENVIRONMENT_TEXT = """bs_position = 0.5 -1.0
array_axis = 1.5
speed_of_light = 3e8
reflector = -30.0 6.0 30.0 6.0 0.8
reflector = 10.0 -4.0 10.0 4.0 0.5
blocker = 2.0 1.0 4.0 1.0
"""
TOKEN_VALUES = ("nan", "inf", "-1", "0", "1e309", "x", "", "=", "#")


def environment_texts():
    """The fuzzed texts: each token of ``ENVIRONMENT_TEXT`` replaced with
    each of ``TOKEN_VALUES``, and each line deleted or doubled."""
    lines = ENVIRONMENT_TEXT.splitlines()
    for n, line in enumerate(lines):
        tokens = line.split()
        for t in range(len(tokens)):
            for value in TOKEN_VALUES:
                edited = " ".join(tokens[:t] + [value] + tokens[t + 1:])
                yield "\n".join(lines[:n] + [edited] + lines[n + 1:])
        yield "\n".join(lines[:n] + lines[n + 1:])
        yield "\n".join(lines[:n + 1] + lines[n:])


def test_every_environment_text_mutation_parses_or_is_a_format_error():
    base = parse_environment(ENVIRONMENT_TEXT)
    assert len(base.reflectors) == 2 and len(base.blockers) == 1
    failures = []
    parsed = 0
    for text in environment_texts():
        try:
            env = parse_environment(text)
        except FormatError:
            continue
        except Exception as exc:  # noqa: BLE001 - the finding
            failures.append((text, repr(exc)))
            continue
        parsed += 1
        if parse_environment(format_environment(env)) != env:
            failures.append((text, "no round trip"))
    assert not failures
    assert parsed  # some mutations are still valid environments
