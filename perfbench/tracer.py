"""Span tracer for the mimoloc benchmark.

The tracer wraps mimoloc's public functions by rebinding each name where
the caller looks it up (``run_sequence`` in ``mimoloc.experiment``,
``similarity`` in ``mimoloc.pipeline`` and ``mimoloc.neural``, layer
methods on their classes). Every call becomes one span: name, start,
end and the index of the enclosing span. Spans stay in flat in-memory
arrays until the run ends, then they are reduced to per-layer metrics and
can be saved as one ``.npz`` file.

A layer's self time is its span's duration minus the time covered by its
direct child spans. Spans nest strictly (one thread, call and return), so
the direct children never overlap.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (layer method, batch sizes reported for it): 1 is per-frame inference,
# 8 the recurrent predictor's BPTT, 32 localizer training
LAYER_BATCHES = (
    ("neural.Conv2d.forward", (1, 8, 32)),
    ("neural.Conv2d.backward", (8, 32)),
    ("neural.MaxPool2x2.forward", (1, 32)),
    ("neural.MaxPool2x2.backward", (32,)),
    ("neural.Dense.forward", (1, 32)),
    ("neural.Dense.backward", (32,)),
)

# spans whose inclusive time (children included) is reported as .total_s,
# to show how a run splits between training, set-up and the walks
TOTAL_SPANS = ("experiment.run_experiment", "neural.train",
               "predictor.train_predictor", "pipeline.run_sequence")

# metrics that count work; they must repeat exactly across runs of a seed
COUNT_SUFFIXES = (".calls", ".gflop", "_ratio", ".per_frame",
                  ".per_predict", ".paths_per_call")

LOCALIZER_SPANS = ("neural.RegressionLocalizer.__call__",
                   "neural.ClassifierWknnLocalizer.__call__")


def _conv_flop(layer, batch, out_h, out_w) -> int:
    out_c, in_c, k, _ = layer.w.shape
    return 2 * batch * out_h * out_w * out_c * in_c * k * k


def _observe_conv_forward(tracer, args, out):
    tracer.counters["conv_flop"] += _conv_flop(
        args[0], out.shape[0], out.shape[2], out.shape[3])


def _observe_conv_backward(tracer, args, out):
    # weight gradient and input gradient each cost one forward's worth
    grad = args[1]
    tracer.counters["conv_flop"] += 2 * _conv_flop(
        args[0], grad.shape[0], grad.shape[2], grad.shape[3])


def _observe_wknn(tracer, args, out):
    tracer.counters["wknn_fallback"] += int(out.used_fallback)


def _observe_detect(tracer, args, out):
    tracer.counters["detect_flagged"] += int(out.verdict.name != "ACCURATE")


def _observe_paths(tracer, args, out):
    tracer.counters["paths"] += len(out)


def targets(mimoloc):
    """(span name, [(owner, attribute), ...], observer) for every layer."""
    ex, pl, nr = mimoloc.experiment, mimoloc.pipeline, mimoloc.neural
    fp, dy, pr = mimoloc.fingerprint, mimoloc.dynamics, mimoloc.predictor
    return [
        ("experiment.run_experiment", [(ex, "run_experiment")], None),
        ("experiment.emit_report", [(ex, "emit_report")], None),
        ("fingerprint.build_db", [(ex, "build_db")], None),
        ("fingerprint.neighbor_indices_within",
         [(pl, "neighbor_indices_within")], None),
        ("neural.train", [(ex, "train")], None),
        ("neural.forward", [(nr, "forward")], None),
        ("neural.classify_then_wknn", [(nr, "classify_then_wknn")],
         _observe_wknn),
        ("neural.RegressionLocalizer.__call__",
         [(nr.RegressionLocalizer, "__call__")], None),
        ("neural.ClassifierWknnLocalizer.__call__",
         [(nr.ClassifierWknnLocalizer, "__call__")], None),
        ("neural.Conv2d.forward", [(nr.Conv2d, "forward")],
         _observe_conv_forward),
        ("neural.Conv2d.backward", [(nr.Conv2d, "backward")],
         _observe_conv_backward),
        ("neural.MaxPool2x2.forward", [(nr.MaxPool2x2, "forward")], None),
        ("neural.MaxPool2x2.backward", [(nr.MaxPool2x2, "backward")], None),
        ("neural.Dense.forward", [(nr.Dense, "forward")], None),
        ("neural.Dense.backward", [(nr.Dense, "backward")], None),
        ("adp.similarity", [(pl, "similarity"), (nr, "similarity")], None),
        ("adp.adp_from_csi", [(fp, "adp_from_csi"), (dy, "adp_from_csi")],
         None),
        ("pipeline.calibrate_similarity_floor",
         [(ex, "calibrate_similarity_floor")], None),
        ("pipeline.run_sequence", [(ex, "run_sequence")], None),
        ("pipeline.detect_distorted", [(pl, "detect_distorted")],
         _observe_detect),
        ("pipeline.recover_and_locate", [(pl, "recover_and_locate")], None),
        ("predictor.PeakTrackingPredictor.predict",
         [(pr.PeakTrackingPredictor, "predict")], None),
        ("predictor.detect_peaks", [(pr, "detect_peaks")], None),
        ("predictor.ConvRecurrentPredictor.predict",
         [(pr.ConvRecurrentPredictor, "predict")], None),
        ("predictor.train_predictor", [(ex, "train_predictor")], None),
        ("dynamics.generate_sequence", [(ex, "generate_sequence")], None),
        ("dynamics.random_walk", [(ex, "random_walk")], None),
        ("channel.trace_paths", [(fp, "trace_paths"), (dy, "trace_paths")],
         _observe_paths),
        ("channel.synthesize_csi",
         [(fp, "synthesize_csi"), (dy, "synthesize_csi")], None),
    ]


def metric_units(span_names) -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in span_names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in TOTAL_SPANS:
            units[f"{name}.total_s"] = "s"
    for name, sizes in LAYER_BATCHES:
        for b in sizes:
            units[f"{name}.b{b}_ms"] = "ms"
    units.update({
        "neural.forward.b1_ms": "ms",
        "neural.Conv2d.gflop": "GFLOP",
        "neural.classify_then_wknn.fallback_ratio": "ratio",
        "adp.similarity.per_frame": "calls/frame",
        "pipeline.detect_distorted.flag_ratio": "ratio",
        "predictor.detect_peaks.per_predict": "calls/call",
        "channel.trace_paths.paths_per_call": "paths/call",
        "experiment.baselines.s": "s",
        "trace.overhead_s": "s",
        "wall.run_s": "s",
        "wall.setup_s": "s",
        "wall.speed_factor": "ratio",
    })
    return units


def is_count(metric: str) -> bool:
    """True for metrics that must repeat exactly across runs of one seed."""
    return metric.endswith(COUNT_SUFFIXES)


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, mimoloc):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.batch = defaultdict(lambda: [0, 0.0])
        self._stack = [-1]
        self._saved = []
        self._targets = targets(mimoloc)

    def _wrap(self, name, fn, observe):
        nid = len(self.names)
        self.names.append(name)
        layer = name in dict(LAYER_BATCHES)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if layer:
                cell = self.batch[(name, args[1].shape[0])]
                cell[0] += 1
                cell[1] += t1 - t0
            if observe is not None:
                observe(self, args, out)
            return out

        return traced

    def __enter__(self):
        for name, sites, observe in self._targets:
            owner, attr = sites[0]
            wrapper = self._wrap(name, getattr(owner, attr), observe)
            for owner, attr in sites:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def mark(self) -> int:
        """Index the next span will get; used to split setup from walks."""
        return len(self.start)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def metrics(self, frames: int, walk_mark: int) -> dict:
        """Per-layer metrics (without ``trace.overhead_s``)."""
        a = self.arrays()
        n_names = len(self.names)
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(dur))
        calls = np.bincount(nid, minlength=n_names)
        self_s = np.bincount(nid, weights=dur - covered, minlength=n_names)
        total_s = np.bincount(nid, weights=dur, minlength=n_names)
        ids = {name: i for i, name in enumerate(self.names)}

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        out = {}
        for name, i in ids.items():
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            if name in TOTAL_SPANS:
                out[f"{name}.total_s"] = float(total_s[i])
        for name, sizes in LAYER_BATCHES:
            for b in sizes:
                n, seconds = self.batch.get((name, b), (0, 0.0))
                out[f"{name}.b{b}_ms"] = 1e3 * ratio(seconds, n)
        i = ids["neural.forward"]
        out["neural.forward.b1_ms"] = 1e3 * ratio(total_s[i], calls[i])
        out["neural.Conv2d.gflop"] = self.counters["conv_flop"] / 1e9
        out["neural.classify_then_wknn.fallback_ratio"] = ratio(
            self.counters["wknn_fallback"],
            calls[ids["neural.classify_then_wknn"]])
        walk_sims = np.count_nonzero(
            nid[walk_mark:] == ids["adp.similarity"])
        out["adp.similarity.per_frame"] = ratio(walk_sims, frames)
        out["pipeline.detect_distorted.flag_ratio"] = ratio(
            self.counters["detect_flagged"],
            calls[ids["pipeline.detect_distorted"]])
        out["predictor.detect_peaks.per_predict"] = ratio(
            calls[ids["predictor.detect_peaks"]],
            calls[ids["predictor.PeakTrackingPredictor.predict"]])
        out["channel.trace_paths.paths_per_call"] = ratio(
            self.counters["paths"], calls[ids["channel.trace_paths"]])
        # baseline tracks call the localizers straight from run_experiment;
        # the dynamic method calls them from inside the pipeline
        root = ids["experiment.run_experiment"]
        localizers = np.isin(nid, [ids[n] for n in LOCALIZER_SPANS])
        from_root = np.zeros(len(dur), dtype=bool)
        from_root[nested] = nid[parent[nested]] == root
        out["experiment.baselines.s"] = float(
            dur[localizers & from_root].sum())
        return out
