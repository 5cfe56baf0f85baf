"""Speed calibration kernel for the mimoloc benchmark.

``run.py`` starts this file as a child process and asks it to time the
kernel before the first repeat and after every repeat. Running it in its
own process keeps the benchmark's heap, allocator and garbage collector
state, which a change to mimoloc can alter, out of the kernel's time.

Protocol: each line read from standard input asks for one timing; the
answer is one line on standard output holding the seconds the kernel took.
The process ends when standard input closes.
"""

from __future__ import annotations

import os
import sys
import time

# the same pinning as the benchmark, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROUNDS = 600


def kernel_inputs() -> tuple:
    rng = np.random.default_rng(0)
    return (rng.random((64, 16, 16)),
            rng.random((256, 16, 16)).astype(np.float32),
            rng.standard_normal((32, 8, 8, 8)),
            rng.standard_normal((16, 72)),
            rng.standard_normal((1024, 128)))


def kernel_seconds(inputs) -> float:
    """Time the kernel once: peak search with ``np.roll``, scalar
    similarity scans over fingerprint rows, and now and then a batch-32
    convolution followed by a dense layer."""
    frames, prints, x, w, dense = inputs
    t0 = time.perf_counter()
    for k in range(ROUNDS):
        a = frames[k % len(frames)]
        is_max = a > 0.1
        for dz in (-1, 0, 1):
            for dq in (-1, 0, 1):
                if dz or dq:
                    is_max &= a > np.roll(a, (dz, dq), axis=(0, 1))
        best = 0.0
        for j in range(k % 7, len(prints), 9):
            b = prints[j]
            best = max(best, float(np.sum(a * b))
                       / (float(np.linalg.norm(a)) * float(np.linalg.norm(b))))
        if k % 8 == 0:
            xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
            win = np.lib.stride_tricks.sliding_window_view(
                xp, (3, 3), axis=(2, 3))
            cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(32, 8, 8, 72)
            (cols @ w.T).reshape(32, -1) @ dense
    return time.perf_counter() - t0


def serve() -> None:
    inputs = kernel_inputs()
    kernel_seconds(inputs)  # the first call pays numpy's warm-up
    for _ in sys.stdin:
        print(repr(kernel_seconds(inputs)), flush=True)


if __name__ == "__main__":
    serve()
