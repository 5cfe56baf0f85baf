"""Helper processes that run training jobs beside the calling process.

A helper is used in two steps, so that its start-up overlaps the caller's
own work. ``Helper()`` starts a fresh interpreter running ``serve``, with
``HELPER_ENV`` added to the child's environment; the child imports numpy
and mimoloc and then waits for its job. ``helper.send(calls)``
hands it a pickled list of ``(function, args)`` calls over its stdin;
large arrays are written from their own memory, not copied. ``send``
returns once the pipe holds what the helper has not read, so a job
larger than the pipe waits for the helper's start-up: start helpers
early and hand them their jobs late.
``collect(helpers)`` reads back each helper's list of return values from
its stdout, from all helpers at once, as each finishes. Functions travel
by import path, so a job is a module-level function. An exception a job
raises is sent back and raised again in the caller; a helper that ends
without a result, before or after its hand-off, raises ``HelperFailed``.

``HELPER_ENV`` pins BLAS to one thread and sets two glibc allocator
thresholds. ``MALLOC_MMAP_THRESHOLD_`` (16 MiB) serves blocks under 16 MiB
from the heap rather than from their own mappings, and
``MALLOC_TRIM_THRESHOLD_`` (64 MiB) keeps up to 64 MiB of freed heap
instead of handing it back to the kernel. A fresh interpreter starts both
at 128 KiB, and then hands each SGD step's temporaries (column matrices,
gradients) back to the kernel and faults them in again on the next step:
about 120,000 minor faults and 0.3 s of system time per head of the
benchmark's acceptance workload (16x16 grid, 45 epochs), against under
4,000 with the two settings. They are set together:
setting either one turns off glibc's dynamic thresholds, and either
alone faults more than neither. The numerics do not change, and neither
does a helper's peak memory.

A plain child process, not ``multiprocessing``: the caller's environment
is never touched, nothing outlives the ``with`` block (a helper still
running at its end, handed a job or not, is killed and reaped), the
caller's ``__main__`` is not imported again, and the caller starts no
thread. Pickled bytes only ever pass between a caller and the helpers it
started.
"""

from __future__ import annotations

import os
import pickle
import selectors
import subprocess
import sys

from .errors import HelperFailed

# one BLAS thread per helper: two helpers fill two cores, and a
# multithreaded BLAS in each would oversubscribe them; the allocator
# thresholds are explained in the module docstring
HELPER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1",
              "MALLOC_MMAP_THRESHOLD_": str(16 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}

# the directory the running mimoloc package was imported from
_ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))

# not ``-m mimoloc.helper``: importing the package imports this module, and
# runpy warns when the module it is asked to run is already imported
_ENTRY = ("import sys; from mimoloc.helper import serve; "
          "sys.exit(serve(sys.argv[1]))")


class Helper:
    """One child interpreter that runs the calls it is handed, in order."""

    def __init__(self):
        self.name = None  # set when the helper is handed its calls
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, **HELPER_ENV,
                   PYTHONPATH=_ROOT + (os.pathsep + path if path else ""))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _ENTRY, _ROOT],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def send(self, calls) -> None:
        """Hand the helper its calls; a helper takes one list of calls.

        Returns once the pipe holds what the helper has not read yet, so
        calls larger than the pipe wait for the helper's start-up.
        """
        if self.name is not None:
            raise ValueError(f"helper for {self.name} already has its calls")
        self.name = ", ".join(fn.__qualname__ for fn, _ in calls)
        try:
            with self.proc.stdin:
                pickle.dump(calls, self.proc.stdin,
                            protocol=pickle.HIGHEST_PROTOCOL)
        except BrokenPipeError:
            pass  # the helper died; collect() reports its status

    def _finish(self, data: bytearray) -> list:
        # the helper closed its stdout after sending ``data``
        self.proc.stdout.close()
        status = self.proc.wait()
        # a helper exits 0 only after its whole reply is written
        if status != 0 or not data:
            raise HelperFailed(
                f"helper for {self.name} exited with status {status} "
                f"without a result")
        ok, payload = pickle.loads(data)
        if not ok:
            raise payload
        return payload

    def close(self) -> None:
        """Kill the helper if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def collect(helpers) -> list:
    """Wait for the helpers and return, for each in the order given, the
    list of its calls' results.

    The helpers are read all at once and finished in the order they end,
    so a failure raises here as soon as its helper ends, while the others
    may still run (the caller's ``with`` blocks then kill them).

    Raises:
        ValueError: a helper has not been handed its calls.
        HelperFailed: a helper ended without sending a result.
        Exception: whatever a job raised, raised again here.
    """
    if any(helper.name is None for helper in helpers):
        raise ValueError("a helper was handed no calls")
    # one growing buffer per reply, dropped once unpickled: replies that
    # arrive together hold no more than their own size each
    replies = {helper: bytearray() for helper in helpers}
    results = {}
    with selectors.DefaultSelector() as selector:
        for helper in helpers:
            selector.register(helper.proc.stdout, selectors.EVENT_READ,
                              helper)
        while selector.get_map():
            for key, _ in selector.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    replies[key.data] += data
                else:
                    selector.unregister(key.fileobj)
                    results[key.data] = key.data._finish(
                        replies.pop(key.data))
    return [results[helper] for helper in helpers]


def serve(root: str) -> int:
    """The helper's side: run the calls read from stdin, reply on stdout.

    ``root`` is where the caller imported mimoloc from; a helper that
    imported another copy (say, one in its working directory) refuses to
    run it.
    """
    if _ROOT != root:
        print(f"helper imported mimoloc from {_ROOT}, not {root}",
              file=sys.stderr)
        return 2
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not corrupt the result
    calls = pickle.load(sys.stdin.buffer)
    try:
        reply = (True, [fn(*args) for fn, args in calls])
    except Exception as exc:  # sent back, raised again by the caller
        reply = (False, exc)
    pickle.dump(reply, out, protocol=pickle.HIGHEST_PROTOCOL)
    out.flush()
    return 0
