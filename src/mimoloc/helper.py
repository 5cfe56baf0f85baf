"""Helper processes that run training jobs beside the calling process.

``Helper(calls)`` starts a fresh interpreter running ``serve`` with BLAS
pinned to one thread in the child's environment, sends it a pickled list
of ``(function, args)`` calls over its stdin, and ``collect(helpers)``
reads back each helper's list of return values from its stdout, from all
helpers at once, as each finishes. Functions travel by import path, so a
job is a module-level function. An exception a job raises is sent back
and raised again in the caller; a helper that ends without a result
raises ``HelperFailed``.

A plain child process, not ``multiprocessing``: the caller's environment
is never touched, nothing outlives the ``with`` block (a helper still
running at its end is killed), the caller's ``__main__`` is not imported
again, and the caller starts no thread. Pickled bytes only ever pass
between a caller and the helpers it started.
"""

from __future__ import annotations

import os
import pickle
import selectors
import subprocess
import sys

from .errors import HelperFailed

# one BLAS thread per helper: two helpers fill two cores, and a
# multithreaded BLAS in each would oversubscribe them
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

# the directory the running mimoloc package was imported from
_ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))

# not ``-m mimoloc.helper``: importing the package imports this module, and
# runpy warns when the module it is asked to run is already imported
_ENTRY = ("import sys; from mimoloc.helper import serve; "
          "sys.exit(serve(sys.argv[1]))")


class Helper:
    """One child interpreter running a list of calls in order."""

    def __init__(self, calls):
        self.name = ", ".join(fn.__qualname__ for fn, _ in calls)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, **BLAS_THREADS,
                   PYTHONPATH=_ROOT + (os.pathsep + path if path else ""))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _ENTRY, _ROOT],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        try:
            with self.proc.stdin:
                pickle.dump(calls, self.proc.stdin,
                            protocol=pickle.HIGHEST_PROTOCOL)
        except BrokenPipeError:
            pass  # the helper died at start; collect() reports its status
        except BaseException:
            self.close()
            raise

    def _finish(self, data: bytes) -> list:
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
        HelperFailed: a helper ended without sending a result.
        Exception: whatever a job raised, raised again here.
    """
    chunks = {helper: [] for helper in helpers}
    results = {}
    with selectors.DefaultSelector() as selector:
        for helper in helpers:
            selector.register(helper.proc.stdout, selectors.EVENT_READ,
                              helper)
        while selector.get_map():
            for key, _ in selector.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.data].append(data)
                else:
                    selector.unregister(key.fileobj)
                    results[key.data] = key.data._finish(
                        b"".join(chunks[key.data]))
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
