"""Helper processes that run training jobs beside the calling process.

``Helper(calls)`` forks the caller, numpy and mimoloc already imported.
The child runs the ``(function, args)`` calls it inherited, in order, and
pickles back over its own pipe their results and its resource usage
(``usage``). Nothing is pickled on the way in: the child sees the
caller's memory copy-on-write, so a job's arguments (the fingerprint
database, say) are shared, not copied. ``collect(helpers)`` reads all
replies at once. An exception a job raises, or a result that does not
pickle, is raised again in the caller; a helper that ends without a
result raises ``HelperFailed``. Its ``with`` block kills and reaps it.

The child sets, for itself alone, what a fresh process would have read
from its environment: one BLAS thread (through the setter of each
OpenBLAS in ``/proc/self/maps``), so two helpers fill two cores; and
glibc ``mallopt`` thresholds that keep each SGD step's temporaries on
the heap instead of faulting them in again every step (see the README).
Forking needs POSIX. Only the forking thread is copied; OpenBLAS stops
its workers before a fork, but Python 3.12+ warns when a caller with
threads of its own forks. Standard streams are flushed before the fork,
so that the child does not write the caller's buffered text again.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import resource
import selectors
import signal
import sys
import time

from .errors import HelperFailed

# mallopt's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, and their values
_MALLOPT = ((-3, 16 << 20), (-1, 64 << 20))


def openblas_thread_functions(verb: str) -> list:
    """``openblas_<verb>_num_threads`` ("get" or "set") of each OpenBLAS
    mapped into this process, plain or as numpy's wheels bundle it."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line and ".so" in line})
    except OSError:  # no /proc
        return []
    names = [f"{prefix}openblas_{verb}_num_threads{suffix}"
             for prefix in ("", "scipy_") for suffix in ("", "64_")]
    found = []
    for lib in map(ctypes.CDLL, paths):
        fn = next(filter(None, (getattr(lib, n, None) for n in names)), None)
        if fn is not None:
            fn.argtypes = (ctypes.c_int,) if verb == "set" else ()
            fn.restype = None if verb == "set" else ctypes.c_int
            found.append(fn)
    return found


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


class Helper:
    """One forked child that runs the calls it inherited, in order."""

    def __init__(self, calls):
        self.name = ", ".join(fn.__qualname__ for fn, _ in calls)
        self.usage = None  # the child's resource usage, once collected
        self.returncode = None
        _flush_std_streams()
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            _child(calls, read, write)
        os.close(write)
        self.reply = open(read, "rb", buffering=0)

    def _reap(self) -> None:
        self.returncode = os.waitstatus_to_exitcode(
            os.waitpid(self.pid, 0)[1])

    def _finish(self, data: bytearray) -> list:
        self._reap()
        # a child exits 0 only after its whole reply is written
        if self.returncode != 0 or not data:
            raise HelperFailed(
                f"helper for {self.name} exited with status "
                f"{self.returncode} without a result")
        ok, payload, self.usage = pickle.loads(data)
        if not ok:
            raise payload
        return payload

    def close(self) -> None:
        """Kill the helper if it still runs, and reap it."""
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()
        self.reply.close()

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
        Exception: whatever a job raised, or the error pickling a
            result, raised again here.
    """
    # one growing buffer per reply, dropped once unpickled: replies that
    # arrive together hold no more than their own size each
    replies = {helper: bytearray() for helper in helpers}
    results = {}
    with selectors.DefaultSelector() as selector:
        for helper in helpers:
            selector.register(helper.reply, selectors.EVENT_READ, helper)
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


def _child(calls, read: int, write: int):
    """The child's side: run the calls, reply on ``write``; never returns."""
    start, status = time.perf_counter(), 1
    try:
        os.close(read)
        try:
            for setter in openblas_thread_functions("set"):
                setter(1)
            mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
            if mallopt is not None:
                mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
                mallopt.restype = ctypes.c_int
                for param, value in _MALLOPT:
                    mallopt(param, value)
            reply = (True, [fn(*args) for fn, args in calls])
        except Exception as exc:  # sent back, raised again by the caller
            reply = (False, exc)
        ru = resource.getrusage(resource.RUSAGE_SELF)
        usage = {"wall_s": time.perf_counter() - start,
                 "cpu_s": ru.ru_utime + ru.ru_stime,
                 "minflt": ru.ru_minflt,
                 "maxrss_mb": ru.ru_maxrss / 1024.0}  # Linux counts KiB
        try:
            data = pickle.dumps(reply + (usage,), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # a result or an error that cannot pickle
            data = pickle.dumps((False, exc, usage))
        with open(write, "wb") as out:
            out.write(data)
        status = 0
    finally:
        try:
            _flush_std_streams()
        finally:
            os._exit(status)
