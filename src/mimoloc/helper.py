"""Helper processes that run jobs beside the calling process.

``Helper(calls)`` forks the caller, numpy and mimoloc already imported,
on multiprocessing's ``"fork"`` context (pinned: Python 3.14 defaults to
a forkserver, which pickles what it runs). The child runs the
``(function, args)`` calls it inherited, in order, and sends back over
its own pipe their results and its resource usage (``usage``, with each
call's wall time under ``job_s``). Nothing is pickled on the way in: the
child sees the caller's memory copy-on-write, so a job's arguments (the
fingerprint database, say) are shared, not copied. An exception a job
raises, or a result that does not pickle, is raised again in the caller;
a helper that ends without a result raises ``HelperFailed``. Its
``with`` block kills and reaps it.

The child sets, for itself alone, one BLAS thread (through the setter of
each OpenBLAS in ``/proc/self/maps``), so two helpers fill two cores,
and glibc ``mallopt`` thresholds that keep each SGD step's temporaries
on the heap (see the README). Forking needs POSIX; Python 3.12+ warns
when a caller with threads of its own forks. multiprocessing flushes
the standard streams before the fork, so caller text is written once.
"""

import ctypes
import multiprocessing
import resource
import time
from multiprocessing.connection import wait

from .errors import HelperFailed

# mallopt's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, and their values
_MALLOPT = ((-3, 16 << 20), (-1, 64 << 20))

_FORK = multiprocessing.get_context("fork")


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


class Helper:
    """One forked child that runs the calls it inherited, in order."""

    def __init__(self, calls):
        self.name = ", ".join(fn.__qualname__ for fn, _ in calls)
        self.usage = None  # the child's resource usage, once collected
        self.returncode = None
        self.reply, write = _FORK.Pipe(duplex=False)
        self.process = _FORK.Process(target=_child, args=(calls, write))
        try:
            self.process.start()
        except BaseException:
            self.reply.close()
            raise
        finally:
            write.close()
        self.pid = self.process.pid

    def _reap(self) -> None:
        self.process.join()
        self.returncode = self.process.exitcode

    def _finish(self) -> list:
        try:
            ok, payload, self.usage = self.reply.recv()
        except (EOFError, OSError):  # no reply, or one cut short
            ok = None
        self._reap()
        if ok is None:
            raise HelperFailed(f"helper for {self.name} exited with status "
                               f"{self.returncode} without a result")
        if not ok:
            raise payload
        return payload

    def close(self) -> None:
        """Kill the helper if it still runs, and reap it."""
        if self.returncode is None:
            self.process.kill()
            self._reap()
        # the process's own pipe closes here, not when it is collected
        self.process.close()
        self.reply.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def collect(helpers) -> list:
    """Wait for the helpers and return, for each in the order given, the
    list of its calls' results. Each is finished as it ends, so a failure
    raises here while the others may still run (the caller's ``with``
    blocks then kill them).

    Raises:
        HelperFailed: a helper ended without sending a result.
        Exception: whatever a job raised, or the error pickling a
            result, raised again here.
    """
    waiting = {helper.reply: helper for helper in helpers}
    results = {}
    while waiting:
        for reply in wait(list(waiting)):
            results[reply] = waiting.pop(reply)._finish()
    return [results[helper.reply] for helper in helpers]


def _child(calls, reply) -> None:
    """The child's side: run the calls and send the outcome on ``reply``."""
    start = time.perf_counter()
    results, job_s = [], []
    try:
        for setter in openblas_thread_functions("set"):
            setter(1)
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            for param, value in _MALLOPT:
                mallopt(param, value)
        for fn, args in calls:
            t0 = time.perf_counter()
            results.append(fn(*args))
            job_s.append(time.perf_counter() - t0)
        outcome = (True, results)
    except Exception as exc:  # sent back, raised again by the caller
        outcome = (False, exc)
    ru = resource.getrusage(resource.RUSAGE_SELF)
    usage = {"wall_s": time.perf_counter() - start,
             "job_s": job_s,  # each finished call's wall time, in order
             "cpu_s": ru.ru_utime + ru.ru_stime,
             "minflt": ru.ru_minflt,
             "maxrss_mb": ru.ru_maxrss / 1024.0}  # Linux counts KiB
    try:
        reply.send(outcome + (usage,))
    except Exception as exc:  # a result or an error that cannot pickle
        reply.send((False, exc, usage))
