"""Host-speed calibration: timings in reference seconds.

The shared reference host runs the same Python work up to a third
faster or slower from one minute to the next, and it wanders within a
second too.  A fixed kernel of stdlib Python, timed at both ends of each
stretch of measured work, gives the host's speed at that moment.  A
stretch's wall time divided by the kernel's slowdown against
:data:`REFERENCE_S` is its length in *reference seconds*: host seconds
at the reference host's typical speed.  The system under test never
runs inside the kernel, so a change to it cannot move the scale.

On the reference host, over 10 s windows, this cut the variation of
simulator times from 12% to 4% and of warm-cache harness times from
8-16% to 4-8%.  An integer loop alone tracked the harness worse, and a
heap-and-dict event loop or in-memory JSON parsing tracked both worse.
Work that keeps both CPUs busy is tracked by :class:`ParallelKernel`,
the same kernel run on both CPUs at once: it cut the variation of
two-worker batch times from 9% to 6%, where the single-CPU kernel
raised it to 11%.
"""

import json
import multiprocessing
import os
import time

#: Median :meth:`Kernel.sample` on the reference host (2-CPU Intel Xeon,
#: Python 3.11); it only sets the scale of reference seconds.
REFERENCE_S = 0.020

#: Median :meth:`ParallelKernel.sample` time on the reference host.
REFERENCE_PARALLEL_S = 0.020

#: Shortest stretch worth its own calibration sample.  The host's speed
#: also wanders within a second, so short stretches track it better;
#: each sample costs about REFERENCE_S of untimed wall time.
MIN_SEGMENT_S = 0.1

_FILES = 100
_PAYLOAD = json.dumps({f"k{j}": [j, j * 2, "x" * 10] for j in range(60)})


class Kernel:
    """An integer loop plus reading and parsing small JSON files: the
    simulator's pure-Python work and the harness's cache reads.  The
    files live in ``directory`` and are written once."""

    def __init__(self, directory):
        folder = os.path.join(directory, "calibration")
        os.makedirs(folder, exist_ok=True)
        self.paths = [os.path.join(folder, f"{index}.json") for index in range(_FILES)]
        for path in self.paths:
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(_PAYLOAD)

    def run(self):
        total = 0
        for i in range(150_000):
            total += i * i % 7
        for path in self.paths:
            with open(path, "r", encoding="utf-8") as handle:
                total += len(json.load(handle))
        return total

    def sample(self):
        """This moment's slowdown against the reference host."""
        started = time.perf_counter()
        self.run()
        return (time.perf_counter() - started) / REFERENCE_S


class ParallelKernel(Kernel):
    """The kernel on two CPUs at once, one run here and one in a helper
    process: the host's speed for work that keeps both CPUs busy, which
    the single-CPU kernel does not track.  Call :meth:`close` when done."""

    def __init__(self, directory):
        super().__init__(directory)
        context = multiprocessing.get_context("spawn")
        self._conn, child = context.Pipe()
        self._helper = context.Process(target=_helper, args=(child, directory), daemon=True)
        self._helper.start()
        child.close()
        self._conn.recv()  # the helper has its kernel ready

    def sample(self):
        self._conn.send(True)
        started = time.perf_counter()
        self.run()
        mine = time.perf_counter() - started
        return (mine + self._conn.recv()) / 2 / REFERENCE_PARALLEL_S

    def close(self):
        self._conn.send(False)
        self._helper.join(timeout=10)
        if self._helper.is_alive():
            self._helper.kill()
            self._helper.join()
        self._conn.close()


def _helper(conn, directory):
    kernel = Kernel(directory)
    conn.send(True)
    while conn.recv():
        started = time.perf_counter()
        kernel.run()
        conn.send(time.perf_counter() - started)


class Clock:
    """Elapsed reference seconds, excluding the time spent calibrating.

    Call :meth:`checkpoint` at the boundaries of measured work: it closes
    the stretch since the last checkpoint, scaled by the mean slowdown
    sampled at its two ends.  :meth:`now` is exact right after a
    checkpoint; within a stretch it uses the slowdown at the stretch's
    start.  Stretches shorter than :data:`MIN_SEGMENT_S` merge with the
    next one, which bounds the time spent calibrating.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.factors = []
        self.total = 0.0
        self._calibrate()

    def _calibrate(self):
        self.factor = self.kernel.sample()
        self.factors.append(self.factor)
        self.start = time.perf_counter()

    def now(self):
        return self.total + (time.perf_counter() - self.start) / self.factor

    def checkpoint(self):
        elapsed = time.perf_counter() - self.start
        if elapsed >= MIN_SEGMENT_S:
            started_at = self.factor
            self._calibrate()
            self.total += elapsed / ((started_at + self.factor) / 2)


class RawClock:
    """Host seconds: the traced passes, whose per-layer times are host
    seconds too (and whose profile must not contain the kernel)."""

    def now(self):
        return time.perf_counter()

    def checkpoint(self):
        pass
