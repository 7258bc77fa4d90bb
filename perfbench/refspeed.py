"""Machine-speed reference for the untraced runs.

The benchmark runs on a few cores of a shared host, and the host's load moves
the speed of the whole machine: over six minutes the same attack round (same
inputs, same 288,000 queries) took from 11.2 s to 17.4 s. No run length or
median inside a run removes a drift that slow. What removes it is that all
code slows down together, so the benchmark times a fixed reference chunk
interleaved with the program and reports the program's time relative to it.

A SIGALRM timer runs one chunk every ``TICK_S`` seconds inside the worker
process, between the program's Python bytecodes. A chunk is a Python object
loop plus a numpy draw-round-reduce over a 2000 x 128 array, the mix the
program's hot paths run. The time spent in chunks is taken out of each timed
interval, and the rest is scaled by ``NOMINAL_CHUNK_S`` over the typical
chunk time during the interval: the mean of the chunk times without the
fastest and the slowest tenth. A scaled time therefore reads as seconds on a
machine where one chunk takes ``NOMINAL_CHUNK_S``. The trimming matters: a
pause of the virtual CPU that lands in a 10 ms chunk can triple it, and a few
such chunks made the plain mean over-correct (eight identical attack rounds
spread by 7.1 % scaled with the mean, 3.2 % with the trimmed mean, 15.6 %
unscaled).

Measured on a 2-core VM: over 4 minutes of attack grid points (2,000 sampled
queries answered by the oracle) interleaved with chunks, the 20-second window
totals of the program spread by 18.4 % (interquartile range over median); the
same totals divided by the chunk time in each window spread by 2.4 %.
"""

import gc
import signal
import statistics
import time

import numpy as np

# Ten chunks a second cost about 10 % of the run. At four a second the CLI
# workload, whose phases (LLL, sampling, oracle, artefacts) change every second
# or so, spread by 7.5 % over ten seeds of two-round runs; at ten a second, by
# 2.5 % over five.
TICK_S = 0.1
NOMINAL_CHUNK_S = 0.010   # chunk time that scaled seconds are quoted at
MIN_CHUNKS = 4            # scale an interval by at least this many chunks
TRIM = 0.1                # share of chunk times left out at each end


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key):
        self.key = key
        self.value = 0.0


class SpeedProbe:
    """Times reference chunks and scales intervals of monotonic time by them."""

    def __init__(self):
        self.chunks = []  # (start, end) in time.monotonic() seconds
        self._gen = np.random.default_rng(0)
        self._weights = np.ones(2000)
        self._running = False

    def chunk(self):
        """Run one reference chunk and record when it ran."""
        if self._running:  # the timer fired inside a chunk
            return
        self._running = True
        gc_was_on = gc.isenabled()
        gc.disable()  # a collection here would charge the program's heap to the chunk
        t0 = time.monotonic()
        items = [_Item(i) for i in range(3000)]
        totals = {}
        for item in items:
            item.value = item.key * 0.5 + 1.0
            totals[item.key & 255] = totals.get(item.key & 255, 0.0) + item.value
        X = np.rint(self._gen.standard_normal((2000, 128)) * 3.0).astype(np.int64)
        float((X * X).sum(axis=1).astype(float) @ self._weights)
        del items, totals, X
        self.chunks.append((t0, time.monotonic()))
        if gc_was_on:
            gc.enable()
        self._running = False

    def _on_alarm(self, signum, frame):
        self.chunk()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, t0, t1):
        """(active seconds, scaled seconds) of the interval [t0, t1].

        Active seconds leave out the chunks run inside the interval. The scale
        comes from the chunks that started inside it, or from the MIN_CHUNKS
        chunks nearest to it when fewer did.
        """
        paused = sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in self.chunks)
        inside = [(a, b) for a, b in self.chunks if t0 <= a < t1]
        if len(inside) < MIN_CHUNKS:
            def distance(chunk):
                return max(t0 - chunk[1], chunk[0] - t1, 0.0)
            inside = sorted(self.chunks, key=distance)[:MIN_CHUNKS]
        if not inside:
            raise RuntimeError("no reference chunk was timed")
        times = sorted(b - a for a, b in inside)
        cut = int(len(times) * TRIM)
        typical = statistics.fmean(times[cut:len(times) - cut])
        active = (t1 - t0) - paused
        return active, active * NOMINAL_CHUNK_S / typical

    def mean_chunk_s(self):
        return statistics.fmean(b - a for a, b in self.chunks) if self.chunks else 0.0
