"""Host speed reference for the end-to-end timings.

On a shared host the speed of one core drifts by up to 1.7x, in
episodes of a few milliseconds to minutes, and process CPU time drifts
with it. So the benchmark times a fixed interpreter-bound loop, which
does not touch salsim, while it measures, and scales each measured time
by NOMINAL_S over the mean time of the loops taken with it:

- during a sweep pass, a SIGALRM handler runs one loop every
  SAMPLE_PERIOD_S of wall time, in this process and thread, so each
  run() is scaled by the speed the host had while it ran;
- a tiny_runs pass lasts about 30 ms and is scaled by loops taken right
  before and right after it;
- set-up probes run in child processes, so set-up is scaled by loops
  taken between the probes.

Every end-to-end time is thus in seconds at the reference speed: the
speed at which one reference loop takes NOMINAL_S. A change to salsim
moves the scaled time as much as the raw one. A change in how busy the
host is slows the measured code and the reference loop alike, and
cancels. The time spent in reference loops is left out of every
measured time.
"""

import signal
import time

# seconds one reference loop takes at the reference speed; about its
# median on the 2-vCPU Xeon VM of a shared host the benchmark was tuned on
NOMINAL_S = 0.0009
REFERENCE_ITERATIONS = 4_000
SAMPLE_PERIOD_S = 0.05
# a call that ran through fewer loops is scaled by the pass's last ones
MIN_CALL_SAMPLES = 4
# loops on each side of a unit too short or too far away to sample during
BRACKET_LOOPS = 5


def reference_loop():
    """Float arithmetic, list indexing, a branch and dict stores."""
    table = {}
    acc = 0.0
    xs = [0.0] * 64
    for i in range(REFERENCE_ITERATIONS):
        j = i & 63
        xs[j] = xs[j] * 0.5 + i * 1e-3
        acc += xs[j] if xs[j] > 1.0 else -xs[j]
        table[j] = acc
    return acc


def scale(raw, samples):
    """`raw` seconds at the speed the reference samples show, in seconds
    at the reference speed."""
    return raw * NOMINAL_S * len(samples) / sum(samples)


class HostSpeed:
    """The reference samples of one pass: the time of each loop.

    While active (a context manager) it takes one sample every
    SAMPLE_PERIOD_S from a SIGALRM handler. `spent` is the time spent
    in reference loops, which measured times leave out.
    """

    def __init__(self, clock=time.perf_counter, loop=reference_loop):
        self.clock = clock
        self.loop = loop
        self.samples = []
        self.spent = 0.0

    def sample(self, loops=1):
        """Time `loops` reference loops back to back; return their mean."""
        clock = self.clock
        total = 0.0
        for _ in range(loops):
            start = clock()
            self.loop()
            elapsed = clock() - start
            self.samples.append(elapsed)
            total += elapsed
        self.spent += total
        return total / loops

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args, **kwargs):
        """(result, raw seconds, scaled seconds) of one call of fn; both
        times leave out the reference loops run during the call."""
        if not self.samples:
            self.sample()
        first, spent = len(self.samples), self.spent
        start = self.clock()
        result = fn(*args, **kwargs)
        raw = self.clock() - start - (self.spent - spent)
        during = self.samples[first:]
        if len(during) < MIN_CALL_SAMPLES:
            during = self.samples[-MIN_CALL_SAMPLES:]
        return result, raw, scale(raw, during)
