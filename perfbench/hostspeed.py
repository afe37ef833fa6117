"""Host-speed probe: full-speed time on a host whose speed drifts.

The benchmark's host shares its CPUs with other tenants.  A fixed
pure-Python loop there switches between speeds up to about 1.5x apart, in
stretches of a fraction of a second to tens of seconds, in wall time and CPU
time alike.  Wall time alone then says as much about the neighbours as about
borno.

While a process measures, a SIGALRM timer interrupts it every
``INTERVAL_S`` and the handler times ``LOOPS`` rounds of a fixed integer
loop: a probe.  The handler runs between bytecodes of the main thread, so
the probe measures the CPU the measured code runs on, at that moment.  A
probe's duration tells how slow the host was just before it; its own time
is left out.

``full_speed_s`` tiles an interval with the probes inside it and scales
each piece by ``REFERENCE_S / duration`` of the probe that closes it.  The
result is the time the interval's work would take on a host that ran the
probe in REFERENCE_S throughout: full speed.  REFERENCE_S is a constant,
about the probe's fast duration on the machine the baseline was taken on
(2 vCPUs of an Intel Xeon, Python 3.11), so full-speed times there read
close to the wall times of its fast spells; a constant also takes out the
run-to-run drift of the fast speed itself.  An interval with no probe in it
takes the speed of the nearest probe.

The correction assumes the measured code slows as the probe does.  Where
it slows more, a slow spell still shows, less; code that itself slowed the
probe (it runs in the measured process) would be credited for it.
"""

import bisect
import signal
import time

perf = time.perf_counter

INTERVAL_S = 0.05
LOOPS = 8000
REFERENCE_S = 0.0006

class Probe:
    """Samples (start, duration) of the probe loop, every INTERVAL_S."""

    def __init__(self):
        self.samples = []
        self.running = False

    def _handler(self, signum, frame):
        t = perf()
        s = 0
        for i in range(LOOPS):
            s += i * i % 7
        self.samples.append((t, perf() - t))

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False


def fast_probe_s(samples):
    """The fast probe duration of a run, its 5th percentile (for the record)."""
    durations = sorted(d for _t, d in samples)
    return durations[len(durations) // 20]


def full_speed_s(start, end, samples):
    """Time of [start, end] at full speed, probe time left out.

    ``samples`` is sorted by start time.
    """
    lo = bisect.bisect_left(samples, (start,))
    hi = bisect.bisect_left(samples, (end,))
    inside = [s for s in samples[lo:hi] if s[0] + s[1] <= end]
    if not inside:
        near = samples[max(lo - 1, 0):lo + 1]
        if not near:
            return end - start
        mid = (start + end) / 2
        d = min(near, key=lambda s: abs(s[0] - mid))[1]
        return (end - start) * REFERENCE_S / d
    total, prev = 0.0, start
    for t, d in inside:
        total += (t - prev) * REFERENCE_S / d
        prev = t + d
    return total + (end - prev) * REFERENCE_S / inside[-1][1]
