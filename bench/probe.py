"""Host-speed probe: a clock that runs in reference seconds.

On a host shared with other work, the processor's speed can drift by
tens of percent within seconds to minutes.  While a measurement runs, a
timer signal interrupts it every ``INTERVAL`` seconds and times a fixed
pure-Python loop (the probe).  ``clock`` leaves out the time spent in
probes and advances at ``REF_PROBE_S`` / (the last probe's time)
reference seconds per host second: it reads seconds on a host where one
probe takes ``REF_PROBE_S``.
The probe runs no empa code and touches almost no memory, so extra work
in the measured region should add the same share to reference seconds
as to host seconds.  ``test_bench.py`` checks this with a cache-missing
table walk added to a region of empa work.  The traced run reports the
host seconds as well (``bench.host_wall_s``, ``bench.ref_per_host``).
"""

import signal
import time

INTERVAL = 0.05          # seconds between probes
PROBE_LOOPS = 25000      # about 2.5 ms of interpreter work
REF_PROBE_S = 0.0025     # one probe on the reference host


def _probe_work():
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return total


class SpeedProbe:
    """Use as a context manager around a measurement."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.spent = 0.0          # host seconds spent in probes
        self.samples = []         # every probe's host seconds
        self._host_mark = 0.0     # probe-free host time of the last probe
        self._ref_mark = 0.0      # clock() at the last probe
        self._rate = 1.0          # reference seconds per host second
        self._generation = 0      # bumped by every probe
        self._armed = False
        self._old_handler = None

    def clock(self):
        """Reference seconds since the probe started; monotonic."""
        while True:
            generation = self._generation
            host = time.perf_counter() - self.spent
            now = self._ref_mark + (host - self._host_mark) * self._rate
            if generation == self._generation:   # no probe ran meanwhile
                return now

    def host_clock(self):
        """Host seconds, not counting time spent in probes."""
        return time.perf_counter() - self.spent

    def _sample(self, *_signal_args):
        start = time.perf_counter()
        _probe_work()
        took = time.perf_counter() - start
        host = start - self.spent
        self._ref_mark += (host - self._host_mark) * self._rate
        self._host_mark = host
        self._rate = REF_PROBE_S / took
        self.spent += took
        self.samples.append(took)
        self._generation += 1
        if self._armed:       # re-armed one shot at a time: never nested
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        self._host_mark = time.perf_counter() - self.spent
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False
