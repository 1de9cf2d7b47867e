"""Item and set-up times rescaled to a fixed reference speed of the host.

The benchmark was written on a 2-core virtual machine whose speed drifts
with its neighbours' load: a fixed loop of interpreter and numpy work
ran 1.5 to 1.75 times slower for seconds to minutes at a time, which
moved the quartile spread of raw run times over ten seeds to 0.17-0.45
of the median with the library unchanged.  So a short speed probe runs
before every item and after the last one, and each item's time is
rescaled by the reference probe time over the median of the probes
taken around it.  Set-up times are rescaled the same way by a bare
interpreter start.  The probes use neither the library nor its data, so
a change to the library cannot move them.  Raw times are reported as
well.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Only fixes the unit of rescaled times: they read as seconds on a host
# where the probe takes this long.  On the 2-core Intel Xeon VM the
# benchmark was written on, the median probe of a run took 1.7 to 2.9 ms
# as the load of the VM's neighbours changed.
REFERENCE_PROBE_S = 0.0018
# Set-up times are rescaled to a host where interpreter_start takes this
# long; its median over a run was 0.08 to 0.2 s on the VM above.
REFERENCE_START_S = 0.09
# an item is rescaled by the median of the probes up to this many items
# before and after it: wide enough to smooth the probe's own jitter,
# narrow enough to follow the host within a pass
WINDOW = 2

# Roughly equal parts of interpreter arithmetic, numpy calls on short
# vectors (the per-call cost that dominates the upper-bound sweep and
# scalar field work), medium lookups, and large lookups like the block
# kernels of exact enumeration.  The lookups write into preallocated
# buffers, so that no page faults enter the probe.
_TABLE = (np.arange(64 * 64) % 61).astype(np.uint8).reshape(64, 64)
_SHORT = (np.arange(34) % 64).astype(np.uint8)
_MEDIUM = (np.arange(4096) % 64).astype(np.uint8)
_LARGE = np.arange(1 << 18, dtype=np.intp) * 7 % (64 * 64)
_OUT = np.empty(1 << 18, dtype=np.uint8)


def _reference_work():
    s = 0
    for i in range(4000):
        s += (i * i) % 7
    short_rev, medium_rev = _SHORT[::-1], _MEDIUM[::-1]
    for _ in range(300):
        _TABLE[_SHORT, short_rev]
    for _ in range(10):
        _TABLE[_MEDIUM, medium_rev]
    for _ in range(2):
        np.take(_TABLE.ravel(), _LARGE, out=_OUT)
    return s


def probe():
    """Seconds one run of the reference work takes now."""
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


def rescale(item_s, probe_s):
    """Item times at the reference speed.  probe_s[i] ran just before
    item i, and probe_s[-1] after the last item."""
    if len(probe_s) != len(item_s) + 1:
        raise ValueError("need one probe before each item and one after the last")
    return [t * REFERENCE_PROBE_S
            / statistics.median(probe_s[max(0, i - WINDOW + 1): i + WINDOW + 1])
            for i, t in enumerate(item_s)]


def interpreter_start(cwd):
    """Seconds from starting a fresh interpreter to numpy imported: the
    library-free part of set-up, which set-up times are rescaled by.
    Process start-up and imports slow down with the host in a way the
    compute probe above does not follow, so set-up gets its own probe."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", "import time, numpy; print(time.monotonic())"],
        capture_output=True, text=True, timeout=120, cwd=cwd, check=True)
    return float(done.stdout) - t0
