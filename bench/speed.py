"""The machine's speed during a run, from a fixed reference kernel.

The 2-vCPU VM the benchmark was built on runs the same code up to 2x
slower for tenths of a second to minutes at a time: other tenants share
its cores and memory.  No time is stolen; the code just runs slower, CPU
time included, and each vCPU on its own.

The benchmark runs this kernel after each set-up and each operation, and
divides the run's mean operation time (median set-up time) by the
kernel's mean time after the operations (set-ups), times ``NOMINAL_S``:
seconds at reference speed, what the operation would take on this VM
when the kernel takes ``NOMINAL_S``.  In three sets of ten runs of each
replay workload, the spread between quartiles of the replay's time was
0.13-0.27 of the median unscaled and 0.05-0.17 scaled; means did better
than medians or minima on either side.

The kernel does in miniature what rwdetect does per packet (unpack
fixed-size records, key them into a dict, sort the keys) and slows with
it.  It runs with the garbage collector off, so the heap the program
keeps cannot move it.
"""

from __future__ import annotations

import gc
import struct
import time

#: The kernel's mean time on the build VM (2 vCPUs, Xeon at 2.0 GHz,
#: Python 3.11) in its fast spells.  A constant: it only sets the scale.
NOMINAL_S = 0.020
#: The kernel runs for this share of each operation's time after it, so
#: its samples follow the operations' time evenly, and at least
#: ``MIN_REPEATS`` times.
SHARE = 0.15
MIN_REPEATS = 3

_RECORD = struct.Struct("<IIHHB")
_DATA = b"".join(_RECORD.pack(i, i * 7 % 65536, i % 1000, i % 77, i % 3)
                 for i in range(20_000))


def _kernel() -> list:
    flows = {}
    for record in _RECORD.iter_unpack(_DATA):
        key = (record[0] & 1023, record[2])
        flow = flows.get(key)
        if flow is None:
            flows[key] = [record[1], 1]
        else:
            flow[0] += record[1]
            flow[1] += 1
    return sorted(flows.items())


def reference_s(seconds: float) -> list[float]:
    """The kernel's times in seconds, run for about ``seconds`` in a row."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        while len(times) < MIN_REPEATS or sum(times) < seconds:
            began = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - began)
    finally:
        if enabled:
            gc.enable()
    return times
