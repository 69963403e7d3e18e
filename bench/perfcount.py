"""Instructions retired by child processes, from the CPU's hardware counter.

``InstructionCounter`` opens one ``perf_event_open`` counter on the
benchmark process with ``inherit`` set, so every process and thread it
starts afterwards counts into it; the kernel adds a child's count when the
child exits.  The difference of two reads around one spawn-and-reap is
that child's count (plus the few instructions the benchmark itself spends
starting it).  User and kernel mode are both counted; the hypervisor is
not.

Wall time on a shared host follows the neighbours' load: on a 2-core VM
the same command list took 1.5-2x longer from one minute to the next, and
the cycle counter tracked wall time, while instructions retired stayed
within 0.1%.  The count measures the program's work, not its speed.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct

SYSCALL = {"x86_64": 298, "aarch64": 241}
PERF_TYPE_HARDWARE = 0
PERF_COUNT_HW_INSTRUCTIONS = 1
READ_TIMES = 1 | 2  # PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING
FLAG_INHERIT = 1 << 1
FLAG_EXCLUDE_HV = 1 << 6


class CounterUnavailable(RuntimeError):
    """The kernel or the virtual machine offers no instruction counter."""


class _Attr(ctypes.Structure):
    # struct perf_event_attr up to and including the flag bits; the rest
    # stays zero.
    _fields_ = [("type", ctypes.c_uint32), ("size", ctypes.c_uint32),
                ("config", ctypes.c_uint64), ("sample_period", ctypes.c_uint64),
                ("sample_type", ctypes.c_uint64), ("read_format", ctypes.c_uint64),
                ("flags", ctypes.c_uint64), ("rest", ctypes.c_uint8 * 80)]


class InstructionCounter:
    """Counts instructions retired by this process and every process or
    thread it starts after construction."""

    def __init__(self):
        number = SYSCALL.get(platform.machine())
        if number is None:
            raise CounterUnavailable(f"no perf_event_open number for {platform.machine()}")
        attr = _Attr(type=PERF_TYPE_HARDWARE, size=ctypes.sizeof(_Attr),
                     config=PERF_COUNT_HW_INSTRUCTIONS, read_format=READ_TIMES,
                     flags=FLAG_INHERIT | FLAG_EXCLUDE_HV)
        libc = ctypes.CDLL(None, use_errno=True)
        fd = libc.syscall(number, ctypes.byref(attr), 0, -1, -1, 0)
        if fd < 0:
            raise CounterUnavailable(f"perf_event_open: {os.strerror(ctypes.get_errno())}")
        self.fd = fd

    def read(self):
        """Instructions counted so far.  Raises if the counter was
        multiplexed with other events, since a scaled count is an estimate."""
        count, enabled, running = struct.unpack("QQQ", os.read(self.fd, 24))
        if running != enabled:
            raise CounterUnavailable(f"instruction counter ran {running} of {enabled} ns")
        return count

    def close(self):
        os.close(self.fd)
