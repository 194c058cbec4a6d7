"""Host-speed calibration for the benchmark's timings.

The benchmark shares its host with other work, and the host's speed for
pure-Python code drifts by tens of percent over seconds to minutes.  To
take that drift out of the comparison between two versions of the program,
a calibration process times a small fixed pure-Python kernel of its own
while each measured batch of calls runs: a burst of kernel calls when the
batch starts, one call every ``INTERVAL_S`` during it (about 2% of one
core), and another burst when it ends.  The batch's time is reported
scaled to a host on which the kernel takes ``REFERENCE_S``:

    calibrated_s = measured_s * REFERENCE_S / median kernel time in the batch

The kernel runs in a process of its own, so nothing the program leaves in
the measuring process -- its heap, its threads, its imports -- changes the
kernel's time.  It does the kinds of work the engines do: tuple keys hashed
into a dict, a sort, a sum.

Protocol on the calibration process's standard input: ``s`` starts a
batch's window, ``e`` ends it and makes the process print the window's
median kernel time as one JSON number on a line; end of input stops it.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

KERNEL_SIZE = 1_000
BURST = 5
INTERVAL_S = 0.045
REFERENCE_S = 0.001  # calibrated times are for a host where the kernel takes this


def kernel() -> int:
    table = {}
    for i in range(KERNEL_SIZE):
        table[(i * 7919) % 10007, i & 255] = i
    return sum(value for _, value in sorted(table.items()))


def kernel_times(calls: int) -> list[float]:
    times = []
    for _ in range(calls):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return times


def serve(fd: int = 0, out=sys.stdout) -> None:
    """Answer the protocol on file descriptor ``fd`` until end of input."""
    window = None
    while True:
        ready, _, _ = select.select([fd], [], [], None if window is None else INTERVAL_S)
        if not ready:
            window += kernel_times(1)
            continue
        data = os.read(fd, 64)
        if not data:
            return
        for command in data.decode():
            if command == "s":
                window = kernel_times(BURST)
            elif command == "e" and window is not None:
                window += kernel_times(BURST)
                print(json.dumps(statistics.median(window)), file=out, flush=True)
                window = None


class Calibrator:
    """The calibration process.  Call ``start()`` before a batch and
    ``stop()`` after it; use it as a context manager, which stops the
    process on exit."""

    def __init__(self, timeout_s: float = 60):
        self.timeout_s = timeout_s
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _send(self, command: str) -> None:
        self.proc.stdin.write(command)
        self.proc.stdin.flush()

    def start(self) -> None:
        self._send("s")

    def stop(self) -> float:
        """The median kernel time since ``start()``."""
        self._send("e")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process ended with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(self.timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
