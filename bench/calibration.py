"""Calibration kernels: the benchmark's yardstick for the machine's speed.

The reference machine is shared with other tenants, and its speed drifts by
up to half within minutes, in wall and CPU time alike.  An end-to-end run
therefore times a fixed kernel at points spread over each batch, outside
the timed region, and multiplies the batch's timings by the kernel's
reference time over its median time in that batch.  Reported timings are
seconds on a machine where the kernel takes its reference time.

Contention slows different kinds of work differently, so each workload is
paired with a kernel doing the kind of work that dominates it, and a request
of another kind can name its own kernel; measured in
10 s windows over 150 s, a kernel of the wrong kind tracked a workload two
to four times worse than the matching one.  The kernels share no code with
fpkit, so a change to fpkit cannot move them.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time
from fractions import Fraction

_BASE, _FACTOR, _MODULUS = 3**2000, 7**1500, 10**1500 + 7


def big_integers() -> None:
    """Products and remainders of 1500-digit integers, like the exact sums
    of a large localization."""
    x = _BASE
    for _ in range(10):
        x = x * _FACTOR % _MODULUS


def fractions() -> None:
    """Sums of small-denominator rationals, like the search's partial sums."""
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(1, k)


def parser_and_json() -> None:
    """An argument parser built and used, and a JSON round trip, like a
    small command-line request."""
    parser = argparse.ArgumentParser(prog="kernel")
    commands = parser.add_subparsers(dest="command")
    for name in "abcdefg":
        sub = commands.add_parser(name, help=f"command {name}")
        sub.add_argument("path")
        sub.add_argument("--flag", action="store_true")
    parser.parse_args(["c", "doc.json", "--flag"])
    json.loads(json.dumps({str(i): [i, -i, str(i)] for i in range(100)}, indent=2))


# Each kernel's median time on the reference machine.
REFERENCE_S = {
    big_integers: 0.0008,
    fractions: 0.0017,
    parser_and_json: 0.0017,
}


def kernel_time(kernel) -> float:
    """One timing of ``kernel``, with the garbage collector off so that the
    heap the program under test leaves behind does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(kernel, times: list[float]) -> float:
    """Reference time over the median of ``times``: above 1 on a machine
    faster than the reference."""
    return REFERENCE_S[kernel] / statistics.median(times)
