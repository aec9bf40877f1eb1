"""Machine-speed probe for the end-to-end times.

On small shared virtual machines the CPU speed a process gets drifts, in
CPU time as well as on the wall clock, by up to 1.5x in regimes that last
tens of seconds, so two runs of the same inputs can differ by more than any
bound worth gating on.  A probe is a fixed pure-Python loop (exact fractions and
lookups in a table of tuples: the operations numltl spends its time on)
that never calls numltl.  The benchmark runs it every second or so between
instances and scales each measured CPU time by ``NOMINAL_S / probe time``
around that moment: the result is the time the work would take on a machine
where the probe takes ``NOMINAL_S``.  A change to numltl moves the scaled
times by the same share as the raw ones; a change in the machine's speed
moves both the work and the probe, and cancels.

The table is built once, before anything is measured, and is small (under
a megabyte) so that the probe never sets the process's peak memory.

Set-up time is mostly a fresh interpreter loading and running module code,
whose speed the in-process probe does not follow.  Its probe is another
fresh interpreter that imports a fixed set of standard modules and prints
its CPU time: set-up is scaled by ``IMPORT_NOMINAL_S / that time``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter, process_time

NOMINAL_S = 0.035  # the probe's typical CPU time on a 2-vCPU x86-64 VM
EVERY_S = 1.0  # at most this long between probes while measuring
WINDOW_S = 2.0  # probes this close to a measured interval calibrate it
TABLE_SIZE = 3000
LOOKUP_ROUNDS = 12
IMPORT_NOMINAL_S = 0.115  # the import probe's typical CPU time on the same VM
IMPORT_PROBE = (
    "import argparse, dataclasses, decimal, email.parser, enum, fractions, hashlib, json, "
    "pathlib, random, re, statistics, typing, unittest, xml.dom.minidom\n"
    "from time import process_time\n"
    "print(process_time())"
)


def _loop(table: dict) -> int:
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
    found = 0
    for _ in range(LOOKUP_ROUNDS):
        found += sum(table[(i, i & 7)][0] for i in range(TABLE_SIZE))
    return found + total.numerator


def import_probe() -> float:
    """CPU seconds of a fresh interpreter importing ``IMPORT_PROBE``'s modules."""
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, timeout=60, check=True
    )
    return float(child.stdout)


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (wall-clock midpoint, CPU seconds)
        self._table = {(i, i & 7): (i, str(i % 50)) for i in range(TABLE_SIZE)}

    def run(self) -> None:
        start, cpu = perf_counter(), process_time()
        _loop(self._table)
        self.samples.append(((start + perf_counter()) / 2, process_time() - cpu))

    def run_if_due(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.run()

    def scale(self, start: float, end: float) -> float:
        """Factor that brings a time measured over the wall-clock interval
        [start, end] to nominal speed: from the median of the probes within
        ``WINDOW_S`` of it."""
        near = [s for m, s in self.samples if start - WINDOW_S <= m <= end + WINDOW_S]
        if not near:
            near = [s for _, s in self.samples]
        return NOMINAL_S / statistics.median(near)
