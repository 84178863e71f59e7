"""Machine-speed probe for the benchmark, run as its own process.

    python3 bench/probe.py SAMPLES_FILE PERIOD_S

Every PERIOD_S seconds it times one run of a fixed kernel and appends
``<clock> <seconds>`` to SAMPLES_FILE, where clock is ``time.perf_counter()``
at the kernel's start (CLOCK_MONOTONIC on Linux, so it compares with the
parent's clock). It exits when its standard input reaches end of file,
that is when the parent closes the pipe or ends.

The kernel is general interpreter work: exact fractions, sorting, building
a dict and a JSON round trip. While the machine's speed drifted, it tracked
the benchmark's operations better than a tight loop plus a small numpy
expression did (see KERNEL_NOMINAL_S in run.py).
"""
from __future__ import annotations

import json
import random
import select
import sys
import time
from fractions import Fraction

_RNG = random.Random(0)
_FLOATS = [_RNG.random() for _ in range(800)]


def kernel() -> float:
    """Seconds for one fixed run of the kernel, about 2 ms."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(1, i)
    sorted(_FLOATS)
    table = {str(i): [i, i * 0.5, {"k": i}] for i in range(400)}
    json.loads(json.dumps(table))
    return time.perf_counter() - start


def main(path: str, period: float) -> None:
    kernel()  # warm-up
    with open(path, "a", encoding="utf-8") as out:
        while True:
            start = time.perf_counter()
            out.write(f"{start!r} {kernel()!r}\n")
            out.flush()
            if select.select([sys.stdin], [], [], period)[0]:
                return  # stdin readable means end of file: the parent is done


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
