"""Machine-speed probe: a fixed job that no change to chemlevy can alter.

The benchmark runs this as a fresh interpreter around every iteration and
scales the iteration's timings by its wall time (see run.py). It does what
every chemlevy process does first, import numpy and the standard modules the
package uses, then a little of the workloads' other work: a float loop with
``math.exp`` like the stepping kernel, float ``repr`` like the CSV writers,
and ``nanpercentile`` like the ensemble aggregation.
"""

import argparse  # noqa: F401  imported for its cost, as chemlevy does
import csv  # noqa: F401
import dataclasses  # noqa: F401
import enum  # noqa: F401
import json  # noqa: F401
import math
import pathlib  # noqa: F401
import warnings  # noqa: F401
from concurrent import futures  # noqa: F401

import numpy as np


def work() -> int:
    s, x = 0.0, 1.0
    for _ in range(30_000):
        x = x * 0.999999 + 1e-7
        s += math.exp(-x) * 1e-3
    text = ",".join(repr(s + i * 1e-3) for i in range(5_000))
    np.nanpercentile(np.arange(20_000.0).reshape(10, 2_000), [5.0, 50.0, 95.0], axis=0)
    return len(text)


if __name__ == "__main__":
    work()
