#!/usr/bin/env python3
"""Truncated lower bounds for ||u_x + u_x^-1 + u_y + u_y^-1|| on the rank-2
free group against the Haagerup upper bound and the known limit 2 sqrt(3).

Each bound is also printed by repr, which round-trips the double, so the
outputs of two checkouts can be compared bit for bit with ``diff``."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from twistlab.algebra import delta
from twistlab.cocycles import TrivialCocycle
from twistlab.groups import FreeGroup
from twistlab.normspectra import haagerup_upper, truncated_norm_lower


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-radius", type=int, default=11)
    args = ap.parse_args()

    f2 = FreeGroup(2)
    x, y = f2.generator(1), f2.generator(2)
    a = (delta(f2, x) + delta(f2, f2.invert(x))
         + delta(f2, y) + delta(f2, f2.invert(y)))
    sigma = TrivialCocycle(f2)
    limit = 2.0 * np.sqrt(3.0)
    upper = haagerup_upper(f2, a)
    print(f"haagerup upper: {upper:.6f}   limit 2*sqrt(3) = {limit:.6f}")
    print(f"{'r':>3}  {'lower':>12}  {'gap to limit':>12}  repr")
    prev = 0.0
    for r in range(2, args.max_radius + 1):
        lo = truncated_norm_lower(f2, sigma, a, r)
        assert lo >= prev - 1e-12, "lower bounds must be monotone in r"
        prev = lo
        print(f"{r:>3}  {lo:12.8f}  {limit - lo:12.2e}  {lo!r}")


if __name__ == "__main__":
    main()
