#!/usr/bin/env python3
"""CPU time of the finite-group stages at orders 120-720, as one JSON line.

Stages, each timed by time.process_time in this one process:
  s6_table       S6's index table rebuilt through FiniteTableGroup (its
                 group-law check included);
  s6_validate    validate on S6 under random_coboundary(S6, 1);
  s6_decompose   decompose_blocks on S6 under random_coboundary(S6, 1);
  c240_decompose decompose_blocks on cyclic(240) under the trivial sigma,
                 where every class is sigma-regular (z = n = 240);
  z16sq_decompose
                 the same on Z16 x Z16 (z = n = 256);
  a5z2_crossed   crossed_product_pipeline on S5 = A5.Z2 under
                 random_coboundary(ext, 1);
  a6z2_crossed   the same on S6 = A6.Z2.

Every stage reads a fresh cocycle, so no stage reuses another's beta reads.
``checks`` holds what each stage found (validate's verdict, the number of
blocks of each size, blocks_match), so a run that computed something else
shows.
``--root`` names the checkout whose ``src/`` is imported (default: the one
holding this script), so two checkouts can be timed in one session:

    python3 scripts/finite_scale.py
    python3 scripts/finite_scale.py --root ../parent
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from collections import Counter


def alternating_extension(fixtures, n):
    """S_n as the extension of A_n by Z2, A_n the even permutations."""
    G = fixtures.symmetric(n)
    even = [i for i, p in enumerate(G.labels)
            if sum(p[a] > p[b] for a in range(n) for b in range(a + 1, n)) % 2 == 0]
    return fixtures.extension_from_subgroup(G, even, name=f"A{n}.Z2")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=pathlib.Path, default=pathlib.Path(__file__).resolve().parents[1])
    args = ap.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))

    from twistlab import cocycles, crossed, fixtures
    from twistlab.cocycles import TrivialCocycle
    from twistlab.groups import FiniteTableGroup

    S6 = fixtures.symmetric(6)

    def extension(n):
        ext = alternating_extension(fixtures, n)
        return ext, fixtures.random_coboundary(ext, 1)

    def untwisted(G):
        return G, TrivialCocycle(G)

    def decompose(G, sigma):
        sizes = Counter(crossed.decompose_blocks(G, sigma).block_sizes)
        return {"blocks_of_size": {d: sizes[d] for d in sorted(sizes)}}

    def crossed_run(ext, sigma):
        rep = crossed.crossed_product_pipeline(ext, sigma)
        return {"blocks_match": rep["blocks_match"], "block_sizes": rep["direct_block_sizes"]}

    # each stage's inputs are built untimed, just before it: a large live
    # extension slowed the rebuilt table's check 2.5 times in a trial run
    stages = {
        "s6_table": (lambda: (S6.table.tolist(),),
                     lambda rows: {"order": FiniteTableGroup(rows).order}),
        "s6_validate": (lambda: (S6, fixtures.random_coboundary(S6, 1)),
                        lambda G, sigma: {"passed": cocycles.validate(G, sigma).passed}),
        "s6_decompose": (lambda: (S6, fixtures.random_coboundary(S6, 1)), decompose),
        "c240_decompose": (lambda: untwisted(fixtures.cyclic(240)), decompose),
        "z16sq_decompose": (lambda: untwisted(fixtures.cyclic_product([16, 16])), decompose),
        "a5z2_crossed": (lambda: extension(5), crossed_run),
        "a6z2_crossed": (lambda: extension(6), crossed_run),
    }
    seconds, checks = {}, {}
    for name, (prepare, run) in stages.items():
        inputs = prepare()
        start = time.process_time()
        checks[name] = run(*inputs)
        seconds[name] = round(time.process_time() - start, 4)
        del inputs
    print(json.dumps({"process_s": seconds, "checks": checks}))


if __name__ == "__main__":
    main()
