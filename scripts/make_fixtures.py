#!/usr/bin/env python3
"""Dump the standard JSON fixtures (groups, cocycles, elements, sets) to data/."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from twistlab import fixtures, serialize
from twistlab.algebra import AlgebraElement, delta
from twistlab.cocycles import BicharacterCocycle, PullbackCocycle, TableCocycle
from twistlab.groups import FreeGroup, FiniteTableGroup, IntLattice

OUT = pathlib.Path(__file__).resolve().parents[1] / "data"


def dump(name, obj):
    path = OUT / name
    serialize.dump_json(obj, path)
    print(f"wrote {path}")


def main():
    OUT.mkdir(exist_ok=True)

    z2 = fixtures.cyclic(2)
    s3 = fixtures.symmetric(3)
    z4sq = fixtures.cyclic_product([4, 4])
    f2 = FreeGroup(2)
    q8ext = fixtures.q8_extension()
    s4ext = fixtures.s4_v4_extension()

    for name, g in [("group_z2", z2), ("group_s3", s3), ("group_z4xz4", z4sq),
                    ("group_f2", f2), ("group_q8_extension", q8ext),
                    ("group_s4_v4_extension", s4ext)]:
        dump(f"{name}.json", g.describe())

    # Z2 by the Q8 extension, whose action at [1, 1] is not a permutation:
    # one error line naming that key, exit 2
    keys = [str(q8ext.element_to_json(h)) for h in q8ext.elements()]
    dump("group_nested_bad_action.json", {
        "kind": "extension", "k": z2.describe(), "lambda": q8ext.describe(),
        "action": {h: [0, 0] if h == "[1, 1]" else [0, 1] for h in keys},
        "factorSet": {f"{h1}|{h2}": 0 for h1 in keys for h2 in keys}})

    dump("cocycle_trivial.json", {"kind": "trivial"})
    sign = TableCocycle(z2, np.array([[1, 1], [1, -1]], dtype=complex))
    dump("cocycle_z2_sign.json", sign.to_json())
    for n in range(2, 7):
        g, q = fixtures.clock_shift_group(n), fixtures.clock_shift_cocycle(n)
        dump(f"group_z{n}sq.json", g.describe())
        dump(f"cocycle_clock_shift_{n}.json", q.to_json())
    broken = TableCocycle(s3, np.exp(2j * np.pi *
                                     np.arange(36).reshape(6, 6) / 7.0))
    dump("cocycle_s3_broken.json", broken.to_json())
    dump("cocycle_f2_random_coboundary.json",
         {"kind": "coboundary", "beta": {"random-seed": 1}})
    dump("cocycle_q8ext_coboundary.json",
         fixtures.random_coboundary(q8ext, seed=7).to_json())
    # coboundaries whose beta leaves elements out: reading beta there is an error
    dump("cocycle_s3_partial_beta.json",
         {"kind": "coboundary", "beta": {"0": [1, 0], "1": [0, 1]}})
    dump("cocycle_f2_partial_beta.json",
         {"kind": "coboundary", "beta": {"e": [1, 0], "x1": [0, 1]}})
    # valid only on an extension: given with another group it exits 3
    dump("cocycle_pullback_trivial.json", {"kind": "pullback", "quotient": {"kind": "trivial"}})
    # quotient values of 1e200 off the identity row and column: the crossed
    # pipeline's residuals leave the float range, one error line, exit 2
    huge = np.full((4, 4), 1e200)
    huge[0] = huge[:, 0] = 1.0
    dump("cocycle_q8ext_pullback_huge.json",
         PullbackCocycle(q8ext, TableCocycle(q8ext.quotient, huge)).to_json())

    dump("element_z2_ones.json",
         (delta(z2, 0) + delta(z2, 1)).to_json())
    x, y = f2.generator(1), f2.generator(2)
    xi, yi = f2.invert(x), f2.invert(y)
    sphere1 = delta(f2, x) + delta(f2, xi) + delta(f2, y) + delta(f2, yi)
    dump("element_f2_sphere1.json", sphere1.to_json())
    dump("element_f2_ux.json",
         (delta(f2, x) + delta(f2, xi)).to_json())
    dump("element_f2_t_x.json", delta(f2, x).to_json())
    dump("element_f2_t_e.json", delta(f2, f2.identity()).to_json())
    # multi-term elements for the finite exact paths: a clock-shift twist on
    # Z4 x Z4 and the Q8-extension coboundary
    dump("element_z4sq_random.json",
         fixtures.random_element(z4sq, [0, 1, 4, 6, 9, 15], seed=3).to_json())
    dump("element_q8ext_random.json",
         fixtures.random_element(q8ext, q8ext.elements()[1:6], seed=4).to_json())
    # sphere 1 with two coefficients whose squares are finite but sum past
    # the float range
    dump("element_f2_sphere1_huge.json",
         AlgebraElement(f2, {x: 1e154, xi: 1e154, y: 1.0, yi: 1.0}).to_json())
    # c e for case 2 of c from default_rng(0).standard_normal((20000, 2)):
    # the root of |c|^2 rounded to nearest is below |c|, so the Haagerup bound
    # must round up to stay a bound
    dump("element_f2_c_e.json",
         delta(f2, f2.identity(), complex(-0.535669373161111, 0.36159505490948474)).to_json())
    dump("element_delta_e_ref.json",
         {"group": "ref", "terms": [{"g": "", "re": 1.0, "im": 0.0}]})

    # the generic lattice path: u1 + u1* + u2 + u2* on Z^2 under the
    # bicharacter theta = [[0, 1/3], [0, 0]]
    zz = IntLattice(2)
    dump("group_z2_lattice.json", zz.describe())
    dump("cocycle_z2_bicharacter_third.json",
         BicharacterCocycle(zz, [[0.0, 1.0 / 3.0], [0.0, 0.0]]).to_json())
    u1, u2 = (1, 0), (0, 1)
    harper = (delta(zz, u1) + delta(zz, zz.invert(u1))
              + delta(zz, u2) + delta(zz, zz.invert(u2)))
    dump("element_z2_harper.json", harper.to_json())

    dump("set_z4xz4_S.json", serialize.element_set_to_json(
        z4sq, [z4sq.index_of_label(l) for l in [(1, 0), (0, 1), (1, 1)]]))
    yy = f2.compose(y, y)
    dump("set_f2_F_y_y2.json", serialize.element_set_to_json(f2, [y, yy]))
    dump("set_f2_F_x_xinv.json", serialize.element_set_to_json(f2, [x, xi]))
    dump("set_f2_F_xy_xy2.json", serialize.element_set_to_json(
        f2, [f2.compose(x, y), f2.compose(x, yy)]))


if __name__ == "__main__":
    main()
