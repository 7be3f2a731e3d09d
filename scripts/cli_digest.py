"""Digest of the CLI's output on the committed fixtures.

For a fixed list of invocations on ``data/`` this prints one line each: the
sha256 of stdout, the sha256 of stderr, the exit code and the arguments.
Running it on two checkouts and comparing the two outputs with ``diff``
shows whether a change moved any byte the CLI prints:

    python3 scripts/cli_digest.py > after.txt
    python3 scripts/cli_digest.py --root ../parent > before.txt
    diff before.txt after.txt

``--root`` names the checkout whose ``src/`` and ``data/`` are used (default:
the one holding this script).  Paths are passed relative to that root, so
error messages name the same files in every checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

F2 = ("--group", "data/group_f2.json")
TRIVIAL = ("--cocycle", "data/cocycle_trivial.json")
F2_COB = ("--cocycle", "data/cocycle_f2_random_coboundary.json")
SPHERE1 = ("--element", "data/element_f2_sphere1.json")
UX = ("--element", "data/element_f2_ux.json")
T_X = ("--element", "data/element_f2_t_x.json")
T_E = ("--element", "data/element_f2_t_e.json")
CLOCK_GROUPS = {2: "z2sq", 3: "z3sq", 4: "z4sq", 5: "z5sq", 6: "z6sq"}


def invocations():
    out = [
        ("validate", "--group", "data/group_s3.json", *TRIVIAL),
        ("validate", "--group", "data/group_s3.json", "--cocycle", "data/cocycle_s3_broken.json"),
        ("validate", "--group", "data/group_z2.json", "--cocycle", "data/cocycle_z2_sign.json"),
        ("validate", "--group", "data/group_q8_extension.json",
         "--cocycle", "data/cocycle_q8ext_coboundary.json"),
        ("validate", "--group", "data/group_s4_v4_extension.json"),
        ("validate", *F2, *F2_COB, "--seed", "5"),
        ("validate", "--group", "data/no_such.json"),
        ("norm", "--group", "data/group_z2.json", "--cocycle", "data/cocycle_z2_sign.json",
         "--element", "data/element_z2_ones.json", "--mode", "exact"),
        ("norm", *F2, *TRIVIAL, *SPHERE1, "--mode", "exact"),
        ("norm", *F2, *TRIVIAL, *SPHERE1, "--mode", "haagerup"),
        ("norm", *F2, *TRIVIAL, *SPHERE1, "--mode", "truncate", "--radius", "9",
         "--mem-cap", "50"),
        ("norm", *F2, *TRIVIAL, *UX, "--mode", "truncate", "--radius", "6"),
        ("norm", *F2, *F2_COB, *T_E, "--mode", "truncate", "--radius", "3"),
    ]
    for cocycle in (TRIVIAL, F2_COB):
        for r in range(10):
            out.append(("norm", *F2, *cocycle, *SPHERE1, "--mode", "truncate",
                        "--radius", str(r)))
    out += [
        ("transfer", "--group", "data/group_z4xz4.json", "--set", "data/set_z4xz4_S.json",
         *TRIVIAL),
        ("specrad", *F2, *TRIVIAL, *SPHERE1, "--powers", "10"),
        ("specrad", *F2, *F2_COB, *SPHERE1, "--powers", "8"),
        ("specrad", *F2, *TRIVIAL, *UX, "--powers", "24"),
        ("specrad", *F2, *F2_COB, *T_X, "--powers", "5"),
        ("specrad", *F2, *TRIVIAL, *SPHERE1, "--powers", "6", "--mem-cap", "100"),
        ("specrad", "--group", "data/group_z2.json", "--cocycle", "data/cocycle_z2_sign.json",
         "--element", "data/element_z2_ones.json", "--powers", "6"),
        ("semigroup", *F2, *T_X, "--set", "data/set_f2_F_y_y2.json", "--length", "8"),
        ("semigroup", *F2, *T_E, "--set", "data/set_f2_F_x_xinv.json", "--length", "2"),
        ("criterion", *F2, *F2_COB, *T_X, "--set", "data/set_f2_F_y_y2.json"),
        ("criterion", *F2, *T_X, "--set", "data/set_f2_F_xy_xy2.json", "--powers", "8",
         "--radius", "6"),
        ("decompose", "--group", "data/group_s3.json", *TRIVIAL),
        ("decompose", "--group", "data/group_s3.json", *TRIVIAL, "--seed", "3"),
        ("decompose", "--group", "data/group_z2.json", "--cocycle", "data/cocycle_z2_sign.json"),
        ("decompose", "--group", "data/group_z4xz4.json", *TRIVIAL),
        ("decompose", "--group", "data/group_s3.json", "--cocycle", "data/cocycle_s3_broken.json"),
    ]
    for n, g in CLOCK_GROUPS.items():
        out.append(("validate", "--group", f"data/group_{g}.json",
                    "--cocycle", f"data/cocycle_clock_shift_{n}.json"))
        out.append(("decompose", "--group", f"data/group_{g}.json",
                    "--cocycle", f"data/cocycle_clock_shift_{n}.json"))
    out += [
        ("crossed", "--group", "data/group_q8_extension.json", *TRIVIAL),
        ("crossed", "--group", "data/group_q8_extension.json",
         "--cocycle", "data/cocycle_q8ext_coboundary.json"),
        ("crossed", "--group", "data/group_q8_extension.json",
         "--cocycle", "data/cocycle_q8ext_coboundary.json", "--convention", "as-printed"),
        ("crossed", "--group", "data/group_s4_v4_extension.json", *TRIVIAL),
        ("norm", *F2, *TRIVIAL, *SPHERE1, "--mode", "bogus"),
    ]
    # the finite table paths: multi-term elements under a clock-shift twist
    # and under the Q8-extension coboundary, a transfer check on two
    # cocycles, the rejected convention on S4/V4, and a Haagerup bound past
    # the float range
    for group, cocycle, element in (("z4sq", "clock_shift_4", "z4sq_random"),
                                    ("q8_extension", "q8ext_coboundary", "q8ext_random")):
        finite = ("--group", f"data/group_{group}.json", "--cocycle",
                  f"data/cocycle_{cocycle}.json", "--element", f"data/element_{element}.json")
        out += [("norm", *finite, "--mode", "exact"), ("specrad", *finite, "--powers", "6")]
    out += [
        ("transfer", "--group", "data/group_z4xz4.json", "--set", "data/set_z4xz4_S.json",
         *TRIVIAL, "--cocycle", "data/cocycle_clock_shift_4.json"),
        ("crossed", "--group", "data/group_s4_v4_extension.json", *TRIVIAL,
         "--convention", "as-printed"),
        ("norm", *F2, *TRIVIAL, "--element", "data/element_f2_sphere1_huge.json",
         "--mode", "haagerup"),
    ]
    # a seeded coboundary (valid on any group) makes every product in the
    # centre, the projections and omega inexact, so these three lines move if
    # a complex product rounds differently, e.g. under another SIMD dispatch
    out += [
        ("decompose", "--group", "data/group_s3.json", *F2_COB),
        ("decompose", "--group", "data/group_z4xz4.json", *F2_COB),
        ("crossed", "--group", "data/group_s4_v4_extension.json", *F2_COB),
    ]
    # powers past n = 27 put F2 positions past int64, onto Python ints
    out.append(("specrad", *F2, *F2_COB, *UX, "--powers", "30"))
    # the generic product path of an integer lattice: a Harper-type element
    # under the bicharacter theta = [[0, 1/3], [0, 0]]
    lattice = ("--group", "data/group_z2_lattice.json",
               "--cocycle", "data/cocycle_z2_bicharacter_third.json",
               "--element", "data/element_z2_harper.json")
    out += [("norm", *lattice, "--mode", "truncate", "--radius", "4"),
            ("norm", *lattice, "--mode", "truncate", "--radius", "8"),
            ("specrad", *lattice, "--powers", "6")]
    # a coboundary whose beta leaves an element out: one error line, exit 2
    out += [("validate", "--group", "data/group_s3.json",
             "--cocycle", "data/cocycle_s3_partial_beta.json"),
            ("validate", *F2, "--cocycle", "data/cocycle_f2_partial_beta.json")]
    # a cocycle kind on the wrong backend: one error line, exit 3
    out += [("validate", *F2, "--cocycle", f"data/cocycle_{c}.json")
            for c in ("z2_sign", "pullback_trivial", "z2_bicharacter_third")]
    # crossed on a group that is not an extension (exit 3), and on a cocycle
    # whose residuals leave the float range (exit 2): one error line each
    out += [("crossed", "--group", "data/group_s3.json", *TRIVIAL),
            ("crossed", "--group", "data/group_q8_extension.json",
             "--cocycle", "data/cocycle_q8ext_pullback_huge.json")]
    # validate on the same cocycle: one error line and no numpy warning, exit 2
    out.append(("validate", "--group", "data/group_q8_extension.json",
                "--cocycle", "data/cocycle_q8ext_pullback_huge.json"))
    # decompose on the two extensions, finite-table groups like any other
    out += [("decompose", "--group", "data/group_q8_extension.json",
             "--cocycle", "data/cocycle_q8ext_coboundary.json"),
            ("decompose", "--group", "data/group_s4_v4_extension.json", *TRIVIAL)]
    # an extension by an extension whose action is bad at the quotient key
    # [1, 1]: one error line naming that key, exit 2
    out.append(("validate", "--group", "data/group_nested_bad_action.json"))
    # real power chains under the trivial twist on a finite group and a lattice
    out += [("specrad", "--group", "data/group_z2.json", *TRIVIAL,
             "--element", "data/element_z2_ones.json", "--powers", "6"),
            ("specrad", "--group", "data/group_z2_lattice.json", *TRIVIAL,
             "--element", "data/element_z2_harper.json", "--powers", "6")]
    # a Haagerup bound that is not the root rounded to nearest, but above it
    out.append(("norm", *F2, *TRIVIAL, "--element", "data/element_f2_c_e.json",
                "--mode", "haagerup"))
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=pathlib.Path,
                   default=pathlib.Path(__file__).resolve().parents[1],
                   help="checkout whose src/ and data/ are run")
    args = p.parse_args(argv)
    root = args.root.resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv_ in invocations():
        r = subprocess.run([sys.executable, "-m", "twistlab.cli", *argv_],
                           capture_output=True, env=env, cwd=root)
        print(digest(r.stdout), digest(r.stderr), r.returncode, " ".join(argv_), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
