"""Fuzz of cli.main on mutated data/ fixtures.

Each example takes one fast invocation, mutates one of its fixture files
(replaces or deletes a node of the JSON tree, or cuts the text short) and
runs cli.main in-process.  The contract: nothing escapes main but the exit
code, the code is one of 0..4, and a non-zero exit prints exactly one
``error:`` line, except that exit 2 may instead carry a report of a failed
check on stdout (validate, transfer and crossed print their verdict).
Nothing else reaches stderr but the truncation progress line: no warning.
"""

import contextlib
import io
import json
import math
import pathlib
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twistlab import cli

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"

F2 = ("--group", "group_f2.json")
# (argv with fixture names in place of paths); every one finishes in well
# under a second on the unmutated fixtures
INVOCATIONS = [
    ("validate", "--group", "group_s3.json", "--cocycle", "cocycle_s3_broken.json"),
    ("validate", "--group", "group_q8_extension.json"),
    ("norm", "--group", "group_z2.json", "--cocycle", "cocycle_z2_sign.json",
     "--element", "element_z2_ones.json", "--mode", "exact"),
    ("norm", *F2, "--cocycle", "cocycle_f2_random_coboundary.json",
     "--element", "element_f2_sphere1.json", "--mode", "truncate", "--radius", "2"),
    ("norm", *F2, "--cocycle", "cocycle_trivial.json",
     "--element", "element_f2_ux.json", "--mode", "haagerup"),
    ("transfer", "--group", "group_z4xz4.json", "--set", "set_z4xz4_S.json",
     "--cocycle", "cocycle_trivial.json"),
    ("specrad", *F2, "--cocycle", "cocycle_trivial.json",
     "--element", "element_f2_sphere1.json", "--powers", "4"),
    ("semigroup", *F2, "--element", "element_f2_t_x.json",
     "--set", "set_f2_F_y_y2.json", "--length", "3"),
    ("criterion", *F2, "--cocycle", "cocycle_f2_random_coboundary.json",
     "--element", "element_f2_t_x.json", "--set", "set_f2_F_y_y2.json",
     "--powers", "2", "--radius", "2", "--length", "2"),
    ("decompose", "--group", "group_s3.json", "--cocycle", "cocycle_trivial.json"),
    ("crossed", "--group", "group_q8_extension.json", "--cocycle", "cocycle_trivial.json"),
]
KEYS = ["kind", "rank", "order", "table", "dim", "k", "lambda", "action", "factorSet",
        "values", "beta", "random-seed", "group", "terms", "g", "re", "im", "elements"]
SCALARS = (st.none() | st.booleans() | st.integers(-3, 40)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(["free", "finite-table", "int-lattice", "extension", "trivial",
                              "table", "coboundary", "ref", "e", "x1", "x2^-1", "x3"])
           | st.text(max_size=4))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
                      max_leaves=6)


def nodes(obj, path=()):
    """Every path into a JSON tree, the root included."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from nodes(v, path + (k,))


def mutate(text, data):
    obj = json.loads(text)
    op = data.draw(st.sampled_from(["replace", "delete", "cut"]))
    if op == "cut":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    paths = list(nodes(obj))
    path = data.draw(st.sampled_from(paths if op == "replace" else paths[1:] or paths))
    if not path:
        return json.dumps(data.draw(VALUES))
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(VALUES)
    return json.dumps(obj)


def with_node(name, path, value):
    """The fixture ``name`` with the node at ``path`` replaced by ``value``."""
    obj = json.loads((DATA / name).read_text())
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return json.dumps(obj)


def run_main(argv):
    """cli.main's exit code, stdout and stderr; a warning is written to stderr
    as the command line would print it."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


def error_lines(err):
    """The error lines of stderr, after checking that every other line is
    the truncation progress message."""
    rest = [line for line in err.splitlines() if not line.startswith("truncating at radius")]
    errors = [line for line in rest if line.startswith("error:")]
    assert rest == errors, err
    return errors


# derandomized, so that every run of the suite tries the same examples
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_fixtures_exit_cleanly(data):
    argv = data.draw(st.sampled_from(INVOCATIONS))
    files = [i for i, a in enumerate(argv) if a.endswith(".json")]
    target = data.draw(st.sampled_from(files))
    with tempfile.TemporaryDirectory() as tmp:
        mutated = pathlib.Path(tmp) / argv[target]
        mutated.write_text(mutate((DATA / argv[target]).read_text(), data))
        args = [str(mutated) if i == target else str(DATA / a) if i in files else a
                for i, a in enumerate(argv)]
        code, out, err = run_main(args)
    assert code in range(5), (code, err)
    errors = error_lines(err)
    if code == 0:
        assert not errors, err
    elif code == 2 and out:
        assert not errors, err
        report = json.loads(out)
        assert (not report.get("cocycle", {}).get("passed", True)
                or report.get("passed") is False
                or not report.get("axioms", {}).get("passed", True)), out
    else:
        assert len(errors) == 1, (code, err)


# inputs the fuzz found printing a traceback or exhausting memory, each with
# the exit code it gets now: (invocation, index of the mutated file, its text)
FOUND = {
    "huge-coefficient-truncate": (INVOCATIONS[3], 6,
                                  with_node("element_f2_sphere1.json", ("terms", 0, "im"),
                                            7.158622063548468e+84), 0),
    # a rank must be a JSON integer; an integer rank other than the group's exits 3
    "huge-rank-in-element": (INVOCATIONS[3], 6,
                             with_node("element_f2_sphere1.json", ("group", "rank"),
                                       7.158622063548468e+84), 1),
    "huge-integer-rank-in-element": (INVOCATIONS[3], 6,
                                     with_node("element_f2_sphere1.json", ("group", "rank"),
                                               10 ** 85), 3),
    "coboundary-beta-null": (INVOCATIONS[3], 4,
                             with_node("cocycle_f2_random_coboundary.json", ("beta",), None), 1),
    "empty-generating-set": (INVOCATIONS[7], 6,
                             with_node("set_f2_F_y_y2.json", ("elements",), []), 2),
    "factor-set-value-outside-k": (INVOCATIONS[1], 2,
                                   with_node("group_q8_extension.json", ("factorSet", "1|1"), 2),
                                   2),
    "square-overflows": (INVOCATIONS[6], 6,
                         with_node("element_f2_sphere1.json", ("terms", 0, "re"), 1e200), 2),
    "haagerup-square-overflows": (INVOCATIONS[4], 6,
                                  with_node("element_f2_ux.json", ("terms", 1, "im"), 1e200), 2),
    "power-overflows": (INVOCATIONS[6], 6,
                        with_node("element_f2_sphere1.json", ("terms", 0, "re"), 1e90), 2),
    "validate-sample-ball-past-the-cap": (("validate", *F2, "--cocycle", "cocycle_trivial.json"),
                                          2, '{"kind": "free", "rank": 40}', 4),
    # the sum of two finite squares overflows: "upper" was Infinity, not JSON
    "haagerup-sum-overflows": (INVOCATIONS[4], 6,
                               (DATA / "element_f2_sphere1_huge.json").read_text(), 2),
    # finite parts whose modulus is past the float range: abs() raised
    # OverflowError while the element was built
    "coefficient-modulus-overflows": (INVOCATIONS[4], 6,
                                      with_node("element_f2_ux.json", ("terms", 0),
                                                {"g": "x1", "re": 1.5e308, "im": 1.5e308}),
                                      2),
    # residuals past the float range printed numpy warnings before the error line
    "validate-residuals-overflow": (("validate", "--group", "group_q8_extension.json",
                                     "--cocycle", "cocycle_q8ext_pullback_huge.json"), 4,
                                    (DATA / "cocycle_q8ext_pullback_huge.json").read_text(), 2),
}


@pytest.mark.parametrize("case", FOUND.values(), ids=FOUND.keys())
def test_inputs_the_fuzz_found(case, tmp_path):
    argv, target, text, expected = case
    mutated = tmp_path / argv[target]
    mutated.write_text(text)
    args = [str(mutated) if i == target else str(DATA / a) if a.endswith(".json") else a
            for i, a in enumerate(argv)]
    code, out, err = run_main(args)
    assert code == expected, err
    errors = error_lines(err)
    assert len(errors) == (code != 0), err
    if code == 0:
        assert math.isfinite(json.loads(out)["lower"])
