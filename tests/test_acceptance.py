"""Acceptance suite: one test per criterion, one pass/fail line each.

Tolerances are pinned in the assertions; every criterion enforces its own
runtime cap.  Criterion 8's bracket at r = 10 is asserted exactly as stated;
the exact value of the specified truncation operator at that radius is
3.376091912..., so the lower endpoint of the bracket fails (see the repo
notes for the full numeric analysis; the bracket is reached at r = 12).
"""

import contextlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import assembled_blocks, evaluate
from twistlab import algebra, crossed, fixtures, normspectra
from twistlab.algebra import AlgebraElement, convolve, delta, gauge, involute
from twistlab.cocycles import PullbackCocycle, TrivialCocycle
from twistlab.groups import FreeGroup

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "data"


@contextlib.contextmanager
def criterion(number, name, cap_seconds):
    t0 = time.time()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        dt = time.time() - t0
        print(f"criterion {number:02d} {name}: {status} ({dt:.2f}s)")
        if status == "PASS":
            assert dt < cap_seconds, f"runtime {dt:.2f}s exceeds {cap_seconds}s cap"


def _random_support_element(G, rng, size):
    els = G.elements() if G.is_finite else G.enumerate_ball(3)
    sup = rng.choice(len(els), size=min(size, len(els)), replace=False)
    return AlgebraElement(G, {els[i]: complex(*rng.standard_normal(2)) for i in sup})


def test_criterion_01_majorization():
    groups = [fixtures.cyclic(6), fixtures.symmetric(3), fixtures.dihedral(4),
              fixtures.quaternion(), FreeGroup(2)]
    with criterion(1, "majorization", 10):
        count = 0
        for gi, G in enumerate(groups):
            triv = TrivialCocycle(G)
            for trial in range(200):
                rng = np.random.default_rng(1000 * gi + trial)
                sigma = fixtures.random_coboundary(G, 1000 * gi + trial)
                a = _random_support_element(G, rng, 4)
                b = _random_support_element(G, rng, 4)
                twisted = convolve(a, b, sigma)
                plain = convolve(algebra.positive_part(a),
                                 algebra.positive_part(b), triv)
                for g, c in twisted.coeffs.items():
                    assert abs(c) <= plain.coeffs[g].real + 1e-12
                count += 1
        assert count == 1000


def test_criterion_02_transfer():
    with criterion(2, "transfer", 30):
        G = fixtures.cyclic_product([4, 4])
        S = [G.index_of_label(l) for l in [(1, 0), (0, 1), (1, 1)]]
        sigmas = [fixtures.random_cocycle_abelian(G, [4, 4], seed)
                  for seed in range(20)]
        rep = normspectra.transfer_check(G, S, sigmas, seed=0, tol=1e-9)
        assert rep.passed
        assert len(rep.per_sigma_max_ratio) == 20
        assert all(r <= rep.constant + 1e-9 for r in rep.per_sigma_max_ratio)


def test_criterion_03_exact_norm_oracle():
    with criterion(3, "exact-norm oracle", 5):
        G = fixtures.cyclic(2)
        from twistlab.cocycles import TableCocycle
        sigma = TableCocycle(G, np.array([[1, 1], [1, -1]], dtype=complex))
        a = delta(G, 0) + delta(G, 1)
        assert abs(normspectra.exact_norm(G, sigma, a) - math.sqrt(2)) <= 1e-9
        assert abs(normspectra.exact_norm(G, TrivialCocycle(G), a) - 2.0) <= 1e-9


def test_criterion_04_clock_shift():
    with criterion(4, "clock-shift blocks", 20):
        for n in range(2, 7):
            sigma = fixtures.clock_shift_cocycle(n)
            G = sigma.group
            dec = crossed.decompose_blocks(G, sigma)
            assert dec.block_sizes == [n], n
            U, V = fixtures.clock_shift_matrices(n)
            for g in G.elements():
                a, b = G.label(g)
                for h in G.elements():
                    c, d = G.label(h)
                    W1 = np.linalg.matrix_power(V, a) @ np.linalg.matrix_power(U, b)
                    W2 = np.linalg.matrix_power(V, c) @ np.linalg.matrix_power(U, d)
                    ab = G.compose(g, h)
                    e_, f_ = G.label(ab)
                    W12 = np.linalg.matrix_power(V, e_) @ np.linalg.matrix_power(U, f_)
                    assert np.max(np.abs(W1 @ W2 - evaluate(sigma, g, h) * W12)) <= 1e-10


def test_criterion_05_q8_pipeline():
    with criterion(5, "Q8 pipeline", 5):
        ext = fixtures.q8_extension()
        res = crossed.crossed_product_pipeline(ext, TrivialCocycle(ext))
        assert res["axioms"]["passed"]
        assert res["axioms"]["max_residual"] <= 1e-10
        assert res["k_block_sizes"] == [1, 1]
        assert len(res["summands"]) == 2
        assert sorted(map(sorted, res["assembled_blocks_per_summand"])) == [
            [1, 1, 1, 1], [2]]
        assert res["assembled_block_sizes"] == res["direct_block_sizes"]
        assert res["blocks_match"]


def test_criterion_06_s4_v4_orbits():
    with criterion(6, "S4/V4 orbit structure", 10):
        ext = fixtures.s4_v4_extension()
        sys = crossed.induced_action_data(ext, TrivialCocycle(ext))
        blocks = crossed.decompose_blocks(sys.K, sys.sigma_k)
        assert blocks.block_sizes == [1, 1, 1, 1]
        summands = crossed.orbit_decomposition(sys, blocks)
        assert sorted(s.orbit_size for s in summands) == [1, 3]
        assert sorted(s.stabilizer_index for s in summands) == [1, 3]
        blocks = assembled_blocks(sys)
        assert blocks.projections.shape[1] == 24
        assert sum(d * d for d in blocks.block_sizes) == 24


def test_criterion_07_action_axioms_and_negative_control():
    with criterion(7, "twisted-action axioms", 60):
        for name, ext in fixtures.standard_extensions().items():
            cocycles = [TrivialCocycle(ext),
                        fixtures.random_coboundary(ext, seed=5)]
            q = ext.quotient
            from twistlab.cocycles import TableCocycle
            qsigma = fixtures.random_coboundary(q, seed=9)
            qtable = TableCocycle(q, np.array(
                [[evaluate(qsigma, i, j) for j in range(q.order)]
                 for i in range(q.order)]))
            cocycles.append(PullbackCocycle(ext, qtable))
            for sigma in cocycles:
                sys = crossed.induced_action_data(ext, sigma)  # frozen flag
                rep = crossed.verify_twisted_action(sys)
                assert rep.passed, (name, sigma.kind, rep.max_residual)
                assert rep.max_residual <= 1e-10
        # negative control: the rejected convention fails on a fixture
        ext = fixtures.q8_extension()
        sigma = fixtures.random_coboundary(ext, seed=7)
        bad = crossed.verify_twisted_action(
            crossed.induced_action_data(ext, sigma, convention="as-printed"))
        assert not bad.passed


def test_criterion_08_kesten_convergence():
    with criterion(8, "Kesten-type convergence", 60):
        f2 = FreeGroup(2)
        x, y = f2.generator(1), f2.generator(2)
        a = (delta(f2, x) + delta(f2, f2.invert(x))
             + delta(f2, y) + delta(f2, f2.invert(y)))
        sigma = TrivialCocycle(f2)
        values = {}
        prev = 0.0
        for r in range(2, 11):
            values[r] = normspectra.truncated_norm_lower(f2, sigma, a, r)
            assert values[r] >= prev - 1e-12, "monotone in r"
            prev = values[r]
        upper = normspectra.haagerup_upper(f2, a)
        assert upper == pytest.approx(4.0)
        assert values[10] <= upper
        assert 3.39 <= values[10] <= 3.4642, (
            f"truncated lower at r=10 is {values[10]:.10f}; the specified "
            "operator reaches the stated bracket only at r=12 "
            "(see notes/decisions ledger)")


def test_criterion_09_r2_binomial():
    with criterion(9, "r2 binomial oracle", 20):
        f2 = FreeGroup(2)
        x = f2.generator(1)
        a = delta(f2, x) + delta(f2, f2.invert(x))
        rep = normspectra.l2_spectral_radius(a, None, 24)
        for n, r in enumerate(rep.r2_sequence, start=1):
            assert r == pytest.approx(math.comb(2 * n, n) ** (1 / (2 * n)),
                                      rel=1e-12), n
        assert 1.85 <= rep.r2_sequence[-1] <= 1.90, (
            f"value at n=24 is C(48,24)^(1/48) = {rep.r2_sequence[-1]:.10f} by "
            "the exact formula asserted above; the stated bracket corresponds "
            "to C(24,12)^(1/24) = 1.8536 (see notes/decisions ledger)")


def test_criterion_10_gauge_invariance():
    with criterion(10, "gauge invariance", 60):
        # finite: coboundary twist preserves exact norms
        for G in (fixtures.symmetric(3), fixtures.quaternion()):
            sigma = fixtures.random_coboundary(G, seed=6)
            for seed in range(5):
                rng = np.random.default_rng(seed)
                a = _random_support_element(G, rng, 4)
                b = gauge(a, sigma.beta)
                n0 = normspectra.exact_norm(G, TrivialCocycle(G), a)
                n1 = normspectra.exact_norm(G, sigma, b)
                assert abs(n0 - n1) <= 1e-9
        # free: truncated bounds transported by the gauge map
        f2 = FreeGroup(2)
        sigma = fixtures.random_coboundary(f2, seed=6)
        x, y = f2.generator(1), f2.generator(2)
        a = (delta(f2, x) + delta(f2, f2.invert(x))
             + delta(f2, y) + delta(f2, f2.invert(y)))
        b = gauge(a, sigma.beta)
        for r in (3, 5):
            lo0 = normspectra.truncated_norm_lower(f2, TrivialCocycle(f2), a, r)
            lo1 = normspectra.truncated_norm_lower(f2, sigma, b, r)
            assert abs(lo0 - lo1) <= 1e-9
        # bundled reports agree after gauge transport
        F = [y, f2.compose(y, y)]
        cfg = normspectra.CriterionConfig(seed=0, n_elements=1, max_power=8,
                                          radius=4, length=6)
        rep = normspectra.criterion_report(f2, sigma, x, F, cfg)
        for run in rep["runs"]:
            transported = run["untwisted_gauge_transport"]
            assert np.allclose(run["r2_sequence"], transported["r2_sequence"],
                               atol=1e-9)
            assert abs(run["norm_lower_truncated"]
                       - transported["norm_lower_truncated"]) <= 1e-9


def test_criterion_11_free_subsemigroup():
    with criterion(11, "free subsemigroup", 20):
        f2 = FreeGroup(2)
        x, y = f2.generator(1), f2.generator(2)
        xy = f2.compose(x, y)
        xy2 = f2.compose(xy, y)
        cert = normspectra.certify_free_subsemigroup(f2, f2.identity(),
                                                     [xy, xy2], 8)
        assert cert.certified and cert.collision is None
        bad = normspectra.certify_free_subsemigroup(f2, f2.identity(),
                                                    [x, f2.invert(x)], 2)
        assert not bad.certified
        assert bad.length <= 2
        col = bad.collision
        assert col is not None and col["element"] is not None


def test_criterion_12_cli_determinism():
    with criterion(12, "CLI determinism", 120):
        runs = [
            ("validate", "--group", str(DATA / "group_s3.json"),
             "--cocycle", str(DATA / "cocycle_trivial.json")),
            ("norm", "--group", str(DATA / "group_z2.json"),
             "--cocycle", str(DATA / "cocycle_z2_sign.json"),
             "--element", str(DATA / "element_z2_ones.json"), "--mode", "exact"),
            ("decompose", "--group", str(DATA / "group_s3.json"),
             "--cocycle", str(DATA / "cocycle_trivial.json"), "--seed", "3"),
            ("crossed", "--group", str(DATA / "group_q8_extension.json"),
             "--cocycle", str(DATA / "cocycle_q8ext_coboundary.json")),
            ("criterion", "--group", str(DATA / "group_f2.json"),
             "--cocycle", str(DATA / "cocycle_f2_random_coboundary.json"),
             "--element", str(DATA / "element_f2_t_x.json"),
             "--set", str(DATA / "set_f2_F_y_y2.json"),
             "--radius", "4", "--powers", "5", "--length", "5", "--seed", "2"),
        ]
        for args in runs:
            outs = []
            for threads in ("1", "4"):
                env = dict(os.environ)
                env["PYTHONPATH"] = str(ROOT / "src")
                env["OPENBLAS_NUM_THREADS"] = threads
                env["OMP_NUM_THREADS"] = threads
                r = subprocess.run([sys.executable, "-m", "twistlab.cli", *args],
                                   capture_output=True, text=True, env=env,
                                   cwd=ROOT)
                assert r.returncode == 0, (args, r.stderr)
                outs.append(r.stdout)
                json.loads(r.stdout)
            # twice with threads=1, once with threads=4
            env["OPENBLAS_NUM_THREADS"] = "1"
            r2 = subprocess.run([sys.executable, "-m", "twistlab.cli", *args],
                                capture_output=True, text=True, env=env, cwd=ROOT)
            outs.append(r2.stdout)
            assert outs[0] == outs[1] == outs[2], args
