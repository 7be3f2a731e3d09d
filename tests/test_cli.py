import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "data"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "twistlab.cli", *args],
        capture_output=True, text=True, env=env, cwd=ROOT)


def test_validate_pass():
    r = run_cli("validate", "--group", str(DATA / "group_s3.json"),
                "--cocycle", str(DATA / "cocycle_trivial.json"))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["cocycle"]["passed"]
    assert out["version"]
    assert "group" in out["inputs"] and "cocycle" in out["inputs"]


def test_validate_broken_cocycle_exit_2():
    r = run_cli("validate", "--group", str(DATA / "group_s3.json"),
                "--cocycle", str(DATA / "cocycle_s3_broken.json"))
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert not out["cocycle"]["passed"]
    assert out["cocycle"]["witnesses"]


def test_missing_file_exit_1():
    r = run_cli("validate", "--group", str(DATA / "no_such.json"))
    assert r.returncode == 1
    assert r.stdout == ""


def test_norm_exact_z2():
    r = run_cli("norm", "--group", str(DATA / "group_z2.json"),
                "--cocycle", str(DATA / "cocycle_z2_sign.json"),
                "--element", str(DATA / "element_z2_ones.json"),
                "--mode", "exact")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == pytest.approx(2 ** 0.5, abs=1e-9)


def test_norm_exact_on_free_exit_3():
    r = run_cli("norm", "--group", str(DATA / "group_f2.json"),
                "--cocycle", str(DATA / "cocycle_trivial.json"),
                "--element", str(DATA / "element_f2_sphere1.json"),
                "--mode", "exact")
    assert r.returncode == 3


def test_norm_truncate_delta_is_one():
    r = run_cli("norm", "--group", str(DATA / "group_f2.json"),
                "--cocycle", str(DATA / "cocycle_trivial.json"),
                "--element", str(DATA / "element_f2_t_e.json"),
                "--mode", "truncate", "--radius", "3")
    assert r.returncode == 0
    assert json.loads(r.stdout)["lower"] == pytest.approx(1.0, abs=1e-9)


def test_norm_mem_cap_exit_4():
    r = run_cli("norm", "--group", str(DATA / "group_f2.json"),
                "--cocycle", str(DATA / "cocycle_trivial.json"),
                "--element", str(DATA / "element_f2_sphere1.json"),
                "--mode", "truncate", "--radius", "9", "--mem-cap", "50")
    assert r.returncode == 4


def test_norm_haagerup():
    r = run_cli("norm", "--group", str(DATA / "group_f2.json"),
                "--cocycle", str(DATA / "cocycle_trivial.json"),
                "--element", str(DATA / "element_f2_sphere1.json"),
                "--mode", "haagerup")
    assert json.loads(r.stdout)["upper"] == 4.0


def test_norm_haagerup_rounds_up_and_overflows_in_one_error_line():
    # |c| for the c of element_f2_c_e.json is 0.6462914675885879, and its
    # square is above |c|^2 rounded; past the float range, one error line
    def upper(element):
        return run_cli("norm", "--group", str(DATA / "group_f2.json"),
                       "--cocycle", str(DATA / "cocycle_trivial.json"),
                       "--element", str(DATA / element), "--mode", "haagerup")

    assert json.loads(upper("element_f2_c_e.json").stdout)["upper"] == 0.646291467588588
    r = upper("element_f2_sphere1_huge.json")
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: the Haagerup bound overflows\n")


def test_semigroup_certified():
    r = run_cli("semigroup", "--group", str(DATA / "group_f2.json"),
                "--element", str(DATA / "element_f2_t_x.json"),
                "--set", str(DATA / "set_f2_F_y_y2.json"), "--length", "8")
    assert r.returncode == 0
    assert json.loads(r.stdout)["certified"] is True


def test_semigroup_rejected_with_collision():
    r = run_cli("semigroup", "--group", str(DATA / "group_f2.json"),
                "--element", str(DATA / "element_f2_t_e.json"),
                "--set", str(DATA / "set_f2_F_x_xinv.json"), "--length", "2")
    out = json.loads(r.stdout)
    assert out["certified"] is False
    assert out["collision"] is not None


def test_decompose_s3():
    r = run_cli("decompose", "--group", str(DATA / "group_s3.json"),
                "--cocycle", str(DATA / "cocycle_trivial.json"))
    assert json.loads(r.stdout)["block_sizes"] == [1, 1, 2]


def test_crossed_q8():
    r = run_cli("crossed", "--group", str(DATA / "group_q8_extension.json"),
                "--cocycle", str(DATA / "cocycle_trivial.json"))
    out = json.loads(r.stdout)
    assert r.returncode == 0
    assert out["axioms"]["passed"] and out["blocks_match"]


def test_crossed_as_printed_fails_axioms():
    r = run_cli("crossed", "--group", str(DATA / "group_q8_extension.json"),
                "--cocycle", str(DATA / "cocycle_q8ext_coboundary.json"),
                "--convention", "as-printed")
    assert r.returncode == 2
    assert json.loads(r.stdout)["axioms"]["passed"] is False


@pytest.mark.parametrize("group, cocycle", [
    ("group_q8_extension.json", "cocycle_q8ext_coboundary.json"),
    ("group_s4_v4_extension.json", "cocycle_trivial.json"),
], ids=["q8-extension", "s4-v4-extension"])
def test_decompose_on_an_extension_has_the_direct_blocks_of_crossed(group, cocycle):
    args = ("--group", str(DATA / group), "--cocycle", str(DATA / cocycle))
    r, c = run_cli("decompose", *args), run_cli("crossed", *args)
    assert r.returncode == c.returncode == 0, r.stderr
    assert json.loads(r.stdout)["block_sizes"] == json.loads(c.stdout)["direct_block_sizes"]


def test_table_cocycle_on_an_extension_validates(tmp_path):
    from twistlab import cocycles, serialize

    group = DATA / "group_q8_extension.json"
    G = serialize.group_from_json(serialize.load_json(group))
    sigma = serialize.cocycle_from_json(
        serialize.load_json(DATA / "cocycle_q8ext_coboundary.json"), G)
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(cocycles.TableCocycle(G, cocycles.value_table(G, sigma)).to_json()))
    r = run_cli("validate", "--group", str(group), "--cocycle", str(path))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["cocycle"]["passed"] is True


def _s3_table(entries, scale=1):
    """S3's trivial table cocycle times scale, with the given (i, j): value
    entries, as a descriptor."""
    values = [[[scale.real, scale.imag]] * 6 for _ in range(6)]
    for (i, j), v in entries.items():
        values[i][j] = [v.real, v.imag]
    return {"kind": "table", "values": values}


@pytest.mark.parametrize("command", ["validate", "decompose"])
@pytest.mark.parametrize("entries, where", [
    ({(0, 1): 1j, (2, 0): -1}, "[0][1]"),
    ({(3, 0): -1}, "[3][0]"),
])
def test_a_table_off_one_at_the_identity_exits_2(tmp_path, command, entries, where):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(_s3_table(entries)))
    r = run_cli(command, "--group", str(DATA / "group_s3.json"), "--cocycle", str(path))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.splitlines() == [
        f"error: {path}: table value {where} is not 1 once divided by [0][0]"]


def test_a_table_is_read_after_dividing_by_its_value_at_the_identity(tmp_path):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(_s3_table({}, scale=1j)))
    r = run_cli("validate", "--group", str(DATA / "group_s3.json"), "--cocycle", str(path))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["cocycle"]["max_normalization_residual"] == 0.0


def _nested_extension(case):
    """Z2 by the Q8 extension with one fault at the quotient element of
    index 3, whose JSON form, the descriptor's key, is [1, 1]."""
    desc = json.loads((DATA / "group_nested_bad_action.json").read_text())
    if case == "kappa-off-normal":
        desc["action"]["[1, 1]"] = [0, 1]
        desc["factorSet"]["[0, 0]|[1, 1]"] = 1
    return desc


@pytest.mark.parametrize("case, message", [
    ("action-not-a-permutation", "action value at [1, 1] is not a permutation of K"),
    ("kappa-off-normal", "kappa is not normalised at [1, 1]"),
])
def test_nested_extension_errors_name_the_quotient_key(tmp_path, case, message):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(_nested_extension(case)))
    r = run_cli("validate", "--group", str(path))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.splitlines() == [f"error: {message}"]


def test_transfer_z4xz4():
    r = run_cli("transfer", "--group", str(DATA / "group_z4xz4.json"),
                "--set", str(DATA / "set_z4xz4_S.json"),
                "--cocycle", str(DATA / "cocycle_trivial.json"))
    assert r.returncode == 0
    assert json.loads(r.stdout)["passed"]


def test_byte_determinism_across_runs_and_threads():
    args = ("criterion", "--group", str(DATA / "group_f2.json"),
            "--cocycle", str(DATA / "cocycle_f2_random_coboundary.json"),
            "--element", str(DATA / "element_f2_t_x.json"),
            "--set", str(DATA / "set_f2_F_y_y2.json"),
            "--radius", "4", "--powers", "5", "--length", "5", "--seed", "11")
    r1 = run_cli(*args)
    r2 = run_cli(*args)
    r3 = run_cli(*args, env_extra={"OPENBLAS_NUM_THREADS": "8",
                                   "OMP_NUM_THREADS": "8"})
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout == r3.stdout
    assert json.loads(r1.stdout)["seed"] == 11


# stdout sha256 and exit code of the `scripts/cli_digest.py` lines whose
# bytes hold under every OpenBLAS kernel and numpy SIMD dispatch on x86-64
# (OPENBLAS_CORETYPE=Prescott or Haswell, NPY_DISABLE_CPU_FEATURES with every
# target off): the crossed pipeline, semigroup certificates, Haagerup bounds,
# validation reports (finite ones included, whose residuals are formed from
# real and imaginary parts), free-group spectral reports, the Z^2 lattice
# at truncation radius 8 and to the 6th power, and the real power chains of Z2
# and Z^2 under the trivial twist
PINNED_STDOUT = {
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --mode haagerup"):
        ("6da5251d484e6a7f851c56888a82a612ba0ae3ed4195f04d39188e2d1cafed55", 0),
    ("semigroup --group data/group_f2.json --element data/element_f2_t_x.json --set"
     " data/set_f2_F_y_y2.json --length 8"):
        ("ba695b125a88a333d392876bc8b887158c52e164b10627b70689ed5834c2b5b1", 0),
    ("semigroup --group data/group_f2.json --element data/element_f2_t_e.json --set"
     " data/set_f2_F_x_xinv.json --length 2"):
        ("bf72ad3521c3d3e17522e85491e11634aa310280e69ac780b67f36b2440c7326", 0),
    ("crossed --group data/group_q8_extension.json --cocycle data/cocycle_trivial.json"):
        ("e161c9891f123af6f5e264e41de681792385f91e4d77cbd377ecc5d432607f7d", 0),
    ("crossed --group data/group_q8_extension.json --cocycle"
     " data/cocycle_q8ext_coboundary.json"):
        ("8d671f822cc5d4c36d762b6bb59854fa338549c05e8d469f5cd12e1f6b958849", 0),
    ("crossed --group data/group_q8_extension.json --cocycle"
     " data/cocycle_q8ext_coboundary.json --convention as-printed"):
        ("bbd1a698d73d154baa4084251b418a7ead25892d21067f81998e2ca2ef1cc569", 2),
    ("crossed --group data/group_s4_v4_extension.json --cocycle data/cocycle_trivial.json"):
        ("ad8a64751f9e24a0ad0be0f03f1591dab94bc49ea5965d340538f4a2c9c278cb", 0),
    ("crossed --group data/group_s4_v4_extension.json --cocycle data/cocycle_trivial.json"
     " --convention as-printed"):
        ("4af4577d7ccaa285e33dd41891ccc237898ecf7573d6b16656e56bcca62304d4", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1_huge.json --mode haagerup"):
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_c_e.json --mode haagerup"):
        ("e6c992babaaf588b332be146bbde7f1424677761d3d18a5db4a87523b27fc4bd", 0),
    ("crossed --group data/group_s4_v4_extension.json --cocycle"
     " data/cocycle_f2_random_coboundary.json"):
        ("c7b8ebbb02ccc8649d02e04a3959cd71df6702660e8d9557817468e437c19a53", 0),
    ("validate --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --seed 5"):
        ("d76d9b9f6348a9827fe7eb06b8dce57d870ab48f802393a4204575f2e421a215", 0),
    ("specrad --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --powers 10"):
        ("502958263c39f8b2dd78e8b2653411c3791e48251abd99a2b27e53b6a760c4cb", 0),
    ("specrad --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_sphere1.json --powers 8"):
        ("a3570684848362ff0eebc3d83ba4a8edc6f96105f1bcdabe31ebb2b2c0f5b62b", 0),
    ("specrad --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_ux.json --powers 24"):
        ("52c7dc309f5f9f9b6b354290f561646d5538ad8bd1662d7ce3e958862480f71e", 0),
    ("specrad --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_t_x.json --powers 5"):
        ("229364325fed3b9076a3b330010ab09e2967860a9cf24253b65d8588bee0232b", 0),
    ("validate --group data/group_s3.json --cocycle data/cocycle_trivial.json"):
        ("e44e9e8f3aed65d9b43d9e3f2473f18d81724df95e7f9e48a493f68feb9100ef", 0),
    ("validate --group data/group_s4_v4_extension.json"):
        ("6388978304cfb639b3d2409aeab02403ab661bf8c25652ec75514ab2595f0c2c", 0),
    ("validate --group data/group_s3.json --cocycle data/cocycle_s3_broken.json"):
        ("5b98300719b6a4f51ef0734852c900b7e2ed72520ed8993baae999f3fcf5ea58", 2),
    ("validate --group data/group_q8_extension.json --cocycle"
     " data/cocycle_q8ext_coboundary.json"):
        ("bea471248186f031e2add18e39fcfcd90e1af5d7f363ddc92f4a19bb02a9172a", 0),
    ("validate --group data/group_z3sq.json --cocycle data/cocycle_clock_shift_3.json"):
        ("79b34802a7b3b4a945d67c9a8f89be33e490d26babad04d761888ca3c199186b", 0),
    ("validate --group data/group_z5sq.json --cocycle data/cocycle_clock_shift_5.json"):
        ("38c34e0825bc5280e72cc1a138d557d0d3092fbbd458200c6c44d940a9b4a3d2", 0),
    ("validate --group data/group_z6sq.json --cocycle data/cocycle_clock_shift_6.json"):
        ("35d78d065fb0b9a7495ad4d77c03b6e33bf9a34b62aa1f554e749e0706f2ebb9", 0),
    ("norm --group data/group_z2_lattice.json --cocycle data/cocycle_z2_bicharacter_third.json"
     " --element data/element_z2_harper.json --mode truncate --radius 8"):
        ("e50aa81628836b222b4c98d4a089601716dbdcf715f15a2e6f5ef101596cf857", 0),
    ("specrad --group data/group_z2_lattice.json --cocycle data/cocycle_z2_bicharacter_third.json"
     " --element data/element_z2_harper.json --powers 6"):
        ("7f69053c6acfe0dc1a213a779c045e2c20b984f0480f2a27640b3233f776e1e9", 0),
    ("specrad --group data/group_z2.json --cocycle data/cocycle_trivial.json"
     " --element data/element_z2_ones.json --powers 6"):
        ("579a557b6d0b5e5bef8967558c328f4714ea8bcad7c4543be31787ec436897ef", 0),
    ("specrad --group data/group_z2_lattice.json --cocycle data/cocycle_trivial.json"
     " --element data/element_z2_harper.json --powers 6"):
        ("bd5c2b7cbd1dffc9aee0189b3cbe1425facc0123a989a83c93901ea7a919296f", 0),
    # the free-group truncations whose bytes hold under every SIMD and BLAS
    # dispatch tried (see README "Tests")
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --mode truncate --radius 9 --mem-cap 50"):
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 4),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_ux.json --mode truncate --radius 6"):
        ("6ddc86f489c7d1662ab0fe1b6d09946c2ab49b066352bf742f70ab0d58a6b7ab", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_t_e.json --mode truncate --radius 3"):
        ("2af1d4b1d6778a1bd2325de64a54ccb00ed081f7b63ad3e53fb5e2649aa3a062", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --mode truncate --radius 0"):
        ("3accccf22bc7e7597622ccc58cafc6d303a4204ac7c5313a7884db9bd32b4769", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --mode truncate --radius 1"):
        ("d41e57b5511801f729ba998faf80e4d87dbe1c79f62a9d9a5765bbf1ca32a50e", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --mode truncate --radius 2"):
        ("0198cfdc30ce02261bd8e5d63052d3169d76991da0fce4839d9d6252d84a078d", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --mode truncate --radius 3"):
        ("b3e0a049bfdb8816e5270dbeeebadf52961553c4cf7203e389538d264ed6daa2", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --mode truncate --radius 4"):
        ("8e5f3d3cb2732f2b2d14fddeabc1a26dc7dc6fc701257ca13afd6d55055039c2", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --mode truncate --radius 5"):
        ("b592a4692753a344e8142599a0fab6cac9dd101d0fd7cd038c2b37140b9806a9", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --mode truncate --radius 6"):
        ("f91bd783e62f459f25e3c89fb2124d050e52e9466be0a5af50f7e043b97d3b5e", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --mode truncate --radius 7"):
        ("3b36f05c84e0fcf0cb3c04181edb325a00e62aec83784e13a76cfb4634626925", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --mode truncate --radius 8"):
        ("cf914ec754d5f7f22e044736e5d150e89e847cd9981d74c5e3e33f96c2ad09eb", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_trivial.json --element"
     " data/element_f2_sphere1.json --mode truncate --radius 9"):
        ("88e6b2fd1ed8427b12c95189a90406ca8df79910fead45ddbdf5b39fe4c9e04d", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_sphere1.json --mode truncate --radius 0"):
        ("8fb5a9d384aa7e16d71bc9dcf0cc0efa94df8a94a12172e6f53af07a1469bafc", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_sphere1.json --mode truncate --radius 1"):
        ("2fd305e67a0b83a56852813134d406bcc4d7ed8d36e10d333a24a87b7d38e08c", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_sphere1.json --mode truncate --radius 2"):
        ("5f69067374f316f64e48c1dabe96c2a5d2357280649636657194e89bed11f35f", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_sphere1.json --mode truncate --radius 3"):
        ("c78c8ce5756e839937f184c3d75c5711e7a586cef876032f3c37e8d0b4f0a2d1", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_sphere1.json --mode truncate --radius 4"):
        ("81a71d88f074a6c2281a892dd52cca778f06522a72a497cb43cf3e81447efb0e", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_sphere1.json --mode truncate --radius 5"):
        ("bbce6167745b885351ea54c51202443d3ca8a15bc5f452c32a8770562ad24017", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_sphere1.json --mode truncate --radius 6"):
        ("ccbb76ccd7935c0d8b433b576698a4a6d4f714ddf9a9f7290f5384f5135324c4", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_sphere1.json --mode truncate --radius 7"):
        ("d653491ca285d7b6552606f2774c7306920ab33310e14fea312f2cfbd807f0b1", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_sphere1.json --mode truncate --radius 8"):
        ("ae31541e2d63fdaeb22d95e4b7a336437f7e81cc5b8f35f4b8f303dca3f7da9c", 0),
    ("norm --group data/group_f2.json --cocycle data/cocycle_f2_random_coboundary.json"
     " --element data/element_f2_sphere1.json --mode truncate --radius 9"):
        ("855c98beea7f13a158547fbca40beff57429a7756f9bb3479bfdb2afd7b6a558", 0),
}


def test_stable_digests_keep_their_bytes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    got = {}
    for args in PINNED_STDOUT:
        r = subprocess.run([sys.executable, "-m", "twistlab.cli", *args.split()],
                           capture_output=True, env=env, cwd=ROOT)
        got[args] = (hashlib.sha256(r.stdout).hexdigest(), r.returncode)
    assert got == PINNED_STDOUT


# the numpy SIMD targets on x86-64 whose complex multiply may round with a
# fused multiply-add; switched off, numpy runs its baseline kernels
FUSED_TARGETS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
F2_SPHERE1_TRUNCATION = ("norm --group data/group_f2.json --cocycle data/cocycle_{}.json"
                         " --element data/element_f2_sphere1.json --mode truncate --radius {}")
F2_SPECRAD = ("specrad --group data/group_f2.json --cocycle data/cocycle_{}.json"
              " --element data/element_f2_{}.json --powers {}")


# the pinned F2 truncations and power chains, whose kernels run on float64
# parts and on grids of either orientation
@pytest.mark.parametrize("args", [
    *(pytest.param(F2_SPHERE1_TRUNCATION.format(cocycle, r), id=f"{cocycle}-{r}")
      for cocycle, r in [("f2_random_coboundary", 4), ("f2_random_coboundary", 6),
                         ("trivial", 9)]),
    *(pytest.param(F2_SPECRAD.format(cocycle, element, n), id=f"specrad-{cocycle}-{element}-{n}")
      for cocycle, element, n in [("trivial", "sphere1", 10), ("trivial", "ux", 24),
                                  ("f2_random_coboundary", "sphere1", 8),
                                  ("f2_random_coboundary", "t_x", 5)])])
def test_pinned_truncations_keep_their_bytes_without_simd_targets(args):
    from numpy._core._multiarray_umath import __cpu_features__

    off = [t for t in FUSED_TARGETS if __cpu_features__.get(t)]
    if not off:
        pytest.skip("no x86-64 SIMD target with fused kernels is enabled here")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), NPY_DISABLE_CPU_FEATURES=" ".join(off))
    run = subprocess.run([sys.executable, "-m", "twistlab.cli", *args.split()],
                         capture_output=True, env=env, cwd=ROOT)
    assert (hashlib.sha256(run.stdout).hexdigest(), run.returncode) == PINNED_STDOUT[args]


def test_make_fixtures_writes_the_committed_data(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location("make_fixtures",
                                                  ROOT / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert written == {p.name: p.read_bytes() for p in DATA.iterdir()}


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc and at least two CPUs")
def test_blas_pinned_to_one_thread_on_import():
    code = ("import twistlab.cli\n"
            "for line in open('/proc/self/status'):\n"
            "    if line.startswith('Threads:'):\n"
            "        print(line.split()[1])\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "8"
    env["OMP_NUM_THREADS"] = "8"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env, cwd=ROOT)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "1"


def test_cli_import_loads_no_scipy():
    code = ("import sys, twistlab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env, cwd=ROOT)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400]


@pytest.mark.parametrize("literal", NON_FINITE, ids=["NaN", "Infinity", "-Infinity",
                                                     "1e400", "int-1e400"])
@pytest.mark.parametrize("slot", ["element", "table-cocycle"])
def test_non_finite_number_is_a_parse_error(tmp_path, slot, literal):
    if slot == "element":
        path = tmp_path / "element.json"
        path.write_text('{"group": "ref", "terms": [{"g": 1, "re": %s, "im": 0}]}' % literal)
        args = ("norm", "--group", str(DATA / "group_z2.json"),
                "--cocycle", str(DATA / "cocycle_trivial.json"),
                "--element", str(path), "--mode", "exact")
    else:
        path = tmp_path / "cocycle.json"
        path.write_text('{"kind": "table", "values": [[[1, 0], [1, 0]], [[1, 0], [%s, 0]]]}'
                        % literal)
        args = ("validate", "--group", str(DATA / "group_z2.json"), "--cocycle", str(path))
    r = run_cli(*args)
    assert r.returncode == 1
    assert r.stdout == ""
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), r.stderr


@pytest.mark.parametrize("group, cocycle", [
    ("group_q8_extension.json", "cocycle_q8ext_coboundary.json"),
    ("group_f2.json", "cocycle_f2_random_coboundary.json"),
], ids=["q8-extension", "f2"])
def test_validate_coboundary(group, cocycle):
    r = run_cli("validate", "--group", str(DATA / group), "--cocycle", str(DATA / cocycle))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["cocycle"]["passed"] is True


def test_validate_uses_the_seed_on_infinite_groups():
    from twistlab import cocycles, serialize

    G = serialize.group_from_json(serialize.load_json(DATA / "group_f2.json"))
    sigma = serialize.cocycle_from_json(
        serialize.load_json(DATA / "cocycle_f2_random_coboundary.json"), G)
    expected = cocycles.validate(G, sigma, seed=5, tol=1e-9).to_json()
    r = run_cli("validate", "--group", str(DATA / "group_f2.json"),
                "--cocycle", str(DATA / "cocycle_f2_random_coboundary.json"), "--seed", "5")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["seed"] == 5
    assert out["cocycle"] == json.loads(json.dumps(expected))
    assert expected != cocycles.validate(G, sigma, seed=0, tol=1e-9).to_json()


def _term(g, re=1):
    return json.dumps({"group": "ref", "terms": [{"g": g, "re": re}]})


def _q8_extension_with(key, value, part="factorSet"):
    desc = json.loads((DATA / "group_q8_extension.json").read_text())
    desc[part][key] = value
    return json.dumps(desc)


Q8_EXTENSION = json.loads((DATA / "group_q8_extension.json").read_text())
S3_BETA = {str(i): [1, 0] for i in range(6)}
# (slot, group file, text): the malformed file fills ``slot`` and the group
# file, if any, is --group.  Integer fields take JSON integers only and
# number fields JSON numbers only; every group element is read by its
# backend, and one outside the group is malformed too
MALFORMED = {
    "free-without-rank": ("group", None, '{"kind": "free"}'),
    "free-rank-0": ("group", None, '{"kind": "free", "rank": 0}'),
    "free-rank-float": ("group", None, '{"kind": "free", "rank": 2.5}'),
    "free-rank-bool": ("group", None, '{"kind": "free", "rank": true}'),
    "lattice-dim-string": ("group", None, '{"kind": "int-lattice", "dim": "2"}'),
    "factor-set-value-float": ("group", None, _q8_extension_with("1|1", 1.25)),
    "generator-out-of-rank": ("element", "group_f2.json", _term("x3")),
    "f2-letter-out-of-rank": ("element", "group_f2.json", _term([5])),
    "coefficient-bool": ("element", "group_f2.json", _term("x1", re=True)),
    "s3-index-float": ("element", "group_s3.json", _term(1.5)),
    "s3-index-bool": ("element", "group_s3.json", _term(True)),
    "s3-index-string": ("element", "group_s3.json", _term("2")),
    "s3-index-out-of-range": ("element", "group_s3.json", _term(7)),
    "lattice-coordinate-float": ("element", "group_z2_lattice.json", _term([1.7, 0])),
    "table-cocycle-wrong-shape": ("cocycle", "group_z2.json",
                                  '{"kind": "table", "values": [[[1, 0]]]}'),
    "beta-key-out-of-range": ("cocycle", "group_s3.json",
                              json.dumps({"kind": "coboundary",
                                          "beta": {**S3_BETA, "9": [1, 0]}})),
    "random-seed-float": ("cocycle", "group_s3.json",
                          '{"kind": "coboundary", "beta": {"random-seed": 2.5}}'),
    "theta-strings": ("cocycle", "group_z2_lattice.json",
                      '{"kind": "bicharacter", "theta": [["0", "0.5"], ["0", "0"]]}'),
    "set-entry-out-of-range": ("set", "group_z4xz4.json", '{"group": "ref", "elements": [16]}'),
    # a second term at one element, and two map keys that name one element
    "repeated-term": ("element", "group_f2.json",
                      '{"group": "ref", "terms": [{"g": "x1", "re": 1}, {"g": "x1", "re": 2}]}'),
    "beta-keys-naming-one-element": ("cocycle", "group_s3.json",
                                     json.dumps({"kind": "coboundary",
                                                 "beta": {**S3_BETA, " 1": [0, 1]}})),
    "action-keys-naming-one-element": ("group", None, _q8_extension_with(" 1", [0, 1], "action")),
    "factor-set-keys-naming-one-element": ("group", None, _q8_extension_with("1| 1", 1)),
    # an extension is a finite-table group, but the kernel must be a plain one
    "kernel-is-an-extension": ("group", None, json.dumps({**Q8_EXTENSION, "k": Q8_EXTENSION})),
    "repeated-json-key": ("group", None, '{"kind": "free", "rank": 2, "rank": 3}'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_descriptor_is_a_parse_error(tmp_path, case):
    slot, group, text = MALFORMED[case]
    path = tmp_path / f"{slot}.json"
    path.write_text(text)
    if slot == "group":
        args = ("validate", "--group", str(path))
    elif slot == "element":
        args = ("norm", "--group", str(DATA / group),
                "--cocycle", str(DATA / "cocycle_trivial.json"),
                "--element", str(path), "--mode", "haagerup")
    elif slot == "set":
        args = ("transfer", "--group", str(DATA / group), "--set", str(path),
                "--cocycle", str(DATA / "cocycle_trivial.json"))
    else:
        args = ("validate", "--group", str(DATA / group), "--cocycle", str(path))
    r = run_cli(*args)
    assert r.returncode == 1
    assert r.stdout == ""
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), r.stderr


def test_subcommands_take_only_the_flags_they_read():
    from twistlab.cli import build_parser

    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    flags = {name: sorted(o for a in sp._actions for o in a.option_strings
                          if o not in ("-h", "--help", "--group", "--seed"))
             for name, sp in subparsers.items()}
    assert flags == {
        "validate": ["--cocycle", "--tol"],
        "norm": ["--cocycle", "--element", "--mem-cap", "--mode", "--radius"],
        "transfer": ["--cocycle", "--set", "--tol"],
        "specrad": ["--cocycle", "--element", "--mem-cap", "--powers"],
        "semigroup": ["--element", "--length", "--mem-cap", "--set"],
        "criterion": ["--cocycle", "--element", "--length", "--mem-cap", "--powers",
                      "--radius", "--set"],
        "decompose": ["--cocycle"],
        "crossed": ["--cocycle", "--convention"],
    }
    assert all("--seed" in sp._option_string_actions for sp in subparsers.values())


F2_SPHERE1 = ("--group", str(DATA / "group_f2.json"),
              "--cocycle", str(DATA / "cocycle_trivial.json"),
              "--element", str(DATA / "element_f2_sphere1.json"))
SEMIGROUP = ("semigroup", "--group", str(DATA / "group_f2.json"),
             "--element", str(DATA / "element_f2_t_x.json"),
             "--set", str(DATA / "set_f2_F_y_y2.json"))
S3_VALIDATE = ("validate", "--group", str(DATA / "group_s3.json"),
               "--cocycle", str(DATA / "cocycle_trivial.json"))
OUT_OF_RANGE = {
    "radius": (("norm", *F2_SPHERE1, "--mode", "truncate", "--radius", "-1"),
               "--radius must be >= 0"),
    "powers": (("specrad", *F2_SPHERE1, "--powers", "0"), "--powers must be >= 1"),
    "length": ((*SEMIGROUP, "--length", "0"), "--length must be >= 1"),
    "mem-cap": (("norm", *F2_SPHERE1, "--mode", "truncate", "--mem-cap", "0"),
                "--mem-cap must be >= 1"),
    "tol-nan": ((*S3_VALIDATE, "--tol", "nan"), "--tol must be a finite number >= 0, got nan"),
    "tol-inf": ((*S3_VALIDATE, "--tol", "inf"), "--tol must be a finite number >= 0, got inf"),
    "tol-negative": ((*S3_VALIDATE, "--tol", "-1"),
                     "--tol must be a finite number >= 0, got -1.0"),
    # each seeded its numpy generator with the value and ended in a traceback
    "seed-validate": (("validate", "--group", str(DATA / "group_f2.json"),
                       "--cocycle", str(DATA / "cocycle_f2_random_coboundary.json"),
                       "--seed", "-1"), "--seed must be >= 0, got -1"),
    "seed-transfer": (("transfer", "--group", str(DATA / "group_z4xz4.json"),
                       "--set", str(DATA / "set_z4xz4_S.json"),
                       "--cocycle", str(DATA / "cocycle_trivial.json"), "--seed", "-1"),
                      "--seed must be >= 0, got -1"),
    "seed-criterion": (("criterion", "--group", str(DATA / "group_f2.json"),
                        "--element", str(DATA / "element_f2_t_x.json"),
                        "--set", str(DATA / "set_f2_F_y_y2.json"), "--seed", "-1"),
                       "--seed must be >= 0, got -1"),
    "seed-decompose": (("decompose", "--group", str(DATA / "group_s3.json"),
                        "--cocycle", str(DATA / "cocycle_trivial.json"), "--seed", "-2"),
                       "--seed must be >= 0, got -2"),
    "seed-crossed": (("crossed", "--group", str(DATA / "group_q8_extension.json"),
                      "--cocycle", str(DATA / "cocycle_trivial.json"), "--seed", "-2"),
                     "--seed must be >= 0, got -2"),
    # norm used to accept -1 and print it in its report
    "seed-norm": (("norm", *F2_SPHERE1, "--mode", "haagerup", "--seed", "-1"),
                  "--seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_count_is_a_validation_error(case):
    args, message = OUT_OF_RANGE[case]
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), r.stderr


@pytest.mark.parametrize("key", ["action", "factorSet"])
def test_extension_map_given_as_a_list_is_a_parse_error(tmp_path, key):
    desc = json.loads((DATA / "group_q8_extension.json").read_text())
    desc[key] = list(desc[key].values())
    path = tmp_path / "group.json"
    path.write_text(json.dumps(desc))
    r = run_cli("validate", "--group", str(path))
    assert r.returncode == 1
    assert r.stdout == ""
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), r.stderr
    assert repr(key) in lines[0]


@pytest.mark.parametrize("command", [
    ("validate",),
    ("norm", "--cocycle", str(DATA / "cocycle_trivial.json"),
     "--element", str(DATA / "element_delta_e_ref.json"), "--mode", "truncate"),
], ids=["validate", "norm-truncate"])
def test_extension_over_an_infinite_quotient_exits_3(tmp_path, command):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({
        "kind": "extension", "k": {"kind": "finite-table", "table": [[0, 1], [1, 0]]},
        "lambda": {"kind": "free", "rank": 1}, "action": {"e": [0, 1]},
        "factorSet": {"e|e": 0}}))
    r = run_cli(command[0], "--group", str(path), *command[1:])
    assert r.returncode == 3
    assert r.stdout == ""
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
    assert "finite" in lines[0]


def test_decompose_reports_the_tolerances_it_applies():
    from twistlab import cocycles, crossed

    r = run_cli("decompose", "--group", str(DATA / "group_s3.json"),
                "--cocycle", str(DATA / "cocycle_trivial.json"))
    assert r.returncode == 0
    assert json.loads(r.stdout)["tolerances"] == {
        "cluster_gap": crossed.CLUSTER_GAP, "cocycle_identity": cocycles.IDENTITY_TOL}
    for gone in ("PROJECTION_TOL", "NULL_TOL", "RANK_TOL"):
        assert not hasattr(crossed, gone)


def _one_error_line(r, code=2):
    assert r.returncode == code, r.stderr
    assert r.stdout == ""
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
    return lines[0]


@pytest.mark.parametrize("kind, cocycle", [
    ("table", "cocycle_z2_sign.json"),
    ("pullback", "cocycle_pullback_trivial.json"),
    ("bicharacter", "cocycle_z2_bicharacter_third.json"),
])
def test_a_cocycle_kind_on_the_wrong_backend_exits_3(kind, cocycle):
    line = _one_error_line(run_cli("validate", "--group", str(DATA / "group_f2.json"),
                                   "--cocycle", str(DATA / cocycle)), code=3)
    assert line.startswith(f"error: {kind} cocycles need ")


def test_decompose_rejects_a_non_cocycle(tmp_path):
    line = _one_error_line(run_cli("decompose", "--group", str(DATA / "group_s3.json"),
                                   "--cocycle", str(DATA / "cocycle_s3_broken.json")))
    assert "the identity fails at (1, 1, 2)" in line
    path = tmp_path / "cocycle.json"
    path.write_text('{"kind": "table", "values": [[[1, 0], [1, 0]], [[1, 0], [0, 0]]]}')
    line = _one_error_line(run_cli("decompose", "--group", str(DATA / "group_z2.json"),
                                   "--cocycle", str(path)))
    assert "modulus residual 1" in line


def test_crossed_on_a_group_that_is_not_an_extension_exits_3():
    line = _one_error_line(run_cli("crossed", "--group", str(DATA / "group_s3.json"),
                                   "--cocycle", str(DATA / "cocycle_trivial.json")), code=3)
    assert line == "error: induced_action_data needs an extension group"


def test_crossed_residuals_past_the_float_range_are_one_error_line(tmp_path):
    # a pullback from Z2 x Z2 with 1e200 off the identity row and column
    values = [[[1.0, 0.0] if 0 in (i, j) else [1e200, 0.0] for j in range(4)]
              for i in range(4)]
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps({"kind": "pullback",
                                "quotient": {"kind": "table", "values": values}}))
    _one_error_line(run_cli("crossed", "--group", str(DATA / "group_q8_extension.json"),
                            "--cocycle", str(path)))


S3_PARTIAL = ("--group", str(DATA / "group_s3.json"),
              "--cocycle", str(DATA / "cocycle_s3_partial_beta.json"))
F2_PARTIAL = ("--group", str(DATA / "group_f2.json"),
              "--cocycle", str(DATA / "cocycle_f2_partial_beta.json"),
              "--element", str(DATA / "element_f2_sphere1.json"))


@pytest.mark.parametrize("args, missing", [
    (("validate", *S3_PARTIAL), "2"),
    (("decompose", *S3_PARTIAL), "2"),
    (("validate", *F2_PARTIAL[:4]), "x1^-1"),
    (("specrad", *F2_PARTIAL, "--powers", "3"), "x1^-1"),
], ids=["s3-validate", "s3-decompose", "f2-validate", "f2-specrad"])
def test_a_beta_that_leaves_an_element_out_is_one_error_line(args, missing):
    line = _one_error_line(run_cli(*args))
    assert line == f"error: beta is not given at {missing}"


def test_a_beta_that_leaves_the_identity_out_fails_validation_naming_its_file(tmp_path):
    # the coboundary refuses it while it is built, inside the file's loading
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps({"kind": "coboundary", "beta": {"1": 1}}))
    line = _one_error_line(run_cli("validate", "--group", str(DATA / "group_s3.json"),
                                   "--cocycle", str(path)))
    assert line == f"error: {path}: beta is not given at 0"


@pytest.mark.parametrize("group, identity, key, value", [
    ("group_f2.json", "e", "x1 x2^-1", 2),
    ("group_q8_extension.json", "[0, 0]", "[1, 2]", 0.5),
], ids=["f2", "q8-extension"])
def test_a_non_unit_beta_is_named_by_its_key(tmp_path, group, identity, key, value):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps({"kind": "coboundary", "beta": {identity: 1, key: value}}))
    line = _one_error_line(run_cli("validate", "--group", str(DATA / group),
                                   "--cocycle", str(path)))
    assert line == f"error: |beta({key})| != 1"


def test_a_truncation_under_a_partial_beta_is_one_error_line():
    r = run_cli("norm", *F2_PARTIAL, "--mode", "truncate", "--radius", "2")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.splitlines() == ["truncating at radius 2",
                                     "error: beta is not given at x1^-1"]


def test_a_truncation_under_a_beta_that_covers_the_support_prints_a_value():
    # beta is read at supp a only, here at x1, so the balls need no beta
    r = run_cli("norm", *F2_PARTIAL[:4], "--element", str(DATA / "element_f2_t_x.json"),
                "--mode", "truncate", "--radius", "2")
    assert r.returncode == 0, r.stderr
    # the norm of delta_x1 is 1, less (1 + 8 + sqrt 5) 2^-53 of allowance
    assert 1 - 2e-15 < json.loads(r.stdout)["lower"] < 1


@pytest.mark.parametrize("table", ["[]", "[[0.0]]", "[[0, 1], [1, 0.0]]"],
                         ids=["empty", "float", "float-entry"])
def test_malformed_group_table_is_a_validation_error(tmp_path, table):
    path = tmp_path / "group.json"
    path.write_text('{"kind": "finite-table", "table": %s}' % table)
    for args in (("validate",), ("decompose", "--cocycle", str(DATA / "cocycle_trivial.json"))):
        _one_error_line(run_cli(args[0], "--group", str(path), *args[1:]))


@pytest.mark.parametrize("extra", [("--mode", "exact", "--bogus"), ("--mode", "bogus")],
                         ids=["flag", "choice"])
def test_usage_errors_are_one_line(extra):
    line = _one_error_line(run_cli("norm", "--group", str(DATA / "group_z2.json"),
                                   "--cocycle", str(DATA / "cocycle_trivial.json"),
                                   "--element", str(DATA / "element_z2_ones.json"), *extra))
    assert extra[-1] in line


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_a_report_past_the_float_range_prints_nothing(value, capsys):
    # json.dumps would print Infinity or NaN, which are not JSON
    from twistlab import cli
    from twistlab.errors import InvalidArgument
    with pytest.raises(InvalidArgument, match="past the float range"):
        cli._emit({"upper": value}, types.SimpleNamespace(seed=0), {}, {})
    assert capsys.readouterr().out == ""
