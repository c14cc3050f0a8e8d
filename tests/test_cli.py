import json
import random
import subprocess
import sys
import time

import pytest

from supero import cli
from supero.algebras import build_gl
from supero.cli import COCHAIN_BUDGET, largest_cochain_space, main
from supero.errors import DimensionMismatch
from supero.reps import super_monomials


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_gl21(capsys):
    code, out, _ = run_cli(capsys, "build", "gl", "2", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 9
    assert doc["schema"] == "superO/1"


def test_build_q2(capsys):
    code, out, _ = run_cli(capsys, "build", "q", "2")
    assert code == 0
    assert json.loads(out)["dim"] == 8


def test_build_empty_algebra_exit_2(capsys):
    code, _, err = run_cli(capsys, "build", "gl", "0", "0")
    assert code == 2
    assert "m + n >= 1" in err


def test_build_unknown_family_exit_2(capsys):
    code, _, err = run_cli(capsys, "build", "weirdo", "1")
    assert code == 2


def test_coh_gl11_g0_trivial(capsys):
    code, out, _ = run_cli(
        capsys, "coh", "gl", "1", "1", "--sub", "g0", "--mod", "trivial", "-N", "6",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    dims = [r["dimH_even"] + r["dimH_odd"] for r in doc["rows"]]
    assert dims == [1, 0, 1, 0, 1, 0, 1]
    assert doc["all_differentials_zero"] is True


def test_coh_sl2_borel(capsys):
    code, out, _ = run_cli(
        capsys, "coh", "sl", "2", "0", "--sub", "borel", "--mod", "trivial", "-N", "3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    dims = [r["dimH_even"] + r["dimH_odd"] for r in doc["rows"]]
    assert dims == [1, 0, 0, 0]


def test_coh_full_subalgebra(capsys):
    code, out, _ = run_cli(
        capsys, "coh", "gl", "1", "1", "--sub", "full", "-N", "2", "--format", "json"
    )
    assert code == 0
    dims = [r["dimH_even"] + r["dimH_odd"] for r in json.loads(out)["rows"]]
    assert dims == [1, 0, 0]


def test_coh_table_format(capsys):
    code, out, _ = run_cli(capsys, "coh", "gl", "1", "1", "-N", "2")
    assert code == 0
    assert "dimH_even" in out
    assert "# H dims: 1,0,1" in out


def test_coh_levi_requires_H(capsys):
    code, _, err = run_cli(capsys, "coh", "gl", "1", "1", "--sub", "levi", "-N", "2")
    assert code == 2


def test_coh_levi_with_H(capsys):
    code, out, _ = run_cli(
        capsys, "coh", "gl", "1", "1", "--sub", "levi", "--H", "1,0", "-N", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["subalgebra_spec"] == "levi"


def test_coh_module_expression(capsys):
    code, out, _ = run_cli(
        capsys, "coh", "gl", "1", "1", "--sub", "g0",
        "--mod", "dual(natural)*natural", "-N", "0", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["dimH_even"] + doc["rows"][0]["dimH_odd"] == 1


def test_coh_default_N(capsys):
    code, out, _ = run_cli(capsys, "coh", "gl", "1", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["N"] == 2  # odd dim 2 + even quotient 0


def test_coh_span_file(tmp_path, capsys):
    # span of the even part of gl(1|1) given as a raw file
    vectors = [[[1, 1], [0, 1], [0, 1], [0, 1]], [[0, 1], [1, 1], [0, 1], [0, 1]]]
    path = tmp_path / "span.json"
    path.write_text(json.dumps({"vectors": vectors, "label": "diag"}))
    code, out, _ = run_cli(
        capsys, "coh", "gl", "1", "1", "--sub", f"span:{path}", "-N", "2",
        "--format", "json",
    )
    assert code == 0
    dims = [r["dimH_even"] + r["dimH_odd"] for r in json.loads(out)["rows"]]
    assert dims == [1, 0, 1]


def test_coh_span_file_missing_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "coh", "gl", "1", "1", "--sub", "span:/no/such/file.json", "-N", "1"
    )
    assert code == 2


@pytest.mark.parametrize(
    "option, value",
    [
        ("--H", "abc"),
        ("--H", "1/0"),
        ("span", "not json"),
        ("span", json.dumps({"vectors": [[1, 2, 3, 4]]})),
        # gl(1|1) basis order: e[1,1], e[2,2], e[1,2], e[2,1]
        ("span", json.dumps({"vectors": [[[0, 1], [0, 1], [1, 1], [0, 1]],
                                         [[0, 1], [0, 1], [0, 1], [1, 1]]]})),
        ("span", json.dumps({"vectors": [[[1, 1], [0, 1], [1, 1], [0, 1]]]})),
        ("span", json.dumps({"vectors": [[[1, 1], [0, 1], [0, 1], [0, 1]],
                                         [[2, 1], [0, 1], [0, 1], [0, 1]]]})),
        # JSON true loads as bool, an int subclass that Fraction takes for 1
        ("span", json.dumps({"vectors": [[[True, 1], [0, 1], [0, 1], [0, 1]]]})),
        ("span", json.dumps({"vectors": [[[1, True], [0, 1], [0, 1], [0, 1]]]})),
        # the label goes into the "# g  h=..." header line of a table report
        ("span", json.dumps({"vectors": [[[1, 1], [0, 1], [0, 1], [0, 1]]], "label": "a\nb"})),
        ("span", json.dumps({"vectors": [[[1, 1], [0, 1], [0, 1], [0, 1]]], "label": 5})),
        # --H belongs to levi and borel only, even when it is empty
        ("H-with:g0", "1,2,3"),
        ("H-with:g0", ","),
        ("H-with:g0", ""),
        ("H-with:torus", "1,0"),
        ("H-with:full", "1,0"),
        ("H-with:span", "1,0"),
    ],
    ids=[
        "H-not-rational", "H-zero-denominator", "span-not-json", "span-flat-vector",
        "span-not-closed", "span-not-homogeneous", "span-dependent",
        "span-true-numerator", "span-true-denominator", "span-label-newline",
        "span-label-not-a-string",
        "H-with-g0", "H-comma-with-g0", "H-empty-with-g0", "H-with-torus",
        "H-with-full", "H-with-span",
    ],
)
def test_coh_malformed_input_exit_2(tmp_path, capsys, option, value):
    argv = ["coh", "gl", "1", "1", "-N", "1"]
    if option == "span":
        path = tmp_path / "span.json"
        path.write_text(value)
        argv += ["--sub", f"span:{path}"]
    elif option.startswith("H-with:"):
        sub = option.removeprefix("H-with:")
        if sub == "span":  # a valid span file: the even part of gl(1|1)
            path = tmp_path / "span.json"
            path.write_text(json.dumps({"vectors": [[[1, 1], [0, 1], [0, 1], [0, 1]],
                                                    [[0, 1], [1, 1], [0, 1], [0, 1]]]}))
            sub = f"span:{path}"
        argv += ["--sub", sub, "--H", value]
    else:
        argv += ["--sub", "levi", "--H", value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gl", "3", "3"],  # default N = 18: C^19 has about 8.6e9 coordinates
        ["q", "3", "--sub", "g0", "--mod", "adjoint", "-N", "7"],
        ["gl", "1", "1", "--sub", "g0", "-N", "300000"],
        # refused before the 1.68M-dimensional module is built (that took over 200 s)
        ["gl", "3", "3", "--sub", "g0", "--mod", "adjoint*adjoint*adjoint*adjoint", "-N", "1"],
    ],
    ids=["gl33-default-N", "q3-adjoint-N7", "gl11-huge-N", "gl33-tensor-module"],
)
def test_coh_over_the_size_budget_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "coh", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: request too large") and err.count("\n") == 1
    assert f"budget of {COCHAIN_BUDGET}" in err


def test_over_budget_module_is_refused_before_any_product(monkeypatch):
    # each factor (36 dimensions) is within the budget, and so are the
    # sub-products of two and three factors; the whole is not
    def no_tensor(*args):
        raise AssertionError("tensor called")

    monkeypatch.setattr(cli, "tensor", no_tensor)
    g = build_gl(3, 3)
    with pytest.raises(DimensionMismatch, match="has dimension 1679616"):
        cli.parse_module(g, "adjoint*adjoint*adjoint*adjoint")


def test_size_budget_bounds_every_cochain_space():
    # the bound is at least the monomial count of every degree up to top
    for even in range(5):
        for odd in range(4):
            for top in range(7):
                counts = [len(super_monomials((0,) * even + (1,) * odd, p)) for p in range(top + 1)]
                assert largest_cochain_space(even, odd, top, 3) == 3 * max(counts)


def test_coh_huge_N_stops_at_the_first_empty_degree(capsys):
    # g/h has no odd directions, so every C^p with p > dim g/h = 6 is 0
    argv = ("coh", "gl", "3", "0", "--sub", "torus", "--format", "json")
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv, "-N", "100000")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 10  # walking every degree took over a minute
    _, small, _ = run_cli(capsys, *argv, "-N", "10")
    huge, small = json.loads(out), json.loads(small)
    assert huge["rows"][:11] == small["rows"]
    zero = dict.fromkeys(("dimC_even", "dimC_odd", "rank_d", "dimH_even", "dimH_odd"), 0)
    assert huge["rows"][11:] == [{**zero, "p": p} for p in range(11, 100001)]
    assert huge["all_differentials_zero"] == small["all_differentials_zero"]


def test_verify_unknown_suite_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2
    assert "available" in err


def test_verify_jacobi_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "jacobi", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert doc["suite"] == "jacobi"


def test_verify_table_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "invariants")
    assert code == 0
    assert "PASS" in out
    assert "# all_pass: True" in out


def test_verify_json_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "appendix", "--format", "json")
    _, out2, _ = run_cli(capsys, "verify", "appendix", "--format", "json")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "alg.json"
    code, out, _ = run_cli(capsys, "build", "q", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dim"] == 8


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "supero.cli", "build", "gl", "1", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 4


# Malformed inputs of each kind; each must be refused as a usage error.
MALFORMED = {
    "H": ["x", "1/0", ",", "1,x", "1", "1,2,3"],  # gl(1|1) has torus rank 2
    "mod": ["dual(", "*", "adjoint*", "natural**natural", "dual()", "natural*dual("],
    "family": [["gl", "-1", "2"], ["q", "0"], ["osp", "1", "3"], ["p", "1"]],
    "span": [
        '{"vectors": 3}',
        "[]",
        '{"vectors": [[1, 2]]}',
        "not json",
        '{"vectors": [[[1, 1]]]}',
        '{"vectors": [[[1, 0], [0, 1], [0, 1], [0, 1]]]}',
    ],
}


def test_cli_fuzz_malformed_inputs_exit_2(tmp_path, capsys):
    rng = random.Random(2505)
    cases = [(kind, bad) for kind in sorted(MALFORMED) for bad in MALFORMED[kind]]
    cases += [
        (kind, rng.choice(MALFORMED[kind]))
        for kind in rng.choices(sorted(MALFORMED), k=48 - len(cases))
    ]
    for n, (kind, bad) in enumerate(cases):
        options = {
            "--sub": rng.choice(["g0", "torus"]),
            "--mod": rng.choice(["trivial", "natural", "adjoint", "dual(natural)*natural"]),
            "-N": str(rng.randrange(3)),
            "--format": rng.choice(["table", "json"]),
        }
        family = ["gl", "1", "1"]
        if kind == "H":
            options["--sub"] = rng.choice(["levi", "borel"])
            options["--H"] = bad
        elif kind == "mod":
            options["--mod"] = bad
        elif kind == "family":
            family = bad
        else:
            path = tmp_path / f"span{n}.json"
            path.write_text(bad)
            options["--sub"] = f"span:{path}"
        if kind == "family" and rng.random() < 0.5:
            argv = ["build", *family]
        else:
            pairs = list(options.items())
            rng.shuffle(pairs)
            argv = ["coh", *family, *(x for pair in pairs for x in pair)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err, argv
