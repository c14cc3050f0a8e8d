import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from supero import cli
from supero.algebras import build_gl
from supero.cli import COCHAIN_BUDGET, LISTING_BUDGET, largest_cochain_space, listed_factors, main
from supero.errors import DimensionMismatch
from supero.reps import super_monomials

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize("spec, part", [
    ("natural**2", ""), ("dual()", ""), ("*natural", ""), ("dual(foo)*natural", "foo"),
])
def test_coh_bad_module_part_quotes_the_whole_spec(capsys, spec, part):
    code, out, err = run_cli(capsys, "coh", "gl", "1", "1", "--sub", "g0", "--mod", spec, "-N", "1")
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse {part!r} in module spec {spec!r}\n"


def test_coh_bad_module_spec_is_quoted_once(capsys):
    code, _, err = run_cli(capsys, "coh", "gl", "1", "1", "--sub", "g0", "--mod", "foo", "-N", "1")
    assert code == 2 and err == "error: cannot parse module spec 'foo'\n"


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
        # Fraction would build 10**10000000 in full
        ("--H", "1e10000000,0"),
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
        "H-not-rational", "H-zero-denominator", "H-huge-exponent", "span-not-json",
        "span-flat-vector", "span-not-closed", "span-not-homogeneous", "span-dependent",
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


@pytest.mark.parametrize(
    "argv",
    [
        # C^199999 has exactly COCHAIN_BUDGET coordinates
        ["gl", "1", "1", "--sub", "g0", "-N", "199998"],
        # the same two odd quotient directions
        ["gl", "1", "1", "--sub", "levi", "--H", "1,-1", "-N", "400"],
    ],
    ids=["gl11-g0-N199998", "gl11-levi-N400"],
)
def test_coh_over_the_listing_budget_exit_2(capsys, monkeypatch, argv):
    def no_cohomology(*args):
        raise AssertionError("cohomology called")

    monkeypatch.setattr(cli, "cohomology", no_cohomology)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "coh", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: request too large") and err.count("\n") == 1
    assert f"over {LISTING_BUDGET} factors" in err


def test_listed_factors_count_every_monomial_factor():
    for even in range(5):
        for odd in range(4):
            for top in range(7):
                factors = sum(len(super_monomials((0,) * even + (1,) * odd, p)) * p for p in range(top + 1))
                assert listed_factors(even, odd, top) == factors
    # the largest request CI runs, coh gl 3 2 --sub g0 -N 8
    assert listed_factors(0, 12, 9) == 2_441_880 <= LISTING_BUDGET
    # past the budget the sum stops, whatever the degree
    assert LISTING_BUDGET < listed_factors(0, 2, 10**5) < 2 * LISTING_BUDGET


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
    "mod": [
        "dual(", "*", "adjoint*", "natural**natural", "dual()", "natural*dual(",
        "dual(" * 3000 + "trivial" + ")" * 3000,  # deeper than the recursion limit
    ],
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


# The hash-seed jobs of CI (``.github/workflows/tests.yml``): sha256 of
# stdout, argv as CI splits it.  The two short ``coh q`` jobs are left to the
# perfbench digests.
CI_JOB_DIGESTS = {
    "coh gl 2 2 --sub levi --H 3,2,1,0 --mod trivial -N 8 --format json":
        "9a6fad9687ec465213e5014eb830166bd4447132eae64c5a697e58b2ccebe03b",
    "coh q 2 --sub g0 --mod dual(natural)*natural -N 6 --format json":
        "76a1f5d22713af3aad83addccd1801c2d41f06222b68b7d5242d881018ee6e4e",
    "coh q 2 --sub levi --H 1,0 --mod dual(natural)*natural -N 4 --format json":
        "e87239f7a7c077b12a80d8d60f1c9a305882aa636e8dfc3e734b075466a62875",
    "coh gl 2 1 --sub levi --H 1,0,1 --mod adjoint -N 5 --format json":
        "b84258e8a51d3e6d1492c68ec30585bd64bf395427236c9ab3fbb3ca6ec23630",
    "coh gl 3 2 --sub g0 -N 8 --format json":
        "251c9861b4c25815789db72622f51273a172960dd2d5c3c9f7bac39391e31049",
    "coh gl 2 1 --sub torus --mod adjoint -N 4 --format json":
        "2edd6e99e92145113fb97f9ff4a76612b7a688d82a0f7e85e2da980ac96ba6af",
    "coh p_tilde 3 --sub g0 --mod adjoint -N 4 --format json":
        "0d50dcdc784af0b966ed1a6ac0d4b0a2a50d8d75bed90a767a96c2673d9daca9",
    "coh osp 3 2 --sub g0 --mod dual(natural)*natural -N 8 --format json":
        "082123ef199681d2626569511c7d12ce4dc582c95a83c1ea4d2b1c053b72543a",
    "coh q 3 --sub g0 --mod adjoint -N 6 --format json":
        "ab470f888858ebd7089a31d3e93410c469deed6b725539d20f9936e151f869e6",
    "coh q 3 --sub g0 -N 10 --format json":
        "0d8e1870c93f4b73903fa83117e5668c7c12ff100b04e8824ec963f99cca1d05",
    # g0 of gl(2|1) in a rotated basis: span vectors 3 and 4 shift weights
    # non-uniformly, so their action rows read every monomial
    "coh gl 2 1 --sub span:tests/data/gl21-g0-rotated.json --mod adjoint -N 4 --format json":
        "080b800b5529472b74b35e65f99fc478629552010adae2317dd33d13d6f0e209",
    "verify kunneth --format json":
        "f902bd57a81283be12f2b7a8743c7bef84663ad7d81115fd7714ee871cf85b34",
    "verify growth --format json":
        "82adb690d4d27755135ca7f93ec2848d87450893e497640b03bbf063bbd9a3ff",
    "verify g0-vanishing --format json":
        "7620c4191c2ebe2233d8bd595f00878b4a3f11a3b052af4a6e30bb325ced18c3",
    "verify appendix --format json":
        "1ede2b1375f4689bcce63fd903db7c631449a369f0337dc79dcb4ee3e8df1493",
    "verify ddzero --format json":
        "03e539aad8d2ddd45ed5fa808dc28fb0ccb853ba9fc8188543edc670f22ba227",
    "verify jacobi --format json":
        "4bdc15d4e88789d823b21b1f75a1a8ffe47e342a7026b4a4b72f7bf47fa8cfa0",
    "verify invariants --format json":
        "f4f99fc8dbff2ed6f70e5ee82097dcd13c07fa220b9eefac2fad6e360d8261cb",
    "build osp 3 2": "6eaa4d8ac3deccf946db4f24cbd404dcac9d7d099b26ab525ed1ebc87ff63618",
    "build osp 5 4": "af0cb4ec8e60087a253be5592e63e6bf40584c4492429dfc70d81f949746e0a7",
    "build q 3": "e4906380a1da304a8e25d2ddda6782a1b1d960ae6fc71a8bc84098c7bb553102",
    "build p_tilde 3": "64611b770c9273ae4146d6a696232c640a551a3a91872128fe6cd5ef809b4f2f",
    "build sl 2 2": "5f1347878bbe53e68d94d7b479bf4ac5db19aaeb6ba5acdc88527be72e3ca7f3",
}


# CI's hash-seed jobs that ``CI_JOB_DIGESTS`` leaves to the perfbench digests
PERFBENCH_PINNED_JOBS = {
    "coh q 2 --sub g0 --mod adjoint -N 3 --format json",
    "coh q 3 --sub g0 --mod adjoint -N 4 --format json",
}


def test_ci_hash_seed_jobs_are_the_pinned_ones():
    workflow = ROOT / ".github" / "workflows" / "tests.yml"
    text = workflow.read_text(encoding="utf-8")
    lines = [line.strip() for line in text.split("<<'JOBS'\n", 1)[1].splitlines()]
    # each line is a name, then argv as the shell splits it
    jobs = [line.split()[1:] for line in lines[: lines.index("JOBS")]]
    argv = {" ".join(job) for job in jobs}
    assert len(argv) == len(jobs) == 25
    assert argv - PERFBENCH_PINNED_JOBS == set(CI_JOB_DIGESTS)
    assert PERFBENCH_PINNED_JOBS <= argv


@pytest.mark.parametrize("job", sorted(CI_JOB_DIGESTS))
def test_ci_hash_seed_job_output_is_unchanged(capsys, monkeypatch, job):
    monkeypatch.chdir(ROOT)  # CI runs the jobs from the checkout, span files included
    code, out, err = run_cli(capsys, *job.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CI_JOB_DIGESTS[job]
