"""Command-line interface behaviour: output formats, exit codes, JSON."""

import json

import pytest

from semilie import LaurentSeries, QPolynomial
from semilie.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_orbital_plain(capsys):
    code, out, _ = run(capsys, "orbital", "-r", "1", "--vb", "0", "--vc", "1", "--ve", "0")
    assert code == 0
    assert out.strip() == "-T^-1 + 1 - T + T^2"


def test_orbital_vanishing(capsys):
    code, out, _ = run(capsys, "orbital", "--vb", "0", "--vc", "1", "--ve", "-1")
    assert code == 0
    assert out.strip() == "0"


def test_orbital_oracle_verdict(capsys):
    code, out, _ = run(
        capsys, "orbital", "-r", "2", "--vb", "-1", "--vc", "4", "--ve", "3",
        "--vda", "1", "--oracle",
    )
    assert code == 0
    assert "oracle: match" in out


def test_orbital_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "orbital", "-r", "14", "--vb", "-5", "--vc", "100", "--ve", "3", "--json"
    )
    assert code == 0
    series = LaurentSeries.from_json(json.loads(out))
    assert series.coefficient(0) == QPolynomial.geometric(3)
    assert series.support()[0] == -9 and series.support()[-1] == 120


def test_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, "orbital", "--vb", "0", "--vc", "2", "--ve", "0")
    assert code == 2
    assert "odd" in err


@pytest.mark.parametrize(
    "argv",
    [
        "bc s3 --basis -1",
        "bc s2 --basis -1",
        "kernel-matrix --sum-bc 1 --vda abc -N 2",
        "orbital --vb 0 --vc 1 --ve 0 --vda 1.5",
        "derivative --vb 0 --vc 1 --ve 0 --at-q abc",
        "volumes -p 4 -N 2",
        "verify orbital --rmax -1",
    ],
)
def test_parameter_error_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv.split())
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["orbital", "--vb", "0"])
    assert exc.value.code == 2


def test_gk(capsys):
    code, out, _ = run(capsys, "gk", "--n1", "2", "--n2", "3")
    assert code == 0
    assert out.strip() == "q + 5"


def test_gk_bad_pair(capsys):
    code, _, err = run(capsys, "gk", "--n1", "3", "--n2", "1")
    assert code == 2


def test_derivative_and_at_q(capsys):
    code, out, _ = run(
        capsys, "derivative", "--vb", "0", "--vc", "3", "--ve", "1", "--vda", "1"
    )
    assert out.strip() == "q + 3"
    code, out, _ = run(
        capsys, "derivative", "--vb", "0", "--vc", "3", "--ve", "1",
        "--vda", "1", "--at-q", "5",
    )
    assert out.strip() == "8"


def test_combo_requires_r(capsys):
    code, _, err = run(capsys, "combo", "--vb", "0", "--vc", "1", "--ve", "0")
    assert code == 2
    assert "r >= 1" in err


def test_int_modes(capsys):
    args = ("--vb", "0", "--vc", "3", "--ve", "1")
    code, out, _ = run(capsys, "int", "--mode", "circ", "-r", "0", *args, "--vda", "1")
    assert out.strip() == "q + 3"
    code, out, _ = run(capsys, "int", "--mode", "total", "-r", "0", *args, "--vda", "1")
    assert out.strip() == "q + 3"
    code, out, _ = run(capsys, "int", "--mode", "kr", "-r", "1", *args, "--vda", "0")
    assert out.strip() == "2q + 3"


def test_bc_s3(capsys):
    code, out, _ = run(capsys, "bc", "s3", "-r", "1")
    assert code == 0
    assert out.strip() == "q^2(Y+Y^-1) + q"


def test_bc_s2_combo(capsys):
    code, out, _ = run(capsys, "bc", "s2", "-r", "0")
    assert out.strip() == "1"


def test_kernel_matrix_stage(capsys):
    code, out, _ = run(
        capsys, "kernel-matrix", "--sum-bc", "1", "--vda", "0", "-N", "4", "--stage", "M''"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[-1].split()[-1] == "-q^3"


def test_transfer(capsys):
    code, out, _ = run(capsys, "transfer", "--vb", "1", "--vc", "0", "--ve", "0")
    assert out.strip() == "-1"


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(
        capsys, "verify", "miracle", "--rmax", "2", "--sum-bc-max", "3",
        "--ve-max", "3", "--vda-max", "2",
    )
    assert code == 0
    assert "miracle: pass" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_satake_rmax_alias(capsys):
    code, out, _ = run(capsys, "verify", "satake", "--rmax", "3")
    assert code == 0
    # 3 identity families per level (plus extras), far fewer checks at rmax=3
    assert "satake: pass" in out


def test_mismatch_exit_code_1(capsys):
    from semilie.cli import _report_results
    from semilie.verify import SuiteResult

    bad = SuiteResult("demo", checked=1, failures=[{"identity": "x", "params": {}}])

    class Args:
        json = False

    assert _report_results([bad], Args) == 1
    out = capsys.readouterr().out
    assert "demo: FAIL" in out


def test_volumes_small(capsys):
    code, out, _ = run(capsys, "volumes", "-p", "3", "-N", "2")
    assert code == 0
    assert "volumes: pass" in out
