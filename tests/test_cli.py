"""Command-line interface behaviour: output formats, exit codes, JSON."""

import contextlib
import dataclasses
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from helpers import reference_derivative, reference_gross_keating, reference_stages, series_from_json, support, t_power
from test_readme import readme_examples

import semilie
from semilie import INFINITY, GKPair, OrbitalParams, QPolynomial, cli, verify
from semilie.cli import MAX_AT_Q_DIGITS, MAX_WORK, _evaluate, _parse_args, build_parser, main
from semilie.satake import bc_s2_combo_image, p_r_polynomial, satake_u3_indicator


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


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_orbital_oracle_mismatch(capsys, monkeypatch, as_json):
    """An oracle whose row at T**0 is off by 1 is reported, printed in full
    and exits 1; the closed form is printed first, as it is on a match."""
    p = semilie.OrbitalParams(r=2, vb=-1, vc=4, ve=3, vda=1)
    original = cli._support_sum_rows

    def bumped(*args):
        lo, rows = original(*args)
        rows[-lo] += 1  # the row of T**0
        return lo, rows

    monkeypatch.setattr(cli, "_support_sum_rows", bumped)
    argv = "orbital -r 2 --vb -1 --vc 4 --ve 3 --vda 1 --oracle".split() + ["--json"] * as_json
    code, out, _ = run(capsys, *argv)
    first, verdict, oracle = out.splitlines()
    assert code == 1
    assert verdict == "oracle: MISMATCH"
    perturbed = semilie.orbital_support_sum(p) + t_power(0, 1)
    assert oracle == f"support sum: {perturbed}"
    closed = semilie.orbital_closed_form(p)
    assert first == (json.dumps(closed.to_json()) if as_json else str(closed))


def test_orbital_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "orbital", "-r", "14", "--vb", "-5", "--vc", "100", "--ve", "3", "--json"
    )
    assert code == 0
    series = series_from_json(json.loads(out))
    assert series.coefficient(0) == QPolynomial.geometric(3)
    assert support(series)[0] == -9 and support(series)[-1] == 120


def test_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, "orbital", "--vb", "0", "--vc", "2", "--ve", "0")
    assert code == 2
    assert "odd" in err


@pytest.mark.parametrize(
    "argv",
    [
        "bc s3 --basis -1",
        "bc s2 --basis -1",
        "bc s3 --pr -r 3",
        "bc s3 --pr",
        "bc s2 --pr --basis 2",
        "bc s2 --basis 2 -r 5",
        "bc s3 --basis 2 -r 0",
        "kernel-matrix --sum-bc 1 --vda abc -N 2",
        "orbital --vb 0 --vc 1 --ve 0 --vda 1.5",
        "derivative --vb 0 --vc 1 --ve 0 --at-q abc",
        "volumes -p 4 -N 2",
        "verify orbital --rmax -1",
        "volumes -p 9 -N 2",
        "verify volumes -p 9",
        "volumes -p 9 -N 2 --json",
        "int --vb 0 --vc 3 --ve 2 -r 1 --at-q 1/0",
        "verify satake --rmax-satake -1",
        "kernel-matrix --sum-bc 2 -N 2",
        "kernel-matrix --sum-bc 1 --vda -1 -N 2",
        "gk --n1 2 --n2 3 --at-q 1e4400",
        "gk --n1 40 --n2 41 --at-q 1e300",
        "verify orbital -p 4",
        "verify miracle -p 9",
        "verify satake -N 0",
        "volumes -p 13 -N 3",
        "verify volumes -p 13 -N 3",
        "verify orbital --rmax 40 --ve-max 40 --sum-bc-max 41",
        "verify kernel --ve-max 1000",
        "verify satake --rmax 150",
        "verify all --rmax-satake 10000",
        "verify satake -p 561",
        "verify satake -p 41041",
        "verify orbital -p 3215031751",
        "verify satake -p 3317044064679887385961981",
        "verify quaternion -p 10000019",
        "verify quaternion -N 20000",
        "verify orbital --sum-bc-max 100000000000000000000",
        "verify orbital --vda-max 100000000000000000000",
        "gk --n1 -5 --n2 3",
        "gk --n1 -1 --n2 -7",
        "gk --n1 -1 --n2 -1",
        "gk --n1 2 --n2 -3",
    ],
)
def test_parameter_error_exit_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "run_suite", lambda *args: pytest.fail("ran a suite"))
    start = time.perf_counter()
    code, _, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert "set_int_max_str_digits" not in err  # semilie's own message, not the interpreter's
    if "-p 9" in argv:
        assert "p must be an odd prime, got 9" in err


@pytest.mark.parametrize(
    "argv, expected, exit_code",
    [
        ("volumes -p 3 -N 2 --json", [("volumes", 1170, True)], 0),
        ("volumes -N 1 --json", [("volumes", 0, False)], 1),
        (
            "verify intersection --rmax 2 --sum-bc-max 3 --ve-max 3 --vda-max 2 --json",
            [("miracle", 96, True), ("afl", 304, True)],
            0,
        ),
        # The kernel suite is charged for ve_max alone, the one field it reads.
        ("verify kernel --rmax 10000 --json", [("kernel", 1248, True)], 0),
        ("verify kernel --ve-max 40 --json", [("kernel", 7908, True)], 0),
    ],
)
def test_suite_reports_json(capsys, argv, expected, exit_code):
    code, out, _ = run(capsys, *argv.split())
    assert code == exit_code
    (line,) = out.splitlines()
    reports = json.loads(line)
    assert [(r["suite"], r["checked"], r["passed"]) for r in reports] == expected
    assert all(r["failures"] == [] for r in reports)


@pytest.mark.parametrize("argv", ["verify all -p 5 -N 5", "volumes -p 3 -N 100000 --json"])
def test_volume_work_refused_before_enumerating(capsys, monkeypatch, argv):
    monkeypatch.setattr(verify, "DiskCounter", lambda ring: pytest.fail("enumerated"))
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: the query needs about ") and err.endswith(f"more than the limit of {cli.MAX_SWEEP_WORK}\n")


@pytest.mark.parametrize("p, precision", [(3, 4), (5, 3), (7, 3)])
def test_volume_work_admits_the_default_and_smoke_grids(p, precision):
    assert verify.sweep_work("volumes", verify.SweepConfig(p=p, precision=precision)) <= cli.MAX_SWEEP_WORK


@pytest.mark.parametrize(
    "suite, p, precision",
    [("quaternion", 10007, 1000), ("volumes", 29, 2), ("volumes", 5, 4), ("volumes", 11, 3), ("volumes", 41, 2)],
)
def test_padic_work_admits_runs_inside_the_bound(suite, p, precision):
    """Each was refused by an earlier, looser charge, but runs in 9-31 s on
    a 2-CPU host, inside the some 50 s that the bound stands for."""
    assert verify.sweep_work(suite, verify.SweepConfig(p=p, precision=precision)) <= cli.MAX_SWEEP_WORK


@pytest.mark.parametrize(
    "argv",
    [
        "verify orbital --rmax 40 --ve-max 40 --sum-bc-max 41",
        "verify miracle --rmax 200 --ve-max 200",
        "verify afl --ve-max 2145",
        "verify intersection --rmax 1377",
        "verify all --sum-bc-max 1001",
        "verify satake --rmax 150 --json",
    ],
)
def test_grid_work_refused_before_any_suite_runs(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "run_suite", lambda *args: pytest.fail("ran a suite"))
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: the query needs about ") and err.endswith(f"more than the limit of {cli.MAX_SWEEP_WORK}\n")


@pytest.mark.parametrize(
    "suite, config",
    [
        ("all", {}),
        ("all", {"r_max": 2, "ve_max": 4, "sum_bc_max": 5, "precision": 3}),
        ("orbital", {"r_max": 8, "ve_max": 13, "sum_bc_max": 13}),
        ("satake", {"rmax_satake": 60}),
    ],
    ids=["default", "smoke", "wide_orbital", "satake_60"],
)
def test_grid_work_admits_the_default_and_ci_grids(suite, config):
    """Well inside the bound: at most a quarter of it."""
    work = verify.sweep_work(suite, verify.SweepConfig(**config))
    assert 0 < work <= cli.MAX_SWEEP_WORK // 4


@pytest.mark.parametrize(
    "suite, config",
    [
        ("miracle", {"ve_max": 200}),
        ("miracle", {"r_max": 40, "ve_max": 40, "sum_bc_max": 41}),
        ("afl", {"r_max": 20, "ve_max": 20, "sum_bc_max": 21}),
        ("afl", {"r_max": 40, "ve_max": 40, "sum_bc_max": 41}),
    ],
    ids=["miracle_ve_200", "miracle_40", "afl_20", "afl_40"],
)
def test_reduced_grid_suites_charged_for_their_grid(suite, config):
    """miracle and afl walk the reduced grid, so runs far past the orbital
    suite's bound fit theirs (each runs in 2-15 s on a 2-CPU host)."""
    config = verify.SweepConfig(**config)
    assert verify.sweep_work(suite, config) <= cli.MAX_SWEEP_WORK < verify.sweep_work("orbital", config)


@pytest.mark.parametrize(
    "field, admitted, refused",
    [("ve_max", 2144, 2145), ("r_max", 1376, 1377), ("sum_bc_max", 2359, 2361), ("vda_max", 1572, 1573)],
)
def test_afl_refusal_boundaries(field, admitted, refused):
    """The afl charge, with the other options at their defaults, admits
    the README's largest runs and refuses the next ones."""
    work = [verify.sweep_work("afl", verify.SweepConfig(**{field: v})) for v in (admitted, refused)]
    assert work[0] <= cli.MAX_SWEEP_WORK < work[1]


def test_large_prime_checked_at_once(capsys):
    """A prime near 10**18 is checked by Miller-Rabin, not trial division;
    satake never builds the ring."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "satake", "-p", "1000000000000000003")
    assert (code, out) == (0, "satake: pass (50 checks)\n")
    assert time.perf_counter() - start < 1


def test_verify_zero_checks_fails(capsys):
    code, out, _ = run(capsys, "verify", "volumes", "-N", "1")
    assert code == 1
    assert out.strip() == "volumes: FAIL (0 checks)"


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


@pytest.mark.parametrize("spelling", ["inf", "INF", "Infinity"])
def test_vda_infinity_in_any_case(capsys, spelling):
    code, out, _ = run(capsys, "derivative", "--vb", "0", "--vc", "3", "--ve", "1", "--vda", spelling, "--json")
    assert code == 0
    p = semilie.OrbitalParams(r=0, vb=0, vc=3, ve=1, vda=INFINITY)
    assert json.loads(out) == reference_derivative(p).to_json()


def test_vda_spellings_stated_alike(capsys):
    """The --vda error text, its help and the README name the same spellings."""
    words = "a nonnegative integer, or 'inf' or 'infinity' in any case"
    code, _, err = run(capsys, "orbital", "--vb", "0", "--vc", "1", "--ve", "0", "--vda", "x")
    assert (code, err) == (2, "error: --vda must be an integer, or 'inf' or 'infinity' in any case, got 'x'\n")
    for command in ("orbital", "kernel-matrix"):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        assert words in " ".join(capsys.readouterr().out.split())
    readme = (Path(semilie.__file__).resolve().parents[2] / "README.md").read_text()
    assert words.replace("'", "`") in " ".join(readme.split())


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


@pytest.mark.parametrize("argv", ["bc s2 -r -1", "bc s3 -r -1", "bc s2 -r -2 --pr", "bc s3 -r -1 --json"])
def test_bc_negative_level_exit_2(capsys, argv):
    """A negative -r is a parameter error, as --basis -1 is, though the
    library reads a negative level as the zero image."""
    level = int(argv.split()[3])
    assert run(capsys, *argv.split()) == (2, "", f"error: need r >= 0, got {level}\n")
    assert not satake_u3_indicator(level) and not bc_s2_combo_image(level) and not p_r_polynomial(level)


def test_kernel_matrix_stage(capsys):
    code, out, _ = run(
        capsys, "kernel-matrix", "--sum-bc", "1", "--vda", "0", "-N", "4", "--stage", "M''"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[-1].split()[-1] == "-q^3"


def _kernel_matrix_sample():
    rng = random.Random(22)
    sample = [(1, "0", 4), (17, "2", 4), (5, "8", 4), (41, "inf", 10), (41, "0", 10), (801, "inf", 0)]
    return sample + [(rng.randrange(1, 42, 2), rng.choice([*map(str, range(21)), "inf"]), rng.randrange(11)) for _ in range(12)]


@pytest.mark.parametrize("stage", ["M", "M'", "M''"])
@pytest.mark.parametrize("sum_bc, vda, n_cap", _kernel_matrix_sample())
def test_kernel_matrix_prints_the_reference(capsys, sum_bc, vda, n_cap, stage):
    """Both forms print ``helpers.reference_stages``, encoded entry by
    entry: ``json.dumps`` of each ``to_json()``, or ``str`` right-justified
    to its column's width."""
    entries = reference_stages(sum_bc, INFINITY if vda == "inf" else int(vda), n_cap)[stage]
    argv = ["kernel-matrix", "--sum-bc", str(sum_bc), "--vda", vda, "-N", str(n_cap), "--stage", stage]
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps({"stage": stage, "rows": [[e.to_json() for e in row] for row in entries]}) + "\n"
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    cells = [[str(e) for e in row] for row in entries]
    widths = [max(len(row[c]) for row in cells) for c in range(n_cap + 1)]
    assert out == "".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n" for row in cells)


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
    """Given to satake alone, --rmax sets rmax_satake."""
    (res,) = verify.run_suite("satake", verify.SweepConfig(rmax_satake=3))
    assert res.checked == 20
    code, out, _ = run(capsys, "verify", "satake", "--rmax", "3")
    assert (code, out) == (0, "satake: pass (20 checks)\n")


@pytest.mark.parametrize(
    "argv, fields",
    [
        ("verify satake --rmax 3", {"r_max": 3, "rmax_satake": 3}),
        ("verify satake --rmax 3 --rmax-satake 5", {"r_max": 3, "rmax_satake": 5}),
        ("verify satake --rmax-satake 5", {"rmax_satake": 5}),
        ("verify all --rmax 3", {"r_max": 3}),
        ("verify intersection --rmax 3 -N 2 --seed 7", {"r_max": 3, "precision": 2, "seed": 7}),
        ("verify quaternion --precision 5 -p 7", {"precision": 5, "p": 7}),
        ("volumes -p 5 -N 3", {"p": 5, "precision": 3}),
        *((f"verify {name}", {}) for name in verify.SUITE_CHOICES),
        ("volumes", {}),
    ],
)
def test_sweep_flags_set_their_fields(capsys, monkeypatch, argv, fields):
    """Each flag given sets its own field, --rmax also rmax_satake when
    satake runs alone, and every other field keeps its ``SweepConfig``
    default: with no flags a sweep runs on ``SweepConfig()``, so the command
    line states no default of its own."""
    configs = []
    monkeypatch.setattr(cli, "run_suite", lambda name, config: configs.append(config) or [])
    assert run(capsys, *argv.split()) == (0, "", "")
    assert configs == [verify.SweepConfig(**fields)]


def test_every_sweep_field_has_a_verify_flag():
    """Each ``SweepConfig`` field is set by a ``verify`` flag: the config
    holds no knob that only code can turn."""
    flags = sorted(cli.SWEEP_FLAGS["verify"].values())
    assert flags == sorted(field.name for field in dataclasses.fields(verify.SweepConfig))


@pytest.mark.parametrize("error", [ValueError("negative shift count"), IndexError("list index out of range")])
def test_internal_error_exits_1_with_a_record(capsys, monkeypatch, error):
    """An exception inside a suite is that suite's failure, recorded under
    ``verify.INTERNAL_ERROR`` with its type and message and the tuple the
    sweep was at: exit 1, neither a parameter error's 2 nor a traceback,
    and every other suite of the run still reports."""

    def broken(*args):
        raise error

    monkeypatch.setattr(verify, "_packed_circ", broken)
    record = {
        "identity": "internal error",
        "error": type(error).__name__,
        "message": str(error),
        "params": {"r": 0, "vb": 0, "vc": 1, "ve": 0, "vda": 0},
    }
    grid = ["--rmax", "1", "--ve-max", "1", "--sum-bc-max", "1"]
    code, out, err = run(capsys, "verify", "afl", *grid)
    assert (code, err) == (1, "")
    head, line = out.splitlines()
    assert head == "afl: FAIL (0 checks)" and json.loads(line) == record
    code, out, err = run(capsys, "verify", "all", *grid, "--json")
    reports = json.loads(out)
    assert (code, err) == (1, "")
    assert [report["suite"] for report in reports] == list(verify.SUITE_NAMES)
    assert [report["failures"] for report in reports if not report["passed"]] == [[record]]
    assert run(capsys, "verify", "orbital", "--rmax", "-1")[0] == 2


def test_internal_error_reports_the_levels_finished_before_it(capsys, monkeypatch):
    """``_packed_circ`` raising on its 2,001st call, at level 3 of the
    default grid, ends ``verify afl`` with exit 1, a record naming that
    tuple, and the checks of levels 0-2, counted at the end of each."""
    calls, original = [], verify._packed_circ

    def raising(*args):
        calls.append(args)
        if len(calls) == 2_001:
            raise ValueError("negative shift count")
        return original(*args)

    monkeypatch.setattr(verify, "_packed_circ", raising)
    code, out, err = run(capsys, "verify", "afl", "--json")
    (report,) = json.loads(out)
    assert (code, err) == (1, "")
    assert report["checked"] == 5_184
    assert list(report["checks_by_identity"].values()) == [1_584, 1_584, 1_056, 960]
    assert report["failures"] == [{
        "identity": "internal error",
        "error": "ValueError",
        "message": "negative shift count",
        "params": {"r": 3, "vb": 0, "vc": 9, "ve": 8, "vda": 0},
    }]


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


def test_at_q_zero_meets_negative_power():
    assert _evaluate(QPolynomial({0: 3, 2: 1}), Fraction(0)) == 3
    with pytest.raises(ValueError, match="q = 0"):
        _evaluate(QPolynomial({-1: 1, 0: 3}), Fraction(0))


def fresh_main(argv):
    """``main`` on a newly built, uncached parser."""
    with mock.patch.object(cli, "build_parser", build_parser.__wrapped__):
        return main(argv)


def captured(entry, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_shared_across_calls():
    assert build_parser() is build_parser()
    sequence = [
        "orbital --vb 0",
        "derivative --vb 0 --vc 3 --ve 1 --vda 1 --at-q 5",
        "orbital -r 2 --vb -1 --vc 4 --ve 3 --vda 1 --json",
        "verify nonsense",
        "orbital -r 2 --vb -1 --vc 4 --ve 3 --at-q=-3/2 --json",
        "gk --n1 4 --n2 7 --json",
        "bc s3 --basis 3 --json",
        "derivative --vb 0 --vc 3 --ve 1 --vda 1",
        "orbital --vb 0",
    ]
    for argv in sequence:
        got = captured(main, argv.split())
        assert got == captured(fresh_main, argv.split()), argv
        assert got[0] == (2 if argv in ("orbital --vb 0", "verify nonsense") else 0), argv


DISPATCH_CORPUS = [argv for argv, _ in readme_examples()] + [[]] + [shlex.split(line) for line in (
    # every command, with each of its output flags
    "orbital -r 2 --vb -1 --vc 4 --ve 3 --vda 1 --oracle",
    "orbital -r 2 --vb -1 --vc 4 --ve 3 --vda 1 --json",
    "orbital -r 2 --vb -1 --vc 4 --ve 3 --vda 1 --at-q=5 --json",
    "derivative --vb 0 --vc 3 --ve 1 --vda inf --raw --json",
    "derivative --vb 0 --vc 3 --ve 1 --at-q=7",
    "combo -r 5 --vb -20 --vc 37 --ve 35 --vda 9 --json",
    "combo -r 5 --vb -20 --vc 37 --ve 35 --vda 9 --raw --at-q=1/2",
    "transfer --vb 0 --vc 1 --ve 0",
    "gk --n1 2 --n2 3 --json",
    "gk --n1 2 --n2 3 --at-q=5",
    "int --mode kr --vb 0 --vc 3 --ve 2 --json",
    "int --vb 0 --vc 3 --ve 2 --at-q=2",
    "bc s2 -r 3 --pr --json",
    "bc s3 --basis 2 --json",
    "kernel-matrix --sum-bc 1 --vda inf -N 4 --stage \"M'\" --json",
    "volumes -p 5 -N 3 --json",
    "verify satake --rmax 4 --json",
    "verify orbital --rmax 1 --sum-bc-max 3 --ve-max 2 --vda-max -1 --precision 3 --seed 7",
    # usage errors, help and the argvs left to the full parse
    "orbital --vb 0 --vc 1 --ve 0 extra --zzz",
    "gk --n1 2 --n2 3 --vb 0",
    "orbital --vb 0 --vc 1 --ve 0 -- x",
    "orbital --vb 0",
    "orbital --vb 0 --vc 1 --ve x",
    "bc",
    "kernel-matrix --sum-bc 1 -N 2 --stage X",
    "verify nonsense",
    "nonsense --vb 0",
    "-h",
    "--help orbital",
    "orbital -h",
    "verify -h",
    "-- orbital --vb 0 --vc 1 --ve 0",
    "derivative --vb 0 --vc 3 --ve 1 --at-q=-3/2",
    "verify miracle --rmax 4 --ve-m 6",
    "gk --n1 2 --n2 3 --js",
)]


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=lambda argv: shlex.join(argv) or "<empty>")
def test_parse_args_matches_the_full_parse(argv):
    """``main``'s parse gives the namespace of the full parse, or its exit
    code and the same bytes on stdout and stderr."""
    full_parse = build_parser().parse_args
    assert captured(lambda a: vars(_parse_args(a)), argv) == captured(lambda a: vars(full_parse(a)), argv)


def module_env():
    """The environment for ``python -m semilie`` on this checkout."""
    src = str(Path(semilie.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_m_semilie():
    proc = subprocess.run(
        [sys.executable, "-m", "semilie", "gk", "--n1", "2", "--n2", "3"],
        capture_output=True, text=True, env=module_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "q + 5\n"


@pytest.mark.parametrize(
    "argv, read",
    [
        ("kernel-matrix --sum-bc 801 --vda inf -N 0", 10),  # 1.7 MB: the pipe fills mid-command
        ("verify satake --rmax 3", 0),  # closed before the report is written
    ],
)
def test_reader_closing_stdout_early(argv, read):
    proc = subprocess.Popen(
        [sys.executable, "-m", "semilie", *argv.split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
    )
    proc.stdout.read(read)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, code", [("gk --n1 2 --n2 3", 0), ("verify satake --rmax 3", 1)])
def test_closed_stdout_keeps_exit_code(monkeypatch, argv, code):
    """A failing suite's report meets a closed stdout: the verdict stands."""
    combo = verify.bc_s2_combo_image
    monkeypatch.setattr(verify, "bc_s2_combo_image", lambda r: combo(r).scale(2))
    err = io.StringIO()
    with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(err):
        assert main(argv.split()) == code
    assert err.getvalue() == ""


@pytest.mark.parametrize(
    "argv",
    [
        "gk --n1 2 --n2 3 --at-q 7 --json",
        "derivative --vb 0 --vc 3 --ve 1 --vda 1 --at-q=-3/2",
        "orbital -r 2 --vb -1 --vc 4 --ve 3 --at-q 5",
        "int --mode total -r 2 --vb 0 --vc 3 --ve 4 --vda 1 --at-q 1e3",
        "gk --n1 2 --n2 3 --at-q 1/0",
    ],
)
def test_at_q_parsed_once(capsys, monkeypatch, argv):
    parse, calls = cli._parse_at_q, []
    monkeypatch.setattr(cli, "_parse_at_q", lambda text: calls.append(text) or parse(text))
    code, _, err = run(capsys, *argv.split())
    assert len(calls) == 1 and code == (2 if "1/0" in argv else 0), err


@pytest.mark.parametrize("tail", [["--json"], []])
def test_at_q_negative_rational_as_separate_argument(tail):
    head = ["orbital", "-r", "2", "--vb", "-1", "--vc", "4", "--ve", "3"]
    joined = captured(main, head + ["--at-q=-3/2"] + tail)
    assert joined[0] == 0 and joined[1]
    assert captured(main, head + ["--at-q", "-3/2"] + tail) == joined


@pytest.mark.parametrize(
    "argv, message",
    [
        ("orbital --vb 0 --vc 1 --ve 100000000", f"limit of {MAX_WORK}"),
        ("gk --n1 100000001 --n2 100000001", f"limit of {MAX_WORK}"),
        ("int --mode total -r 1000 --vb 0 --vc 1001 --ve 1000 --vda inf", f"limit of {MAX_WORK}"),
        ("orbital -r 150 --vb 0 --vc 1 --ve 200 --vda inf --oracle", f"limit of {MAX_WORK}"),
        ("gk --n1 4000 --n2 4000 --at-q 1000000000000", f"limit of {MAX_WORK}"),
        ("kernel-matrix --sum-bc 20000001 --vda inf -N 0", f"limit of {MAX_WORK}"),
        ("kernel-matrix --sum-bc 4001 --vda inf -N 0", f"limit of {MAX_WORK}"),
        ("kernel-matrix --sum-bc 1 -N 100000", f"limit of {MAX_WORK}"),
        ("bc s3 -r 100000000", f"limit of {MAX_WORK}"),
        ("bc s2 --pr -r 100000000", f"limit of {MAX_WORK}"),
        ("bc s3 --basis 66666", f"limit of {MAX_WORK}"),
        ("bc s2 --basis 100000000", f"limit of {MAX_WORK}"),
        ("int --mode total --vb 0 --vc 1 --ve -1", "int_total is undefined in the vanishing regime"),
        ("int --mode circ --vb 0 --vc 1 --ve -1", "int_circ is undefined in the vanishing regime"),
    ],
)
def test_oversized_or_undefined_query_exit_2(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and "allow_vanishing" not in err


def test_largest_calculator_queries_admitted(capsys):
    orbit = ["-r", "30", "--vb", "-50", "--vc", "91", "--ve", "40", "--vda", "inf", "--json"]
    for head in (["orbital", "--oracle"], ["int", "--mode", "total"], ["combo"]):
        code, _, err = run(capsys, *head, *orbit)
        assert code == 0, (head, err)
    code, _, err = run(capsys, "kernel-matrix", "--sum-bc", "41", "--vda", "inf", "-N", "10", "--json")
    assert code == 0, err
    # 45,602 q-terms of degree <= 150, evaluated at a small q in well under a second.
    code, _, err = run(capsys, *"orbital --vb 0 --vc 301 --ve 150 --vda inf --at-q 7".split())
    assert code == 0, err
    # The images are formulas, linear in the level: levels that took the
    # triangular solves more than 10 s now run in well under a second.
    start = time.perf_counter()
    for argv in ("bc s3 --basis 20 --json", "bc s3 --basis 3000", "bc s2 --basis 30000"):
        code, _, err = run(capsys, *argv.split())
        assert code == 0, (argv, err)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("literal", ["1e999999999", "1e-999999999", "-7E+0_999999999", f"1e{MAX_AT_Q_DIGITS}"])
def test_at_q_literal_bounded_before_parsing(capsys, literal):
    start = time.perf_counter()
    code, out, err = run(capsys, "gk", "--n1", "2", "--n2", "3", "--at-q", literal)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "") and err.startswith("error: --at-q ")


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize(
    "argv, digits",
    [
        ("gk --n1 2 --n2 3 --at-q 1e4300", 4301),
        ("gk --n1 2 --n2 3 --at-q 1e-4300", 4301),
        ("gk --n1 40 --n2 41 --at-q 1e300", 6001),
        ("orbital -r 2 --vb -1 --vc 4 --ve 3 --at-q 1e3000", 6001),
    ],
)
def test_at_q_value_too_long_refused_before_evaluating(capsys, monkeypatch, argv, digits, json_flag):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit != 4300:
        pytest.skip("the digit counts assume the interpreter's default limit")
    monkeypatch.setattr(QPolynomial, "evaluate", lambda *_: pytest.fail("evaluated"))
    code, out, err = run(capsys, *argv.split(), *json_flag)
    assert (code, out) == (2, "")
    assert err == f"error: the value at this q would have about {digits} digits, more than the {limit} an int may print with\n"
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv", ["gk --n1 2 --n2 3 --at-q 1e4299", "gk --n1 2 --n2 3 --at-q 1e-4299", "gk --n1 2 --n2 3 --at-q 9e4299"])
def test_at_q_value_at_the_digit_limit_admitted(capsys, argv):
    """4,300 digits print; the estimate is exact here, as no term cancels."""
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, *argv.split(), *json_flag)
        assert code == 0, err
        assert max(len(s) for s in re.findall(r"\d+", out)) == 4300


@pytest.mark.parametrize(
    "literal, value", [("1e3", "1005"), ("0.25", "21/4"), ("-3/2", "7/2"), ("1e0000000001", "15")]
)
def test_at_q_small_literals(capsys, literal, value):
    assert run(capsys, "gk", "--n1", "2", "--n2", "3", "--at-q", literal) == (0, value + "\n", "")


# Orbit, gk and --at-q values: ints up to 10**12 in size, mostly well formed
# so that the size guard sees them, otherwise text bools, floats, fractions,
# inf, empty strings or random text.
_JUNK = st.one_of(
    st.sampled_from(["True", "false", "inf", "-inf", "nan", "", " ", "1e3", "-3/2", "1/0"]),
    st.floats().map(repr),
    st.fractions(max_denominator=10**6).map(str),
    st.text(max_size=5),
)


def _small_or_huge(lo, hi):
    return st.one_of(st.integers(max(lo, -40), min(hi, 40)), st.integers(lo, hi))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["orbital", "derivative", "combo", "transfer", "int", "gk", "bc", "kernel-matrix"]))
    argv = [command]
    if command == "bc":
        argv += [draw(st.sampled_from(["s2", "s3", "s4"]))]
        argv += draw(st.sampled_from([["-r"], ["--basis"], ["--pr", "-r"]])) + [str(draw(_small_or_huge(-2, 10**12)))]
    elif command == "kernel-matrix":
        argv += ["--sum-bc", str(draw(_small_or_huge(-2, 10**12))), "--vda", draw(st.sampled_from(["0", "3", "20", "inf", "-1", "x"]))]
        argv += ["-N", str(draw(_small_or_huge(-1, 10**12))), "--stage", draw(st.sampled_from(["M", "M'", "M''"]))]
    else:
        huge = _small_or_huge(-10**12, 10**12)
        if command == "gk":
            n1 = draw(_small_or_huge(-2, 10**12))
            fields = {"--n1": n1, "--n2": n1 + draw(_small_or_huge(-2, 10**12))}
        else:
            vb, sum_bc = draw(huge), 2 * draw(_small_or_huge(-2, 10**12 // 2)) + 1
            vda = draw(st.one_of(_small_or_huge(-1, 10**12), st.just("inf")))
            fields = {"-r": draw(_small_or_huge(-1, 10**12)), "--vb": vb, "--vc": sum_bc - vb,
                      "--ve": draw(_small_or_huge(-2, 10**12)), "--vda": vda}
        if command != "transfer":
            fields["--at-q"] = draw(huge)
        for flag, value in fields.items():
            if draw(st.integers(0, 9)):  # else leave the flag out
                argv += [flag, draw(_JUNK) if draw(st.integers(0, 7)) == 0 else str(value)]
        mode = ["--mode", draw(st.sampled_from(["circ", "total", "kr"]))]
        extras = {"orbital": ["--oracle"], "derivative": ["--raw"], "combo": ["--raw"], "int": mode}
        argv += draw(st.sampled_from([[], extras.get(command, [])]))
    if command != "transfer":
        argv += draw(st.sampled_from([[], ["--json"]]))
    junk = st.lists(st.text(max_size=4), min_size=1, max_size=2)
    return argv + (draw(junk) if draw(st.integers(0, 3)) == 0 else [])


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argvs())
def test_cli_exit_code_contract(argv):
    """Any argv exits 0, 1 or 2 without a traceback.  ``kernel-matrix`` sizes
    and ``bc`` levels run up to 10**12, where the size guard rejects them."""
    code, _, err = captured(main, argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv


#: The corners (r, vb, vc, ve, vda) of the calculator's ranges at which CI
#: checks that ``int --mode total`` prints what ``derivative`` prints.
CORNERS = [
    (30, -50, 91, 40, 0),
    (30, -50, 91, 40, 20),
    (30, -50, 91, 40, INFINITY),
    (30, 0, 41, 40, 0),
    (0, -50, 91, 40, INFINITY),
    (30, -50, 91, 0, 20),
    (30, -50, 91, 1, INFINITY),
    (0, 0, 1, 1, 0),
]


def test_derivative_prints_the_reference():
    """``derivative`` as text, --json, --raw and --at-q prints the dict-built
    ``helpers.reference_derivative`` at the corners above and at 120 seeded
    tuples of the calculator's off-grid ranges (r <= 30, odd vb + vc <= 41,
    vb >= -50, vda in {0..20, inf}), ve in [-3, 40] so that ve < 0 is
    drawn too."""
    rng = random.Random(32)
    tuples = list(CORNERS)
    for _ in range(120):
        s = rng.randrange(1, 42, 2)
        vb = rng.randint(-50, s)
        tuples.append((rng.randint(0, 30), vb, s - vb, rng.randint(-3, 40), rng.choice([*range(21), INFINITY])))
    assert any(t[3] < 0 for t in tuples)
    for r, vb, vc, ve, vda in tuples:
        argv = ["derivative", "-r", str(r), "--vb", str(vb), "--vc", str(vc), "--ve", str(ve),
                "--vda", "inf" if vda == INFINITY else str(vda)]
        want = reference_derivative(OrbitalParams(r, vb, vc, ve, vda))
        raw = want.scale(-1 if (vc + r) % 2 else 1)
        for extra, printed in (
            ([], str(want)),
            (["--json"], json.dumps(want.to_json())),
            (["--raw"], str(raw)),
            (["--raw", "--json"], json.dumps(raw.to_json())),
            (["--at-q", "-3/2"], str(want.evaluate(Fraction(-3, 2)))),
        ):
            assert captured(main, argv + extra) == (0, printed + "\n", ""), argv + extra


def test_gk_prints_the_reference_at_every_pair():
    """``gk`` prints the dict-built ``helpers.reference_gross_keating`` at
    every pair 0 <= n1 <= n2 <= 60, non-integral pairs (n1 and n2 - n1 both
    even) with their half-integer top coefficient included: (1/2) at
    (0, 0)."""
    assert captured(main, ["gk", "--n1", "0", "--n2", "0"]) == (0, "(1/2)\n", "")
    for n1 in range(61):
        for n2 in range(n1, 61):
            want = str(reference_gross_keating(GKPair(n1, n2)))
            assert captured(main, ["gk", "--n1", str(n1), "--n2", str(n2)]) == (0, want + "\n", ""), (n1, n2)
