"""Tests for the command-line interface.

Golden outputs are asserted byte-for-byte: the CSV/JSON emitters promise
shortest round-trip float formatting and fixed key order, so any textual
drift is a reproducibility regression, not cosmetics.  Frozen numeric
cells come from the oracle-validated kernels (see the module tests).
"""

from __future__ import annotations

import io
import json
import contextlib
import hashlib
import math
import random
import subprocess
import sys
import warnings

import pytest

from gammatail import (CertificationError, GammaTailError, MonotoneVerdict,
                       ScanSpec, Witness, WitnessSearchError)
from gammatail import specfun
from gammatail.cli import _certify_exit, build_parser, main


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------


def test_eval_plateau_golden_csv():
    code, out = run_cli(["eval", "--a", "0.3", "--c", "-0.5"])
    assert code == 0
    assert out == "a,c,p,method,err_bound\n0.3,-0.5,1.0,plateau,0.0\n"


def test_eval_golden_json():
    code, out = run_cli(["eval", "--a", "2", "--c", "-0.5", "--json"])
    assert code == 0
    assert out == (
        "{\n"
        '  "a": 2.0,\n'
        '  "c": -0.5,\n'
        '  "p": 0.5578254003710748,\n'
        '  "method": "series-complement",\n'
        '  "err_bound": 7.421975449741691e-15\n'
        "}\n"
    )


def test_eval_past_two_to_53_is_a_domain_error(capsys):
    # a + 1 rounds to a there; the kernel must reject the shape (exit 2),
    # not fail inside the continued fraction and exit 1.
    code, _ = run_cli(["eval", "--a", "1e16", "--c", "0"])
    assert code == 2
    assert "2**53" in capsys.readouterr().err


def test_eval_rejects_bad_arguments():
    code, _ = run_cli(["eval", "--a", "-1", "--c", "0"])
    assert code == 2
    code, _ = run_cli(["eval", "--a", "1"])
    assert code == 2  # missing required --c


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------


def test_scan_golden_csv_first_delta_empty():
    code, out = run_cli(["scan", "--c", "0", "--a-min", "1", "--a-max", "4", "--n", "3"])
    assert code == 0
    assert out == (
        "a,p,delta,err_bound\n"
        "1.0,0.3678794411714422,,1.0088014610017906e-14\n"
        "2.0,0.4060058497098382,0.038126408538395995,1.0650758463759561e-14\n"
        "4.0,0.4334701203667093,0.02746427065687107,1.1537981637393601e-14\n"
    )


def test_scan_json_matches_csv_fields():
    args = ["scan", "--c", "0", "--a-min", "1", "--a-max", "4", "--n", "3"]
    _, csv_out = run_cli(args)
    _, json_out = run_cli(args + ["--json"])
    rows = json.loads(json_out)
    assert rows[0]["delta"] is None
    csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
    for row, csv_row in zip(rows, csv_rows):
        assert repr(row["a"]) == csv_row[0]
        assert repr(row["p"]) == csv_row[1]
        assert repr(row["err_bound"]) == csv_row[3]


def test_scan_default_start_avoids_plateau():
    # for c < 0 the default a_min is -c + 0.01, keeping Q < 1
    code, out = run_cli(["scan", "--c", "-0.5", "--n", "3", "--a-max", "2"])
    assert code == 0
    first = out.splitlines()[1].split(",")
    assert float(first[0]) == 0.51
    assert float(first[1]) < 1.0


def test_a_range_too_narrow_for_its_points_is_a_usage_error(capsys):
    # 14 of these 50 log-spaced shapes would repeat; scan, certify and a
    # median grid all refuse the range.
    narrow = ["--a-min", "2", "--a-max", "2.0000000000000178", "--n", "50"]
    for argv in (["scan", "--c", "0.5", *narrow],
                 ["certify", "--c", "0.5", *narrow],
                 ["median", *narrow]):
        code, out = run_cli(argv)
        assert code == 2 and out == "", argv
        assert "too narrow for 50 strictly increasing shapes" in (
            capsys.readouterr().err)


def test_scan_at_the_largest_double_warns_nothing(capsys):
    # The lanes' Stirling prefactor overflows to -inf there, silently, as
    # the scalar one does with floats; Q underflows to 0 with bound 5e-324.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["scan", "--c", "1.7976931348623157e308",
                             "--a-min", "30", "--n", "5"])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert out == (
        "a,p,delta,err_bound\n"
        "30.0,0.0,,5e-324\n"
        "48.20570513667909,0.0,0.0,5e-324\n"
        "77.45966692414835,0.0,0.0,5e-324\n"
        "124.46659545769569,0.0,0.0,5e-324\n"
        "200.0,0.0,0.0,5e-324\n"
    )
    # A log grid ending there keeps its end points exact, so no power
    # overflows; its shapes past 2**53 are the kernel's usage error.
    wide = ["--a-min", "1", "--a-max", "1.7976931348623157e308", "--n", "5"]
    for argv in (["scan", "--c", "0", *wide], ["median", *wide]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(argv)
        assert code == 2 and out == "", argv
        assert "below 2**53" in capsys.readouterr().err


# sha256 of what each command prints.  Every shape is a point of ScanSpec's
# libm grid, so the bytes do not depend on numpy's SIMD dispatch:
# test_lane_forms runs this test again with numpy's optional paths off.
_GRID_OUTPUT_SHA256 = {
    ("scan", "--c", "0.5"):
        "3ef49ee91d00d8d8a9a89b08bd68d23a45a6c29baf929e597fa384d0f00c906c",
    ("scan", "--c", "-0.2"):
        "28c7d190d4d3aa562ae1da96f2fc24ac93a2faa4fcb52ca1e31594b55812098c",
    ("median", "--a-min", "0.5", "--a-max", "40", "--n", "30"):
        "e336141b94735d25220d1daab05bfa51be1d382b050b48dd5c51caaa08be8c4c",
}


def test_log_grid_outputs_are_pinned_byte_for_byte():
    for argv, digest in _GRID_OUTPUT_SHA256.items():
        code, out = run_cli(list(argv))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------


def test_certify_golden_json_non_monotone():
    code, out = run_cli(
        ["certify", "--c", "-0.2", "--a-min", "0.21", "--a-max", "500", "--n", "200"]
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "direction", "c", "scan", "witness", "margin_ratio", "interval", "detail",
    ]
    assert payload["direction"] == "non_monotone"
    assert payload["witness"] == {
        "a1": 0.21,
        "a2": 0.4444444444444446,
        "a3": 3.5555555555555567,
        "p1": 0.5854727938337183,
        "p2": 0.43866329786117636,
        "p3": 0.47189861367863983,
    }
    assert payload["interval"] is None
    assert payload["detail"] == (
        "certified dip at three points a=(0.21, 0.4444444444444446, "
        "3.5555555555555567), placed by the valley formula (8/135)/(c + 1/3)")


def test_certify_exit_codes_by_regime():
    code, out = run_cli(["certify", "--c", "0", "--n", "60", "--a-max", "100"])
    assert code == 0
    assert json.loads(out)["direction"] == "increasing"
    code, out = run_cli(
        ["certify", "--c", "-1", "--a-min", "1.01", "--n", "60", "--a-max", "100"]
    )
    assert code == 0
    assert json.loads(out)["direction"] == "decreasing"


def test_certify_inconclusive_exits_three(monkeypatch):
    # an unreachable margin forces the honest inconclusive verdict
    monkeypatch.setattr(specfun, "STRICT_MARGIN", 1e15)
    code, out = run_cli(
        ["certify", "--c", "0", "--a-min", "1", "--a-max", "2", "--n", "12"]
    )
    assert code == 3
    assert json.loads(out)["direction"] == "inconclusive"


def test_certify_past_the_double_range_exits_three():
    # Q underflows to 0 on the whole grid: the first grid interval carries
    # no certified sign.
    code, out = run_cli(["certify", "--c", "1000"])
    assert code == 3
    payload = json.loads(out)
    assert payload["direction"] == "inconclusive"
    assert payload["interval"] == [0.01, 0.0102513137059137]
    assert payload["margin_ratio"] == 0.0
    assert payload["detail"] == ("difference 0.0 on [0.01, 0.0102513137059137] "
                                 "is below the certification margin")


def test_certify_exit_maps_regime_violations():
    # A direction the paper's regime rules out is a certified violation
    # (exit 1); inside the band between them any certified direction is ok.
    scan = ScanSpec(1.0, 4.0, 4)
    dip = Witness(a1=1.0, a2=2.0, a3=3.0, p1=0.9, p2=0.5, p3=0.7)

    def verdict(direction, c):
        return MonotoneVerdict(
            direction=direction, c=c, scan=scan,
            witness=dip if direction == "non_monotone" else None,
            margin_ratio=10.0, interval=None, detail="")

    for direction, c, code in [
            ("increasing", 0.5, 0), ("decreasing", 0.5, 1),
            ("non_monotone", 0.0, 1), ("decreasing", -0.5, 0),
            ("increasing", -0.5, 1), ("non_monotone", -1.0 / 3.0, 1),
            ("increasing", -0.2, 0), ("non_monotone", -0.2, 0)]:
        assert _certify_exit(verdict(direction, c)) == code, (direction, c)


def test_certify_plateau_scan_is_usage_error():
    code, _ = run_cli(["certify", "--c", "-0.5", "--a-min", "0.3"])
    assert code == 2


@pytest.mark.parametrize("argv", [["certify", "--c", "nan"],
                                  ["certify", "--c", "-inf"],
                                  ["scan", "--c", "nan"]])
def test_a_non_finite_offset_is_named_as_the_offset(argv, capsys):
    # The default scan starts from the offset, so it checks c first.
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: c must be finite\n"


@pytest.mark.parametrize("verb", ["certify", "scan"])
@pytest.mark.parametrize("c, start", [("-300", "300.01"),
                                      ("-199.99", "200.0"),
                                      ("-1e308", "1e+308")])
def test_a_default_start_past_the_default_end_names_the_offset(verb, c,
                                                               start, capsys):
    # Below c = -199.99 the default start, 0.01 past the plateau edge, is
    # not below the default end a_max = 200.
    code, out = run_cli([verb, "--c", c])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"error: the default scan start a_min = {start}, 0.01 past the "
        "plateau edge max(-c, 0), is not below a_max = 200.0, so a_max "
        "must exceed max(-c, 0) + 0.01\n")


# ----------------------------------------------------------------------
# median / means
# ----------------------------------------------------------------------


def test_median_golden_single_shape():
    code, out = run_cli(["median", "--a", "1"])
    assert code == 0
    assert out == (
        "a,median,offset,residual\n"
        "1.0,0.6931471805599453,-0.3068528194400547,0.0\n"
    )


def test_median_golden_json():
    code, out = run_cli(["median", "--a", "1", "--json"])
    assert code == 0
    assert out == (
        "[\n"
        "  {\n"
        '    "a": 1.0,\n'
        '    "median": 0.6931471805599453,\n'
        '    "offset": -0.3068528194400547,\n'
        '    "residual": 0.0\n'
        "  }\n"
        "]\n"
    )


def test_median_grid_rows_stay_inside_bracket():
    code, out = run_cli(["median", "--a-min", "0.5", "--a-max", "50", "--n", "5"])
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 5
    for line in lines:
        a, med, offset, resid = map(float, line.split(","))
        assert -1.0 / 3.0 < offset < 0.0
        assert resid <= 1e-12
        assert math.isclose(med, a + offset, rel_tol=1e-12)


def test_median_requires_shape_or_grid():
    code, _ = run_cli(["median"])
    assert code == 2
    code, _ = run_cli(["median", "--a", "-3"])
    assert code == 2


def test_median_grid_from_a_min_alone_ends_at_200(capsys):
    code, out = run_cli(["median", "--a-min", "1", "--n", "3"])
    assert code == 0
    assert out == (
        "a,median,offset,residual\n"
        "1.0,0.6931471805599453,-0.3068528194400547,0.0\n"
        "14.142135623730951,13.810235300818867,-0.3319003229120838,"
        "8.881784197001252e-16\n"
        "200.0,199.66676561246567,-0.33323438753433265,"
        "3.3306690738754696e-16\n"
    )
    code, out = run_cli(["median", "--a-max", "5"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: median requires either --a or --a-min "
        "(--a-max defaults to 200)\n")


@pytest.mark.parametrize("a, expected", [
    ("1e-3", 2),    # median below the 1e-300 floor: a shape limit
    ("3e7", 3),     # bracket sign wrong only inside its error bound
    # The root lands on the bracket end a - 1/3, which rounds to an offset
    # below -1/3 by less than an ulp of a.
    ("3.5e7", 3),
    ("49152070.4192157", 3),
])
def test_median_numerical_limits_are_not_violations(a, expected, capsys):
    assert run_cli(["median", "--a", a])[0] == expected
    assert "certified violation" not in capsys.readouterr().err


def test_median_beyond_the_kernel_cap_is_not_a_violation():
    assert run_cli(["median", "--a", "1e10"])[0] != 1


def test_means_golden_and_degenerate_pair():
    code, out = run_cli(["means", "--x", "1", "--y", "4"])
    assert code == 0
    assert out == (
        "x,y,geo,log_mean,refined_mean,arith,chain_ok\n"
        "1.0,4.0,2.0,2.1640425613334453,2.1708011270346415,2.5,true\n"
    )
    code, _ = run_cli(["means", "--x", "1", "--y", "1"])
    assert code == 2


def test_means_golden_json():
    code, out = run_cli(["means", "--x", "1", "--y", "4", "--json"])
    assert code == 0
    assert out == (
        "{\n"
        '  "x": 1.0,\n'
        '  "y": 4.0,\n'
        '  "geo": 2.0,\n'
        '  "log_mean": 2.1640425613334453,\n'
        '  "refined_mean": 2.1708011270346415,\n'
        '  "arith": 2.5,\n'
        '  "chain_ok": true\n'
        "}\n"
    )


@pytest.mark.parametrize("x, y", [("1e-160", "1.03e-160"),
                                  ("1e-200", "1.03e-200"),
                                  ("1e160", "1.03e160")])
def test_means_near_the_ends_of_the_double_range(x, y, capsys):
    # x*y leaves the normal range here, which used to make geo 0.0, inf or
    # larger than the logarithmic mean, and a gap certifiably negative.
    code, out = run_cli(["means", "--x", x, "--y", y])
    assert code == 0 and capsys.readouterr().err == ""
    row = dict(zip(*(line.split(",") for line in out.splitlines())))
    assert float(x) < float(row["geo"]) < float(row["log_mean"])
    assert row["chain_ok"] == "true"


@pytest.mark.parametrize("gap, code", [(-1e-3, 1), (-1e-17, 3)],
                         ids=["certified-reversal", "inside-margin"])
def test_means_exit_code_of_a_failed_chain(monkeypatch, gap, code):
    # Only a gap certifiably below zero reverses the proven chain (exit 1);
    # one inside its margin is undecided (exit 3).
    import types

    import gammatail.certify as certify

    entry = types.SimpleNamespace(
        x=1.0, y=4.0, geometric=2.0, logarithmic=2.1640425613334453,
        refined=2.2, arithmetic=2.5, chain_ok=False, gap_log_vs_geo=0.16,
        gap_refined_vs_log=gap, gap_arith_vs_refined=0.3, err_bound=1e-16)
    monkeypatch.setattr(certify, "check_mean_chain", lambda pairs:
                        types.SimpleNamespace(entries=(entry,)))
    result, out = run_cli(["means", "--x", "1", "--y", "4"])
    assert result == code
    assert out.splitlines()[1].endswith(",false")


def test_precision_flags_reach_the_computation(monkeypatch):
    # An unreachable residual target or margin turns success into an
    # inconclusive result (exit 3), never a certified violation.
    import gammatail.median as median

    assert run_cli(["median", "--a", "2"])[0] == 0
    # The solve at a = 2 lands on Q = 1/2 exactly, so only a negative
    # target is out of reach.
    monkeypatch.setattr(median, "_REL_TOL", -1.0)
    assert run_cli(["median", "--a", "2"])[0] == 3
    # The means golden above exits 0 at the margin of 8.
    args = ["means", "--x", "1", "--y", "4"]
    assert run_cli(args)[0] == 0
    monkeypatch.setattr(specfun, "STRICT_MARGIN", 1e15)
    assert run_cli(args)[0] == 3


# ----------------------------------------------------------------------
# verify-all
# ----------------------------------------------------------------------


def test_verify_all_subset_text_output():
    code, out = run_cli(["verify-all", "--criteria", "c05,C13"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("C05 PASS")
    assert lines[1].startswith("C13 PASS")
    assert lines[-1] == "ALL PASS"


def test_verify_all_json_shape():
    code, out = run_cli(["verify-all", "--criteria", "C07", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    (entry,) = payload["criteria"]
    assert entry["cid"] == "C07"
    assert entry["passed"] is True
    assert entry["detail"]


def test_verify_all_corrupt_exits_one_and_names_failure():
    code, out = run_cli(["verify-all", "--criteria", "C01", "--corrupt"])
    assert code == 1
    assert "C01 FAIL" in out
    assert out.strip().endswith("FAIL: C01")


def test_verify_all_unknown_criterion_is_usage_error():
    code, _ = run_cli(["verify-all", "--criteria", "C99"])
    assert code == 2


@pytest.mark.parametrize("selection", [",", "", " , "])
def test_verify_all_empty_selection_is_usage_error(selection, capsys):
    # A selection naming no criterion runs nothing, so it cannot pass.
    code, out = run_cli(["verify-all", "--criteria", selection])
    assert code == 2 and out == ""
    assert "no criteria selected" in capsys.readouterr().err


# ----------------------------------------------------------------------
# plumbing: --out, exit-code mapping, determinism, subprocess entry
# ----------------------------------------------------------------------


def test_out_flag_writes_identical_bytes(tmp_path):
    target = tmp_path / "rows.csv"
    args = ["scan", "--c", "0", "--a-min", "1", "--a-max", "4", "--n", "3"]
    _, stdout_text = run_cli(args)
    code, silent = run_cli(args + ["--out", str(target)])
    assert code == 0
    assert silent == ""
    assert target.read_text() == stdout_text


_CLI_OPTIONS = {
    "eval": "--a --c --json --out",
    "scan": "--c --a-min --a-max --n --scale --json --out",
    "certify": "--c --a-min --a-max --n --scale --out",
    "median": "--a --a-min --a-max --n --scale --json --out",
    "means": "--x --y --json --out",
    "verify-all": "--criteria --corrupt --json --out",
}


def test_cli_surface_is_pinned():
    # Each subcommand registers only the options its command reads; adding
    # a flag must be a deliberate edit of this table.
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    surface = {name: " ".join(o for a in p._actions for o in a.option_strings
                              if o not in ("-h", "--help"))
               for name, p in sub.choices.items()}
    assert surface == _CLI_OPTIONS


@pytest.mark.parametrize("argv", [
    "certify --c 0 --threads 4", "verify-all --threads 4",
    "eval --a 1 --c 0 --rel-tol 1e-3", "median --a 1 --strict-margin 2",
    "scan --c 0 --abs-tol 1e-3", "means --x 1 --y 4 --rel-tol 1e-3",
    "eval --a 1 --c 0 --use-oracle",
    "certify --c 0 --strict-margin 8", "means --x 1 --y 4 --strict-margin 8",
    "median --a 1 --rel-tol 1e-12", "median --a 1 --abs-tol 1e-14",
])
def test_removed_flags_are_usage_errors(argv, capsys):
    assert run_cli(argv.split()) == (2, "")
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_all_help_lists_every_criterion():
    # The parser names the criteria without importing the acceptance layer.
    from gammatail.acceptance import CRITERIA
    from gammatail.cli import _CRITERIA_IDS
    assert _CRITERIA_IDS == tuple(CRITERIA)


def test_no_subcommand_and_help_exit_codes():
    code, _ = run_cli([])
    assert code == 2
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--help"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["eval", "--a", "1", "--c"],
    ["scan", "--n", "5", "--a-max", "3", "--c"],
    ["certify", "--n", "9", "--a-max", "3", "--c"],
])
@pytest.mark.parametrize("c", ["-1e-05", "-1E+00", "-2.5e-1", "-inf"])
def test_negative_values_in_exponent_form(argv, c):
    # argparse reads -1e-05 as an option unless it is joined to its flag.
    assert run_cli(argv + [c]) == run_cli(argv[:-1] + [f"--c={c}"])
    assert run_cli(argv + [c])[0] in (0, 2)


def test_internal_errors_exit_four(monkeypatch, capsys):
    # Exit 1 means a certified violation and nothing else: an error no
    # other exit code names is internal, and so is an unforeseen exception.
    for exc in (GammaTailError("synthetic fault"),
                ZeroDivisionError("synthetic fault")):
        def boom(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr("gammatail.certify.certify_monotone", boom)
        assert run_cli(["certify", "--c", "0"]) == (4, "")
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and "synthetic fault" in err


def test_certification_error_maps_to_exit_one(monkeypatch):
    def boom(*args, **kwargs):
        raise CertificationError("synthetic contradiction")

    monkeypatch.setattr("gammatail.certify.certify_monotone", boom)
    code, _ = run_cli(["certify", "--c", "0"])
    assert code == 1


def test_witness_search_error_maps_to_exit_three(monkeypatch):
    def boom(*args, **kwargs):
        raise WitnessSearchError("synthetic exhaustion")

    monkeypatch.setattr("gammatail.certify.certify_monotone", boom)
    code, _ = run_cli(["certify", "--c", "-0.2"])
    assert code == 3


@pytest.mark.parametrize("a", ["1e10", "1e12"])
@pytest.mark.parametrize("command", [
    ["eval", "--c", "-0.2", "--a"],
    ["median", "--a"],
    ["certify", "--c", "-0.2", "--n", "3", "--a-max", "1e13", "--a-min"],
])
def test_kernel_iteration_cap_is_inconclusive_not_a_violation(command, a,
                                                              capsys):
    # The ascending series needs ~sqrt(a) terms and stops at its cap far
    # below these shapes; the result is unknown, not a contradiction.
    code, _ = run_cli(command + [a])
    assert code == 3
    assert "inconclusive: ascending series" in capsys.readouterr().err


def test_repeated_invocations_are_byte_identical():
    args = ["median", "--a-min", "0.01", "--a-max", "100", "--n", "20"]
    _, first = run_cli(args)
    _, second = run_cli(args)
    assert first == second


def test_module_entry_point_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gammatail", "eval", "--a", "0.3", "--c", "-0.5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "a,c,p,method,err_bound\n0.3,-0.5,1.0,plateau,0.0\n"
    bad = subprocess.run(
        [sys.executable, "-m", "gammatail", "means", "--x", "2", "--y", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert bad.returncode == 2
    assert "error" in bad.stderr.lower()


# ----------------------------------------------------------------------
# seeded fuzz
# ----------------------------------------------------------------------


def _fuzz_argv(rng):
    """Seeded argv over eval, median, certify, scan and means: log-uniform
    over each domain, plus the edges c = -a, c = -1/3, a near 2^53, and x
    and y near the ends of the double range; floats print in repr or in
    exponent form, negatives included."""
    def logu(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    def signed(lo, hi):
        return rng.choice((-1.0, 1.0)) * logu(lo, hi)

    def text(v):
        return rng.choice((repr(v), f"{v:.6e}"))

    for verb in ("eval", "median", "certify", "scan", "means") * 60:
        if verb == "eval":
            a = rng.choice((logu(1e-4, 1e8), logu(1e-4, 1e8),
                            2.0 ** 53 * rng.uniform(0.999, 1.001)))
            c = rng.choice((signed(1e-8, 1e3), -a, -1.0 / 3.0,
                            -a * rng.random()))
            yield ["eval", "--a", text(a), "--c", text(c)]
        elif verb == "median":
            yield ["median", "--a", text(logu(1e-4, 1e9))]
        elif verb in ("certify", "scan"):
            c = rng.choice((signed(1e-6, 10.0), -1.0 / 3.0,
                            rng.uniform(-0.37, -0.3)))
            a_max = logu(1.0, 1e3) + max(0.0, -c) + 0.02
            yield [verb, "--c", text(c), "--n", str(rng.randint(3, 30)),
                   "--a-max", text(a_max)]
        else:
            x = rng.choice((logu(5e-324, 1.7e308), logu(5e-324, 1e-290),
                            logu(1e290, 1.7e308)))
            y = rng.choice((x * (1.0 + logu(1e-12, 1e3)),
                            logu(5e-324, 1.79e308)))
            yield ["means", "--x", text(x), "--y", text(min(y, 1.79e308))]


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, which JSON does not
    have."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


# Offsets at the top of the double range, where Q underflows to 0 and its
# bound once came out NaN; drawn from no generator.
_FUZZ_EDGES = [argv for c in ("1e308", "1.79e308") for argv in (
    ["eval", "--a", "1", "--c", c],
    ["scan", "--c", c, "--n", "5"],
    ["certify", "--c", c, "--n", "5"])]


def test_seeded_cli_fuzz_finds_no_violation_and_no_internal_error():
    # None of these inputs contradicts a proven statement, so none may exit
    # 1; exit 4 would be an error the CLI does not name.  Every verb prints
    # JSON (--json is appended without a draw, so the seed's argv stay),
    # and every payload must be strict JSON.
    rng = random.Random(16)
    for argv in [*_fuzz_argv(rng), *_FUZZ_EDGES]:
        if argv[0] != "certify":
            argv = [*argv, "--json"]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code, out = run_cli(argv)
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        if code == 0 or out:
            _strict_json(out)


def test_offsets_near_the_double_range_print_strict_json():
    # Q underflows to 0 with bound 5e-324; certify finds no certified sign
    # between zeros and says so.
    for c in ("1e308", "1.79e308"):
        code, out = run_cli(["eval", "--a", "1", "--c", c, "--json"])
        assert code == 0
        assert _strict_json(out) == {"a": 1.0, "c": float(c), "p": 0.0,
                                     "method": "cf", "err_bound": 5e-324}
        code, out = run_cli(["scan", "--c", c, "--n", "5", "--json"])
        assert code == 0
        assert {(r["p"], r["err_bound"]) for r in _strict_json(out)} == {
            (0.0, 5e-324)}
        code, out = run_cli(["certify", "--c", c, "--n", "5"])
        assert code == 3
        verdict = _strict_json(out)
        assert verdict["direction"] == "inconclusive"
        assert verdict["margin_ratio"] == 0.0
