import argparse
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys

import pytest

import sunflowers
from sunflowers import bounds, cli
from sunflowers.cli import main

from _cli import run, run_json, strip_wall_time, write_family


@pytest.fixture
def triangle(tmp_path):
    return write_family(tmp_path, "triangle.txt", "x=3\n0 1\n0 2\n1 2\n")


@pytest.fixture
def matching(tmp_path):
    return write_family(tmp_path, "matching.txt", "x=6\n0 1\n2 3\n4 5\n")


# -- check ------------------------------------------------------------------

def test_check_true_verdict(capsys, triangle):
    code, report, _ = run_json(capsys, "check", triangle, "--L", "1")
    assert code == 0
    assert report["outputs"]["verdicts"]["L_intersecting"] is True
    assert report["outputs"]["intersection_profile"] == [1]
    assert report["outputs"]["uniformity"] == 2


def test_check_false_verdict_exit_code(capsys, triangle):
    code, report, _ = run_json(capsys, "check", triangle, "--d", "0")
    assert code == 1
    assert report["outputs"]["verdicts"]["d_intersecting"] is False


def test_check_parse_error_reports_line(capsys, tmp_path):
    bad = write_family(tmp_path, "bad.txt", "x=4\n0 1\n1 1 2\n")
    code, out, err = run(capsys, "check", bad)
    assert code == 3
    assert "line 3" in err


def test_jsonable_refuses_an_unknown_object():
    with pytest.raises(TypeError, match="cannot serialize object"):
        cli.jsonable(object())


def test_check_rejects_boolean_ground_size(capsys, tmp_path):
    fam = write_family(tmp_path, "b.json", '{"ground_size": true, "sets": [[0]]}')
    code, out, err = run(capsys, "check", fam)
    assert code == 3 and out == "" and "ground_size" in err


def test_check_refuses_a_negative_uniformity(capsys, triangle):
    # as --d -1 is: no family is -1-uniform, so the question is malformed
    code, out, err = run(capsys, "check", triangle, "--uniform", "-1")
    assert code == 3 and out == ""
    assert "--uniform: uniformity must be >= 0" in err


def test_check_refuses_a_negative_d_before_the_profile(capsys, triangle, monkeypatch):
    from sunflowers import families

    def no_profile(*args):
        raise AssertionError("the intersection profile was built")

    with pytest.raises(families.FamilyError) as refused:
        families.is_d_intersecting(families.SetFamily(3), -1)
    monkeypatch.setattr(cli, "intersection_profile", no_profile)
    monkeypatch.setattr(families, "intersection_profile", no_profile)
    code, out, err = run(capsys, "check", triangle, "--L", "0,1", "--d", "-1")
    assert (code, out, err) == (3, "", f"error: {refused.value}\n")


# -- find -------------------------------------------------------------------

def test_find_sunflower(capsys, tmp_path):
    fam = write_family(tmp_path, "seven.txt",
                       "x=14\n" + "".join(f"{2*i} {2*i+1}\n" for i in range(7)))
    code, report, _ = run_json(capsys, "find", fam, "--r", "3")
    assert code == 0
    assert report["outputs"]["status"] == "found"
    assert report["outputs"]["sunflower"]["core"] == []
    assert len(report["outputs"]["sunflower"]["sets"]) == 3


def test_find_absent_exit_one(capsys, triangle):
    code, report, _ = run_json(capsys, "find", triangle, "--r", "3")
    assert code == 1
    assert report["outputs"]["status"] == "absent"


def test_find_budget_unknown_exit_two(capsys, tmp_path):
    lines = "x=12\n" + "".join(
        f"{a} {b}\n" for a in range(12) for b in range(a + 1, 12)
    )
    fam = write_family(tmp_path, "pairs.txt", lines)
    code, report, _ = run_json(
        capsys, "find", fam, "--r", "3", "--strategy", "brute", "--budget", "5"
    )
    assert code == 2
    assert report["outputs"]["status"] == "unknown"


def test_find_recursive_refuses_a_budget_it_never_reads(capsys, triangle):
    code, out, err = run(capsys, "find", triangle, "--r", "3", "--strategy", "recursive",
                         "--budget", "7")
    assert code == 3 and out == ""
    assert "--strategy recursive does not read --budget" in err
    # without --budget the default is still echoed
    code, report, _ = run_json(capsys, "find", triangle, "--r", "3", "--strategy", "recursive")
    assert code == 2 and report["parameters"]["budget"] == 500_000


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_find_digests_the_bytes_it_parses_from_a_pipe(capsys):
    # as `find <(printf ...) --r 3` passes it: a pipe can be read only once
    data = b"x=6\n0 1\n2 3\n4 5\n"
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        code, report, _ = run_json(capsys, "find", f"/dev/fd/{read_end}", "--r", "3")
    finally:
        os.close(read_end)
    assert code == 0 and report["outputs"]["status"] == "found"
    assert report["input_digest"] == "sha256:" + hashlib.sha256(data).hexdigest()


def test_crlf_family_is_digested_raw_and_parsed_as_text(capsys, tmp_path):
    data = b"x=3\r\n0 1\r\n0 2\r\n1 2\r\n"
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(data)
    lf = write_family(tmp_path, "lf.txt", "x=3\n0 1\n0 2\n1 2\n")
    code, report, _ = run_json(capsys, "find", str(crlf), "--r", "3")
    _, plain, _ = run_json(capsys, "find", lf, "--r", "3")
    assert code == 1
    assert report["input_digest"] == "sha256:" + hashlib.sha256(data).hexdigest()
    assert report["input_digest"] != plain["input_digest"]
    assert report["outputs"] == plain["outputs"]


# -- bounds -----------------------------------------------------------------

def test_bounds_single_values(capsys):
    code, report, _ = run_json(capsys, "bounds", "--which", "erdos-rado", "-n", "3", "-r", "3")
    assert code == 0 and report["outputs"]["bound"]["value"] == "48"
    code, report, _ = run_json(
        capsys, "bounds", "--which", "l-intersecting", "-n", "3", "-s", "1", "-r", "3"
    )
    assert report["outputs"]["bound"]["value"] == "56"
    code, report, _ = run_json(
        capsys, "bounds", "--which", "l-multinomial", "-n", "2", "--L", "0", "-r", "3"
    )
    assert report["outputs"]["bound"]["value"] == "6"


def test_bounds_all_includes_crossover(capsys):
    code, report, _ = run_json(
        capsys, "bounds", "--which", "all", "-n", "4", "-r", "3", "-s", "2", "-d", "2"
    )
    assert code == 0
    names = [b["name"] for b in report["outputs"]["bounds"]]
    assert "erdos-rado" in names and "d-intersecting" in names
    assert len(report["outputs"]["crossover"]["rows"]) == 4


def test_bounds_missing_params_error(capsys):
    code, out, err = run(capsys, "bounds", "--which", "erdos-rado", "-n", "3")
    assert code == 3 and "needs parameters" in err


@pytest.mark.parametrize("argv, unread", [
    (["crossover", "-n", "4", "-r", "3", "-d", "2", "-s", "5", "--L", "0,1"], "-s, --L, -d"),
    (["erdos-rado", "-n", "4", "-r", "3", "-d", "7"], "-d"),
    (["pigeonhole-limit", "-n", "4", "-r", "3", "-s", "2"], "-s"),
    (["l-multinomial", "-n", "4", "-r", "3", "--L", "0", "-s", "1"], "-s"),
    (["l-intersecting", "-n", "4", "-r", "3", "-s", "2", "--L", "0,1"], "--L"),
    (["three-sunflower", "-n", "4", "-r", "3", "-s", "2"], "-r"),
    (["three-sunflower", "-n", "4", "-s", "2", "--L", "0,1"], "--L"),
    (["rlogn", "-n", "4", "-r", "3", "--L", "0"], "--L"),
    (["d-intersecting", "-n", "4", "-r", "3", "-d", "2", "-s", "1"], "-s"),
    (["falling-factorial", "-n", "4", "-r", "3", "-d", "2", "--L", "1"], "--L"),
    (["erdos-rado", "-n", "4", "-r", "3", "-C", "5", "--log-base", "2", "--digits", "7"],
     "-C, --digits, --log-base"),
    (["three-sunflower", "-n", "4", "-s", "2", "--log-base", "2", "-C", "5"], "-C, --log-base"),
    (["falling-factorial", "-n", "4", "-r", "3", "-d", "2", "--digits", "9"], "--digits"),
])
def test_bounds_refuses_unread_flags(capsys, argv, unread):
    code, out, err = run(capsys, "bounds", "--which", *argv)
    assert code == 3 and out == ""
    assert f"--which {argv[0]} does not read {unread}" in err


# one valid value for each bound parameter, keyed by its flag
BOUND_FLAG_VALUES = {"-n": "4", "-r": "3", "-s": "2", "--L": "0,1", "-d": "2", "-C": "1/2",
                     "--digits": "9", "--log-base": "2"}
PARAMETER_FLAGS = dict(zip(("n", "r", "s", "L", "d", "C", "digits", "log_base"), BOUND_FLAG_VALUES))


@pytest.mark.parametrize("which", [*bounds._BOUNDS, "crossover"])
def test_bounds_reads_exactly_the_flags_of_its_table_row(capsys, which):
    reads = [PARAMETER_FLAGS[p] for p in bounds.PARAMETERS_READ[which]]
    argv = ["bounds", "--which", which]
    for flag in reads:
        argv += [flag, BOUND_FLAG_VALUES[flag]]
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    if which != "crossover":
        echoed = [p for p in bounds.PARAMETERS_READ[which] if p != "digits"]
        assert list(report["outputs"]["bound"]["params"]) == sorted(echoed)
    for flag in BOUND_FLAG_VALUES.keys() - set(reads):
        code, out, err = run(capsys, *argv, flag, BOUND_FLAG_VALUES[flag])
        assert code == 3 and out == "", flag
        assert f"--which {which} does not read {flag}" in err


def test_bounds_all_refuses_a_parameter_outside_a_bounds_domain(capsys):
    # -d 0 is read by falling-factorial but outside d-intersecting's d >= 1
    code, out, err = run(capsys, "bounds", "--which", "all", "-n", "6", "-r", "3", "-d", "0")
    assert code == 3 and out == "" and "d >= 1" in err
    code, out, err = run(capsys, "bounds", "--which", "all", "-n", "6", "-r", "3",
                         "-s", "0", "--L", "0,9")
    assert code == 3 and out == ""
    # a bound whose parameters are not all given is skipped
    code, report, _ = run_json(capsys, "bounds", "--which", "all", "-n", "6", "-r", "3")
    assert code == 0
    names = [b["name"] for b in report["outputs"]["bounds"]]
    assert names == ["erdos-rado", "pigeonhole-limit", "rlogn"]


def test_bounds_reads_every_flag_it_is_given(capsys):
    for argv in (["l-intersecting", "-n", "4", "-r", "3", "--L", "0,1"],
                 ["three-sunflower", "-n", "4", "--L", "0,1"],
                 ["three-sunflower", "-n", "4", "-s", "2"],
                 ["all", "-n", "4", "-r", "3", "-s", "2", "--L", "0,1", "-d", "2"]):
        code, report, _ = run_json(capsys, "bounds", "--which", *argv)
        assert code == 0, argv
        if argv[0] != "all":
            assert report["outputs"]["bound"]["params"]["s"] == 2


def test_bounds_echoes_real_flags_given_or_defaulted(capsys):
    for argv, echoed in (
        (["rlogn", "-n", "4", "-r", "3", "-C", "5", "--log-base", "2", "--digits", "7"],
         {"C": "5", "digits": 7, "log_base": "2"}),
        (["crossover", "-n", "4", "-r", "3", "--digits", "9"], {"C": "1", "digits": 9, "log_base": "e"}),
        (["three-sunflower", "-n", "4", "-s", "2", "--digits", "9"],
         {"C": "1", "digits": 9, "log_base": "e"}),
        (["erdos-rado", "-n", "4", "-r", "3"], {"C": "1", "digits": 50, "log_base": "e"}),
        (["all", "-n", "4", "-r", "3", "-C", "1/2", "--log-base", "2"],
         {"C": "1/2", "digits": 50, "log_base": "2"}),
    ):
        code, report, _ = run_json(capsys, "bounds", "--which", *argv)
        assert code == 0, argv
        assert {k: report["parameters"][k] for k in echoed} == echoed, argv


@pytest.mark.parametrize("argv, flag", [
    (["bounds", "--which", "rlogn", "-n", "4", "-r", "3", "-C", "x"], "-C"),
    (["bounds", "--which", "rlogn", "-n", "4", "-r", "3", "--log-base", "x"], "--log-base"),
    (["spread", "{fam}", "--kappa", "x"], "--kappa"),
    (["spread", "{fam}", "--alpha", "x"], "--alpha"),
    (["encode-audit", "{fam}", "--px", "2", "--d", "1", "--delta", "x"], "--delta"),
    (["experiment", "{fam}", "--alpha-grid", "0.1:x:0.1", "--trials", "10", "--seed", "1"],
     "--alpha-grid"),
    (["spread", "{fam}", "--alpha", "1/0"], "--alpha"),
])
def test_every_rational_flag_names_itself_when_refused(capsys, triangle, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([triangle if a == "{fam}" else a for a in argv])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected a rational like 2, 1/3, or 0.25, got " in captured.err
    assert "invalid" not in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "{fam}", "--L", "0,x"],
    ["bounds", "--which", "l-multinomial", "-n", "3", "-r", "3", "--L", "0,x"],
    ["gen", "random-l", "6", "2", "--L", "0,x", "--count", "3", "--seed", "1"],
])
def test_every_integer_list_flag_names_itself_when_refused(capsys, triangle, argv):
    with pytest.raises(SystemExit) as exc:
        main([triangle if a == "{fam}" else a for a in argv])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --L: expected a comma-separated integer list, got '0,x'" in captured.err


def test_check_echoes_the_integer_list_it_used(capsys, triangle):
    code, report, _ = run_json(capsys, "check", triangle, "--L", "1, 0,0")
    assert code == 0
    assert report["parameters"]["L"] == "0,1"
    assert report["outputs"]["verdicts"]["L_intersecting"] is True


def test_log_base_is_echoed_as_it_is_used(capsys):
    for which, extra in (("rlogn", []), ("d-intersecting", ["-d", "2"]), ("crossover", [])):
        code, report, _ = run_json(capsys, "bounds", "--which", which, "-n", "4", "-r", "3",
                                   *extra, "--log-base", "2.0", "-C", "0.5")
        assert code == 0
        assert report["parameters"]["log_base"] == "2" and report["parameters"]["C"] == "1/2"
        echoed = report["outputs"]["bound"]["params"] if which != "crossover" \
            else report["outputs"]["crossover"]
        assert echoed["log_base"] == "2" and echoed["C"] == "1/2"
        code, same, _ = run_json(capsys, "bounds", "--which", which, "-n", "4", "-r", "3",
                                 *extra, "--log-base", "2", "-C", "1/2")
        assert same["outputs"] == report["outputs"]


def test_echoed_defaults_are_the_librarys(capsys, triangle):
    import inspect

    from sunflowers import crossover_report, d_intersecting_bound, find_any, rlogn_bound
    from sunflowers.cli import build_parser, jsonable
    from sunflowers.generators import gen_random_L_intersecting

    def default(function, name):
        return inspect.signature(function).parameters[name].default

    _, report, _ = run_json(capsys, "bounds", "--which", "all", "-n", "4", "-r", "3", "-d", "2")
    for name in ("C", "digits", "log_base"):
        for function in (bounds.bound_report, rlogn_bound, d_intersecting_bound, crossover_report):
            assert report["parameters"][name] == jsonable(default(function, name)), (name, function)
    assert default(bounds.three_sunflower_bound, "digits") == report["parameters"]["digits"]
    assert default(bounds.certified_compare, "digits") == report["parameters"]["digits"]
    _, report, _ = run_json(capsys, "find", triangle, "--r", "2")
    assert report["parameters"]["budget"] == default(find_any, "budget")
    assert report["parameters"]["strategy"] == default(find_any, "strategy")
    args = build_parser().parse_args(["gen", "random-l", "6", "2", "--L", "0", "--count", "3"])
    assert args.budget == default(gen_random_L_intersecting, "budget")


def test_check_text_format_renders_json_scalars(capsys, matching, triangle):
    code, out, _ = run(capsys, "check", matching, "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert "  L: null" in lines and "seeds: null" in lines
    at = lines.index("  intersection_profile:")
    assert lines[at + 1:at + 3] == ["    - 0", "  verdicts: {}"]
    code, out, _ = run(capsys, "check", triangle, "--L", "1", "--d", "0", "--format", "text")
    assert code == 1
    assert "    L_intersecting: true" in out.splitlines()
    assert "    d_intersecting: false" in out.splitlines()
    assert "None" not in out and "True" not in out and "False" not in out


def test_find_text_format_renders_json_scalars_without_trailing_blanks(capsys, triangle):
    code, out, _ = run(capsys, "find", triangle, "--r", "3", "--format", "text")
    assert code == 1
    lines = out.splitlines()
    assert "  status: absent" in lines and "  sunflower: null" in lines
    assert "  note:" in lines and "    found: false" in lines
    assert all(line == line.rstrip() for line in lines)
    assert "None" not in out and "False" not in out


def test_bounds_text_format(capsys):
    code, out, err = run(capsys, "bounds", "--which", "erdos-rado", "-n", "3", "-r", "3",
                         "--format", "text")
    assert code == 0 and "value: 48" in out


# -- spread -----------------------------------------------------------------

def test_spread_reports(capsys, tmp_path):
    fam = write_family(
        tmp_path, "pairs6.txt",
        "x=6\n" + "".join(f"{a} {b}\n" for a in range(6) for b in range(a + 1, 6)),
    )
    code, report, _ = run_json(
        capsys, "spread", fam, "--kappa", "3", "--d", "2", "--alpha", "1/2", "--r", "3"
    )
    assert code == 0
    out = report["outputs"]
    assert out["spread_kappa"] == 3.0
    assert out["is_kappa_spread"] is True
    assert out["disjointness"]["contrapositive_ok"] is True
    code, _, _ = run_json(capsys, "spread", fam, "--kappa", "4")
    assert code == 1  # definitive false verdict


@pytest.mark.parametrize("text,exact", [("x=4\n0\n1 2\n1 3\n", "11/16"), ("x=3\n", "0")],
                         ids=["mixed", "empty"])
def test_spread_reports_no_kappa_for_an_empty_or_mixed_family(capsys, tmp_path, text, exact):
    fam = write_family(tmp_path, "f.txt", text)
    code, report, _ = run_json(capsys, "spread", fam, "--alpha", "1/2", "--r", "2")
    assert code == 0
    out = report["outputs"]
    assert out["spread_kappa"] is None
    assert out["exact_satisfying"] == exact and out["disjointness"]["contrapositive_ok"] is True
    code, out, err = run(capsys, "spread", fam, "--kappa", "2")
    assert code == 3 and out == "" and "n-uniform family" in err


def test_spread_r_above_the_exact_limit_is_sampled(capsys, tmp_path):
    _, out, _ = run(capsys, "gen", "random-uniform", "30", "3", "40", "--seed", "5")
    fam = write_family(tmp_path, "f30.txt", out)
    code, _, err = run(capsys, "spread", fam, "--r", "3")
    assert code == 3 and "trials and seed are required" in err
    code, report, _ = run_json(capsys, "spread", fam, "--r", "3", "--trials", "2000", "--seed", "1")
    assert code == 0
    assert report["outputs"]["disjointness"]["method"] == "sampled"


def test_spread_alpha_above_the_exact_limit_needs_trials(capsys, tmp_path, monkeypatch):
    from sunflowers import spread

    _, out, _ = run(capsys, "gen", "random-uniform", "30", "3", "40", "--seed", "5")
    fam = write_family(tmp_path, "f30.txt", out)
    monkeypatch.setattr(spread, "spread_kappa", lambda family: pytest.fail("evaluated"))
    code, out, err = run(capsys, "spread", fam, "--alpha", "1/2")
    assert code == 3 and out == "" and "--alpha needs --trials at ground size 30" in err
    monkeypatch.undo()
    code, report, _ = run_json(capsys, "spread", fam, "--alpha", "1/2",
                               "--trials", "200", "--seed", "1")
    assert code == 0 and report["outputs"]["sampled_satisfying"]["trials"] == 200


@pytest.mark.parametrize("trials", [str(10**400), "100000000"], ids=["10**400", "1e8"])
@pytest.mark.parametrize("argv", [
    ["spread", "{fam}", "--alpha", "1/2", "--seed", "1"],
    ["spread", "{fam}", "--r", "2", "--seed", "1"],
    ["experiment", "{fam}", "--alpha-grid", "0.1:0.2:0.1", "--seed", "1"],
], ids=["spread-alpha", "spread-r", "experiment"])
def test_trials_over_the_bit_limit_are_refused_before_any_draw(
        capsys, tmp_path, monkeypatch, argv, trials):
    import numpy

    _, out, _ = run(capsys, "gen", "random-uniform", "30", "3", "40", "--seed", "5")
    fam = write_family(tmp_path, "f30.txt", out)
    monkeypatch.setattr(numpy.random, "Philox", lambda *a, **k: pytest.fail("drew"))
    code, out, err = run(capsys, *(a.format(fam=fam) for a in argv), "--trials", trials)
    assert code == 3 and out == ""
    assert err == f"error: {trials} trials over 30 elements exceed 1073741824 sampled bits\n"


def test_spread_sampling_requires_seed(capsys, triangle):
    code, out, err = run(capsys, "spread", triangle, "--alpha", "1/2", "--trials", "100")
    assert code == 3 and "--seed" in err


@pytest.mark.parametrize("flags,message", [
    (["--trials", "100", "--seed", "1"], "--alpha or --r"),
    (["--seed", "7"], "--alpha or --r"),
    (["--kappa", "2", "--trials", "100"], "--alpha or --r"),
    (["--d", "2"], "--d needs --kappa"),
    (["--alpha", "1/2", "--d", "2"], "--d needs --kappa"),
    (["--alpha", "1/2", "--seed", "5"], "--seed needs --trials"),
    (["--r", "2", "--trials", "100", "--seed", "5"], "--trials needs --alpha"),
])
def test_spread_refuses_flags_it_would_ignore(capsys, triangle, flags, message):
    code, out, err = run(capsys, "spread", triangle, *flags)
    assert code == 3
    assert out == ""
    assert message in err


# -- experiment ---------------------------------------------------------------

def test_experiment_csv(capsys, triangle):
    code, out, err = run(
        capsys, "experiment", triangle,
        "--alpha-grid", "0.25:0.75:0.25", "--trials", "2000", "--seed", "9",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,estimate,stderr,exact"
    assert len(lines) == 4
    for line in lines[1:]:
        alpha, est, stderr, exact = line.split(",")
        assert 0 < float(alpha) < 1
        assert 0 <= float(est) <= 1
        assert "/" in exact or exact in ("0", "1")


def test_experiment_requires_seed(capsys, triangle):
    code, _, err = run(capsys, "experiment", triangle,
                       "--alpha-grid", "0.5:0.5:0.1", "--trials", "10")
    assert code == 3 and "--seed" in err


@pytest.mark.parametrize("flags", [
    ["--trials", "0", "--seed", "1"],
    ["--trials", "10", "--seed", "-1"],
])
def test_experiment_refuses_before_writing_the_header(capsys, triangle, flags):
    code, out, err = run(capsys, "experiment", triangle, "--alpha-grid", "0.5:0.5:0.1", *flags)
    assert code == 3
    assert out == ""
    assert "must be >= " in err


def test_experiment_has_no_format_flag(capsys, triangle):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", triangle, "--alpha-grid", "0.5:0.5:0.1",
              "--trials", "10", "--seed", "1", "--format", "text"])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format" in captured.err


def test_experiment_singleton_family_matches_closed_form(capsys, tmp_path):
    fam = write_family(tmp_path, "single.txt", "x=6\n0 1\n")
    code, out, _ = run(
        capsys, "experiment", fam,
        "--alpha-grid", "0.1:0.9:0.1", "--trials", "100000", "--seed", "3",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 9
    from fractions import Fraction

    for row in rows:
        alpha_s, est_s, stderr_s, exact_s = row.split(",")
        alpha = Fraction(alpha_s).limit_denominator(10)
        truth = alpha**2
        assert Fraction(exact_s) == truth
        sigma = max(float(stderr_s), 1e-9)
        assert abs(float(est_s) - float(truth)) <= 3 * sigma


def test_experiment_refuses_a_grid_over_the_row_budget_before_any_row(
        capsys, triangle, monkeypatch):
    from sunflowers import spread

    monkeypatch.setattr(spread, "sample_satisfying", lambda *args: pytest.fail("sampled"))
    code, out, err = run(capsys, "experiment", triangle, "--alpha-grid", "0.1:0.9:1/10000000",
                         "--trials", "5", "--seed", "1")
    assert code == 3 and out == ""
    assert "--alpha-grid: 8000001 rows exceed budget 1000000" in err


def test_experiment_refuses_a_sweep_over_the_bit_limit_before_any_row(
        capsys, tmp_path, monkeypatch):
    from sunflowers import spread

    _, out, _ = run(capsys, "gen", "random-uniform", "30", "3", "40", "--seed", "1")
    fam = write_family(tmp_path, "f30.txt", out)
    monkeypatch.setattr(spread, "sample_satisfying", lambda *args: pytest.fail("sampled"))
    # each row's 30 000 000 trials x 30 elements fit 2^30 bits; the 99 rows do not
    code, out, err = run(capsys, "experiment", fam, "--alpha-grid", "0.01:0.99:0.01",
                         "--trials", "30000000", "--seed", "1")
    assert code == 3 and out == ""
    assert err == ("error: --alpha-grid: 99 rows of 30000000 trials over 30 elements "
                   "exceed 1073741824 sampled bits\n")


# -- encode-audit ----------------------------------------------------------------

def test_encode_audit_pass(capsys, matching):
    code, report, _ = run_json(
        capsys, "encode-audit", matching, "--px", "3", "--d", "1", "--delta", "1"
    )
    assert code == 0
    enc = report["outputs"]["encoding"]
    assert enc["passed"] is True
    assert enc["bound"] == "320"
    assert report["outputs"]["markov"]["holds"] is True


def test_encode_audit_validation(capsys, matching):
    code, _, err = run(capsys, "encode-audit", matching, "--px", "0", "--d", "1")
    assert code == 3


def test_encode_audit_refuses_a_nonpositive_delta_before_the_pass(capsys, matching, monkeypatch):
    from sunflowers import encoding, families

    def no_pass(*args):
        raise AssertionError("the audit started")

    with pytest.raises(ValueError) as refused:
        encoding.audit_markov_step(families.SetFamily(6, [[0, 1]]), 3, 0, 1)
    monkeypatch.setattr(encoding, "_bad_members_by_w", no_pass)
    monkeypatch.setattr(cli, "intersection_profile", no_pass)
    monkeypatch.setattr(families, "intersection_profile", no_pass)
    code, out, err = run(capsys, "encode-audit", matching, "--px", "3", "--d", "1",
                         "--delta", "0")
    assert (code, out, err) == (3, "", f"error: {refused.value}\n")


# -- gen ---------------------------------------------------------------------------

def test_gen_sunflower_text(capsys):
    code, out, _ = run(capsys, "gen", "sunflower", "2", "1", "4")
    assert code == 0
    assert out == "x=6\n0 1 2\n0 1 3\n0 1 4\n0 1 5\n"


def test_gen_single_intersection_is_no_longer_a_kind(capsys):
    # a sunflower with core size t is `gen sunflower t n-t count`
    with pytest.raises(SystemExit) as exc:
        main(["gen", "single-intersection", "3", "1", "4"])
    assert exc.value.code == 3
    assert "invalid choice: 'single-intersection'" in capsys.readouterr().err


def test_gen_requires_seed_for_random(capsys):
    code, _, err = run(capsys, "gen", "random-uniform", "8", "2", "5")
    assert code == 3 and "--seed" in err


def test_gen_random_uniform_of_no_sets_over_a_large_ground(capsys):
    # C(60, 5) sets is the rejection path; C(10, 2) is the listing one
    for x, n in (("60", "5"), ("10", "2")):
        assert run(capsys, "gen", "random-uniform", x, n, "0", "--seed", "1") == (0, f"x={x}\n", "")
        code, out, err = run(capsys, "gen", "random-uniform", x, n, "0", "--seed", "-1")
        assert code == 3 and out == "" and "seed must be >= 0" in err


def test_gen_round_trips_through_check(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "transversal", "2", "2")
    fam = write_family(tmp_path, "tv.txt", out)
    code, report, _ = run_json(capsys, "check", fam, "--uniform", "2")
    assert code == 0 and report["outputs"]["members"] == 4


def test_gen_json_format(capsys):
    code, out, _ = run(capsys, "gen", "all-subsets", "4", "2", "--format", "json")
    data = json.loads(out)
    assert data["ground_size"] == 4 and len(data["sets"]) == 6


def test_gen_random_l_names_its_stop_reason(capsys):
    # all 66 pairs of a 12-set are {0,1}-intersecting, so 70 cannot be reached
    code, out, err = run(capsys, "gen", "random-l", "12", "2", "--L", "0,1",
                         "--count", "70", "--seed", "7")
    assert code == 0 and len(out.splitlines()) == 1 + 66
    assert "stopped: proved-maximal" in err
    code, out, err = run(capsys, "gen", "random-l", "12", "2", "--L", "0,1",
                         "--count", "70", "--seed", "7", "--budget", "1")
    assert code == 0 and len(out.splitlines()) == 1 + 1
    assert "stopped: budget" in err
    code, out, err = run(capsys, "gen", "random-l", "12", "2", "--L", "0,1",
                         "--count", "5", "--seed", "7")
    assert code == 0 and len(out.splitlines()) == 1 + 5
    assert "stopped: target" in err


@pytest.mark.parametrize("budget, sets, stop", [("0", [], "budget"), ("1", [[]], "proved-maximal")])
def test_gen_random_l_of_empty_sets_honours_the_budget(capsys, budget, sets, stop):
    code, out, err = run(capsys, "gen", "random-l", "5", "0", "--L", "", "--count", "3",
                         "--seed", "1", "--budget", budget, "--format", "json")
    assert code == 0 and json.loads(out)["sets"] == sets
    assert err == f"note: reached {len(sets)} of 3 sets; stopped: {stop}\n"


# -- README -------------------------------------------------------------------------

def readme():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(path, encoding="utf-8") as f:
        return f.read()


def test_readme_python_example_runs(capsys):
    # the one Python block of the README runs as written, on the exported names
    blocks = readme().split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("```", 1)[0], {})
    assert capsys.readouterr().out.splitlines() == [
        "ElementSet([]) [(0, 1), (2, 3), (4, 5)]", "False", "2685817/4782969"]


def test_readme_cli_examples_run(capsys, tmp_path):
    # every command of the README's CLI block, on the family its gen random-l line makes
    block = readme().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("sunflowers ")]
    make = [line for line in lines if line.startswith("sunflowers gen random-l ")]
    assert len(lines) >= 12 and len(make) == 1
    code, out, _ = run(capsys, *shlex.split(make[0])[1:])
    assert code == 0
    fam = write_family(tmp_path, "family.txt", out)
    for line in lines:
        argv = [fam if a == "family.txt" else a for a in shlex.split(line)[1:]]
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1) and out.strip(), line
        if argv[:3] == ["bounds", "--which", "all"]:
            header = ["d", "d_intersecting", "falling_factorial", "smaller"]
            assert header in [row.split() for row in out.splitlines()], line


# -- reproducibility and global flags ------------------------------------------------

def test_seeded_reports_reproducible(capsys, tmp_path):
    fam = write_family(tmp_path, "f.txt", "x=8\n0 1\n2 3\n4 5\n6 7\n")
    argvs = [
        ["spread", fam, "--alpha", "1/3", "--trials", "4000", "--seed", "5"],
        ["find", fam, "--r", "3"],
        ["check", fam, "--d", "0"],
        ["encode-audit", fam, "--px", "4", "--d", "1", "--delta", "1/2"],
    ]
    for argv in argvs:
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert strip_wall_time(out1) == strip_wall_time(out2)


def test_gen_and_experiment_byte_reproducible(capsys, triangle):
    _, out1, _ = run(capsys, "gen", "random-uniform", "12", "3", "9", "--seed", "4")
    _, out2, _ = run(capsys, "gen", "random-uniform", "12", "3", "9", "--seed", "4")
    assert out1 == out2
    argv = ["experiment", triangle, "--alpha-grid", "0.2:0.8:0.3",
            "--trials", "1000", "--seed", "2"]
    _, csv1, _ = run(capsys, *argv)
    _, csv2, _ = run(capsys, *argv)
    assert csv1 == csv2


def test_threads_flag_is_a_usage_error(capsys, triangle):
    with pytest.raises(SystemExit) as exc:
        main(["check", triangle, "--threads", "4"])
    assert exc.value.code == 3
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spread", "{fam}", "--kappa", "1"],
    ["check", "{fam}"],
    ["find", "{fam}", "--r", "3"],
])
def test_weighted_family_file_refused(capsys, tmp_path, argv):
    text = '{"ground_size": 3, "sets": [[0, 1], [0, 2], [1, 2]], "weights": ["1", "1/2", "2"]}'
    fam = write_family(tmp_path, "w.json", text)
    code, out, err = run(capsys, *(a.format(fam=fam) for a in argv))
    assert code == 3
    assert out == ""
    assert "weights are no longer read; remove the 'weights' key" in err


@pytest.mark.parametrize("argv,expected", [
    (["find", "{fam}", "--r", "3"], 1),
    (["gen", "transversal", "3", "2"], 0),
    (["experiment", "{fam}", "--alpha-grid", "0.2:0.8:0.3", "--trials", "100", "--seed", "1"], 0),
])
def test_closed_stdout_is_quiet_and_keeps_exit_code(triangle, argv, expected):
    src = os.path.dirname(os.path.dirname(sunflowers.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sunflowers.cli", *(a.format(fam=triangle) for a in argv)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == expected
    assert proc.stderr == b""


def test_broken_pipe_closes_the_null_device_fd_it_opened(monkeypatch):
    # `_write` moves stdout to the null device; the fd it opened must not leak
    real_open, opened = os.open, []

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    class ClosedReader(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return write_end

    read_end, write_end = os.pipe()
    try:
        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(sys, "stdout", ClosedReader())
        cli._write("report\n")
        monkeypatch.undo()
        assert len(opened) == 1
        with pytest.raises(OSError):
            os.fstat(opened[0])
        assert os.fstat(write_end).st_rdev == os.stat(os.devnull).st_rdev
    finally:
        monkeypatch.undo()
        os.close(read_end)
        os.close(write_end)


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


def _parsers(parser):
    """`parser` and every parser built under it, depth first; a name
    registered without its parser (None) is skipped."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                if sub is not None:
                    yield from _parsers(sub)


def test_the_help_width_is_read_once_per_process(monkeypatch):
    # argparse's stock formatter asks the terminal for its width in its
    # constructor, and `add_argument` makes one per argument: 74 per build
    real = shutil.get_terminal_size
    calls = []
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(cli._HelpFormatter, "width", None)
    cli.build_parser()
    cli.build_parser()
    assert len(calls) <= 1


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_help_is_what_the_stock_formatter_gives_at_the_same_width(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setattr(cli._HelpFormatter, "width", None)
    parsers = list(_parsers(cli.build_parser()))
    assert len(parsers) == 13  # the top level, 7 subcommands and 5 `gen` kinds
    ours = [(p.format_help(), p.format_usage()) for p in parsers]
    # the top level keeps its description's line breaks; no subparser has one
    parsers[0].formatter_class = argparse.RawDescriptionHelpFormatter
    for p in parsers[1:]:
        assert p.description is None
        p.formatter_class = argparse.HelpFormatter
    assert ours == [(p.format_help(), p.format_usage()) for p in parsers]


# one passing line per `gen` kind
_KIND_LINES = ["gen sunflower 1 2 3", "gen transversal 2 2", "gen all-subsets 4 2",
               "gen random-uniform 10 3 5 --seed 1",
               "gen random-l 12 3 --L 0,1 --count 5 --seed 1"]


@pytest.mark.parametrize("argv,count", [
    *((["check", "f"], 8), (["find", "f", "--r", "3"], 8), (["bounds"], 8), (["spread"], 8),
      (["experiment"], 8), (["encode-audit"], 8)),  # `gen` left without its kinds
    *((["gen"], 13), (["-h"], 13), (["--", "check"], 13),
      (["frobnicate"], 13), ([], 13), (None, 13), (["gen", "-h"], 13), (["gen", "frobnicate"], 13)),
    *((line.split(), 3) for line in _KIND_LINES),  # the top level, `gen` and the kind
])
def test_only_a_command_line_that_can_name_gen_builds_its_kinds(argv, count):
    assert len(list(_parsers(cli.build_parser(argv)))) == count


@pytest.mark.parametrize("argv", [
    "", "-h", "frobnicate", "find", "find -h", "check {fam} --L 1", "find {fam} --r 3",
    "check {fam} --L x", "gen", "gen -h", "gen random-l -h", "gen frobnicate",
    "-- gen transversal 2 2", "find gen --r 3", *_KIND_LINES,
    # a `gen` kind line failing at each level: the top level (whose usage
    # lists every subcommand), the kind's required option, an integer, a
    # choice, and the kind's help
    "gen random-uniform 10 3 5 --seed 1 extra", "gen random-l 12 3 --L 0,1",
    "gen transversal 2 x", "gen sunflower 1 2 3 --format bogus",
])
def test_a_command_line_runs_as_with_every_parser_built(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    fam = write_family(tmp_path, "gen", "x=3\n0 1\n0 2\n1 2\n")  # `find gen` names this file

    def outcome():
        monkeypatch.setattr(cli._HelpFormatter, "width", None)
        try:
            code = main(shlex.split(argv.format(fam=fam)))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, strip_wall_time(out), err

    every = cli.build_parser
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        monkeypatch.setattr(cli, "build_parser", every)
        ours = outcome()
        monkeypatch.setattr(cli, "build_parser", lambda argv=None: every())
        assert ours == outcome(), columns


def test_a_type_error_is_an_internal_error(capsys, triangle, monkeypatch):
    # no input raises TypeError on purpose: argparse turns a flag parser's
    # into a usage error, so one reaching `main` is a defect
    def broken(*args, **kwargs):
        raise TypeError("cannot serialize set")

    monkeypatch.setattr(cli, "find_any", broken)
    code, out, err = run(capsys, "find", triangle, "--r", "2")
    assert code == 4 and out == ""
    assert "internal error: TypeError('cannot serialize set')" in err


@pytest.mark.parametrize("exc", [ZeroDivisionError("division by zero"),
                                 OverflowError("int too large to convert to float")])
def test_an_arithmetic_error_is_an_internal_error(capsys, triangle, monkeypatch, exc):
    # every refusal is a ValueError, so an ArithmeticError reaching `main` is a defect
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "find_any", broken)
    code, out, err = run(capsys, "find", triangle, "--r", "2")
    assert code == 4 and out == ""
    assert err == f"internal error: {exc!r}\n"


@pytest.mark.parametrize("argv,message", [
    ("bounds --which rlogn -n 3 -r 2 --log-base 1", "log base must exceed 1, got 1"),
    ("bounds --which pigeonhole-limit -n 0 -r 3", "need n >= 1 and r >= 2, got n=0, r=3"),
    ("bounds --which l-multinomial -n 4 -r 3 --L=-1,2", "intersection sizes must be >= 0, got -1"),
    ("bounds --which three-sunflower -n 3 -s 0", "need n >= 1 and s >= 1, got n=3, s=0"),
    ("bounds --which crossover -n 1 -r 3", "need n >= 2 and r >= 2, got n=1, r=3"),
    ("experiment {fam} --alpha-grid 0.1:0.2 --trials 5 --seed 1",
     "argument --alpha-grid: expected start:stop:step, got '0.1:0.2'"),
    ("check {comments}", "missing header line 'x=<ground_size>'"),
    ("check {sets5}", "'sets' must be a list of element lists"),
    ("gen transversal 0 2", "need blocks >= 1 and block_size >= 1, got (0, 2)"),
    ("gen random-l 6 2 --L 0 --count -1 --seed 1", "target_count must be >= 0, got -1"),
    ("gen random-l 3 4 --L 0 --count 2 --seed 1", "need n <= x, got n=4, x=3"),
    ("spread {fam} --kappa 2 --d 9", "need 0 <= d <= n, got d=9"),
    ("spread {fam} --alpha 3/2", "alpha must be in [0, 1], got 3/2"),
    ("spread {fam} --r 1", "need r >= 2, got 1"),
])
def test_input_refusals_exit_three_and_say_why(capsys, tmp_path, argv, message):
    files = {
        "fam": write_family(tmp_path, "f.txt", "x=5\n0 1 2\n0 3 4\n1 2 3\n"),
        "comments": write_family(tmp_path, "comments.txt", "# a\n# b\n"),
        "sets5": write_family(tmp_path, "sets5.json", '{"ground_size": 3, "sets": 5}'),
    }
    try:
        code = main(shlex.split(argv.format(**files)))
    except SystemExit as exc:  # a flag argparse refuses
        code = exc.code
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert message in captured.err


# -- start-up ----------------------------------------------------------------

def _fresh_python(code, *argv, **environ):
    """Run `code` with `argv` in a fresh interpreter that imports this
    checkout, with OPENBLAS_NUM_THREADS unset unless given in `environ`."""
    src = os.path.dirname(os.path.dirname(sunflowers.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(environ, PYTHONPATH=os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


NUMPY_LOADED_BY = """\
import contextlib, io, sys
import sunflowers
loaded = ["numpy" in sys.modules]
from sunflowers import cli
loaded.append("numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *loaded, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("argv,expected", [
    (["check", "{fam}", "--L", "1"], ["0", "False"]),
    (["find", "{fam}", "--r", "3"], ["1", "False"]),
    (["bounds", "--which", "erdos-rado", "-n", "3", "-r", "3"], ["0", "False"]),
    (["encode-audit", "{fam}", "--px", "1", "--d", "1"], ["0", "False"]),
    (["gen", "random-uniform", "6", "2", "4", "--seed", "1"], ["0", "True"]),
    (["spread", "{fam}", "--alpha", "1/2", "--trials", "64", "--seed", "1"], ["0", "True"]),
])
def test_numpy_loads_only_for_the_subcommands_that_use_it(triangle, argv, expected):
    # importing the package and the CLI loads no numpy; a subcommand loads it on first use
    code, *loaded = _fresh_python(NUMPY_LOADED_BY, *(a.format(fam=triangle) for a in argv))
    assert [code, *loaded] == [expected[0], "False", "False", expected[1]]


BLAS_THREADS_SEEN = """\
import importlib, os, sys
importlib.import_module(sys.argv[1])
print(os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules)
"""


@pytest.mark.parametrize("module,preset,expected", [
    ("sunflowers.cli", None, "1"),
    ("sunflowers.cli", "3", "3"),
    ("sunflowers", None, "None"),
])
def test_cli_starts_blas_with_one_thread_unless_told_otherwise(module, preset, expected):
    environ = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert _fresh_python(BLAS_THREADS_SEEN, module, **environ) == [expected, "False"]


MODULES_LOADED_BY = """\
import contextlib, io, sys
before = set(sys.modules)
def new(names=None):
    loaded = set(sys.modules) - before
    found = [m for m in loaded if m.startswith("sunflowers.")] if names is None else [
        m for m in names if m in loaded]
    return ",".join(sorted(found)) or "-"
import sunflowers
print(new())
sunflowers.SetFamily
print(new())
import sunflowers.cli
watched = ("dataclasses", "numpy", "sunflowers.spread", "sunflowers.encoding",
           "sunflowers.generators")
print(new(watched))
with contextlib.redirect_stdout(io.StringIO()):
    code = sunflowers.cli.main(sys.argv[1:])
print(code, new(watched))
"""


def test_each_subcommand_starts_with_only_the_modules_it_runs(triangle):
    # the package loads a module when one of its names is first used, and the
    # CLI imports `spread`, `encoding` and `generators` only in the subcommands
    # that run them
    assert _fresh_python(MODULES_LOADED_BY, "check", triangle, "--L", "1") == [
        "-", "sunflowers.families", "-", "0", "-"]
    assert _fresh_python(MODULES_LOADED_BY, "gen", "transversal", "2", "2") == [
        "-", "sunflowers.families", "-", "0", "sunflowers.generators"]
