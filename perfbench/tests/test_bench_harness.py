"""Percentiles, the digest normaliser, tracing and the plans."""

import json
import statistics
from pathlib import Path

import checks
import jobs
import pytest
import tracing
import workloads
from jobs import Job, Outcome

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("values", [[5.0], [3.0, 1.0], [4, 1, 9, 2, 7], list(range(101)),
                                    [0.5 * i * i for i in range(37)]])
def test_percentile_matches_inclusive_quantiles(values):
    qs = statistics.quantiles(values, n=10, method="inclusive") if len(values) > 1 else [values[0]] * 9
    assert jobs.percentile(values, 50) == pytest.approx(statistics.median(values))
    assert jobs.percentile(values, 90) == pytest.approx(qs[8])
    assert jobs.percentile(values, 0) == min(values)
    assert jobs.percentile(values, 100) == max(values)


def test_p90_of_a_hundred_samples_has_ten_beyond_it():
    values = list(range(1, 101))
    p90 = jobs.percentile(values, 90)
    assert p90 == pytest.approx(90.1)
    assert jobs.beyond(values, p90) == 10


def test_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        jobs.percentile([], 50)


def test_normaliser_blanks_only_wall_time():
    a = '{\n  "outputs": {"x": 1.5},\n  "wall_time_s": 0.012345\n}\n'
    b = '{\n  "outputs": {"x": 1.5},\n  "wall_time_s": 3e-06\n}\n'
    c = '{\n  "outputs": {"x": 1.25},\n  "wall_time_s": 0.012345\n}\n'
    assert jobs.normalise(a) == '{\n  "outputs": {"x": 1.5},\n  "wall_time_s": null\n}\n'
    assert jobs.digest(a) == jobs.digest(b) != jobs.digest(c)
    assert jobs.normalise("x=4\n0 1\n") == "x=4\n0 1\n"


def _tiny_jobs(tmp_path):
    fd = tmp_path / "fx"
    fd.mkdir()
    (fd / "t.txt").write_text("x=6\n0 2 4\n0 2 5\n0 3 4\n0 3 5\n1 2 4\n1 2 5\n1 3 4\n1 3 5\n")
    (fd / "m.txt").write_text("x=8\n0 1\n2 3\n4 5\n6 7\n0 2\n")
    f = str(fd)
    return [
        Job("gen", ("gen", "random-l", "9", "3", "--L", "0,1", "--count", "12", "--seed", "3",
                    "--budget", "3000"), frozenset({0}), "gen-l",
            {"x": 9, "n": 3, "L": [0, 1], "count": 12}, "fx/g.txt"),
        Job("check", ("check", f + "/g.txt", "--L", "0,1"), frozenset({0}), "check",
            {"family": "fx/g.txt", "L": [0, 1]}),
        Job("find", ("find", f + "/t.txt", "--r", "3"), frozenset({1}), "find",
            {"family": "fx/t.txt", "r": 3, "expect": "absent", "oracle": True}),
        Job("found", ("find", f + "/m.txt", "--r", "3"), frozenset({0}), "find",
            {"family": "fx/m.txt", "r": 3, "expect": "found"}),
        Job("mc", ("spread", f + "/m.txt", "--alpha", "1/2", "--trials", "4000", "--seed", "5"),
            frozenset({0}), "spread-mc", {"family": "fx/m.txt", "alpha": "1/2", "trials": 4000}),
        Job("kappa", ("spread", f + "/t.txt", "--kappa", "3/2", "--d", "1"), frozenset({0, 1}),
            "spread-kappa", {"family": "fx/t.txt", "kappa": "3/2", "d": 1}),
        Job("enc", ("encode-audit", f + "/m.txt", "--px", "3", "--d", "1", "--delta", "1/2"),
            frozenset({0}), "encode", {"family": "fx/m.txt", "w": 3}),
        Job("cross", ("bounds", "--which", "crossover", "-n", "12", "-r", "3"), frozenset({0}),
            "crossover", {"n": 12, "r": 3}),
    ]


def test_tracing_leaves_every_report_byte_identical(tmp_path):
    import sunflowers.cli as cli

    todo = _tiny_jobs(tmp_path)
    plain = [jobs.run_inprocess(cli, job, tmp_path) for job in todo]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [jobs.run_inprocess(cli, job, tmp_path) for job in todo]
    finally:
        tracer.uninstall()
    checker = checks.Checker(tmp_path)
    for job, a, b in zip(todo, plain, traced):
        assert checker.check(job, a) is None, job.key
        assert (a.rc, jobs.normalise(a.stdout)) == (b.rc, jobs.normalise(b.stdout)), job.key
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "finders.find_any", "finders.brute_force_sunflower",
            "families.intersection_profile", "encoding.audit_encoding_bound",
            "spread.sample_satisfying", "bounds.certified_compare"} <= names
    assert cli.find_any.__module__ == "sunflowers.finders" and not hasattr(cli.find_any, "__wrapped__")


def test_traced_layer_metrics_count_the_work(tmp_path):
    import sunflowers.cli as cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for job in _tiny_jobs(tmp_path):
            jobs.run_inprocess(cli, job, tmp_path)
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans)
    assert m["finders.verdict.absent"] == 1 and m["finders.verdict.found"] == 1
    assert m["finders.r_subsets_examined"] >= 56  # all C(8, 3) triples of the transversal
    assert m["encoding.pairs_classified"] == 2 * 56 * 5  # two audits, C(8, 3) W, 5 members
    assert m["spread.mc.trials"] == 4000
    assert m["spread.mc.member_tests"] == 4000 * 5 * 8
    assert m["bounds.rows"] == 12 and m["bounds.compare.calls"] == 12
    assert m["generators.random_l.calls"] == 1
    own = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    roots = sum(end - start for _, start, end, parent, _, _ in tracer.spans if parent < 0)
    assert own == pytest.approx(roots)


def test_self_time_subtracts_direct_children():
    spans = [("cli.main", 0.0, 10.0, -1, 0, None),
             ("finders.find_any", 1.0, 6.0, 0, 0, None),
             ("families.intersection_profile", 2.0, 3.0, 1, 0, None),
             ("formats.load_family", 7.0, 8.0, 0, 0, None)]
    assert tracing.self_times(spans) == [4.0, 4.0, 1.0, 1.0]


def test_checks_reject_a_forged_certificate(tmp_path):
    (tmp_path / "f.txt").write_text("x=6\n0 1\n1 2\n0 2\n3 4\n")
    report = {"outputs": {"status": "found", "sunflower": {"core": [], "sets": [[0, 1], [1, 2], [3, 4]]}}}
    job = Job("k", (), frozenset({0}), "find", {"family": "f.txt", "r": 3})
    bad = checks.Checker(tmp_path).check(job, Outcome(0, json.dumps(report), "", 0.0))
    assert bad and "not a sunflower" in bad
    report["outputs"]["sunflower"]["sets"] = [[0, 1], [2, 5], [3, 4]]
    assert "not a member" in checks.Checker(tmp_path).check(job, Outcome(0, json.dumps(report), "", 0.0))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_plans_are_seeded(name):
    def inputs(plan):
        return [j.argv for j in plan.jobs + plan.setup_jobs], plan.files

    a, b, c = (workloads.plan(name, s, "fx") for s in (7, 7, 8))
    assert inputs(a) == inputs(b) != inputs(c)
    keys = [j.key for j in a.jobs]
    assert len(set(keys)) == len(keys)


def test_benchmark_declares_what_tracing_measures():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((ROOT / "perfbench" / "design.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    measured = set(tracing.layer_metrics([])) | {
        "cli.report_bytes", "cli.import_ms", "cli.interp_ms",
        "trace.overhead_ratio", "trace.job_s", "trace.jobs"}
    assert declared == measured
    assert set(design["per_layer"]) == declared
    # cli-cold runs on request but is not declared: its timings are not steady on a shared host
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS) - {"cli-cold"}
    assert set(design["workloads"]) == set(workloads.WORKLOADS)


def test_host_factors_scale_by_the_slices_around_each_job():
    import hostref

    slow = 2 * hostref.NOMINAL_S
    f = hostref.factors([hostref.NOMINAL_S] * 5 + [slow] * 5, half=1)
    assert f[0] == pytest.approx(1.0) and f[-1] == pytest.approx(0.5)
    assert f[4] == pytest.approx(3 / 4)  # slices 3, 4 nominal and 5 slow
    assert hostref.factor([slow, slow]) == pytest.approx(0.5)
