"""The repository benchmark: seeded CLI workloads, checked and timed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

With --trace 0 the workload's job list runs in whole passes in a closed
loop (one client, one job at a time) for about --seconds, and at least
MIN_PASSES passes, and the end-to-end metrics are reported.  Every timing
is scaled to a nominal host speed by a fixed slice of work timed beside it
(hostref.py), and each job's latency is its fastest scaled time over the
passes; the raw figures are printed beside the metrics.  With --trace 1
one untraced and one traced pass run, and the per-layer metrics are
reported.  Every job's output is checked independently (checks.py);
repeats of a job must give byte-identical reports, and for the pinned
seed the reports must match pinned_digests.json.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Spans and the full result,
with an environment block, are written to .bench_out/.

Regenerate the pinned digests after an intended output change with
`python3 perfbench/run.py --pin` (and say why in CHANGES.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks  # this file's directory is sys.path[0]
import hostref
import jobs
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MIN_PASSES = 3  # each job's latency is its best over at least this many runs
SETUP_SLICES = 30  # host-speed slices timed before and again after a set-up
SETUP_SAMPLES = 7  # set-up runs per result: this one plus fresh processes
BARE_SPAWNS = 5
PIN_SEED = 0
PINS = HERE / "pinned_digests.json"
RUN_DIR = ".bench_run"
OUT_DIR = ".bench_out"


def host_slice_ms() -> float:
    """The median of 100 host-speed slices: shows a slow host in the env line."""
    return statistics.median(hostref.slice_s() for _ in range(100)) * 1000


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment(args, refs) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"git_sha": git_sha(), "python": sys.version.split()[0],
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
            "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "host_slice_ms": refs, "nominal_slice_ms": hostref.NOMINAL_S * 1000}


def import_cli():
    """Import the checkout's sunflowers.cli; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "sunflowers" / "cli.py").is_file():
        raise SystemExit(f"error: {src}/sunflowers not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import sunflowers.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "sunflowers").resolve():
        raise SystemExit(f"error: imported sunflowers from {cli.__file__}, not {src}")
    return cli


class Runner:
    """Runs a workload's jobs in this process, or cold in fresh ones."""

    def __init__(self, workload: str, fixture_dir: Path):
        self.cold = workload in workloads.COLD
        self.fixture_dir = fixture_dir
        self.cli = None
        self.import_s = 0.0
        if not self.cold:
            t0 = time.perf_counter()
            self.cli = import_cli()
            self.import_s = time.perf_counter() - t0
        elif not (ROOT / "src" / "sunflowers" / "cli.py").is_file():
            raise SystemExit("error: src/sunflowers not found; run from the root of a checkout")

    def run(self, job, prefix=None):
        if self.cold:
            return jobs.run_cold(job, ROOT, prefix)
        return jobs.run_inprocess(self.cli, job, ROOT)


def setup(args, fixture_dir: Path):
    """Imports, fixture writing and warm-up, up to the first timed job."""
    runner = Runner(args.workload, fixture_dir)
    fixture_dir.mkdir(parents=True, exist_ok=True)
    rel = str(fixture_dir.relative_to(ROOT))
    plan = workloads.plan(args.workload, args.seed, rel)
    for path, text in plan.files.items():
        (ROOT / path).write_text(text)
    setup_outcomes = [(job, runner.run(job)) for job in plan.setup_jobs]
    for job in plan.warmup:
        runner.run(job)
    return runner, plan, setup_outcomes


def timed_setup(args, fixture_dir: Path):
    """setup(), timed raw and scaled by slices timed before and after it.
    Returns (runner, plan, setup outcomes, raw seconds, scaled seconds)."""
    before = [hostref.slice_s() for _ in range(SETUP_SLICES)]
    t0 = time.perf_counter()
    runner, plan, setup_outcomes = setup(args, fixture_dir)
    raw = time.perf_counter() - t0
    after = [hostref.slice_s() for _ in range(SETUP_SLICES)]
    return runner, plan, setup_outcomes, raw, raw * hostref.factor(before + after)


def timed_passes(runner, jobs_list, seconds, log, min_passes=1, slices=None):
    """Closed loop over whole passes, one job at a time, stopping at the
    pass boundary nearest `seconds` once `min_passes` are done.  Returns
    (wall time, passes); appends (job, outcome) to `log`, and when
    `slices` is a list, the time of a host-speed slice run before each job."""
    start = time.perf_counter()
    passes = 0
    while True:
        for job in jobs_list:
            if slices is not None:
                slices.append(hostref.slice_s())
            log.append((job, runner.run(job)))
        passes += 1
        wall = time.perf_counter() - start
        if passes >= min_passes and wall + wall / passes / 2 >= seconds:
            return wall, passes


def validate(log, setup_outcomes, pins=None):
    """Check every distinct job once, repeats by digest, and digests
    against `pins` when given.  Returns (failed executions, messages,
    first digests)."""
    checker = checks.Checker(ROOT)
    messages = []
    for job, out in setup_outcomes:
        bad = checker.check(job, out)
        if bad:
            messages.append(f"setup {job.key}: {bad}")
    first: dict = {}
    bad_keys: dict = {}
    failed = 0
    for job, out in log:
        d = jobs.digest(out.stdout)
        if job.key not in first:
            first[job.key] = (out.rc, d)
            bad = checker.check(job, out)
            if not bad and pins is not None and pins.get(job.key) != d:
                bad = f"digest {d} differs from pinned {pins.get(job.key)}"
            if bad:
                bad_keys[job.key] = bad
                messages.append(f"{job.key}: {bad}")
        elif first[job.key] != (out.rc, d):
            failed += 1
            messages.append(f"{job.key}: repeat gave exit {out.rc} digest {d}, first {first[job.key]}")
            continue
        if job.key in bad_keys:
            failed += 1
    return failed, messages, {k: d for k, (_, d) in first.items()}


def setup_samples(args, own: tuple) -> list:
    """This run's (raw, scaled) set-up time plus those of fresh-process
    set-ups of the same workload."""
    samples = [own]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up child failed: {proc.stderr.strip()[-500:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((child["raw_s"], child["setup_s"]))
    return samples


def bare_interpreter_ms() -> float:
    times = []
    for _ in range(BARE_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def end_to_end(args, runner, plan, log):
    slices: list = []
    wall, passes = timed_passes(runner, plan.jobs, args.seconds, log, MIN_PASSES, slices)
    n = len(plan.jobs)
    best: dict = {}
    for (job, out), f in zip(log, hostref.factors(slices)):
        best[job.key] = min(out.seconds * f, best.get(job.key, math.inf))
    lat_ms = [s * 1000 for s in best.values()]
    p90 = jobs.percentile(lat_ms, 90)
    usage = resource.RUSAGE_CHILDREN if runner.cold else resource.RUSAGE_SELF
    metrics = {
        "jobs_per_s": 1000 * n / sum(lat_ms),
        "job_p50_ms": jobs.percentile(lat_ms, 50),
        "job_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    raw_ms = [out.seconds * 1000 for _, out in log]
    each = f"n={n} jobs, each the best of {passes} scaled runs"
    samples = {"jobs_per_s": f"{n} jobs at their scaled times; raw: {len(log)} runs in {wall:.3f} s",
               "job_p50_ms": f"{each}; raw over all runs {jobs.percentile(raw_ms, 50):.6f}",
               "job_p90_ms": f"{each}, {jobs.beyond(lat_ms, p90)} beyond; "
                             f"raw over all runs {jobs.percentile(raw_ms, 90):.6f}",
               "peak_rss_mb": "max over the run"}
    return metrics, samples


def per_layer(args, runner, plan, log, out_dir: Path):
    untraced_wall, _ = timed_passes(runner, plan.jobs, 0, log)
    n_untraced = len(log)
    spans, import_ms = [], []
    start = time.perf_counter()
    if runner.cold:
        spans_file = runner.fixture_dir / "spans.json"
        prefix = [str(HERE / "cold_child.py"), str(spans_file)]
        for idx, job in enumerate(plan.jobs):
            out = runner.run(job, prefix)
            log.append((job, out))
            child = json.loads(spans_file.read_text())
            import_ms.append(child["import_s"] * 1000)
            base = len(spans)
            for name, s0, s1, parent, _, info in child["spans"]:
                spans.append((name, s0, s1, parent + base if parent >= 0 else -1, idx, info))
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for idx, job in enumerate(plan.jobs):
                tracer.job = idx
                log.append((job, runner.run(job)))
        finally:
            tracer.uninstall()
        spans = tracer.spans
        import_ms.append(runner.import_s * 1000)
    traced_wall = time.perf_counter() - start
    traced = log[n_untraced:]
    report_bytes = sum(len(out.stdout.encode()) for _, out in traced)
    metrics = tracing.layer_metrics(spans)
    metrics.update({
        "cli.report_bytes": report_bytes,
        "cli.import_ms": statistics.median(import_ms),
        "cli.interp_ms": bare_interpreter_ms(),
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.job_s": sum(out.seconds for _, out in traced),
        "trace.jobs": len(traced),
    })
    (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(spans))
    return metrics, {"all": f"{len(traced)} traced jobs, {len(spans)} spans"}


def pin(args) -> int:
    """Record one pass's report digests per workload for PIN_SEED."""
    pins = {}
    for name in workloads.WORKLOADS:
        args.workload, args.seed = name, PIN_SEED
        fixture_dir = ROOT / RUN_DIR / f"pin-{name}-{os.getpid()}"
        try:
            runner, plan, _ = setup(args, fixture_dir)
            log: list = []
            timed_passes(runner, plan.jobs, 0, log)
            failed, messages, digests = validate(log, [])
        finally:
            shutil.rmtree(fixture_dir, ignore_errors=True)
        if failed or messages:
            print("\n".join(messages), file=sys.stderr)
            return 1
        pins[name] = digests
    PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    print(f"pinned {sum(len(v) for v in pins.values())} digests to {PINS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pinned_digests.json from one pass of each workload")
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit("error: run from the root of a checkout (BENCHMARK.json not found)")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.pin:
        return pin(args)
    if args.workload is None:
        parser.error("--workload is required")

    fixture_dir = ROOT / RUN_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if args.setup_only:
        try:
            *_, raw, scaled = timed_setup(args, fixture_dir)
            print(json.dumps({"raw_s": raw, "setup_s": scaled}))
        finally:
            shutil.rmtree(fixture_dir, ignore_errors=True)
        return 0

    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    refs = [host_slice_ms()]
    log: list = []
    try:
        runner, plan, setup_outcomes, *own_setup = timed_setup(args, fixture_dir)
        if args.trace:
            metrics, samples = per_layer(args, runner, plan, log, out_dir)
        else:
            metrics, samples = end_to_end(args, runner, plan, log)
        pins = json.loads(PINS.read_text()).get(args.workload, {}) if args.seed == PIN_SEED else None
        failed, messages, _ = validate(log, setup_outcomes, pins)
    finally:
        shutil.rmtree(fixture_dir, ignore_errors=True)
    if not args.trace:
        setups = setup_samples(args, tuple(own_setup))
        metrics["setup_s"] = statistics.median(s for _, s in setups)
        samples["setup_s"] = (f"median of n={len(setups)} scaled set-ups; "
                              f"raw {statistics.median(r for r, _ in setups):.6f}")
    refs.append(host_slice_ms())

    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         "are not both declared in BENCHMARK.json and measured")
    attempted = len(log)
    correct = failed == 0 and not messages
    env = environment(args, refs)
    for msg in messages[:50]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name in units:
        print(f"{args.workload:9} {name:38} {metrics[name]:>16.6f} {units[name]:7} "
              f"({samples.get(name, samples.get('all', ''))})")
    print(f"{args.workload:9} {'failed_ratio':38} {failed / attempted:>16.6f} {'ratio':7} "
          f"({failed} of {attempted} jobs)")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "samples": samples, "failures": messages}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
