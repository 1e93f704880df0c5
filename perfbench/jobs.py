"""Jobs, the two ways to run them, report digests and percentiles.

A job is one CLI call.  In-process jobs call `sunflowers.cli.main(argv)`
with stdout and stderr captured; cold jobs start a fresh interpreter
running `python -m sunflowers.cli`.  Either way a job whose `writes` is set
stores its stdout in that file afterwards, as `> file` would in a shell.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

COLD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Job:
    """One CLI call and what its output must satisfy.

    `key` names the job in failure messages and pinned digests; `exits`
    is the exit-code band the job may land in; `check` names the output
    check in checks.py and `params` carries what that check needs.
    """

    key: str
    argv: tuple[str, ...]
    exits: frozenset
    check: str
    params: dict = field(default_factory=dict, hash=False, compare=False)
    writes: Optional[str] = None


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str
    seconds: float


_WALL_TIME = re.compile(r'("wall_time_s":\s*)-?[0-9][0-9.eE+-]*')


def normalise(stdout: str) -> str:
    """A report with its wall_time_s value blanked: the byte-stable part."""
    return _WALL_TIME.sub(r"\1null", stdout)


def digest(stdout: str) -> str:
    return hashlib.sha256(normalise(stdout).encode()).hexdigest()[:16]


def percentile(values, q: float) -> float:
    """q-th percentile (0 <= q <= 100) by linear interpolation between
    order statistics, as numpy's default method."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(values, threshold: float) -> int:
    """Samples strictly above a percentile: how many support it."""
    return sum(1 for v in values if v > threshold)


def run_inprocess(cli, job: Job, root: Path) -> Outcome:
    """Call cli.main(argv) with output captured; time the call and the
    redirect of its output to `job.writes`."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse usage errors exit from main
            rc = exc.code if isinstance(exc.code, int) else 1
    if job.writes:
        (root / job.writes).write_text(out.getvalue())
    return Outcome(rc, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def run_cold(job: Job, root: Path, prefix: Optional[list] = None) -> Outcome:
    """Run the job in a fresh interpreter; `prefix` replaces the default
    `-m sunflowers.cli` (the traced run uses a wrapper script)."""
    cmd = [sys.executable] + (prefix or ["-m", "sunflowers.cli"]) + list(job.argv)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=COLD_TIMEOUT_S)
    if job.writes:
        (root / job.writes).write_text(proc.stdout)
    return Outcome(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start)
