"""The tests' one harness for running the CLI in process."""

import json
import re

from sunflowers.cli import main

# the value of a report's wall_time_s: a top-level JSON key, or a text line
_WALL_TIME = re.compile(r'^(  "wall_time_s": |wall_time_s: ).*$', re.MULTILINE)


def run(capsys, *argv):
    """Exit code, stdout and stderr of `main(argv)`."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def write_family(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def strip_wall_time(out):
    """`out` with a JSON or text report's wall_time_s, the one field a
    rerun changes, set to 0; CSV and family files pass unchanged."""
    return _WALL_TIME.sub(r"\g<1>0", out)
