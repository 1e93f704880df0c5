"""One traced cold CLI call: `python cold_child.py <spans.json> <argv...>`.

Times `import sunflowers.cli`, runs `main(argv)` under the tracer, and
writes the import time, its own elapsed time and the spans to spans.json.
The report goes to stdout exactly as `python -m sunflowers.cli` prints it.
"""

import time

_started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402  (this file's directory is sys.path[0])


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import sunflowers.cli as cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.job = 0
    tracer.install()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "elapsed_s": time.perf_counter() - _started,
                   "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
