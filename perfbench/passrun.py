"""One timed pass: run an op list through ``doublezeta.cli.main`` in this process.

Started by ``run.py`` as a fresh interpreter with ``src`` on PYTHONPATH.
Reads ``{"ops": [argv, ...], "keep_text": [index, ...]}`` on stdin.
Writes one JSON line per op as soon as it ends, then a final line with
the process's peak RSS and, with ``--trace``, the recorded spans.

Only the call to ``cli.main`` is timed.  Output capture, hashing and the
result lines fall outside that region.  ``speed.calibrate()`` runs before
each op and once after the last, so every op is bracketed by two readings
of the machine's speed; the kernel leaves no doublezeta state behind, so
the pass still starts cold.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
import traceback

import doublezeta.cli as cli
from speed import calibrate


def _run(ops: list[list[str]], keep_text: set[int], tracer) -> None:
    real_out, real_err = sys.stdout, sys.stderr
    for i, argv in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i
        cal = calibrate()
        sys.stdout, sys.stderr = out, err
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            rc = exc.code
        except Exception:  # a crash is recorded as a failed op
            rc = None
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
        sys.stdout, sys.stderr = real_out, real_err
        data = out.getvalue().encode()
        line = {
            "rc": rc,
            "s": t1 - t0,
            "cal": cal,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "stderr": err.getvalue()[-2000:],
        }
        if i in keep_text:
            line["text"] = data.decode()
        real_out.write(json.dumps(line) + "\n")
        real_out.flush()


def main() -> None:
    cli.build_parser()
    request = json.load(sys.stdin)
    tracer = None
    if "--trace" in sys.argv[1:]:
        import spans

        tracer = spans.install()
    _run(request["ops"], set(request["keep_text"]), tracer)
    final = {
        "cal": calibrate(),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        final["trace"] = tracer.export()
    sys.stdout.write(json.dumps(final) + "\n")


if __name__ == "__main__":
    main()
