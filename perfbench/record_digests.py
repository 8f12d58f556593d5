"""Record digests.json: the sha256 of stdout for every exact op any seed can draw.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record_digests.py

Each output is first checked by ``oracle.validate_exact``, which shares no
code with doublezeta.  If any output fails that check, nothing is written,
so a wrong program cannot become the oracle.
"""

from __future__ import annotations

import json
import sys

import oracle
import run
import workloads


def main() -> int:
    ops = workloads.exact_domain()
    lines, _ = run.run_pass(ops, traced=False, keep_all=True)
    digests, bad = {}, []
    for argv, line in zip(ops, lines):
        name = workloads.op_key(argv)
        problem = (
            f"exit {line['rc']}" if line["rc"] != 0 else oracle.validate_exact(argv, line["text"])
        )
        if problem:
            bad.append(f"{name}: {problem}")
        digests[name] = line["sha256"]
    if bad:
        sys.stderr.write("not recorded; outputs failed the independent check:\n")
        sys.stderr.write("".join(f"  {b}\n" for b in bad))
        return 1
    path = run.HERE / "digests.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
