"""Benchmark of the doublezeta command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Workloads (see workloads.py and BENCHMARK.json for why each exists):

- exact-sweep    `verify conjecture` for K = 2..40, then `verify closed-forms`
                 for K = 2..20: Fraction matrix work.
- numeric-audit  Euler audits, `zeta` at 30..200 digits and `audit h`:
                 numerics and the Bernoulli recursion, no P or Q builder.
- tables         69 small exact requests (matrices, coefficient tables,
                 Bernoulli export, series checks): per-call and JSON/CSV cost.

A pass runs a workload's op list through ``doublezeta.cli.main`` in one
fresh single-threaded interpreter (passrun.py), with no warm-up in that
process.  Passes repeat until ``--seconds`` have gone by; each metric is
the median over the passes of the run.

Times are in reference seconds (speed.py): each op's measured time is
scaled by CAL_REF_S over the mean of the calibration readings taken just
before and just after it, so that the host's changing speed cancels out.
The measured wall time and the scale factor are printed next to the
metrics, and reported as ``bench.raw_wall_s`` and ``bench.speed_factor``
by the traced run.

With ``--trace 0`` the end-to-end metrics are reported:
  setup_s       fresh interpreter to ``doublezeta.cli`` imported and parser
                built, timed from outside; one sample before each pass and
                at least SETUP_SAMPLES_MIN in all
  wall_s        time inside ``cli.main`` summed over the pass's ops
  max_op_s      the slowest op of the pass
  peak_rss_mib  ru_maxrss of the pass process
  ok_frac       ops that passed every check / ops attempted (the base is
                printed as ``attempted``; ``failed`` counts the rest)

With ``--trace 1`` passes alternate untraced and traced (spans.py), and the
per-layer metrics ``<module>.<metric>`` of the traced passes are reported,
with ``trace.overhead_s`` (traced minus untraced wall_s) and
``trace.covered_frac`` (self time of all spans, cli included, over the
traced wall_s).

Every output is checked: exact ops against the digests in digests.json and
independent algebra in oracle.py, numeric ops against the mpmath oracle.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import mpmath.libmp

import oracle
import workloads
from speed import CAL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES_MIN = 15
# set-up is timed from outside; the calibration after it is timed inside
# the same process, reported, and taken off the outside time
SETUP_CODE = f"""
import doublezeta.cli as c; c.build_parser()
import sys, time; t = time.perf_counter(); sys.path.insert(0, {str(HERE)!r})
from speed import calibrate; r = [calibrate(), calibrate()]
print(time.perf_counter() - t, *r)
"""

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("max_op_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
)

# per-layer self-time metrics: metric name -> traced function names
SELF_GROUPS = {
    "rationals.binomial_self_s": ("rationals.binomial",),
    "rationals.format_self_s": ("rationals.format_rational",),
    "matrices.build_p_self_s": ("matrices.build_p",),
    "matrices.build_q_self_s": ("matrices.build_q",),
    "matrices.multiply_self_s": ("matrices.matrix_multiply",),
    "matrices.det_self_s": ("matrices.determinant_fraction_free",),
    "matrices.closed_form_self_s": ("matrices.pb_closed", "matrices.pc_closed"),
    "matrices.build_a_self_s": (
        "matrices.build_a",
        "matrices.build_b_part",
        "matrices.build_c_part",
    ),
    "matrices.to_json_self_s": ("matrices.matrix_to_json",),
    "series.reflection_self_s": (
        "series.verify_reflection",
        "series.reflection_sides",
        "series.build_fs",
        "series.bernoulli_gf",
        "series.exp_series",
        "series.series_from_coefficients",
    ),
    "series.carlitz_self_s": ("series.verify_carlitz",),
    "reductions.table_build_self_s": (
        "reductions.euler_rhs_coefficients",
        "reductions.inverse_reduction_coefficients",
        "reductions.h_ab_coefficients",
        "reductions.expand_h_to_pi",
        "reductions.h_value",
    ),
    "reductions.serialize_self_s": (
        "reductions.table_to_json",
        "reductions.table_to_csv",
        "reductions.table_from_json",
    ),
    "numerics.zeta_single_self_s": ("numerics.zeta_single",),
    "numerics.zeta_double_self_s": ("numerics.zeta_double",),
    "numerics.audit_self_s": ("numerics.audit_euler_constant", "numerics.audit_h_ab"),
    "numerics.reconstruct_self_s": ("numerics.rational_reconstruct",),
}
LAYERS = ("cli", "rationals", "bernoulli", "matrices", "series", "reductions", "numerics")


class BenchError(Exception):
    """The benchmark could not run the program; no result is printed."""


# ------------------------------------------------------------------ passes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    # use the bytecode cache whatever the caller's setting, so that setup_s
    # does not depend on it; the first, untimed set-up of a run fills it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _child(args: list[str], stdin: str = "") -> str:
    proc = subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def setup_sample() -> float:
    """One set-up time in reference seconds, scaled by two calibration
    readings taken in the set-up process right after it."""
    t0 = time.perf_counter()
    out = _child(["-c", SETUP_CODE])
    elapsed = time.perf_counter() - t0
    cal_s, *readings = map(float, out.split())
    return (elapsed - cal_s) * len(readings) * CAL_REF_S / sum(readings)


def run_pass(ops: list[list[str]], traced: bool, keep_all: bool = False) -> tuple[list[dict], dict]:
    """Run one pass in a fresh interpreter; returns per-op lines and the final line."""
    keep = [
        i for i, argv in enumerate(ops)
        if keep_all or argv[0] in ("verify", "matrix", "zeta", "audit")
    ]
    args = [str(HERE / "passrun.py")] + (["--trace"] if traced else [])
    out = _child(args, json.dumps({"ops": ops, "keep_text": keep})).splitlines()
    if len(out) != len(ops) + 1:
        raise BenchError(f"pass printed {len(out)} lines for {len(ops)} ops")
    return [json.loads(line) for line in out[:-1]], json.loads(out[-1])


# ------------------------------------------------------------------ checks


class Checker:
    """Verdicts on op outputs, memoised on (op, output digest)."""

    def __init__(self, digests: dict[str, str]) -> None:
        self.digests = digests
        self.memo: dict[tuple, oracle.Verdict] = {}

    def verdict(self, argv: list[str], line: dict) -> oracle.Verdict:
        key = (workloads.op_key(argv), line["sha256"], line["rc"])
        if key not in self.memo:
            self.memo[key] = self._check(argv, line)
        return self.memo[key]

    def _check(self, argv: list[str], line: dict) -> oracle.Verdict:
        v = oracle.Verdict()
        name = workloads.op_key(argv)
        if line["rc"] != 0:
            v.flag(oracle.WRONG, f"{name!r} exited {line['rc']}: {line['stderr'][-300:]}")
            return v
        text = line.get("text")
        if not workloads.is_exact(argv):
            return oracle.check_numeric(argv, text)
        expected = self.digests.get(name)
        if expected is None:
            v.flag(oracle.WRONG, f"{name!r} has no recorded digest")
        elif line["sha256"] != expected:
            v.flag(oracle.WRONG, f"{name!r} output differs from the recorded digest")
        elif argv[0] == "verify" and (bad := oracle.check_verify_lines(text)):
            v.flag(oracle.WRONG, f"{name!r}: {bad}")
        elif argv[0] == "matrix" and (bad := oracle.check_matrix(text)):
            v.flag(oracle.WRONG, f"{name!r}: {bad}")
        return v


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0
        self.problems: dict[str, str] = {}
        self.bound_log10: list[float] = []
        self.rows_ok = self.rows = 0

    def add(self, ops: list[list[str]], lines: list[dict], checker: Checker) -> None:
        for argv, line in zip(ops, lines):
            v = checker.verdict(argv, line)
            self.attempted += 1
            if v.status != oracle.OK:
                self.failed += 1
                self.problems.setdefault(v.detail, v.status)
            self.wrong += v.status == oracle.WRONG
            if v.bound_log10_over_target is not None:
                self.bound_log10.append(v.bound_log10_over_target)
            self.rows_ok += v.rows_ok
            self.rows += v.rows


# ----------------------------------------------------------------- metrics


class PassTimes:
    """Op times of one pass in reference seconds (see speed.py)."""

    def __init__(self, lines: list[dict], final: dict) -> None:
        cals = [line["cal"] for line in lines] + [final["cal"]]
        # each op is scaled by the mean of the readings just before and after it
        self.factors = [2 * CAL_REF_S / (a + b) for a, b in zip(cals, cals[1:])]
        self.ops = [line["s"] * f for line, f in zip(lines, self.factors)]
        self.wall = sum(self.ops)
        self.raw_wall = sum(line["s"] for line in lines)


def measure(ops: list[list[str]], seconds: float, checker: Checker, tally: Tally) -> dict:
    setups, passes, rss = [], [], []
    setup_sample()  # writes the bytecode cache; not a sample
    start = time.perf_counter()
    while True:
        setups.append(setup_sample())
        lines, final = run_pass(ops, traced=False)
        tally.add(ops, lines, checker)
        passes.append(PassTimes(lines, final))
        rss.append(final["maxrss_kib"] / 1024)
        if time.perf_counter() - start >= seconds:
            break
    while len(setups) < SETUP_SAMPLES_MIN:
        setups.append(setup_sample())
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "max_op_s": statistics.median(max(p.ops) for p in passes),
        "peak_rss_mib": statistics.median(rss),
        "ok_frac": 1 - tally.failed / tally.attempted,
    }
    print(
        f"  {len(passes)} passes; measured wall_s median "
        f"{statistics.median(p.raw_wall for p in passes):.4g} s at speed factor "
        f"{statistics.median(p.wall / p.raw_wall for p in passes):.4g}"
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def self_times(trace: dict, factors: list[float]) -> tuple[dict[str, float], dict[str, int]]:
    """Self time (span minus child spans, in reference seconds) and call
    count per traced name."""
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for _nid, t0, t1, parent, _op in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for parent, _nid, _count, total in trace["folded"]:
        if parent >= 0:
            child[parent] += total
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (nid, t0, t1, _parent, op) in enumerate(spans):
        self_s[names[nid]] += (t1 - t0 - child[i]) * factors[op]
        calls[names[nid]] += 1
    for parent, nid, count, total in trace["folded"]:
        self_s[names[nid]] += total * (factors[spans[parent][4]] if parent >= 0 else 1.0)
        calls[names[nid]] += count
    return self_s, calls


def layer_values(trace: dict, lines: list[dict], times: PassTimes) -> dict[str, float]:
    self_s, calls = self_times(trace, times.factors)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.startswith(layer + "."))
    for metric, names in SELF_GROUPS.items():
        out[metric] = sum(self_s.get(n, 0.0) for n in names)
    out["cli.out_bytes"] = sum(line["bytes"] for line in lines)
    out["rationals.binomial_calls"] = calls.get("rationals.binomial", 0)
    out["rationals.format_calls"] = calls.get("rationals.format_rational", 0)
    out["bernoulli.caches"] = trace["caches"]
    out["bernoulli.numbers_computed"] = trace["numbers_computed"]
    out["matrices.scalar_mults"] = trace["scalar_mults"]
    out["matrices.p_entry_max_bits"] = trace["p_entry_max_bits"]
    out["trace.covered_frac"] = sum(self_s.values()) / times.wall
    return out


PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{metric: "s" for metric in SELF_GROUPS},
    "cli.out_bytes": "bytes",
    "rationals.binomial_calls": "count",
    "rationals.format_calls": "count",
    "bernoulli.caches": "count",
    "bernoulli.numbers_computed": "count",
    "matrices.scalar_mults": "count",
    "matrices.p_entry_max_bits": "bits",
    "numerics.bound_over_target_log10_max": "log10",
    "numerics.reconstructed_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.covered_frac": "ratio",
    "bench.raw_wall_s": "s",
    "bench.speed_factor": "ratio",
}


def measure_traced(ops: list[list[str]], seconds: float, checker: Checker, tally: Tally) -> dict:
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        lines, final = run_pass(ops, traced=False)
        tally.add(ops, lines, checker)
        untraced.append(PassTimes(lines, final))
        lines, final = run_pass(ops, traced=True)
        tally.add(ops, lines, checker)
        traced.append(PassTimes(lines, final))
        layers.append(layer_values(final["trace"], lines, traced[-1]))
        if time.perf_counter() - start >= seconds:
            break
    values = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    untraced_wall = statistics.median(p.wall for p in untraced)
    traced_wall = statistics.median(p.wall for p in traced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["numerics.bound_over_target_log10_max"] = max(tally.bound_log10, default=0.0)
    values["numerics.reconstructed_ratio"] = tally.rows_ok / tally.rows if tally.rows else 0.0
    values["bench.raw_wall_s"] = statistics.median(p.raw_wall for p in untraced)
    values["bench.speed_factor"] = statistics.median(p.wall / p.raw_wall for p in untraced)
    layer_sum = statistics.median(sum(p[f"{layer}.self_s"] for layer in LAYERS) for p in layers)
    print(
        f"  accounting (medians over passes): layer self_s sum {layer_sum:.4g} s = "
        f"traced wall_s {traced_wall:.4g} s x covered_frac {values['trace.covered_frac']:.5f}; "
        f"untraced wall_s {untraced_wall:.4g} s + trace.overhead_s "
        f"{values['trace.overhead_s']:.4g} s"
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


# ------------------------------------------------------------------ report


def machine() -> str:
    return (
        f"python {platform.python_version()}, mpmath backend "
        f"{mpmath.libmp.BACKEND}, nproc {os.cpu_count()}, {platform.machine()}; "
        f"times in reference seconds, CAL_REF_S {CAL_REF_S}"
    )


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, checker: Checker) -> tuple[dict, Tally]:
    ops = workloads.build(workload, seed)
    tally = Tally()
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"{workload} seed {seed}, {len(ops)} ops per pass, {kind}:")
    metrics = (measure_traced if trace else measure)(ops, seconds, checker, tally)
    _print_metrics(metrics)
    for detail, status in tally.problems.items():
        print(f"  {status}: {detail}")
    return metrics, tally


def _load_digests() -> dict[str, str]:
    path = HERE / "digests.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "doublezeta" / "cli.py").is_file():
        sys.stderr.write(f"doublezeta sources not found under {SRC}; run from a full checkout\n")
        return 2
    checker = Checker(_load_digests())
    print(f"machine: {machine()}")
    try:
        if args.workload != "all":
            metrics, tally = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), checker)
        else:
            metrics, tally = {}, Tally()
            for trace in (False, True):
                for workload in workloads.WORKLOADS:
                    m, t = run_workload(workload, args.seed, args.seconds, trace, checker)
                    metrics.update({f"{workload}.{k}": v for k, v in m.items()})
                    tally.attempted += t.attempted
                    tally.failed += t.failed
                    tally.wrong += t.wrong
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
