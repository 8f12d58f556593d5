"""Seeded op lists for the benchmark workloads.

An op is one argument vector for ``doublezeta.cli.main``.  The seed draws
only the op order and inputs inside fixed size classes, so the work done
by one pass is the same on every seed.
"""

from __future__ import annotations

import random

from oracle import euler_constant, fmt

WORKLOADS = ("exact-sweep", "numeric-audit", "tables")

# Pairs of odd weight 11 for `zeta --k1 --k2`.  Even k1 is reduced by
# Euler's formula in the oracle, odd k1 by the stuffle relation first.
WEIGHT_11_PAIRS = tuple((k1, 11 - k1) for k1 in range(2, 10))

# One K is drawn from each class.  A sample is kept only when its sum of
# K^3 (the cost of the Fraction P and Q builders) lies within
# K_WORK_TOLERANCE of the class average, so pass time does not depend on
# the seed.
K_CLASSES = (
    (8, 9), (10, 11), (12, 13), (14, 15), (16, 17),
    (18, 19), (20, 21), (22, 23, 24), (25, 26, 27), (28, 29, 30),
)
K_WORK_TOLERANCE = 0.005
CONSTANT_KINDS = ("-1/2", "-11/2", "1/3", "closed")
H_PAIRS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def constants_arg(K: int, kind: str) -> str:
    values = (
        [fmt(euler_constant(K, r)) for r in range(1, K)]
        if kind == "closed"
        else [kind] * (K - 1)
    )
    return "explicit:" + ",".join(values)


def table_ops(K: int, kind: str) -> list[list[str]]:
    """The six exact requests made for one K of the `tables` workload."""
    k = str(K)
    inverse = ["reduce", "inverse", "--K", k, "--constants", constants_arg(K, kind)]
    return [
        ["matrix", "--K", k, "--which", "A"],
        ["matrix", "--K", k, "--which", "P"],
        ["matrix", "--K", k, "--which", "Q"],
        inverse,
        inverse + ["--format", "csv"],
        ["reduce", "euler", "--K", k],
    ]


def _fixed_table_ops() -> list[list[str]]:
    ops = [
        ["reduce", "h", "--a", str(a), "--b", str(b), "--pi-basis"] for a, b in H_PAIRS
    ]
    ops += [
        ["bernoulli", "--max", "300", "--format", "json"],
        ["verify", "series"],
        ["verify", "carlitz", "--max", "60"],
    ]
    return ops


def _exact_sweep_ops() -> list[list[str]]:
    ops = [
        ["verify", "conjecture", "--k-min", str(K), "--k-max", str(K)]
        for K in range(2, 41)
    ]
    ops.append(["verify", "closed-forms", "--k-min", "2", "--k-max", "20"])
    return ops


def _zeta_pair(rng: random.Random, digits: int) -> list[str]:
    k1, k2 = rng.choice(WEIGHT_11_PAIRS)
    return ["zeta", "--k1", str(k1), "--k2", str(k2), "--digits", str(digits)]


def _numeric_audit(rng: random.Random) -> list[list[str]]:
    def audit_euler(K: int, digits: int) -> list[str]:
        return ["audit", "euler", "--K", str(K), "--digits", str(digits)]

    def audit_h(a: int, b: int) -> list[str]:
        return ["audit", "h", "--a", str(a), "--b", str(b), "--digits", "30"]

    stages = [
        [_zeta_pair(rng, 30), audit_h(1, 0), audit_h(0, 1)],
        [audit_euler(K, 40) for K in range(2, 9)] + [_zeta_pair(rng, 40)],
        [audit_euler(2, 100), _zeta_pair(rng, 100)]
        + [["zeta", "--k", str(k), "--digits", "100"] for k in (3, 5, 9)],
        [_zeta_pair(rng, 200)],
    ]
    # numerics keeps one process-global Bernoulli cache, so the first op
    # that needs B_n up to about 2*digits pays for the recursion.  Running
    # the precision levels in ascending order makes that the same op on
    # every seed; only the order inside a level is drawn.
    ops: list[list[str]] = []
    for stage in stages:
        rng.shuffle(stage)
        ops += stage
    return ops


def _k_sample(rng: random.Random) -> list[int]:
    target = sum(sum(k**3 for k in c) / len(c) for c in K_CLASSES)
    for _ in range(100_000):
        ks = [rng.choice(c) for c in K_CLASSES]
        if abs(sum(k**3 for k in ks) - target) <= K_WORK_TOLERANCE * target:
            return ks
    raise RuntimeError("no K sample within the work tolerance")


def _tables(rng: random.Random) -> list[list[str]]:
    ops = _fixed_table_ops()
    for K in _k_sample(rng):
        ops += table_ops(K, rng.choice(CONSTANT_KINDS))
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int) -> list[list[str]]:
    """The op list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-sweep":
        ops = _exact_sweep_ops()
        rng.shuffle(ops)
        return ops
    if workload == "numeric-audit":
        return _numeric_audit(rng)
    if workload == "tables":
        return _tables(rng)
    raise ValueError(f"unknown workload {workload!r}")


def is_exact(argv: list[str]) -> bool:
    """Exact ops have one right output, recorded as a digest."""
    return argv[0] not in ("zeta", "audit")


def exact_domain() -> list[list[str]]:
    """Every exact op that any seed can draw."""
    ops = _exact_sweep_ops() + _fixed_table_ops()
    for K in sorted({k for c in K_CLASSES for k in c}):
        ops += table_ops(K, CONSTANT_KINDS[0])
        # only the inverse tables depend on the constants
        for kind in CONSTANT_KINDS[1:]:
            ops += [op for op in table_ops(K, kind) if op[1] == "inverse"]
    return ops


def op_key(argv: list[str]) -> str:
    return " ".join(argv)
