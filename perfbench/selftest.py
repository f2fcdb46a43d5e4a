"""Self-test of the benchmark: runs the smallest jobs of each workload, traced
and untraced, and checks that every metric is emitted with its unit and that
failures are counted.

    python3 perfbench/selftest.py

Exits 0 and prints "selftest ok" when every check holds.
"""

from __future__ import annotations

import sys
from argparse import Namespace

import run

# Substrings that pick each workload's smallest jobs out of its job list.
SMALLEST = {
    "bk": ["bk 4 2,2 ", "bk 9 3,3 ", "bk 6 2,3 "],
    "validate": ["from-group:25 ", "heap-25.json", "endo:2 ", "truss-endo-2.json", "--module zn:12 ", "module-zn-12.json"],
    "search": ["inner 2 3 ", "bk 2 2 ", "module-bk zn:4 zn:4 ", "z2sq-over-f2.json", "example-non-iso:2 "],
    "frontier": ["endo:3,3 ", "inner 3 3 "],
}
SMALLEST["tables"] = SMALLEST["validate"] + SMALLEST["search"]


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def picker(name: str):
    def select(job) -> bool:
        line = " ".join(job.argv) + " "
        return any(s in line for s in SMALLEST[name])

    return select


def main() -> int:
    import oracle

    for label, ok in oracle.verify_recorded(run.ROOT, quick=True):
        check(ok, f"recorded answer: {label}")

    env = run.prepare()
    check(env is not None, "the package imports from src/")
    import tracer
    import workloads

    for name in run.WORKLOADS + ["tables"]:
        for trace in (0, 1):
            args = Namespace(seed=7, seconds=0.0, trace=trace)
            report, result = run.measure_workload(name, args, env, picker(name))
            check(report["jobs"] == len(SMALLEST[name]), f"{name}: every smallest job was selected")
            expect = tracer.METRICS if trace else run.END_TO_END
            for metric, unit in expect.items():
                got = result["metrics"].get(metric)
                check(got is not None and got["unit"] == unit, f"{name} trace={trace}: {metric} in {unit}")
            check(set(result["metrics"]) == set(expect) | ({"trace.overhead_s"} if trace else set()),
                  f"{name} trace={trace}: no other metrics")
            check(report["metrics"]["failed_frac"]["unit"] == "ratio", f"{name}: failed_frac reported")
            check(result["attempted"] >= 1, f"{name}: jobs attempted")
            check(report["kernel_s"]["samples"] >= 1 and set(report["raw"]) >= {"wall_s", "max_job_s", "job_s.p50"},
                  f"{name} trace={trace}: reference kernel sampled and raw times reported")
            if name == "frontier":
                check(result["failed"] == result["attempted"], "frontier: every job fails today")
                if trace:
                    check(result["metrics"]["errors.bound_exceeded"]["value"] >= 1,
                          "frontier: traced children report BoundExceeded")
            else:
                check(result["failed"] == 0 and result["correct"], f"{name} trace={trace}: all answers right")
                if not trace:
                    check(run.UNCHECKED in report["metrics"], f"{name}: unchecked count reported untraced")

    # a wrong expected answer and a forced cap refusal are both failed jobs
    wrong = workloads.Job(["bk", "2", "2", "--json"], lambda p: workloads.bk_job("2", "3").check(p))
    refused = workloads.Job(["bk", "2,2", "2,2", "--json", "--max-enumeration", "1"], lambda p: None)
    wl = workloads.Workload("forced", [wrong, refused])
    args = Namespace(seed=7, seconds=0.0, trace=0)
    report, result = run.run_workload(wl, args, env, run.ROOT / ".perfbench_work")
    reasons = sorted(f["reason"] for f in report["failures"])
    check(result["failed"] == 2 and result["attempted"] == 2, f"forced failures counted: {reasons}")
    check(report["metrics"]["failed_frac"]["value"] == 1.0, "failed_frac counts both")
    check(reasons[0].startswith("exit 3") and reasons[1].startswith("wrong"), f"failure reasons: {reasons}")
    check(result["correct"] is False, "a wrong answer makes the run incorrect")
    check(report["metrics"]["wall_s"]["value"] == 2 * run.DEADLINE_S, "failed jobs are charged the deadline")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
