"""Benchmark for trusskit: runs one workload of real CLI jobs, checks every
answer, and prints the workload's metrics.

    python3 perfbench/run.py --workload bk --seed 1 --seconds 36 --trace 0

Workloads are bk, validate, search and frontier (see workloads.py for why
each exists), and tables, which is validate and search as one job list;
`--workload all` runs the four in turn. Jobs call
`trusskit.cli.main(argv)` in this process, one after another, except that
frontier jobs each run in a child process under an address-space limit. The
job list is run again while another pass fits in `--seconds`; after the
first pass, short jobs are repeated within each pass at shuffled positions,
and a job's time is the median of all its runs, each scaled by a reference
kernel run between jobs (see speed.py). The package is imported from `src/`
next to this directory.

With `--trace 0` the end-to-end metrics are measured. With `--trace 1`
untraced and traced passes alternate: the per-layer metrics come from the
traced passes, the tracing overhead is traced minus untraced `wall_s`, and
the spans are written to `.perfbench_out/`.

Output: a report line per workload (seed, versions, job counts, all six
end-to-end metrics, each failed job's reason), then as the last line one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One thread per process: the jobs are single-threaded Python and numpy, and
# idle BLAS threads only add noise on a small machine. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import io
import json
import math
import platform
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ["bk", "validate", "search", "frontier"]

DEADLINE_S = 30.0  # per job; a failed job is charged this much
RUN_BUDGET_S = 150.0  # no job starts later than this into a workload run
MEMORY_LIMIT = 2 << 30  # address space, bytes
SETUP_PROBES = 9
# After the first pass, a job shorter than this share of the mean job time is
# repeated in each later pass (at most MAX_REPEATS times, at shuffled
# positions), so that a short job's median is taken over many runs spread
# across the whole run, not over one run per pass.
REPEAT_SHARE = 0.5
MAX_REPEATS = 64

# The metrics of the last output line with --trace 0, and their units.
END_TO_END = {
    "wall_s": "s",
    "max_job_s": "s",
    "job_s.p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
UNCHECKED = "baer_kaplansky.heap_iso_from_truss_iso.unchecked"

_BARE = "import time\nprint(time.monotonic())\n"
_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import trusskit\n"
    "print(time.monotonic())\n"
)


class Deadline(BaseException):
    """Raised in a job that outlived its deadline; a BaseException so that no
    handler in the package swallows it."""


def _on_alarm(signum, frame):
    raise Deadline()


def _start(code: str) -> float:
    """Seconds from starting a Python process running `code` to its print."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout) - start


def measure_setup() -> tuple[float, float]:
    """Time from starting a Python process to `import trusskit` done: the
    median over probes, each scaled by a bare Python start just before it,
    and the raw median. The first probe fills the bytecode cache and is not
    counted."""
    from speed import START_REFERENCE_S

    scaled, raw = [], []
    for _ in range(SETUP_PROBES + 1):
        bare = _start(_BARE)
        raw.append(_start(_PROBE))
        scaled.append(raw[-1] * START_REFERENCE_S / bare)
    return median(scaled[1:]), median(raw[1:])


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs jobs, each under the deadline, and judges their answers."""

    def __init__(self, cli, judge, run_start: float, workdir: Path, speed) -> None:
        self.speed = speed  # reference kernel samples, taken between jobs
        self.cli = cli  # the module: main is looked up per job, so tracing sees it
        self.judge = judge
        self.run_start = run_start
        self.workdir = workdir  # where traced child processes leave their statistics

    def _time_left(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.run_start)

    def in_process(self, job, tracer=None, job_id=None) -> tuple[float, str | None, float]:
        if self._time_left() <= 0:
            return DEADLINE_S, "deadline (run budget spent)", time.perf_counter()
        self.speed.maybe()
        out = io.StringIO()
        rc, reason = None, None
        scope = tracer.job(job_id) if tracer is not None else nullcontext()
        gc.collect()  # every job starts from a clean heap, as in a fresh process
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, min(DEADLINE_S, self._time_left()))
            with scope, redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = self.cli.main(list(job.argv))
        except Deadline:
            reason = "deadline"
        except MemoryError:
            reason = "memory limit"
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash in the program is a failed job
            reason = f"exception: {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
        self.speed.follow(elapsed)
        reason = reason or self.judge(job, rc, out.getvalue())
        return (DEADLINE_S if reason else elapsed), reason, start

    def isolated(self, job, tracer=None, job_id=None) -> tuple[float, str | None, float]:
        if self._time_left() <= 0:
            return DEADLINE_S, "deadline (run budget spent)", time.perf_counter()
        self.speed.maybe()
        stats = "-"
        if tracer is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
            stats = str(self.workdir / "child-trace.json")
        reason = None
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(MEMORY_LIMIT), str(SRC), stats, job_id, *job.argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=min(DEADLINE_S, self._time_left()))
        except subprocess.TimeoutExpired:
            reason = "deadline"
            proc.terminate()  # lets a traced child write what it saw
            try:
                out, err = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
        elapsed = time.perf_counter() - start
        if tracer is not None and Path(stats).is_file():
            tracer.merge(json.loads(Path(stats).read_text()))
            Path(stats).unlink()
        if reason is None:
            if "MemoryError" in err:
                reason = "memory limit"
            elif proc.returncode < 0:
                reason = f"exception: killed by signal {-proc.returncode}"
            else:
                reason = self.judge(job, proc.returncode, out)
        return (DEADLINE_S if reason else elapsed), reason, start


def run_pass(workload, order, runner, tracer=None):
    """One pass over the job list in `order`, where a job index appears once
    per run of that job: the [(charged s, reason, start)] runs of each job."""
    run = runner.isolated if workload.isolated else runner.in_process
    results = [[] for _ in workload.jobs]
    for i in order:
        results[i].append(run(workload.jobs[i], tracer, f"{i}:{' '.join(workload.jobs[i].argv)}"))
    runner.speed.sample()  # the last job's kernel sample after it
    return results


def scaled(passes, speed) -> list:
    """The passes with each successful run's time scaled by the reference
    kernel around it: [(s, reason)] runs of each job."""
    return [
        [[(t if reason else t * speed.scale(start, start + t), reason) for t, reason, start in runs] for runs in p]
        for p in passes
    ]


def raw(passes) -> list:
    return [[[(t, reason) for t, reason, _ in runs] for runs in p] for p in passes]


def repeats(first_pass) -> list[int]:
    """How often each job runs in a pass after the first: a job shorter than
    REPEAT_SHARE of the mean job time runs until it fills that share."""
    times = [t for runs in first_pass for t, _, _ in runs]
    share = REPEAT_SHARE * sum(times) / len(times)
    return [min(MAX_REPEATS, max(1, math.ceil(share / max(t, 1e-6)))) for t in times]


def job_times(passes) -> list[float]:
    """Each job's median time over all its runs in all passes, or the
    deadline if any run failed. wall_s sums them, so a stall that hits one
    run does not move the figure."""
    per_job = []
    for i in range(len(passes[0])):
        runs = [r for p in passes for r in p[i]]
        per_job.append(DEADLINE_S if any(r for _, r in runs) else median(t for t, _ in runs))
    return per_job


def summarize(passes) -> dict[str, float]:
    per_job = job_times(passes)
    attempted = sum(len(runs) for p in passes for runs in p)
    failed = sum(1 for p in passes for runs in p for _, reason in runs if reason)
    return {
        "wall_s": sum(per_job),
        "max_job_s": max(per_job),
        "job_s.p50": median_low(per_job),  # one job's time, never a mean of two
        "failed_frac": failed / attempted,
    }


def failures(workload, passes) -> list[dict]:
    seen: dict[tuple, int] = {}
    for p in passes:
        for i, runs in enumerate(p):
            for _, reason in runs:
                if reason:
                    key = (" ".join(workload.jobs[i].argv), reason)
                    seen[key] = seen.get(key, 0) + 1
    return [{"job": job, "reason": reason, "times": n} for (job, reason), n in seen.items()]


def run_workload(wl, args, env: dict, workdir: Path) -> tuple[dict, dict]:
    """Measure one built workload: (report line, result line)."""
    import tracer as tracing
    import workloads
    from speed import REFERENCE_S, Speed

    rng = random.Random(args.seed)
    run_start = time.perf_counter()
    runner = Runner(env["cli"], workloads.judge, run_start, workdir, Speed())

    def order(reps=None):
        ids = [i for i in range(len(wl.jobs)) for _ in range(reps[i] if reps else 1)]
        rng.shuffle(ids)
        return ids

    pass_start = [run_start]

    def more(passes) -> bool:
        if not passes:
            return True
        if wl.isolated:
            return False
        # another pass only if one as long as the last ends within the measuring time
        now = time.perf_counter()
        last, pass_start[0] = now - pass_start[0], now
        return now - run_start + last <= min(args.seconds, RUN_BUDGET_S)

    passes, traced, layer_stats = [], [], []
    counts = {"unchecked": 0}
    if args.trace:
        tr = tracing.Tracer()
        while more(passes):
            passes.append(run_pass(wl, order(), runner))
            if not wl.isolated:
                tr.install()
            try:
                traced.append(run_pass(wl, order(), runner, tr))
            finally:
                tr.uninstall()
            layer_stats.append(tr.take_stats())
    else:
        patches = tracing.count_unchecked(counts)  # over the first pass: one run per job
        try:
            passes.append(run_pass(wl, order(), runner))
        finally:
            patches.undo()
        reps = repeats(passes[0])
        while more(passes):
            passes.append(run_pass(wl, order(reps), runner))

    unscaled = raw(passes)
    passes, traced = scaled(passes, runner.speed), scaled(traced, runner.speed)
    every = passes + traced
    e2e = summarize(passes)
    raw_e2e = summarize(unscaled)
    who = resource.RUSAGE_CHILDREN if wl.isolated else resource.RUSAGE_SELF
    e2e["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    e2e["setup_s"] = env["setup_s"]
    units = dict(END_TO_END, failed_frac="ratio")
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "git_sha": env["git_sha"],
        "python": platform.python_version(),
        "numpy": env["numpy"],
        "nproc": os.cpu_count(),
        "jobs": len(wl.jobs),
        "passes": len(passes),
        "pass_wall_s": [sum(t for runs in p for t, _ in runs) for p in passes],
        "runs_per_pass": None if args.trace else reps,
        "job_s": {
            " ".join(job.argv).replace(str(workdir), "<inputs>"): t
            for job, t in zip(wl.jobs, job_times(passes))
        },
        "deadline_s": DEADLINE_S,
        "metrics": {k: {"value": e2e[k], "unit": units[k]} for k in units},
        "reference_s": REFERENCE_S,
        "kernel_s": {"median": median(runner.speed.durs), "samples": len(runner.speed.durs)},
        "raw": {
            "wall_s": raw_e2e["wall_s"],
            "max_job_s": raw_e2e["max_job_s"],
            "job_s.p50": raw_e2e["job_s.p50"],
            "setup_s": env["setup_raw_s"],
            "pass_wall_s": [sum(t for runs in p for t, _ in runs) for p in unscaled],
        },
        "failures": failures(wl, every),
    }
    if args.trace:
        per_layer = {k: median(s[k] for s in layer_stats) for k in tracing.METRICS}
        overhead = summarize(traced)["wall_s"] - e2e["wall_s"]
        report["traced_passes"] = len(traced)
        report["tracing_overhead_s"] = overhead
        metrics = {k: {"value": v, "unit": tracing.METRICS[k]} for k, v in per_layer.items()}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tr.write_spans(spans)
        report["spans"] = str(spans.relative_to(ROOT))
    else:
        if not wl.isolated:  # child processes are not counted untraced
            report["metrics"][UNCHECKED] = {"value": counts["unchecked"], "unit": "count"}
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    reasons = [reason for p in every for runs in p for _, reason in runs if reason]
    result = {
        "correct": not any(r.startswith(workloads.WRONG) for r in reasons),
        "attempted": sum(len(runs) for p in every for runs in p),
        "failed": len(reasons),
        "metrics": metrics,
    }
    return report, result


def prepare() -> dict | None:
    """Import the package from SRC and set the process limits; the shared
    environment of every workload run, or None when SRC has no package."""
    if not (SRC / "trusskit" / "__init__.py").is_file():
        print(f"error: no trusskit package under {SRC}", file=sys.stderr)
        return None
    # One CPU for the whole run: the jobs, the reference kernel that scales
    # their times, and the set-up probes all run on it.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s, setup_raw_s = measure_setup()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import numpy
    import trusskit
    import trusskit.cli

    if Path(trusskit.__file__).resolve().parent != (SRC / "trusskit").resolve():
        print(f"error: imported trusskit from {trusskit.__file__}, not {SRC}", file=sys.stderr)
        return None
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    signal.signal(signal.SIGALRM, _on_alarm)
    return {"cli": trusskit.cli, "git_sha": git_sha(), "numpy": numpy.__version__, "setup_s": setup_s, "setup_raw_s": setup_raw_s}


def measure_workload(name: str, args, env: dict, select=None) -> tuple[dict, dict]:
    """Build workload `name` from the seed (keeping the jobs `select` accepts,
    when given), measure it, and remove its generated inputs."""
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{name}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(name, args.seed, workdir)
        if select is not None:
            wl.jobs = [job for job in wl.jobs if select(job)]
        return run_workload(wl, args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["tables", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = prepare()
    if env is None:
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        report, results[name] = measure_workload(name, args, env)
        print(json.dumps(report), flush=True)
    if len(names) == 1:
        last = results[names[0]]
    else:
        last = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
