"""Runs one trusskit CLI job in a process of its own, for the benchmark's
isolated workload.

    python3 perfbench/child.py LIMIT SRC STATS JOB_ID ARGV...

LIMIT is the address-space limit in bytes, SRC the directory holding the
trusskit package. When STATS is a path (not "-"), the job is traced and its
per-layer statistics and spans are written there as JSON when it ends, also
when it is stopped with SIGTERM at its deadline. The exit code is the CLI's.
"""

import json
import resource
import signal
import sys
from contextlib import nullcontext
from pathlib import Path


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    limit, src, stats_path, job_id, *argv = sys.argv[1:]
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = int(limit)
    resource.setrlimit(resource.RLIMIT_AS, (limit if soft == resource.RLIM_INFINITY else min(limit, soft), hard))
    signal.signal(signal.SIGTERM, _stop)
    sys.path.insert(0, src)
    import trusskit.cli

    tr = None
    if stats_path != "-":
        sys.path.insert(1, str(Path(__file__).resolve().parent))
        import tracer

        tr = tracer.Tracer()
        tr.install()
    try:
        with tr.job(job_id) if tr is not None else nullcontext():
            return trusskit.cli.main(argv)
    finally:
        if tr is not None:
            with open(stats_path, "w") as fh:
                json.dump({"stats": tr.take_stats(), "spans": tr.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
