"""The ehjam benchmark: one run of one workload.

    python3 bench/run.py --workload mc_default --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separately traced run. Each run checks its outputs
against the references (``checks.py``), writes ``bench/out/<run>/result.json``
(metrics, checks, samples, environment) and prints a summary whose last line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``bench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def environment(load_1m: float) -> dict:
    """What the run was measured on. Observed only; nothing is set."""
    import numpy
    import scipy

    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = (_git("rev-parse", "HEAD") or "").strip() or None
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status.strip())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": load_1m,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    load_1m = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "ehjam" / "__init__.py").is_file():
        print(f"bench: no ehjam package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from inputs import WORKLOADS
    from workloads import E2E_UNITS, LAYER_UNITS, run_traced, run_untraced

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run_dir = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        values, outcome, details = run_traced(workload, args.seed, args.seconds, run_dir)
        units = LAYER_UNITS
    else:
        values, outcome, details = run_untraced(workload, args.seed, args.seconds, run_dir)
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = outcome.failed == 0 and details.get("traced_outputs_identical", True)
    failed_frac = outcome.failed / outcome.attempted
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "failed_frac": failed_frac,
        "problems": outcome.problems, "metrics": metrics, "details": details,
        "environment": environment(load_1m),
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed_frac:.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for name, claim in details.get("roadmap_claims", {}).items():
        print(f"roadmap {name}: measured {claim['measured']:.4g},"
              f" claimed {claim['claimed']:.4g}")
    if details.get("absent_layers"):
        print("absent layers: " + ", ".join(details["absent_layers"]))
    for problem in outcome.problems[:5]:
        print(f"failed: {problem}")
    print(f"result file: {run_dir / 'result.json'}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
