"""Self-test of the benchmark at tiny sizes. Run from a source checkout:

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that every entry of the layer table resolves at this commit, that tracing
leaves the CSV bytes and solver results unchanged, and that the oracle
reproduces the committed reference files. Exits non-zero on any failure.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from inputs import (POINT_PAIRS, POINT_SIRS_DB, SIR_START_DB, SIR_STOP_DB,  # noqa: E402
                    WORKLOADS, Workload)
from workloads import E2E_UNITS, LAYER_UNITS, run_traced, run_untraced  # noqa: E402

TINY = Workload("tiny", draws=300, sir_step_db=10.0, pairs=24)


def main() -> int:
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json names the workloads of inputs.py")
    expect(e2e == E2E_UNITS, "end-to-end metrics and units match BENCHMARK.json")
    expect(layer == LAYER_UNITS, "per-layer metrics and units match BENCHMARK.json")

    found, missing = tracing.resolve()
    expect(not missing and set(found) == set(tracing.LAYERS),
           f"every layer-table entry resolves (missing: {missing})")

    out = BENCH_DIR / "out" / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    for seed in (0, 5):
        values, outcome, _ = run_untraced(TINY, seed, 0.01, out, setup_probes=1)
        expect(set(values) == set(e2e) and all(v > 0 for v in values.values()),
               f"seed {seed}: every end-to-end metric, all positive")
        expect(outcome.failed == 0 and outcome.attempted > 0,
               f"seed {seed}: untraced outputs match the reference")
        values, outcome, details = run_traced(TINY, seed, 0.01, out)
        expect(set(values) == set(layer), f"seed {seed}: every per-layer metric")
        expect(outcome.failed == 0 and not details["absent_layers"]
               and details["traced_outputs_identical"],
               f"seed {seed}: traced outputs identical to untraced")

    for seed in (0, 1901):
        for w in WORKLOADS.values():
            path = checks.reference_path(w.name, seed)
            text = oracle.sweep_csv(seed, w.draws, SIR_START_DB, SIR_STOP_DB,
                                    w.sir_step_db)
            expect(text == path.read_text(encoding="ascii"),
                   f"oracle reproduces {path.name}")
        rows = oracle.point_results(seed, POINT_PAIRS, POINT_SIRS_DB)
        ref, source = checks.point_reference(seed, POINT_PAIRS)
        expect(source.startswith("committed") and all(
            checks.point_ok(r[3:], c) for r, c in zip(rows, ref)),
            f"oracle reproduces point_solves-seed{seed}.csv")

    print("selftest " + ("passed" if not failures else f"FAILED: {len(failures)}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
