"""Regenerate the committed reference outputs in bench/reference/ from the
package in src/. Run from the root of a source checkout:

    python3 bench/make_reference.py

Only for a change that is meant to alter results; the references pin what
every later benchmark run is checked against.
"""

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from inputs import POINT_PAIRS, WORKLOADS, point_inputs  # noqa: E402

REFERENCE_SEEDS = (0, 1901)  # the default seed and a held-out one


def main() -> None:
    import ehjam.cli as cli
    import ehjam.solvers as solvers

    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for seed in REFERENCE_SEEDS:
        for workload in WORKLOADS.values():
            path = checks.reference_path(workload.name, seed)
            with redirect_stdout(StringIO()):
                rc = cli.run(workload.sweep_argv(seed, path))
            if rc != 0:
                raise SystemExit(f"{workload.name} seed {seed}: exit {rc}")
            print(f"wrote {path}")
        rows = []
        for i, (gains, params, sir) in enumerate(point_inputs(seed, POINT_PAIRS)):
            for name, solve in (("ne", solvers.solve_ne), ("nj", solvers.solve_nj)):
                r = solve(gains, params)
                rows.append((i, name, sir, r.value, r.profile.legit.tau,
                             r.regime.value, r.feasible))
        path = checks.reference_path("point_solves", seed)
        path.write_text(checks.format_point_rows(rows), encoding="ascii")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
