"""Child process timed by the benchmark's setup_s metric.

Imports the package, builds the inputs of one run, prints ``ready`` and
exits. The parent times the span from spawning this process to the line.

    python3 bench/setup_probe.py <draws> <sir_step_db> <pairs> <seed> <out>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from inputs import Workload, build_inputs  # noqa: E402

draws, step, pairs, seed, out = sys.argv[1:]
build_inputs(Workload("setup", int(draws), float(step), int(pairs)), int(seed), Path(out))
print("ready", flush=True)
