"""Workload definitions and the inputs each one hands to the package.

Every workload is a closed loop: one caller in one process, no worker
threads, each call issued after the previous one returned. Each runs
``ehjam sweep`` in-process through ``ehjam.cli.run`` and, between sweeps,
the point_solves calls: ``solve_ne`` then ``solve_nj`` on the seed's first
draws. The benchmark's ``--seed`` is the only source of randomness; the
package receives only the inputs built here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

SIR_START_DB, SIR_STOP_DB = -30.0, 10.0
POINT_SIRS_DB = (-30.0, -10.0, 0.0, 10.0)
POINT_PAIRS = 1000


@dataclass(frozen=True)
class Workload:
    """A Monte Carlo sweep at the CLI's default powers and SIR range, plus
    the point_solves calls on the first `pairs` draws of the same seed."""

    name: str
    draws: int = 10_000
    sir_step_db: float = 1.0
    pairs: int = POINT_PAIRS

    @property
    def sir_points(self) -> int:
        return int((SIR_STOP_DB - SIR_START_DB) / self.sir_step_db + 1e-9) + 1

    def sweep_argv(self, seed: int, out: Path) -> list[str]:
        return ["sweep", "--seed", str(seed), "--draws", str(self.draws),
                "--sir-step-db", format(self.sir_step_db, "g"), "--out", str(out)]


WORKLOADS = {
    # The paper's experiment at the CLI defaults: 41 SIR points x 10k draws.
    # Batched tau solving dominates, so solver-kernel changes show here.
    "mc_default": Workload("mc_default"),
    # 250k draws at 5 SIR points: an 8 MB gain block plus draw-sized 2 MB
    # temporaries, far beyond the per-core cache, so sampling, memory and
    # aggregation weigh more; streaming should move this one.
    "mc_large": Workload("mc_large", draws=250_000, sir_step_db=10.0),
}


def point_inputs(seed: int, pairs: int):
    """[(gains, params, sir_db)] for draws 0..pairs-1, SIR cycling through
    POINT_SIRS_DB, powers at the CLI defaults."""
    from ehjam.experiments import sample_channels
    from ehjam.model import SystemParams, db_to_linear

    base = SystemParams(n_a=db_to_linear(-10.0), n_b=db_to_linear(-7.0),
                        p_max=1.0, gamma_max=db_to_linear(10.0), zeta=0.8)
    out = []
    for i in range(pairs):
        sir = POINT_SIRS_DB[i % len(POINT_SIRS_DB)]
        params = replace(base, p_max=base.gamma_max * db_to_linear(sir))
        out.append((sample_channels(seed, i), params, sir))
    return out


def build_inputs(workload: Workload, seed: int, out: Path):
    """Import the package and build the inputs of one run: the sweep's
    argument list and the point_solves pairs."""
    import ehjam.cli  # noqa: F401  (the sweep entry point)

    return workload.sweep_argv(seed, out), point_inputs(seed, workload.pairs)
