"""Shared constants and random-instance generators for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ehjam import (
    ChannelGains,
    SystemParams,
    db_to_linear,
    neutralization_feasible,
    sample_channels,
    solve_ne,
    transmit_budget,
)
from ehjam import experiments, solvers

# reference operating point used throughout: noise at -10/-7 dBm, jamming
# budget 10 dBm, harvesting efficiency 0.8
NA_MW = db_to_linear(-10.0)
NB_MW = db_to_linear(-7.0)
GAMMA_MW = db_to_linear(10.0)
ZETA = 0.8

ZETA_CHOICES = (0.2, 0.5, 0.8, 1.0)
SIR_CHOICES_DB = (-30.0, -10.0, 0.0, 10.0)


def reference_params(p_max=10.0, zeta=ZETA, gamma_max=GAMMA_MW) -> SystemParams:
    return SystemParams(n_a=NA_MW, n_b=NB_MW, p_max=p_max,
                        gamma_max=gamma_max, zeta=zeta)


def params_at_sir(sir_db: float, zeta: float = ZETA) -> SystemParams:
    return reference_params(p_max=transmit_budget(GAMMA_MW, sir_db), zeta=zeta)


def random_gains(rng: np.random.Generator) -> ChannelGains:
    h2, ga2, gb2 = rng.standard_normal(3) ** 2
    return ChannelGains(float(h2), float(ga2), float(gb2))


def random_instances(seed: int, count: int):
    """(gains, params) pairs over the standard mixture of SIR and zeta."""
    rng = np.random.default_rng(seed)
    out = []
    for index in range(count):
        gains = sample_channels(seed, index)
        zeta = ZETA_CHOICES[int(rng.integers(len(ZETA_CHOICES)))]
        sir_db = SIR_CHOICES_DB[int(rng.integers(len(SIR_CHOICES_DB)))]
        out.append((gains, params_at_sir(sir_db, zeta)))
    return out


def consistent_instances(seed: int, count: int):
    """Random (gains, params, ne_result) kept only when the solved full-power
    profile is self-consistent (full-power jamming is a best response to it);
    draws where the jammer would rather stay silent are redrawn."""
    rng = np.random.default_rng(seed)
    out = []
    index = 0
    while len(out) < count:
        gains = sample_channels(seed, index)
        zeta = ZETA_CHOICES[int(rng.integers(len(ZETA_CHOICES)))]
        sir_db = SIR_CHOICES_DB[int(rng.integers(len(SIR_CHOICES_DB)))]
        index += 1
        params = params_at_sir(sir_db, zeta)
        ne = solve_ne(gains, params)
        if ne.feasible:
            out.append((gains, params, ne))
    return out


def feasible_instances(seed: int, count: int, zeta: float = ZETA):
    """Random (gains, params) with a neutralizable jammer (positive threshold)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        gains = random_gains(rng)
        sir_db = SIR_CHOICES_DB[int(rng.integers(len(SIR_CHOICES_DB)))]
        params = params_at_sir(sir_db, zeta)
        if neutralization_feasible(gains, params):
            out.append((gains, params))
    return out


def infeasible_instances(seed: int, count: int, zeta: float = ZETA):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        gains = random_gains(rng)
        sir_db = SIR_CHOICES_DB[int(rng.integers(len(SIR_CHOICES_DB)))]
        params = params_at_sir(sir_db, zeta)
        if not neutralization_feasible(gains, params):
            out.append((gains, params))
    return out


@contextmanager
def counted_batches(limit: int | None = None):
    """Patch ChannelBatch in solvers and in experiments inside the block to
    count its constructions, yielded as a list of their arguments, and to raise
    past limit, if one is given. A batch owns its threshold line and reads it
    at every budget, its one-ulp nudge included, without building another; the
    checked one-shot calls (p_threshold, jamming_sign) build one each."""
    calls, real = [], solvers.ChannelBatch

    def counted(*args):
        calls.append(args)
        if limit is not None and len(calls) > limit:
            raise AssertionError(f"more than {limit} channel batches")
        return real(*args)

    solvers.ChannelBatch = experiments.ChannelBatch = counted
    try:
        yield calls
    finally:
        solvers.ChannelBatch = experiments.ChannelBatch = real
