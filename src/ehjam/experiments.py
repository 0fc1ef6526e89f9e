"""Seeded channel sampling, SIR sweeps with Monte Carlo averaging, and the
machine-readable CSV the sweeps emit.

Reproducibility: channel draw `index` under `seed` is a pure function of
(seed, index) backed by a counter-based generator, so sweeps are byte-stable
across runs and indifferent to evaluation order or chunking. Sweeps stream
draws in fixed-size chunks (memory flat in the draw count); each chunk's
values become a few floats with the same exact sum (ExtractVector: Rump, Ogita
and Oishi, SIAM J. Sci. Comput. 31(1), 2008), so averages are exact fsums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .model import (
    ChannelGains,
    SystemParams,
    capacity,
    db_to_linear,
    linear_to_db,
)
from .solvers import ChannelBatch

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "metric_f",
    "metric_fnj",
    "sample_channels",
    "sir_points",
    "sir_sweep",
    "transmit_budget",
    "write_csv",
]

#: Tolerated float noise below exact dominance before a ratio is a violation.
DOMINANCE_TOL = 1e-9

#: Draws per chunk of a Monte Carlo sweep; results do not depend on it.
_CHUNK_DRAWS = 2**15


def _gain_block(seed: int, start: int, count: int) -> np.ndarray:
    """(count, 3) squared standard-normal gains for draws start..start+count-1.

    One 4-word counter block per draw (3 words used), so the i-th row only
    depends on (seed, start + i).
    """
    bit_gen = Philox(key=seed)
    if start:
        bit_gen.advance(start)
    raw = Generator(bit_gen).integers(0, 2**64, size=(count, 4), dtype=np.uint64)
    u = ((raw[:, :3] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u) ** 2


def sample_channels(seed: int, index: int) -> ChannelGains:
    """Channel gains for one fading cycle: squares of three independent
    standard-normal coefficients, deterministic in (seed, index)."""
    if not 0 <= seed < 2**128:
        raise ValueError("seed must lie in [0, 2**128)")
    if index < 0:
        raise ValueError("index must be >= 0")
    h2, ga2, gb2 = _gain_block(seed, index, 1)[0]
    return ChannelGains(float(h2), float(ga2), float(gb2))


def _relative_gain(c_ref, c_other, other_name: str):
    ref = np.asarray(c_ref, dtype=float)
    other = np.asarray(c_other, dtype=float)
    if np.any(ref < 0.0) or np.any(other < 0.0):
        raise ValueError("capacities must be >= 0")
    if np.any((ref == 0.0) & (other > 0.0)):
        raise ValueError(f"{other_name} > 0 with zero reference capacity")
    with np.errstate(invalid="ignore", divide="ignore"):
        r = (ref - other) / ref
    r = np.where(ref == 0.0, 0.0, r)
    if np.any(r < -DOMINANCE_TOL):
        raise ValueError(f"{other_name} exceeds the reference capacity")
    out = np.maximum(r, 0.0)
    return float(out) if np.ndim(out) == 0 else out


def metric_fnj(c_ne, c_nj):
    """Relative gain of the full-power solution over the neutralizing one:
    (c_ne - c_nj)/c_ne. 1 when c_nj == 0, 0 on a zero reference."""
    return _relative_gain(c_ne, c_nj, "c_nj")


def metric_f(c_ne, c_no_eh):
    """Relative gain of harvesting over the no-EH baseline:
    (c_ne - c_no_eh)/c_ne. 0 when the optimal EH fraction is 0."""
    return _relative_gain(c_ne, c_no_eh, "c_no_eh")


@dataclass(frozen=True)
class SweepConfig:
    """SIR sweep description, SIR in dB.

    The jamming budget gamma_max is held fixed; the transmit budget at each
    point is transmit_budget(gamma_max, sir_db), passed to ChannelBatch as a
    float, so params.p_max is ignored. Every point's budget is checked here,
    before any work. fixed_gains replaces the mc_draws random channels by that
    one channel: the Monte Carlo sweep with a single draw.
    """

    sir_start_db: float
    sir_stop_db: float
    sir_step_db: float
    params: SystemParams
    fixed_gains: ChannelGains | None = None
    mc_draws: int = 10_000
    rng_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sir_start_db) and math.isfinite(self.sir_stop_db)):
            raise ValueError("SIR range must be finite")
        if not self.sir_step_db > 0.0:
            raise ValueError("sir_step_db must be positive")
        if self.sir_stop_db < self.sir_start_db:
            raise ValueError("sir_stop_db must be >= sir_start_db")
        if self.mc_draws < 1:
            raise ValueError("mc_draws must be >= 1")
        if not 0 <= self.rng_seed < 2**128:
            raise ValueError("rng_seed must lie in [0, 2**128)")
        for sir_db in sir_points(self):
            transmit_budget(self.params.gamma_max, sir_db)


@dataclass(frozen=True)
class SweepRecord:
    """One SIR point. Capacities are Monte Carlo means in MC mode; f and f_nj
    are ratios of those means, while *_ratio_mean average the per-draw ratios."""

    sir_db: float
    c_ne: float
    c_nj: float
    c_no_eh: float
    f: float
    f_nj: float
    nj_feasible_fraction: float
    tau_ne_mean: float
    f_ratio_mean: float
    f_nj_ratio_mean: float


#: CSV columns, in SweepRecord field order.
_CSV_COLUMNS = tuple(f.name for f in fields(SweepRecord))


def transmit_budget(gamma_max: float, sir_db: float) -> float:
    """The transmit budget P = gamma_max * 10**(sir_db/10) of one SIR point, in mW."""
    p_max = gamma_max * db_to_linear(sir_db)
    if not 0.0 < p_max < math.inf:
        raise ValueError(f"gamma_max {gamma_max:.17g} mW leaves P = gamma_max*10^(SIR/10)"
                         f" = {p_max:.12g} mW at SIR {sir_db:.12g} dB;"
                         " P must be positive and finite")
    return p_max


def sir_points(config: SweepConfig) -> list[float]:
    """Inclusive dB grid start, start+step, ... up to stop (1e-9 slack)."""
    n = int(math.floor((config.sir_stop_db - config.sir_start_db)
                       / config.sir_step_db + 1e-9)) + 1
    return [config.sir_start_db + i * config.sir_step_db for i in range(n)]


def _exact_parts(values) -> list[float]:
    """A few floats whose exact sum is the exact sum of values.

    With sigma = 2^(e(max|a|) + e(n+2)), e the frexp exponent (>= ceil log2),
    q = (sigma + a) - sigma and a - q are exact and the q sum exactly in any
    order; repeat on a - q until it is 0. Where sigma would overflow or a
    value is not finite, the values are handed on as they are.
    """
    a = np.asarray(values, dtype=float).ravel()
    parts = []
    bits = math.frexp(a.size + 2.0)[1]
    while a.size and (top := float(np.max(np.abs(a)))) != 0.0:
        exponent = math.frexp(top)[1] + bits
        if not math.isfinite(top) or exponent > 1023:
            return parts + a.tolist()
        sigma = math.ldexp(1.0, exponent)
        q = (sigma + a) - sigma
        parts.append(float(np.sum(q)))
        a = a - q
    return parts


def _make_record(sir_db, parts, draws, nj_frac) -> SweepRecord:
    """One SIR point's record from the parts of c_ne, c_nj, c_no_eh, tau_ne, f, f_nj."""
    m_ne, m_nj, m_0, m_tau, m_f, m_fnj = (math.fsum(col) / draws for col in parts)
    return SweepRecord(sir_db, m_ne, m_nj, m_0, metric_f(m_ne, m_0),
                       metric_fnj(m_ne, m_nj), nj_frac, m_tau, m_f, m_fnj)


def sir_sweep(config: SweepConfig) -> list[SweepRecord]:
    """One SweepRecord per SIR point, ascending.

    Monte Carlo mode draws mc_draws channels (indices 0..mc_draws-1 under
    rng_seed, shared by all SIR points) and averages the capacities before
    taking the efficiency ratios; fixed gains are the one-draw case. Each
    chunk of _CHUNK_DRAWS draws is solved at every SIR point in turn."""
    sirs = sir_points(config)
    params, gamma_max = config.params, config.params.gamma_max
    budgets = [transmit_budget(gamma_max, sir_db) for sir_db in sirs]
    if config.fixed_gains is not None:
        g = config.fixed_gains
        draws, blocks = 1, [np.array([[g.h2, g.ga2, g.gb2]], dtype=float)]
    else:
        draws = config.mc_draws
        blocks = (_gain_block(config.rng_seed, start, min(_CHUNK_DRAWS, draws - start))
                  for start in range(0, draws, _CHUNK_DRAWS))
    parts = [[[] for _ in range(6)] for _ in budgets]
    feasible = 0
    for block in blocks:
        gains = ChannelGains(block[:, 0], block[:, 1], block[:, 2])
        batch = ChannelBatch(gains, params)
        feasible += np.count_nonzero(batch.feasible)
        for p_max, cols in zip(budgets, parts):
            ne, nj = batch.ne(p_max), batch.nj(p_max)
            c_no_eh = capacity(p_max, 0.0, gamma_max, gains, params)
            for col, values in zip(cols, (ne.value, nj.value, c_no_eh, ne.tau,
                                          metric_f(ne.value, c_no_eh),
                                          metric_fnj(ne.value, nj.value))):
                col += _exact_parts(values)
    return [_make_record(sir_db, cols, draws, feasible / draws)
            for sir_db, cols in zip(sirs, parts)]


def _config_echo(config: SweepConfig) -> list[str]:
    p = config.params
    fmt = lambda x: format(x, ".12g")
    lines = [
        "# ehjam sir sweep",
        f"# na_dbm={fmt(linear_to_db(p.n_a))} nb_dbm={fmt(linear_to_db(p.n_b))}"
        f" gamma_dbm={fmt(linear_to_db(p.gamma_max))} zeta={fmt(p.zeta)}",
        f"# sir_db={fmt(config.sir_start_db)}..{fmt(config.sir_stop_db)}"
        f" step {fmt(config.sir_step_db)}",
    ]
    if config.fixed_gains is not None:
        g = config.fixed_gains
        lines.append(
            f"# mode=fixed-gains h2={fmt(g.h2)} ga2={fmt(g.ga2)} gb2={fmt(g.gb2)}")
    else:
        lines.append(
            f"# mode=monte-carlo draws={config.mc_draws} seed={config.rng_seed}"
            " gains=squared-standard-normal")
    lines.append(
        "# aggregation=ratio-of-averaged-capacities"
        " (per-draw ratio means in f_ratio_mean,f_nj_ratio_mean)")
    return lines


def write_csv(records, destination, config: SweepConfig) -> None:
    """Write sweep records as CSV, sorted by sir_db ascending, 17 significant
    digits per value (round-trips exactly), after '#'-prefixed comment lines
    that echo the run parameters."""
    if not records:
        raise ValueError("no records to write")
    lines = _config_echo(config)
    lines.append(",".join(_CSV_COLUMNS))
    for rec in sorted(records, key=lambda r: r.sir_db):
        lines.append(",".join(
            format(getattr(rec, col), ".17g") for col in _CSV_COLUMNS))
    path = Path(destination)
    try:
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
    except OSError as exc:
        raise OSError(f"could not write sweep CSV to {path}: {exc}") from exc
