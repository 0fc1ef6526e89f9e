"""Seeded channel sampling, SIR sweeps with Monte Carlo averaging, and the
machine-readable CSV the sweeps emit.

Reproducibility: channel draw `index` under `seed` is a pure function of
(seed, index), index in [0, 2**256), backed by a counter-based generator
(Philox4x64-10), so sweeps are byte-stable across runs and indifferent to
evaluation order or chunking. One draw (sample_channels) is computed in
Python ints and floats, bit-identical to the sweep's row; only sweeps import
numpy.random, to draw whole chunks. Sweeps stream draws in fixed-size chunks
(memory flat in the draw count); each chunk's values become a few floats with
the same exact sum (ExtractVector: Rump, Ogita and Oishi, SIAM J. Sci.
Comput. 31(1), 2008), so averages are exact fsums.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

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

#: Most SIR points a sweep may have; every point solves every draw again.
_MAX_SIR_POINTS = 100_000

#: Wichura's AS241 PPND16 (Appl. Stat. 37(3), 1988): coefficients, highest
#: degree first, numerator + 1j*denominator, of the normal quantile's
#: rationals for |u - 0.5| <= 0.425 in r = 0.180625 - (u - 0.5)^2, then in
#: r = sqrt(-log(min(u, 1 - u))) for r <= 5 (in r - 1.6) and beyond (in r - 5).
_AS241_CENTRAL = tuple(map(
    complex,
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0)))
_AS241_TAIL = tuple(map(
    complex,
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0)))
_AS241_FAR = tuple(map(
    complex,
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0)))


def _rational(coefficients, r):
    """(numerator, denominator) of a rational in real r by Horner's rule, run
    once on numerator + 1j*denominator: multiplying by a real r and adding a
    constant act on each part alone, exactly, at half the numpy calls."""
    acc = coefficients[0] * r
    for c in coefficients[1:-1]:
        acc += c
        acc *= r
    acc += coefficients[-1]
    return acc.real, acc.imag


def _ndtri_one(u: float) -> float:
    """_ndtri of one Python float, bit for bit, in float arithmetic: -inf at 0
    and inf at 1, without a warning. The tail takes its log through np.log on
    an np.float64, whose last bit can differ from math.log's but matches the
    array path's."""
    q = u - 0.5
    if abs(q) <= 0.425:
        num, den = _rational(_AS241_CENTRAL, 0.180625 - q * q)
        return q * num / den
    low = min(u, 1.0 - u)
    if low == 0.0:
        return math.copysign(math.inf, q)
    r = math.sqrt(-float(np.log(np.float64(low))))
    if r > 5.0:
        num, den = _rational(_AS241_FAR, r - 5.0)
    else:
        num, den = _rational(_AS241_TAIL, r - 1.6)
    return math.copysign(num / den, q)


def _ndtri(u):
    """Standard-normal quantile of an array u in [0, 1], elementwise, by AS241
    (relative error about 1e-16): -inf at 0 and inf at 1. The central
    rational runs on every element, the tail ones only on |u - 0.5| > 0.425
    (about 15% of uniform draws) and on r > 5 (u below 1.4e-11 or above
    1 - 1.4e-11)."""
    q = u - 0.5
    num, den = _rational(_AS241_CENTRAL, 0.180625 - q * q)
    x = q * num
    x /= den
    del num, den  # a complex array twice the size of u
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        with np.errstate(divide="ignore", invalid="ignore"):  # u in {0, 1}: r is inf
            u_tail = u.flat[tail]
            r = np.sqrt(-np.log(np.minimum(u_tail, 1.0 - u_tail)))
            num, den = _rational(_AS241_TAIL, r - 1.6)
            x_tail = num / den
            far = np.flatnonzero(r > 5.0)
            if far.size:
                num, den = _rational(_AS241_FAR, r[far] - 5.0)
                x_tail[far] = np.where(np.isinf(r[far]), np.inf, num / den)
        x.flat[tail] = np.copysign(x_tail, q.flat[tail])
    return x


_MASK64 = 2**64 - 1


def _philox_block(key: int, counter: int) -> tuple[int, int, int, int]:
    """The four 64-bit words of Philox4x64-10 (Salmon, Moraes, Dror and Shaw,
    SC11, 2011) at a 128-bit key and a 256-bit counter, low words first, in
    Python ints: numpy's Philox(key=key, counter=counter - 1).random_raw(4)."""
    k0, k1 = key & _MASK64, key >> 64
    c0, c1, c2, c3 = (counter >> shift & _MASK64 for shift in (0, 64, 128, 192))
    for _ in range(10):
        p0 = 0xD2E7470EE14C6C93 * c0
        p1 = 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = ((p1 >> 64) ^ c1 ^ k0, p1 & _MASK64,
                          (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64)
        k0 = (k0 + 0x9E3779B97F4A7C15) & _MASK64
        k1 = (k1 + 0xBB67AE8584CAA73B) & _MASK64
    return c0, c1, c2, c3


def _gain_block(seed: int, start: int, count: int) -> np.ndarray:
    """(count, 3) squared standard-normal gains for draws start..start+count-1.

    One 4-word counter block per draw (3 words used), so the i-th row only
    depends on (seed, start + i): draw i is Philox4x64-10 at counter
    (i + 1) mod 2**256, the top 53 bits of each word k giving the uniform
    (k + 0.5) * 2**-53. numpy.random is imported here, not with the module.
    """
    from numpy.random import Philox

    raw = Philox(key=seed, counter=start).random_raw((count, 4))  # integers(0, 2**64)
    u = (raw[:, :3] >> np.uint64(11)).astype(np.float64)
    del raw
    u += 0.5
    u *= 2.0**-53
    x = _ndtri(u)
    x *= x
    return x


def sample_channels(seed: int, index: int) -> ChannelGains:
    """Channel gains for one fading cycle: squares of three independent
    standard-normal coefficients, deterministic in (seed, index), integers of
    any type, index in [0, 2**256). Computed in Python ints and floats, bit for
    bit the row of _gain_block(seed, index, 1), without importing numpy.random."""
    seed, index = operator.index(seed), operator.index(index)
    if not 0 <= seed < 2**128:
        raise ValueError("seed must lie in [0, 2**128)")
    if not 0 <= index < 2**256:
        raise ValueError("index must lie in [0, 2**256)")
    words = _philox_block(seed, (index + 1) % 2**256)
    x = [_ndtri_one((float(k >> 11) + 0.5) * 2.0**-53) for k in words[:3]]
    return ChannelGains(x[0] * x[0], x[1] * x[1], x[2] * x[2])


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
    float, so params.p_max is ignored. The grid size (see sir_points) and
    every point's budget (by that same call) are checked here, before any
    work; mc_draws and rng_seed are taken through operator.index. fixed_gains
    replaces the mc_draws random channels by that one channel: the Monte
    Carlo sweep with a single draw.
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
        for name in ("mc_draws", "rng_seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
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
    """Inclusive dB grid start, start+step, ... up to stop (1e-9 slack), of at
    most 100,000 points (_MAX_SIR_POINTS); a finer grid raises ValueError."""
    steps = (config.sir_stop_db - config.sir_start_db) / config.sir_step_db + 1e-9
    if not steps < _MAX_SIR_POINTS:
        raise ValueError(f"the SIR grid has more than {_MAX_SIR_POINTS} points;"
                         " widen sir_step_db or narrow the SIR range")
    n = int(math.floor(steps)) + 1
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
        del batch, ne, nj, c_no_eh, values  # free this chunk before the next is drawn
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
