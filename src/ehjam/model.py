"""Link model for a point-to-point radio channel facing a power-constrained
jammer whose interference can be harvested during a dedicated time slice of
each transmission cycle.

Unit conventions: every power is a linear milliwatt quantity, channel power
gains are unitless, capacities are in bits per channel use (base-2 log).
Decibel conversions belong at the boundaries of the system (CLI, file
headers), never inside the math.

All functions here are pure; scalar arguments give scalar results, and numpy
arrays broadcast through wherever that is useful for grid evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "TAU_LIMIT",
    "ChannelGains",
    "JammerRegime",
    "LegitStrategy",
    "NeutralizationInfeasible",
    "StrategyProfile",
    "SystemParams",
    "capacity",
    "db_to_linear",
    "harvested_power",
    "jammer_best_response",
    "jamming_sign",
    "k_constant",
    "linear_to_db",
    "log1p_snr",
    "neutralization_feasible",
    "p_threshold",
    "p_threshold_inverse",
    "profile_capacity",
    "snr_factors",
]

_LN2 = math.log(2.0)

#: Optimizers never place the EH time fraction above this; capacity at
#: tau == 1 is defined as the (zero) limit of the vanishing transmit slice.
TAU_LIMIT = 1.0 - 1e-9


class NeutralizationInfeasible(ValueError):
    """The harvesting link is too weak to ever force the jammer silent."""


def db_to_linear(x_db):
    """Convert dB (or dBm) to a linear ratio (or mW): ``10**(x/10)``."""
    if not np.all(np.isfinite(x_db)):
        raise ValueError("decibel value must be finite")
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x):
    """Convert a positive linear ratio (or mW) to dB (or dBm)."""
    if np.any(np.asarray(x) <= 0.0):
        raise ValueError("linear value must be positive to express in dB")
    out = 10.0 * np.log10(x)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class ChannelGains:
    """Power gains of the three links in play.

    h2  -- transmitter -> receiver (the useful link)
    ga2 -- jammer -> transmitter (the harvesting link)
    gb2 -- jammer -> receiver (the interference link)
    """

    h2: float
    ga2: float
    gb2: float

    def __post_init__(self):
        for name in ("h2", "ga2", "gb2"):
            v = np.asarray(getattr(self, name))
            if not np.all(np.isfinite(v)) or np.any(v < 0.0):
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class SystemParams:
    """Static system parameters, powers in mW."""

    n_a: float  # noise power at the harvesting (transmitter) side
    n_b: float  # noise power at the receiver
    p_max: float  # transmit power budget P
    gamma_max: float  # jamming power budget
    zeta: float  # harvesting efficiency in [0, 1]

    def __post_init__(self):
        for name in ("n_a", "n_b", "p_max"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if not (self.gamma_max >= 0.0 and math.isfinite(self.gamma_max)):
            raise ValueError("gamma_max must be >= 0 and finite")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError("zeta must lie in [0, 1]")


@dataclass(frozen=True)
class LegitStrategy:
    """Action of the legitimate pair: transmit power and EH time fraction."""

    p: float
    tau: float

    def __post_init__(self):
        if not (self.p >= 0.0 and math.isfinite(self.p)):
            raise ValueError("p must be >= 0 and finite")
        if not 0.0 <= self.tau < 1.0:
            raise ValueError("tau must lie in [0, 1)")


@dataclass(frozen=True)
class StrategyProfile:
    """Joint action: legitimate strategy plus the jamming power."""

    legit: LegitStrategy
    gamma: float

    def __post_init__(self):
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be >= 0 and finite")


class JammerRegime(Enum):
    """How capacity behaves in the jamming power at a fixed (p, tau)."""

    SILENT_OPTIMAL = "silent-optimal"  # jamming helps the link; jammer stays quiet
    FULL_POWER_OPTIMAL = "full-power-optimal"  # jamming hurts; jammer goes all in
    CONSTANT_CAPACITY = "constant-capacity"  # capacity flat in gamma; tie


def _check_nonneg(name, value):
    if np.any(np.asarray(value) < 0.0):
        raise ValueError(f"{name} must be >= 0")


def harvested_power(tau, gamma, gains: ChannelGains, params: SystemParams):
    """Average power banked during the EH slice and spent while transmitting.

    Equals ``zeta * tau/(1-tau) * (gamma*ga2 + n_a)``: the received jamming
    plus noise power, scaled by the harvesting efficiency, concentrated into
    the (1-tau) transmit slice. Grows without bound as tau -> 1, hence the
    domain stops strictly below 1.
    """
    t = np.asarray(tau)
    if np.any(t < 0.0) or np.any(t >= 1.0):
        raise ValueError("tau must lie in [0, 1)")
    _check_nonneg("gamma", gamma)
    _, lead, _ = snr_factors(0.0, gamma, gains, params)
    out = tau / (1.0 - tau) * lead * np.maximum(gamma, 1.0)  # undo the division
    return float(out) if np.ndim(out) == 0 else out


def snr_factors(p, gamma, gains: ChannelGains, params: SystemParams):
    """(p', lead, den), elementwise, with SNR (p' + tau*lead)*h2/((1-tau)*den).

    The one place that forms the transmit term p, the harvestable term
    zeta*(gamma*ga2 + n_a) and the interference-plus-noise term gamma*gb2 +
    n_b, each divided by max(gamma, 1) so gamma times a gain stays finite.
    """
    scale = np.maximum(gamma, 1.0)
    share = gamma / scale  # min(gamma, 1), exactly
    return (p / scale, params.zeta * (share * gains.ga2 + params.n_a / scale),
            share * gains.gb2 + params.n_b / scale)


def log1p_snr(x, h2, den):
    """ln(1 + x*h2/den) elementwise. h2/den is formed first, since x*h2
    overflows for gains near 1e160; where the SNR or h2/den leaves the float
    range, the log is summed from logarithms."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        snr = x * (h2 / den)
        out = np.log1p(snr)
        over = ~np.isfinite(snr)
        if np.any(over):
            log_snr = np.log(x) + np.log(h2) - np.log(den)
            out = np.where(over, np.logaddexp(0.0, log_snr), out)
    return out


def capacity(p, tau, gamma, gains: ChannelGains, params: SystemParams):
    """Time-shared Shannon rate of the useful link, in bits per channel use.

    The transmit slice lasts a fraction (1 - tau) of the cycle; both the
    budgeted power and the harvested power are concentrated into it, while
    the prefactor (1 - tau)/2 charges for the lost airtime. tau == 1 is
    accepted and yields 0 by continuity.
    """
    _check_nonneg("p", p)
    _check_nonneg("gamma", gamma)
    t = np.asarray(tau)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("tau must lie in [0, 1]")
    remain = 1.0 - np.asarray(tau, dtype=float)
    p, lead, den = snr_factors(p, gamma, gains, params)
    num, den = p + tau * lead, remain * den
    del lead  # a draw-sized factor: free it before the log's temporaries
    with np.errstate(invalid="ignore"):  # the remain == 0 lanes, set below
        c = remain / 2.0 * log1p_snr(num, gains.h2, den) / _LN2
    out = np.where(remain == 0.0, 0.0, c)
    return float(out) if np.ndim(out) == 0 else out


def profile_capacity(profile: StrategyProfile, gains: ChannelGains, params: SystemParams):
    """Capacity of a full strategy profile."""
    return capacity(profile.legit.p, profile.legit.tau, profile.gamma, gains, params)


def k_constant(gains: ChannelGains, params: SystemParams):
    """Slope (mW per unit tau) of the neutralization power threshold.

    ``K = (ga2*n_b/gb2 - n_a) * zeta``. Positive exactly when harvesting
    beats interference (and zeta > 0); zero or negative means the threshold
    never opens up. gb2 == 0 with zeta > 0 returns ``math.inf``: the jammer
    cannot hurt the receiver at all, so no finite power exceeds the threshold.
    Elementwise over gain arrays.
    """
    gb2 = np.asarray(gains.gb2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (gains.ga2 * params.n_b / gb2 - params.n_a) * params.zeta
    k = np.where(params.zeta == 0.0, 0.0, np.where(gb2 == 0.0, math.inf, k))
    return float(k) if k.ndim == 0 else k


def neutralization_feasible(gains: ChannelGains, params: SystemParams):
    """True when the harvesting link is strictly better than the jamming link,
    i.e. ga2/n_a > gb2/n_b. Equivalent to k_constant > 0 whenever zeta > 0.
    Elementwise over gain arrays."""
    return gains.ga2 * params.n_b > gains.gb2 * params.n_a


def p_threshold(tau, gains: ChannelGains, params: SystemParams):
    """Largest transmit power at which more jamming still helps the link,
    elementwise over tau and gain arrays.

    Linear in the EH fraction: ``tau * K``, and the one place that product is
    formed. Unbounded rule: +inf at every tau where gb2 == 0 (the jammer
    cannot reach the receiver, so every power neutralizes, zeta == 0
    included), +inf for tau > 0 where K overflows, and 0 at tau == 0
    otherwise.
    """
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0.0) or np.any(t >= 1.0):
        raise ValueError("tau must lie in [0, 1)")
    with np.errstate(over="ignore", invalid="ignore"):
        p = t * k_constant(gains, params)
    p = np.where(np.asarray(gains.gb2) == 0.0, math.inf, np.where(t == 0.0, 0.0, p))
    return float(p) if p.ndim == 0 else p


def p_threshold_inverse(p, gains: ChannelGains, params: SystemParams) -> float:
    """Smallest EH fraction whose threshold reaches power p: ``p / K``.

    May exceed 1, meaning no admissible EH fraction reaches p. Requires a
    positive threshold slope; otherwise the notion is empty.
    """
    if p < 0.0:
        raise ValueError("p must be >= 0")
    k = k_constant(gains, params)
    if k <= 0.0:
        raise NeutralizationInfeasible(
            "threshold slope is not positive; no power threshold to invert"
        )
    return p / k


def jamming_sign(p, tau, gains: ChannelGains, params: SystemParams):
    """The jammer's preference at a fixed legitimate strategy, elementwise:
    +1 where capacity increases in gamma (the jammer stays silent), -1 where
    it decreases (full power), 0 where it is flat.

    The sign of dC/dgamma is gamma-independent and given by
    ``tau*zeta*ga2*n_b - (p + tau*zeta*n_a)*gb2``, which has the sign of
    p_threshold - p when gb2 > 0 and of tau*zeta*ga2 when gb2 == 0. Links
    that cannot be neutralized read -1 throughout, flat cases included.
    """
    slope = np.where(np.asarray(gains.gb2) == 0.0,
                     tau * params.zeta * gains.ga2,
                     p_threshold(tau, gains, params) - p)
    sign = np.where(neutralization_feasible(gains, params), np.sign(slope), -1.0)
    return float(sign) if sign.ndim == 0 else sign


def jammer_best_response(p, tau, gains: ChannelGains, params: SystemParams):
    """Capacity-minimizing jamming power for a fixed legitimate strategy.

    Capacity is monotone in gamma with the sign given by jamming_sign.
    Increasing capacity means the jammer prefers silence; decreasing means
    full power; exactly flat is reported as a tie with gamma = 0.
    """
    if not (0.0 <= p <= params.p_max):
        raise ValueError("p must lie in [0, p_max]")
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    sign = jamming_sign(p, tau, gains, params)
    if sign > 0.0:
        return 0.0, JammerRegime.SILENT_OPTIMAL
    if sign < 0.0:
        return params.gamma_max, JammerRegime.FULL_POWER_OPTIMAL
    return 0.0, JammerRegime.CONSTANT_CAPACITY
