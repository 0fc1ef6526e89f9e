"""Link model for a point-to-point radio channel facing a power-constrained
jammer whose interference can be harvested during a dedicated time slice of
each transmission cycle.

Unit conventions: every power is a linear milliwatt quantity, channel power
gains are unitless, capacities are in bits per channel use (base-2 log).
Decibel conversions belong at the boundaries of the system (CLI, file
headers), never inside the math.

All functions here are pure and array-native: gains, powers and tau may be
numpy arrays that broadcast elementwise, and scalar arguments are the 0-d
case, returned as floats. The game played on this link, the neutralization
threshold and the jammer's best response included, lives in solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TAU_LIMIT",
    "ChannelGains",
    "LegitStrategy",
    "NeutralizationInfeasible",
    "StrategyProfile",
    "SystemParams",
    "capacity",
    "capacity_from_factors",
    "db_to_linear",
    "linear_to_db",
    "log1p_snr",
    "neutralization_feasible",
    "snr_factors",
    "snr_scale",
]

_LN2 = math.log(2.0)

#: Optimizers never place the EH time fraction above this; capacity at
#: tau == 1 is defined as the (zero) limit of the vanishing transmit slice.
TAU_LIMIT = 1.0 - 1e-9


class NeutralizationInfeasible(ValueError):
    """The harvesting link is too weak to ever force the jammer silent."""


def db_to_linear(x_db):
    """Convert dB (or dBm) to a linear ratio (or mW): ``10**(x/10)``. An array
    result may differ from the float result in the last bit (numpy's pow is
    vectorized): code that compares results must use one form."""
    if type(x_db) is float:  # np.float64 subclasses float: it takes numpy's path
        if not math.isfinite(x_db):
            raise ValueError("decibel value must be finite")
        try:
            return 10.0 ** (x_db / 10.0)
        except OverflowError:
            raise ValueError("decibel value out of range") from None
    if not np.all(np.isfinite(x_db)):
        raise ValueError("decibel value must be finite")
    try:
        with np.errstate(over="raise"):
            return 10.0 ** (x_db / 10.0)
    except (OverflowError, FloatingPointError):
        raise ValueError("decibel value out of range") from None


def linear_to_db(x):
    """Convert a positive linear ratio (or mW) to dB (or dBm)."""
    if not np.all(np.asarray(x) > 0.0):
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
            v = getattr(self, name)
            if type(v) is float:  # not np.float64, a float subclass
                ok = 0.0 <= v < math.inf
            else:
                v = np.asarray(v)
                ok = ((v >= 0.0) & (v < math.inf)).all()
            if not ok:
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


def _check_nonneg(name, value):
    if not (np.asarray(value) >= 0.0).all():
        raise ValueError(f"{name} must be >= 0")


def snr_scale(gamma):
    """max(gamma, 1), elementwise: snr_factors divides every SNR term by it,
    so p' = p/snr_scale(gamma)."""
    return np.maximum(gamma, 1.0)


def snr_factors(p, gamma, gains: ChannelGains, params: SystemParams):
    """(p', lead, den), elementwise, with SNR (p' + tau*lead)*h2/((1-tau)*den).

    The one place that forms the transmit term p, the harvestable term
    zeta*(gamma*ga2 + n_a) and the interference-plus-noise term gamma*gb2 +
    n_b, each divided by snr_scale(gamma) so gamma times a gain stays finite.
    """
    scale = snr_scale(gamma)
    share = gamma / scale  # min(gamma, 1), exactly
    return (p / scale, params.zeta * (share * gains.ga2 + params.n_a / scale),
            share * gains.gb2 + params.n_b / scale)


def log1p_snr(x, h2, den):
    """ln(1 + x*h2/den) elementwise. h2/den is formed first, since x*h2
    overflows for gains near 1e160; where the SNR or h2/den leaves the float
    range, the log is summed from logarithms. One max finds such lanes (it
    propagates nan), so their mask is built only when there are some."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        snr = x * (h2 / den)
        out = np.log1p(snr)
        if not np.isfinite(np.maximum.reduce(snr, axis=None, initial=-math.inf)):
            over = ~np.isfinite(snr)
            log_snr = np.log(x) + np.log(h2) - np.log(den)
            out = np.where(over, np.logaddexp(0.0, log_snr), out)
    return out


def capacity_from_factors(p, lead, den, tau, h2):
    """capacity at tau, elementwise and unchecked, from (p, lead, den) =
    snr_factors(p, gamma, gains, params) and h2 = gains.h2: the one capacity
    formula, for callers whose inputs are valid by construction. tau must lie
    in [0, 1], as a float or a float array; tau == 1 yields 0."""
    remain = 1.0 - tau
    num, den = p + tau * lead, remain * den
    with np.errstate(invalid="ignore"):  # the remain == 0 lanes, set below
        c = log1p_snr(num, h2, den)  # a new array, scaled in place
        c *= remain / 2.0
        c /= _LN2
    if not np.logical_and.reduce(remain, axis=None):  # some remain == 0
        c = np.where(remain == 0.0, 0.0, c)
    return c


def capacity(p, tau, gamma, gains: ChannelGains, params: SystemParams):
    """Time-shared Shannon rate of the useful link, in bits per channel use.

    The transmit slice lasts a fraction (1 - tau) of the cycle; both the
    budgeted power and the harvested power are concentrated into it, while
    the prefactor (1 - tau)/2 charges for the lost airtime. tau == 1 is
    accepted and yields 0 by continuity. This is the checked boundary: it
    validates p, tau and gamma, then runs capacity_from_factors.
    """
    _check_nonneg("p", p)
    _check_nonneg("gamma", gamma)
    if not (((t := np.asarray(tau)) >= 0.0) & (t <= 1.0)).all():
        raise ValueError("tau must lie in [0, 1]")
    out = capacity_from_factors(*snr_factors(p, gamma, gains, params),
                                np.asarray(tau, dtype=float), gains.h2)
    return float(out) if np.ndim(out) == 0 else out


def neutralization_feasible(gains: ChannelGains, params: SystemParams):
    """True where ga2*n_b > gb2*n_a: the harvesting link beats the jamming
    link, elementwise. Exactly, that is K > 0 when zeta > 0, K the slope of
    the neutralization threshold that solvers.ChannelBatch owns; rounded, a
    feasible link may read K = 0 and an infeasible one K > 0, so ChannelBatch
    decides feasibility by this test, not by K's sign."""
    return gains.ga2 * params.n_b > gains.gb2 * params.n_a
