"""Solvers for the two closed-form operating points of the link game, plus
independent brute-force grid oracles used to cross-check them.

Every one-dimensional profile handled here reduces to the same family
``C(tau) = (1-tau)/2 * log2(1 + (alpha + beta*tau)/(1-tau))`` whose second
derivative is ``-(alpha+beta)^2 / (2 ln2 (1-tau) D^2) <= 0``: the profiles
are concave in tau, and the stationary point has a closed form in the
Lambert W function (Corless et al., "On the Lambert W function", 1996), or
where beta leaves the float range in the Wright omega function (Lawrence,
Corless and Jeffrey, ACM TOMS 38(3), 2012), so no root finding is needed.
The neutralizing optimum rides p = min(P, p_threshold(tau)); capacity along
that path is the pointwise minimum of two such concave profiles, hence
concave itself (Boyd and Vandenberghe, "Convex Optimization", 2004, sec.
3.2.3), so its maximizer follows from the two profile optima and the kink
without comparing values.

ChannelBatch is the one array core, for any transmit budget P, and the one
owner of the neutralization threshold: p_threshold and jamming_sign are its
checked one-shot calls, and the scalar solvers its one-channel case at
params.p_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import (
    TAU_LIMIT,
    ChannelGains,
    LegitStrategy,
    NeutralizationInfeasible,
    StrategyProfile,
    SystemParams,
    capacity,
    capacity_from_factors,
    log1p_snr,
    neutralization_feasible,
    snr_factors,
    snr_scale,
)

__all__ = [
    "ChannelBatch",
    "EquilibriumResult",
    "FixedPower",
    "NEArrays",
    "NJArrays",
    "NJ_REGIMES",
    "OnThreshold",
    "SolutionRegime",
    "capacity_tau_derivative",
    "jamming_sign",
    "ne_grid_optimum",
    "nj_grid_value",
    "p_threshold",
    "solve_ne",
    "solve_nj",
    "tau_profile_capacity",
    "verify_saddle_point",
]

#: The optimal EH fraction is 0 wherever the profile derivative is <= 0 here.
_TAU_PROBE = 1e-6

#: Below this beta the branch-point series for the optimal SNR term is exact
#: to rounding, while W0((beta-1)/e) has lost about half its digits.
_SERIES_BETA = 1e-6

_SQRT_2E = math.sqrt(2.0 * math.e)


@dataclass(frozen=True)
class FixedPower:
    """tau-profile with transmit and jamming powers held fixed."""

    p: float
    gamma: float


@dataclass(frozen=True)
class OnThreshold:
    """tau-profile riding the neutralization threshold: p = tau*K, jammer silent."""


def _profile_factors(profile: FixedPower | OnThreshold, gains: ChannelGains,
                     params: SystemParams):
    """(p, lead, den) of a tau-profile: alpha = p*h2/den and beta = lead*h2/den."""
    if isinstance(profile, FixedPower):
        return snr_factors(profile.p, profile.gamma, gains, params)
    with np.errstate(under="ignore"):  # a tiny zeta*ga2 flushes toward 0
        return 0.0, params.zeta * gains.ga2, np.asarray(gains.gb2, dtype=float)


def _check_profile(profile: FixedPower | OnThreshold, gains: ChannelGains,
                   params: SystemParams):
    """Raise unless capacity along the tau-profile is defined for these gains."""
    if isinstance(profile, FixedPower):
        return
    if not isinstance(profile, OnThreshold):
        raise TypeError(f"unknown tau-profile: {profile!r}")
    if not neutralization_feasible(gains, params):
        raise NeutralizationInfeasible("threshold profile requires ga2/n_a > gb2/n_b")
    if np.any(np.asarray(gains.gb2) == 0.0):
        raise ValueError("threshold profile is undefined when gb2 == 0")


def _tau_derivative(tau, alpha, beta):
    """d/dtau of the canonical profile capacity, in bits per channel use."""
    x = (alpha + beta * tau) / (1.0 - tau)
    d = (1.0 - tau) + alpha + beta * tau
    return (-np.log1p(x) + (alpha + beta) / d) / math.log(4.0)  # 2 ln 2


def _lambert_w0(z):
    """Principal real branch W0 of the Lambert W function, w*exp(w) = z,
    elementwise for finite z > -1/e (Corless et al. 1996); nan elsewhere,
    the branch point itself included.

    The start is the branch-point series -1 + y - y^2/3 + ... (to y^5) in
    y = sqrt(2*(e*z + 1)) below z = -0.27, the Pade form z*(1 + 4z/3)/(1 +
    7z/3 + 5z^2/6) up to z = 1 (exact to rounding as z -> 0, so tiny z keep
    their relative accuracy), and Winitzki's approximation (2003, relative
    error below 1e-3) beyond; two Halley steps on w - z*exp(-w) = 0 (which
    cannot overflow) then leave only rounding error, which near the branch
    point grows as 1/(1 + w), the conditioning of W0 itself. The start is
    picked by arithmetic, not np.where, so a numpy float stays a scalar and a
    one-channel solve pays no array overhead.
    """
    y = _SQRT_2E * np.sqrt(z + 1.0 / math.e)
    # Winitzki: (2 L - ln(1 + C ln(1 + Dy)) + E) / (1 + 1/(2 L + 2A)), L = ln(1 + By)
    log_by = np.log1p(0.8842 * y)
    w = ((2.0 * log_by - np.log1p(0.9294 * np.log1p(0.5106 * y)) - 1.213)
         / (1.0 + 1.0 / (2.0 * log_by + 4.688)))
    x = np.minimum(z, 1.0)  # x and p keep the starts not taken finite
    pade = x * (1.0 + 4.0 / 3.0 * x) / (1.0 + x * (7.0 / 3.0 + 5.0 / 6.0 * x))
    w = w + (z < 1.0) * (pade - w)
    p = np.minimum(y, 1.0)
    series = p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (
        -43.0 / 540.0 + p * (769.0 / 17280.0))))) - 1.0
    w = w + (z < -0.27) * (series - w)
    for _ in range(2):
        f = w - z * np.exp(-w)
        w = w - f / ((w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def _wright_omega(x):
    """Wright omega function, w + log(w) = x, elementwise for 10 <= x <= 1e150
    (rounding error only): the asymptotic start x - log x + log(x)/x and one
    fourth-order step of Fritsch, Shafer and Crowley, as in Lawrence, Corless
    and Jeffrey (ACM TOMS 38(3), 2012)."""
    log_x = np.log(x)
    w = x - log_x + log_x / x
    r = x - w - np.log(w)
    t = (1.0 + w) * (1.0 + w + 2.0 / 3.0 * r)
    return w * (1.0 + r / (1.0 + w) * (t - 0.5 * r) / (t - r))


def _optimal_snr(beta):
    """SNR term s at the stationary point of the canonical profile, elementwise.

    s solves g(s) = (1+s)*log1p(s) - s = beta, so 1+s = exp(1 + W0((beta-1)/e)).
    W0 is sqrt(eps)-conditioned at its branch point (beta -> 0), so tiny beta
    take the series s = q + q^2/6 - q^3/72 + q^4/270 in q = sqrt(2*beta)
    instead; the W0 start gets one Newton step on the s-equation.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.expm1(1.0 + _lambert_w0((beta - 1.0) / math.e))
        log1p_s = np.log1p(s)
        s = s - ((1.0 + s) * log1p_s - s - beta) / log1p_s
        q = np.sqrt(2.0 * beta)
        series = q * (1.0 + q * (1.0 / 6.0 + q * (-1.0 / 72.0 + q / 270.0)))
        return np.where(beta < _SERIES_BETA, series, s)


@dataclass(frozen=True, slots=True)
class _TauProfile:
    """A tau-profile solved for every transmit power, built by _tau_profile: a
    power p (mW) enters as p/unit (unit = snr_scale(gamma), 1 on the threshold
    profile), so alpha = p/unit*gain and beta = lead*gain, gain = h2/den.
    beta, s(beta), s + beta and beta*_TAU_PROBE do not depend on p. Where
    lead*gain overflows (over), beta is expm1(L), L = ln(1 + beta) from
    log1p_snr (gain alone may overflow while beta is near 1); beyond the float
    range, L = ln(beta), s/beta = 1/w with w = omega(L - 1), the Wright omega
    function (w + log(w) = L - 1), and tau = (1 - w*alpha/beta)/(1 + w). over
    and omega are None where beta never overflows."""

    p: float  # the profile's own transmit power, mW
    unit: float
    lead: np.ndarray
    den: np.ndarray
    h2: np.ndarray
    gain: np.ndarray
    beta: np.ndarray
    s: np.ndarray
    s_beta: np.ndarray
    beta_probe: np.ndarray
    over: np.ndarray | None
    omega: np.ndarray | None

    def tau(self, p=None):
        """The maximizer over [0, TAU_LIMIT] at power p (by default the
        profile's own), elementwise: 1 - tau = (alpha+beta)/(s+beta), clipped,
        where the profile rises at _TAU_PROBE (s exceeds the SNR term there, a
        test that does not cancel), and +0 elsewhere: the clip's upper end is
        rising*TAU_LIMIT, so a nan tau, which never rises, also reads +0."""
        # 0/0, x/0, inf/inf and overflow on lanes that the clip or the omega
        # lanes replace; a tiny p/unit or alpha flushes toward 0
        with np.errstate(all="ignore"):
            p = (self.p if p is None else p) / self.unit
            alpha = p * self.gain
            if self.over is not None:
                ratio = p / self.lead
                alpha = np.where(self.over, ratio * self.beta, alpha)
            tau = 1.0 - (alpha + self.beta) / self.s_beta
            rising = self.s > (alpha + self.beta_probe) / (1.0 - _TAU_PROBE)
            tau = np.fmin(np.fmax(tau, 0.0), rising * TAU_LIMIT)
            if self.over is None:
                return tau
            tau_huge = np.clip((1.0 - ratio * self.omega) / (1.0 + self.omega), 0.0, TAU_LIMIT)
        return np.where(self.over & np.isinf(self.beta), tau_huge, tau)

    def value(self, p, tau):
        """Capacity along the profile at power p (mW) and tau, unchecked."""
        with np.errstate(under="ignore"):  # a subnormal p/unit flushes toward 0
            p = p / self.unit
        return capacity_from_factors(p, self.lead, self.den, tau, self.h2)


def _tau_profile(spec: FixedPower | OnThreshold, gains: ChannelGains,
                 params: SystemParams) -> _TauProfile:
    """The _TauProfile of a spec; gb2 == 0 on the threshold profile gives tau 0."""
    p, unit = (spec.p, snr_scale(spec.gamma)) if isinstance(spec, FixedPower) else (0.0, 1.0)
    _, lead, den = _profile_factors(spec, gains, params)
    # under: a tiny gain or beta flushes toward 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        gain = gains.h2 / den
        beta = lead * gain
        over = omega = None
        if (lanes := np.isinf(beta) & (den > 0.0)).any():
            over, log1p_beta = lanes, log1p_snr(lead, gains.h2, den)
            beta = np.where(over, np.expm1(log1p_beta), beta)
            omega = _wright_omega(log1p_beta - 1.0)
    s = _optimal_snr(beta)
    with np.errstate(over="ignore", under="ignore"):  # a tiny beta*_TAU_PROBE underflows
        s_beta, beta_probe = s + beta, beta * _TAU_PROBE
    return _TauProfile(p, unit, lead, den, gains.h2, gain, beta, s, s_beta, beta_probe,
                       over, omega)


def capacity_tau_derivative(profile: FixedPower | OnThreshold, tau, gains: ChannelGains,
                            params: SystemParams):
    """Analytic derivative of capacity along a tau-profile."""
    if not np.all(((t := np.asarray(tau)) >= 0.0) & (t < 1.0)):
        raise ValueError("tau must lie in [0, 1)")
    _check_profile(profile, gains, params)
    p, lead, den = _profile_factors(profile, gains, params)
    scale = gains.h2 / den
    out = _tau_derivative(tau, p * scale, lead * scale)
    return float(out) if np.ndim(out) == 0 else out


def tau_profile_capacity(profile: FixedPower | OnThreshold, tau, gains: ChannelGains,
                         params: SystemParams):
    """Capacity along a tau-profile (accepts tau arrays)."""
    _check_profile(profile, gains, params)
    if isinstance(profile, FixedPower):
        return capacity(profile.p, tau, profile.gamma, gains, params)
    return capacity(p_threshold(tau, gains, params), tau, 0.0, gains, params)


class SolutionRegime(Enum):
    NJ_CASE_A = "NJ-case-a"
    NJ_CASE_B_CANDIDATE1 = "NJ-case-b-candidate1"
    NJ_CASE_B_CANDIDATE2 = "NJ-case-b-candidate2"
    NJ_INFEASIBLE = "NJ-infeasible"
    NE_TAU_ZERO = "NE-tau-zero"
    NE_TAU_INTERIOR = "NE-tau-interior"


#: Regimes of the neutralizing optimum, indexed by NJArrays.regime.
NJ_REGIMES = (
    SolutionRegime.NJ_INFEASIBLE,
    SolutionRegime.NJ_CASE_A,
    SolutionRegime.NJ_CASE_B_CANDIDATE1,
    SolutionRegime.NJ_CASE_B_CANDIDATE2,
)


@dataclass(frozen=True)
class EquilibriumResult:
    """A solved operating point.

    feasible means: for neutralization results, the jammer can be silenced at
    all; for full-power results, full-power jamming is actually a best
    response to the returned legitimate strategy (see solve_ne).
    """

    profile: StrategyProfile
    value: float
    regime: SolutionRegime
    feasible: bool


class NEArrays(NamedTuple):
    """Full-power operating points, one element per channel."""

    tau: np.ndarray
    value: np.ndarray
    stable: np.ndarray  # full-power jamming is a best response to (P, tau)


class NJArrays(NamedTuple):
    """Neutralizing optima, one element per channel (the jammer is silent)."""

    p: np.ndarray
    tau: np.ndarray
    value: np.ndarray
    regime: np.ndarray  # index into NJ_REGIMES


class ChannelBatch:
    """Both operating points of an array of channels (0-d for scalar gains) at
    any transmit budget P (params.p_max is not read), and the one owner of the
    batch's neutralization threshold, the line p_th(tau) = tau*K in the EH
    fraction: the jammer's best response follows the sign of p_th(tau) - p.

    K = zeta*(ga2*n_b/gb2 - n_a), 0 when zeta == 0, is formed here, once.
    Where X = ga2*n_b/gb2 overflows but zeta > 0, K is formed from logarithms
    as zeta*X*(1 - n_a/X), so a tiny zeta can bring it back into range. The
    line reads fmax(tau*K, floor), its floor +inf where gb2 == 0 (the jammer
    cannot reach the receiver, so every power neutralizes, zeta == 0
    included), 0 where even that K overflows, and -inf elsewhere: a 0*inf at
    tau == 0 reads the floor, and every other lane tau*K (-0 at tau == 0
    where K < 0, which p_threshold returns as +0). feasible
    (neutralization_feasible) marks where the jammer can be neutralized; the
    ceiling, +inf there and -1 elsewhere, caps the jammer's sign, which reads
    -1 where the jammer cannot be neutralized; both are formed on first use,
    which p_threshold never makes. _threshold and _sign read the line
    unchecked; p_threshold and jamming_sign are their checked one-shot calls.
    What does not depend on P is kept from first use: the full-power
    _TauProfile (_full) and what nj reads on the lanes where the jammer can
    be neutralized (_neutralizable). Powers are in mW throughout (each profile
    owns its snr_scale unit); capacities are the profiles' unchecked value,
    since p and tau are valid by construction."""

    def __init__(self, gains: ChannelGains, params: SystemParams):
        self.gains, self.params = gains, params
        gb2 = np.asarray(gains.gb2, dtype=float)
        # under: a subnormal gain or zeta flushes K, or its log-domain form, toward 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
            k = (gains.ga2 * params.n_b / gb2 - params.n_a) * params.zeta
            huge = np.isinf(k) & (gb2 > 0.0) & (params.zeta > 0.0)
            if huge.any():  # X = ga2*n_b/gb2 overflows, zeta*X may not
                log_x = np.log(gains.ga2) + math.log(params.n_b) - np.log(gb2)
                zeta_x = np.exp(math.log(params.zeta) + log_x)
                k = np.where(huge, zeta_x * (1.0 - params.n_a / np.exp(log_x)), k)
        self._unreached = gb2 == 0.0
        self._k = np.where(self._unreached, math.inf, np.where(params.zeta == 0.0, 0.0, k))
        self._floor = np.where(self._unreached, math.inf,
                               np.where(self._k == math.inf, 0.0, -math.inf))

    @cached_property
    def feasible(self):
        """neutralization_feasible of the gains: where the jammer can be silenced."""
        return np.asarray(neutralization_feasible(self.gains, self.params))

    @cached_property
    def _ceiling(self):
        """The cap of the jammer's sign: +inf where feasible, -1 elsewhere."""
        return np.where(self.feasible, math.inf, -1.0)

    def _threshold(self, tau):
        """p_th(tau), unchecked: tau in [0, 1], broadcast against the gains'
        ga2 and gb2."""
        line = _line(tau, self._k, self._floor)
        return float(line) if line.ndim == 0 else line

    def _sign(self, p, tau):
        """jamming_sign's rule, unchecked: p >= 0 and tau in [0, 1) broadcast
        against the gains' ga2 and gb2. It is the sign of p_th(tau) - p, except
        on the gb2 == 0 lanes, which read that of tau*zeta*ga2 (+1 where all
        three are positive, 0 elsewhere: the product itself may flush), and on
        the links that cannot be neutralized, which read -1."""
        sign = np.sign(self._threshold(tau) - p)
        if self._unreached.any():
            positive = (tau > 0.0) & (self.params.zeta > 0.0) & (self.gains.ga2 > 0.0)
            sign = np.where(self._unreached, positive, sign)
        if np.maximum.reduce(sign, axis=None, initial=-1.0) >= 0.0:  # only 0 and +1 lanes change
            sign = np.minimum(sign, self._ceiling)  # -1 where infeasible
        return float(sign) if sign.ndim == 0 else sign

    @cached_property
    def _full(self):
        """The full-power (gamma_max) _TauProfile, formed at the first budget."""
        return _tau_profile(FixedPower(0.0, self.params.gamma_max), self.gains, self.params)

    @cached_property
    def _neutralizable(self):
        """(lanes, shape, args), formed at nj's first budget: args are
        _neutralizing_optimum's K, line floor, silent (gamma == 0) _TauProfile
        and t_hat on the lanes where the jammer can be neutralized. Where every
        lane can, lanes and shape are None and args hold the batch's own
        arrays; elsewhere lanes are their flat indices in shape, the gains'
        broadcast shape, where gains, K and floor are gathered, or where no
        lane can, args is None and nothing is formed. The silent profile reads
        h2 alone (gamma == 0), so its lead and den are scalars."""
        gains, k, floor = self.gains, self._k, self._floor
        lanes = shape = None
        if not self.feasible.all():
            shape = np.broadcast_shapes(*map(np.shape, (gains.h2, gains.ga2, gains.gb2)))
            lanes = np.flatnonzero(np.broadcast_to(self.feasible, shape))
            if not lanes.size:
                return lanes, shape, None
            take = lambda x: np.broadcast_to(x, shape).take(lanes)  # flat indices
            gains = ChannelGains(take(gains.h2), take(gains.ga2), take(gains.gb2))
            k, floor = take(k), take(floor)
        silent = _tau_profile(FixedPower(0.0, 0.0), ChannelGains(gains.h2, 0.0, 0.0),
                              self.params)  # p comes per budget
        t_hat = _tau_profile(OnThreshold(), gains, self.params).tau()
        return lanes, shape, (k, floor, silent, t_hat)

    def ne(self, p_max: float) -> NEArrays:
        """Full-power operating point: both budgets spent, tau optimal for them."""
        _check_budget(p_max)
        full = self._full
        tau = full.tau(p_max)
        return NEArrays(tau, full.value(p_max, tau), self._sign(p_max, tau) <= 0.0)

    def no_eh(self, p_max: float):
        """capacity(p_max, 0, gamma_max), the no-harvesting baseline: the
        full-power profile's capacity at tau == 0, where nothing is harvested."""
        _check_budget(p_max)
        return self._full.value(p_max, 0.0)

    def nj(self, p_max: float) -> NJArrays:
        """Neutralizing optimum (_neutralizing_optimum); infeasible links get
        value 0 and a zero strategy. Only the lanes where the jammer can be
        neutralized are solved: where some cannot, the results are scattered
        into +0.0 (p, tau, value) and 0 (regime) arrays of the gains' broadcast
        shape, and where none can, nothing is solved."""
        _check_budget(p_max)
        lanes, shape, args = self._neutralizable
        if lanes is None:
            return _neutralizing_optimum(p_max, *args)
        out = NJArrays(np.zeros(shape), np.zeros(shape), np.zeros(shape),
                       np.zeros(shape, dtype=int))
        if lanes.size:
            for full, part in zip(out, _neutralizing_optimum(p_max, *args)):
                np.put(full, lanes, part)
        return out


def _check_budget(p_max):
    """Raise unless the transmit budget p_max is positive and finite."""
    if not 0.0 < p_max < math.inf:
        raise ValueError("p_max must be positive and finite")


def _line(tau, k, floor):
    """fmax(tau*K, floor), ChannelBatch's threshold line, unchecked."""
    # invalid: 0*inf at tau == 0 reads the floor; under: a tiny tau*K flushes toward 0
    with np.errstate(invalid="ignore", under="ignore"):
        return np.fmax(tau * k, floor)


def _neutralizing_optimum(p_max, k, floor, silent, t_hat) -> NJArrays:
    """ChannelBatch.nj at budget p_max on lanes where the jammer can be
    neutralized, from their K, line floor, silent _TauProfile and t_hat.

    Capacity along p = min(P, p_threshold(tau)) is the pointwise minimum of
    the concave threshold and full-power profiles, so it is concave in tau
    with its kink at P/K (0 where the threshold is unbounded). Its maximizer
    is the threshold optimum t_hat where t_hat < P/K (case a when P/K > 1,
    which makes it independent of P; else case b, candidate 1); otherwise
    full power at the silent-jammer optimum t_tilde raised to at least P/K
    (candidate 2, or 1 at the kink itself). Where t0 = fl(P/K) has t0*K
    round below P, one ulp up is enough: t0 is within half an ulp of P/K, so
    the next float t1 > t0*(1 + 2^-53) >= P/K*(1 - 2^-106) and t1*K rounds
    to >= P. A subnormal P/K (t0 = 0 too) is within 2^-1075 of t0, so t1*K >
    P; a subnormal t1*K misses P by under half its spacing. A t_tilde > t0
    is >= t1, and rounding is monotone. Only those short lanes are stepped."""
    t_tilde = silent.tau(p_max)
    # an inf kink is exact; where a tiny one flushes, the one-ulp step below mends it
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        p_inv = np.divide(p_max, k)
    on_threshold = t_hat < p_inv
    off = ~on_threshold
    beyond = off & (t_tilde > p_inv)
    tau = np.where(on_threshold, t_hat, np.maximum(t_tilde, p_inv))
    threshold = _line(tau, k, floor)
    short = np.flatnonzero(off & (threshold < p_max) & (tau < TAU_LIMIT))
    p = np.asarray(np.minimum(threshold, p_max))  # np.put needs an array, 0-d too
    if short.size:
        with np.errstate(under="ignore"):  # the step up from 0 is subnormal
            np.put(tau, short, np.nextafter(tau.flat[short], 1.0))
        np.put(p, short, p_max)
    value = silent.value(p, tau)
    regime = 2 - (p_inv > 1.0) + beyond  # 1 case a, 2 or 3 case b
    return NJArrays(p, tau, value, regime)


def p_threshold(tau, gains: ChannelGains, params: SystemParams):
    """Largest transmit power at which more jamming still helps the link,
    elementwise over tau in [0, 1] and gain arrays: ChannelBatch's line
    tau*K, so p_threshold(1) is its slope K (mW per unit tau), +inf where gb2
    == 0 and +0 at tau == 0 otherwise. It never reads -0: adding +0.0 turns
    the line's -0 at tau == 0, or where tau*K underflows, into +0."""
    t = np.asarray(tau, dtype=float)
    if not ((t >= 0.0) & (t <= 1.0)).all():
        raise ValueError("tau must lie in [0, 1]")
    return ChannelBatch(gains, params)._threshold(t) + 0.0


def jamming_sign(p, tau, gains: ChannelGains, params: SystemParams):
    """The jammer's best response at a fixed legitimate strategy, elementwise.
    Capacity is monotone in gamma, so the response is bang-bang: +1 where
    capacity increases in gamma (the jammer stays silent), -1 where it
    decreases (full power), 0 where it is flat (every gamma ties).

    The sign of dC/dgamma is gamma-independent and given by
    ``tau*zeta*ga2*n_b - (p + tau*zeta*n_a)*gb2``, which has the sign of
    p_threshold - p when gb2 > 0 and of tau*zeta*ga2 when gb2 == 0. Links
    that cannot be neutralized read -1 throughout, flat cases included.
    """
    if not (np.asarray(p) >= 0.0).all():
        raise ValueError("p must be >= 0")
    if not (((t := np.asarray(tau)) >= 0.0) & (t < 1.0)).all():
        raise ValueError("tau must lie in [0, 1)")
    return ChannelBatch(gains, params)._sign(p, tau)


def solve_nj(gains: ChannelGains, params: SystemParams) -> EquilibriumResult:
    """Best capacity achievable while keeping the jammer's best response
    silent: the one-channel case of ChannelBatch.nj at params.p_max."""
    p, tau, value, code = ChannelBatch(gains, params).nj(params.p_max)
    regime = NJ_REGIMES[int(code)]
    prof = StrategyProfile(LegitStrategy(float(p), float(tau)), 0.0)
    return EquilibriumResult(prof, float(value), regime,
                             regime is not SolutionRegime.NJ_INFEASIBLE)


def solve_ne(gains: ChannelGains, params: SystemParams) -> EquilibriumResult:
    """Full-power operating point: the one-channel case of ChannelBatch.ne at
    params.p_max.

    feasible reports whether full-power jamming is a best response to the
    returned legitimate strategy, i.e. whether the profile is mutually stable.
    At low SIR with a strong harvesting link the jammer would rather stay
    silent than feed the harvester; the profile is still returned, flagged
    infeasible, and verify_saddle_point will show the jammer-side deviation.
    """
    tau, value, stable = ChannelBatch(gains, params).ne(params.p_max)
    tau = float(tau)
    tag = SolutionRegime.NE_TAU_ZERO if tau == 0.0 else SolutionRegime.NE_TAU_INTERIOR
    prof = StrategyProfile(LegitStrategy(params.p_max, tau), params.gamma_max)
    return EquilibriumResult(prof, float(value), tag, bool(stable))


def verify_saddle_point(profile: StrategyProfile, gains: ChannelGains,
                        params: SystemParams,
                        grid_sizes: tuple[int, int, int] = (500, 500, 500),
                        tol: float = 1e-8):
    """Grid check of the two stability inequalities at a profile.

    Sweeps the legitimate grid against the profile's jamming power and the
    jammer grid against the profile's legitimate strategy. Returns
    (ok, worst_violation) where a positive violation is the largest capacity
    improvement any grid deviation achieves.
    """
    n_p, n_tau, n_gamma = grid_sizes
    if min(n_p, n_tau, n_gamma) < 2:
        raise ValueError("grid sizes must be >= 2")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    c_star = capacity(profile.legit.p, profile.legit.tau, profile.gamma, gains, params)
    ps = np.linspace(0.0, params.p_max, n_p)
    taus = np.linspace(0.0, TAU_LIMIT, n_tau)
    gammas = np.linspace(0.0, params.gamma_max, n_gamma)
    legit = capacity(ps[:, None], taus[None, :], profile.gamma, gains, params)
    jam = capacity(profile.legit.p, profile.legit.tau, gammas, gains, params)
    worst = max(float(np.max(legit)) - c_star, c_star - float(np.min(jam)))
    return worst <= tol, worst


def ne_grid_optimum(gains: ChannelGains, params: SystemParams, n: int = 100_000,
                    workers: int = 1):
    """Dense-grid argmax of capacity at full powers, in one vectorized pass
    (workers has no effect); independent check of solve_ne's tau."""
    taus = np.linspace(0.0, TAU_LIMIT, n)
    vals = capacity(params.p_max, taus, params.gamma_max, gains, params)
    i = int(np.argmax(vals))
    return float(taus[i]), float(vals[i])


def nj_grid_value(gains: ChannelGains, params: SystemParams, n: int = 500,
                  workers: int = 1) -> float:
    """Constrained 2-D grid oracle: best capacity over a silent jammer with
    p <= min(P, p_threshold(tau)), n points per axis, in one vectorized pass
    (workers has no effect). Returns 0 when infeasible."""
    if not neutralization_feasible(gains, params):
        return 0.0
    taus = np.linspace(0.0, TAU_LIMIT, n)
    p_cap = np.minimum(params.p_max, p_threshold(taus, gains, params))
    p_grid = np.linspace(0.0, 1.0, n)[:, None] * p_cap[None, :]
    return float(np.max(capacity(p_grid, taus[None, :], 0.0, gains, params)))
