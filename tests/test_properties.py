"""Property tests of the closed-form tau and the array solver cores over
extreme inputs: profile coefficients from 0 to 1e13, gains of 0, subnormal
or up to 1e300, zeta from 0 (and subnormal) to 1 and jamming budgets from 0
to 1e300, next to ordinary values."""

import dataclasses
import math
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ehjam import (
    NJ_REGIMES,
    TAU_LIMIT,
    ChannelBatch,
    ChannelGains,
    FixedPower,
    NEArrays,
    NJArrays,
    OnThreshold,
    SweepConfig,
    SystemParams,
    capacity,
    jamming_sign,
    ne_grid_optimum,
    neutralization_feasible,
    nj_grid_value,
    p_threshold,
    sir_sweep,
    solve_ne,
    solve_nj,
    transmit_budget,
)
from ehjam.experiments import _gain_block
from ehjam.model import capacity_from_factors, snr_scale
from ehjam.solvers import _TAU_PROBE, _optimal_snr, _optimal_tau, _profile_tau, _tau_derivative
from helpers import GAMMA_MW, counted_batches, params_at_sir, reference_params

# deterministic examples, no example database: the suite reruns identically
_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


_COEFFICIENT = st.one_of(st.just(0.0), _log_uniform(-300.0, 13.0))
_GAIN = st.one_of(st.just(0.0), _log_uniform(-3.0, 3.0), _log_uniform(12.0, 15.0))


@_SETTINGS
@given(st.lists(st.tuples(_COEFFICIENT, _COEFFICIENT), min_size=1, max_size=16))
def test_optimal_tau_is_the_stationary_point(pairs):
    alpha, beta = (np.array(c) for c in zip(*pairs))
    tau = _optimal_tau(beta, _optimal_snr(beta))(alpha)
    assert np.all(np.isfinite(tau))
    assert np.all((tau >= 0.0) & (tau <= TAU_LIMIT))
    interior = (tau > 0.0) & (tau < TAU_LIMIT)
    resid = _tau_derivative(tau[interior], alpha[interior], beta[interior])
    assert np.all(np.abs(resid) <= 1e-12 * np.maximum(1.0, alpha + beta)[interior])
    for i, (a, b) in enumerate(pairs):
        assert _optimal_tau(b, _optimal_snr(b))(a) == tau[i]


@_SETTINGS
@given(_log_uniform(-300.0, -2.0))
def test_optimal_tau_accurate_near_branch_point(beta):
    # W0((beta-1)/e) is sqrt(eps)-conditioned here; check the SNR term s at
    # the returned tau against (1+s)*log1p(s) - s = beta, summed as its
    # alternating series so that no digits cancel
    alpha = np.sqrt(2.0 * beta) / 2.0  # puts tau near 1/2
    tau = float(_optimal_tau(beta, _optimal_snr(beta))(alpha))
    s = (alpha + beta * tau) / (1.0 - tau)
    g = sum((-1) ** n * s ** n / (n * (n - 1)) for n in range(30, 1, -1))
    assert abs(g - beta) <= 1e-12 * beta


@_SETTINGS
@given(
    draws=st.lists(st.tuples(_GAIN, _GAIN, _GAIN), min_size=1, max_size=8),
    zeta=st.sampled_from([0.0, 0.8, 1.0]),
    gamma_max=st.sampled_from([0.0, 10.0]),
    p_max=_log_uniform(-4.0, 4.0),
)
def test_array_cores_match_scalar_solvers(draws, zeta, gamma_max, p_max):
    h2, ga2, gb2 = (np.array(c) for c in zip(*draws))
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=p_max, gamma_max=gamma_max, zeta=zeta)
    ne = ChannelBatch(ChannelGains(h2, ga2, gb2), params).ne(params.p_max)
    nj = ChannelBatch(ChannelGains(h2, ga2, gb2), params).nj(params.p_max)
    for arr in (ne.tau, ne.value, nj.p, nj.tau, nj.value):
        assert np.all(np.isfinite(arr))
    for tau in (ne.tau, nj.tau):
        assert np.all((tau >= 0.0) & (tau <= TAU_LIMIT))
    assert np.all(ne.value >= nj.value - 1e-9)
    for i, draw in enumerate(draws):
        gains = ChannelGains(*draw)
        res = solve_ne(gains, params)
        assert res.profile.legit.tau == ne.tau[i]
        assert res.value == ne.value[i]
        assert res.feasible == ne.stable[i]
        res = solve_nj(gains, params)
        assert res.profile.legit.p == nj.p[i]
        assert res.profile.legit.tau == nj.tau[i]
        assert res.value == nj.value[i]
        assert res.regime is NJ_REGIMES[nj.regime[i]]


_WIDE_GAIN = st.one_of(st.just(0.0), _log_uniform(-320.0, 300.0))
# subnormal gb2 with ga2/gb2 in [0.5, 2]: h2/gb2 overflows while
# beta = zeta*ga2*h2/gb2 can stay near 1; below 1e-315 the subnormal products
# ga2*n_b and zeta*ga2 keep too few digits for the 1e-12 grid comparison
_SUBNORMAL_LINK = st.builds(lambda h2, ratio, gb2: (h2, ratio * gb2, gb2),
                            _GAIN, st.floats(0.5, 2.0), _log_uniform(-315.0, -308.0))


@_SETTINGS
@given(
    draws=st.lists(st.one_of(st.tuples(_WIDE_GAIN, _WIDE_GAIN, _WIDE_GAIN),
                             _SUBNORMAL_LINK), min_size=1, max_size=4),
    zeta=st.sampled_from([0.0, 1e-310, 1e-305, 0.3, 1.0]),
    sir_db=st.floats(-40.0, 40.0),
)
def test_solvers_over_the_whole_gain_range(draws, zeta, sir_db):
    h2, ga2, gb2 = (np.array(c) for c in zip(*draws))
    gains = ChannelGains(h2, ga2, gb2)
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=10.0 ** (1.0 + sir_db / 10.0),
                          gamma_max=10.0, zeta=zeta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ne = ChannelBatch(gains, params).ne(params.p_max)
        nj = ChannelBatch(gains, params).nj(params.p_max)
        sign = jamming_sign(nj.p, nj.tau, gains, params)
        grid = [nj_grid_value(ChannelGains(*draw), params, n=64) for draw in draws]
    assert np.all(np.isfinite(ne.value)) and np.all(np.isfinite(nj.value))
    feasible = neutralization_feasible(gains, params)
    assert np.all(sign[feasible] >= 0.0)  # the jammer's best response is silence
    # the closed-form pick is never beaten by the reference grid
    assert np.all(nj.value >= np.array(grid) - 1e-12 * np.maximum(1.0, nj.value))


@_SETTINGS
@given(
    draws=st.lists(st.tuples(_WIDE_GAIN, _WIDE_GAIN, _WIDE_GAIN), min_size=1, max_size=4),
    gamma_max=st.one_of(st.just(0.0), _log_uniform(-300.0, 300.0)),
    zeta=st.sampled_from([0.0, 1e-310, 1e-305, 0.3, 1.0]),
    sir_db=st.floats(-40.0, 40.0),
)
def test_solvers_over_the_whole_jamming_budget_range(draws, gamma_max, zeta, sir_db):
    # noise powers stay near 1 mW: n_b/gamma_max does not underflow here
    h2, ga2, gb2 = (np.array(c) for c in zip(*draws))
    gains = ChannelGains(h2, ga2, gb2)
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=10.0 ** (1.0 + sir_db / 10.0),
                          gamma_max=gamma_max, zeta=zeta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ne = ChannelBatch(gains, params).ne(params.p_max)
        nj = ChannelBatch(gains, params).nj(params.p_max)
        caps = [capacity(params.p_max, tau, gamma_max, gains, params)
                for tau in (0.0, 0.5, TAU_LIMIT)]
        grid = [ne_grid_optimum(ChannelGains(*draw), params, n=64)[1] for draw in draws]
    for arr in (ne.tau, ne.value, nj.p, nj.tau, nj.value, *caps):
        assert np.all(np.isfinite(arr))
    # the closed-form optimum is never beaten by the reference grid, and
    # full-power jamming never leaves the link worse off than neutralizing it
    assert np.all(ne.value >= np.array(grid) - 1e-12 * np.maximum(1.0, ne.value))
    assert np.all(nj.value <= ne.value + 1e-9 * np.maximum(1.0, ne.value))


_DEEP_SUBNORMAL = st.one_of(st.just(5e-324), _log_uniform(-323.0, -300.0))


@_SETTINGS
@given(
    draws=st.lists(st.tuples(_WIDE_GAIN, _WIDE_GAIN, _WIDE_GAIN), min_size=1, max_size=4),
    zeta=_DEEP_SUBNORMAL,
    p_max=_DEEP_SUBNORMAL,
)
def test_neutralizing_solve_at_subnormal_budgets(draws, zeta, p_max):
    # K and P/K round coarsely here: the kink still costs at most one ulp
    # nudge and one batch, and no 0/0 turns it into nan
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=p_max, gamma_max=10.0, zeta=zeta)
    for draw in draws:
        gains = ChannelGains(*draw)
        with warnings.catch_warnings(), counted_batches(1):
            warnings.simplefilter("error", RuntimeWarning)
            res = solve_nj(gains, params)
        legit = res.profile.legit
        assert np.isfinite(res.value)
        assert 0.0 <= legit.p <= p_max
        if res.feasible:
            assert jamming_sign(legit.p, legit.tau, gains, params) >= 0.0


def _nj_nudging_until_reached(batch, p_max):
    """Reference for ChannelBatch.nj: the same tau and regime picks, with the
    kink settled by nudging tau one ulp per pass until the threshold reaches P
    (an error after 64 passes rather than a hang)."""
    gains, params, feasible = batch.gains, batch.params, batch.feasible
    t_tilde = _profile_tau(FixedPower(p_max, 0.0), gains, params)()
    k, t_hat = p_threshold(1.0, gains, params), _profile_tau(OnThreshold(), gains, params)()
    with np.errstate(divide="ignore", over="ignore"):
        p_inv = np.divide(p_max, k)
    on_threshold = t_hat < p_inv
    tau = np.select([~feasible, on_threshold], [0.0, t_hat],
                    np.minimum(np.maximum(t_tilde, p_inv), TAU_LIMIT))
    short = feasible & ~on_threshold
    for _ in range(64):
        threshold = p_threshold(tau, gains, params)
        short &= (threshold < p_max) & (tau < TAU_LIMIT)
        if not np.any(short):
            break
        tau = np.where(short, np.nextafter(tau, 1.0), tau)
    else:
        raise AssertionError("threshold still below P after 64 nudges")
    p = np.where(feasible, np.minimum(threshold, p_max), 0.0)
    regime = np.select([~feasible, p_inv > 1.0, on_threshold | (t_tilde <= p_inv)],
                       [0, 1, 2], 3)
    return p, tau, capacity(p, tau, 0.0, gains, params), regime


def _assert_nj_bits_equal(batch, p_max):
    """Assert ChannelBatch.nj bit-equal to the reference; return its tau."""
    want = _nj_nudging_until_reached(batch, p_max)
    got = batch.nj(p_max)
    for name, a, b in zip(got._fields, got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
    return got.tau


@_SETTINGS
@given(
    draws=st.lists(st.one_of(st.tuples(_WIDE_GAIN, _WIDE_GAIN, _WIDE_GAIN),
                             _SUBNORMAL_LINK), min_size=1, max_size=4),
    zeta=st.one_of(st.sampled_from([0.0, 1e-310, 1e-305, 0.3, 1.0]), _DEEP_SUBNORMAL),
    p_max=st.one_of(_log_uniform(-3.0, 5.0), _DEEP_SUBNORMAL),
)
def test_one_ulp_nudge_matches_nudging_until_reached(draws, zeta, p_max):
    # every regime over the extreme ranges; few of these links take the
    # nudge, which the sweep-draw test below exercises hundreds of times
    h2, ga2, gb2 = (np.array(c) for c in zip(*draws))
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=p_max, gamma_max=10.0, zeta=zeta)
    _assert_nj_bits_equal(ChannelBatch(ChannelGains(h2, ga2, gb2), params), p_max)


def test_one_ulp_nudge_matches_nudging_until_reached_on_sweep_draws():
    # the default sweep's first 4096 draws at every SIR point: hundreds of
    # links sit at a kink whose fl(P/K)*K rounds below P
    gains = ChannelGains(*_gain_block(0, 0, 4096).T)
    batch = ChannelBatch(gains, reference_params())
    nudged = 0
    for sir_db in range(-30, 11):
        p_max = transmit_budget(GAMMA_MW, float(sir_db))
        tau = _assert_nj_bits_equal(batch, p_max)
        kink = np.divide(p_max, p_threshold(1.0, gains, reference_params()))
        nudged += int(np.sum(batch.feasible & (tau == np.nextafter(kink, 1.0))))
    assert nudged >= 100


def _nj_all_lanes(batch, p_max):
    """Reference for ChannelBatch.nj: the same kernel solved on every lane,
    the infeasible ones then zeroed by np.minimum with a ceiling of +inf
    where feasible and 0 elsewhere, and their regime by a factor of
    feasible."""
    gains, params, feasible = batch.gains, batch.params, batch.feasible
    ceiling = np.where(feasible, math.inf, 0.0)
    silent, scale = _profile_tau(FixedPower(p_max, 0.0), gains, params), snr_scale(0.0)
    t_tilde = silent(p_max / scale)
    with np.errstate(divide="ignore", over="ignore"):
        p_inv = np.divide(p_max, batch._k)
    t_hat = _profile_tau(OnThreshold(), gains, params)()
    on_threshold = t_hat < p_inv
    off = ~on_threshold
    beyond = off & (t_tilde > p_inv)
    tau = np.where(on_threshold, t_hat, np.maximum(t_tilde, p_inv))
    np.minimum(tau, ceiling, out=tau)
    threshold = batch._threshold(tau)
    short = np.flatnonzero(feasible & off & (threshold < p_max) & (tau < TAU_LIMIT))
    p = np.asarray(np.minimum(threshold, p_max))
    np.minimum(p, ceiling, out=p)
    if short.size:
        np.put(tau, short, np.nextafter(tau.flat[short], 1.0))
        np.put(p, short, p_max)
    value = capacity_from_factors(p / scale, silent.lead, silent.den, tau, gains.h2)
    return NJArrays(p, tau, value, (2 - (p_inv > 1.0) + beyond) * feasible)


_EDGE_OR_ORDINARY_GAIN = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e300]),
                                   _log_uniform(-3.0, 3.0))


@_SETTINGS
@given(
    layout=st.sampled_from(["0-d", "scalar h2", "scalar ga2 and gb2", "2-D"]),
    feasibility=st.sampled_from(["all", "none", "some"]),
    draws=st.lists(st.tuples(_EDGE_OR_ORDINARY_GAIN, _EDGE_OR_ORDINARY_GAIN,
                             _EDGE_OR_ORDINARY_GAIN), min_size=6, max_size=6),
    zeta=st.sampled_from([0.0, 5e-324, 1.0]),
)
def test_channel_batch_nj_solves_only_the_neutralizable_lanes(layout, feasibility, draws,
                                                              zeta):
    # nj gathers the lanes where the jammer can be neutralized, solves them
    # alone and scatters them into zeros: bytes, dtype and shape equal the
    # kernel run on every lane and zeroed by the ceiling, at every budget of
    # one batch, where every lane, none or some can be neutralized
    h2, ga2, gb2 = (np.array(c) for c in zip(*draws))
    if feasibility == "all":  # ga2*n_b > gb2*n_a on every lane
        ga2, gb2 = np.maximum(ga2, 1.0), np.minimum(gb2, 1.0)
    elif feasibility == "none":
        ga2 = np.zeros_like(ga2)
    else:  # lane 0 can be neutralized, lane 1 cannot
        ga2[0], gb2[0], ga2[1] = max(ga2[0], 1.0), min(gb2[0], 1.0), 0.0
    if layout == "0-d":
        assume(feasibility != "some")
        gains = ChannelGains(float(h2[0]), float(ga2[0]), float(gb2[0]))
    elif layout == "scalar h2":
        gains = ChannelGains(float(h2[0]), ga2, gb2)
    elif layout == "scalar ga2 and gb2":
        assume(feasibility != "some")
        gains = ChannelGains(h2, float(ga2[0]), float(gb2[0]))
    else:
        gains = ChannelGains(h2.reshape(2, 3), ga2.reshape(2, 3), gb2.reshape(2, 3))
    params = reference_params(zeta=zeta)
    batch = ChannelBatch(gains, params)
    feasible = batch.feasible
    assert {"all": feasible.all(), "none": not feasible.any(),
            "some": feasible.any() and not feasible.all()}[feasibility]
    for sir_db in (-30.0, 0.0, 10.0):
        p_max = params_at_sir(sir_db).p_max
        _assert_same_bits(batch.nj(p_max), _nj_all_lanes(batch, p_max))


def _optimal_tau_by_select(alpha, beta, s):
    """Reference for _optimal_tau: (tau clipped to [0, TAU_LIMIT] where the
    profile rises at _TAU_PROBE, selected by np.where, else 0; rising)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = 1.0 - (alpha + beta) / (s + beta)
    with np.errstate(under="ignore"):
        rising = s > (alpha + beta * _TAU_PROBE) / (1.0 - _TAU_PROBE)
    return np.where(rising, np.clip(tau, 0.0, TAU_LIMIT), 0.0), rising


# what alpha and beta read in a tau-profile: 0 (h2 == 0, or beta == 0 where
# zeta == 0), subnormal, ordinary, huge, inf past an overflow, nan from 0*inf
_PROFILE_TERM = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e300, math.inf, math.nan]),
                          _log_uniform(-300.0, 300.0))
# alpha just below s, where 1 - (alpha+beta)/(s+beta) lies in (0, _TAU_PROBE]
# but the profile does not rise at _TAU_PROBE: tau there is 0, not the clip
_FLAT_AT_THE_PROBE = st.builds(
    lambda beta, t: (float(_optimal_snr(beta) * (1.0 - t) - t * beta), beta),
    _log_uniform(-6.0, 6.0), _log_uniform(-9.0, -6.5))


@_SETTINGS
@given(st.lists(st.one_of(st.tuples(_PROFILE_TERM, _PROFILE_TERM), _FLAT_AT_THE_PROBE),
                min_size=1, max_size=16))
@example([(0.0, 0.0), (1.0, 0.0), (math.inf, math.inf), (math.nan, 1.0), (1.0, 1e300)])
def test_optimal_tau_equals_the_select_form_bit_for_bit(pairs):
    # fmin(fmax(tau, 0), rising*TAU_LIMIT) reads the clip where the profile
    # rises and +0.0 elsewhere, a nan or -inf tau included (0/0 where h2 or
    # beta is 0, x/0, inf/inf on the Wright-omega lanes); no floating-point
    # event escapes it, also where beta*_TAU_PROBE underflows
    alpha, beta = (np.array(c) for c in zip(*pairs))
    with np.errstate(invalid="ignore"):  # the nan beta lanes
        s = _optimal_snr(beta)
    want, rising = _optimal_tau_by_select(alpha, beta, s)
    with np.errstate(all="raise"):
        got = _optimal_tau(beta, s)(alpha)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert not np.signbit(got).any() and not got[~rising].any()
    for i in range(len(pairs)):
        with np.errstate(all="raise"):
            one = _optimal_tau(beta[i], s[i])(alpha[i])
        assert np.asarray(one).tobytes() == got[i].tobytes()


def _jamming_sign_by_where(p, tau, gains, params):
    """jamming_sign's rule over every lane, K formed by p_threshold at tau."""
    slope = np.where(np.asarray(gains.gb2) == 0.0, tau * params.zeta * gains.ga2,
                     p_threshold(tau, gains, params) - p)
    sign = np.where(neutralization_feasible(gains, params), np.sign(slope), -1.0)
    return float(sign) if sign.ndim == 0 else sign


def _ne_per_budget(gains, params, p_max):
    """Reference for ChannelBatch.ne: the jammer's sign re-forms K at the budget."""
    gamma = params.gamma_max
    tau = _profile_tau(FixedPower(p_max, gamma), gains, params)()
    value = capacity(p_max, tau, gamma, gains, params)
    return NEArrays(tau, value, _jamming_sign_by_where(p_max, tau, gains, params) <= 0.0)


def _nj_nested_where(gains, params, p_max):
    """Reference for ChannelBatch.nj: every lane decided by nested np.where,
    stepped by nextafter and read from the line where tau == 0."""
    feasible = neutralization_feasible(gains, params)
    t_tilde = _profile_tau(FixedPower(p_max, 0.0), gains, params)()
    t_hat = _profile_tau(OnThreshold(), gains, params)()
    at_zero, k = p_threshold(0.0, gains, params), p_threshold(1.0, gains, params)
    with np.errstate(divide="ignore", over="ignore"):
        p_inv = np.divide(p_max, k)
    on_threshold = t_hat < p_inv
    beyond = ~on_threshold & (t_tilde > p_inv)
    tau = np.where(feasible, np.where(on_threshold, t_hat,
                                      np.where(beyond, t_tilde, p_inv)), 0.0)
    with np.errstate(invalid="ignore"):
        threshold = np.where(tau == 0.0, at_zero, tau * k)
    short = feasible & ~on_threshold & (threshold < p_max) & (tau < TAU_LIMIT)
    tau = np.where(short, np.nextafter(tau, 1.0), tau)
    p = np.where(short, p_max, np.where(feasible, np.minimum(threshold, p_max), 0.0))
    value = capacity(p, tau, 0.0, gains, params)
    regime = np.where(feasible, np.where(p_inv > 1.0, 1, 2 + beyond), 0)
    return NJArrays(p, tau, value, regime)


def _assert_same_bits(got, want):
    for name, a, b in zip(got._fields, got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def _assert_batch_matches_per_budget_formulas(gains, params, budgets):
    batch = ChannelBatch(gains, params)
    for p_max in budgets:
        _assert_same_bits(batch.ne(p_max), _ne_per_budget(gains, params, p_max))
        _assert_same_bits(batch.nj(p_max), _nj_nested_where(gains, params, p_max))


# gb2 == 0 (the jammer cannot reach the receiver) or so small that K overflows
_UNREACHED_OR_HUGE_K = st.one_of(st.just(0.0), _log_uniform(-323.0, -310.0))


@_SETTINGS
@given(
    draws=st.lists(st.one_of(st.tuples(_WIDE_GAIN, _WIDE_GAIN, _WIDE_GAIN),
                             st.tuples(_WIDE_GAIN, _WIDE_GAIN, _UNREACHED_OR_HUGE_K),
                             _SUBNORMAL_LINK), min_size=1, max_size=6),
    zeta=st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 0.3, 1.0]), _DEEP_SUBNORMAL),
    gamma_max=st.sampled_from([0.0, 10.0]),
    budgets=st.lists(st.one_of(_DEEP_SUBNORMAL, _log_uniform(-300.0, 300.0)),
                     min_size=1, max_size=3),
)
def test_channel_batch_matches_the_per_budget_formulas(draws, zeta, gamma_max, budgets):
    # the line and lane indices kept per chunk give the bits that forming K
    # at every budget and deciding every lane by np.where give, dtype and
    # shape included, for a chunk, for one link's ga2 and gb2 broadcast
    # against every h2, and for each link as 0-d gains
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=1.0, gamma_max=gamma_max, zeta=zeta)
    h2, ga2, gb2 = (np.array(c) for c in zip(*draws))
    _assert_batch_matches_per_budget_formulas(ChannelGains(h2, ga2, gb2), params, budgets)
    _assert_batch_matches_per_budget_formulas(ChannelGains(h2, ga2[0], gb2[0]), params,
                                              budgets)
    for draw in draws:
        _assert_batch_matches_per_budget_formulas(ChannelGains(*draw), params, budgets)
    # jamming_sign itself, broadcast over a tau grid
    taus = np.array([0.0, 5e-324, 0.5, TAU_LIMIT])[:, None]
    for p in budgets:
        want = _jamming_sign_by_where(p, taus, ChannelGains(h2, ga2, gb2), params)
        assert jamming_sign(p, taus, ChannelGains(h2, ga2, gb2), params).tobytes() == \
            want.tobytes()


def test_channel_batch_matches_the_per_budget_formulas_on_sweep_draws():
    # the default sweep's first 4096 draws at all 41 SIR points, which
    # reach the one-ulp nudge on hundreds of links
    gains = ChannelGains(*_gain_block(0, 0, 4096).T)
    budgets = [transmit_budget(GAMMA_MW, float(sir_db)) for sir_db in range(-30, 11)]
    _assert_batch_matches_per_budget_formulas(gains, reference_params(), budgets)


def _bits(x):
    """x with each float or array replaced by its type, dtype, shape and bytes,
    so that -0.0, +0.0 and nan compare bit for bit."""
    if dataclasses.is_dataclass(x):
        return type(x), _bits(dataclasses.astuple(x))
    if isinstance(x, (tuple, list)):
        return type(x), tuple(map(_bits, x))
    if isinstance(x, (float, np.ndarray, np.generic)):
        a = np.asarray(x)
        return type(x), a.dtype, a.shape, a.tobytes()
    return x


def _outcome(call):
    """call()'s result as _bits, or the type and message of its ValueError."""
    try:
        return _bits(call())
    except ValueError as e:
        return type(e), str(e)


_EDGE_GAIN = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-200, 0.2, 1.0, 1e12, 1e160,
                                        1e300]), _log_uniform(-320.0, 300.0))


@_SETTINGS
@given(
    draws=st.lists(st.tuples(_EDGE_GAIN, _EDGE_GAIN, _EDGE_GAIN), min_size=1, max_size=3),
    zeta=st.sampled_from([0.0, 5e-324, 1e-305, 0.5, 1.0]),
    gamma_max=st.sampled_from([0.0, 1e-300, 10.0, 1e300]),
    p_max=st.one_of(st.just(5e-324), _log_uniform(-3.0, 5.0)),
    tau=st.sampled_from([0.0, 5e-324, 0.5, TAU_LIMIT]),
)
def test_raise_mode_gives_the_default_modes_outputs(draws, zeta, gamma_max, p_max, tau):
    # every floating-point event that the library expects is named in a local
    # np.errstate, so np.seterr(all="raise") changes no output bit, and a
    # documented ValueError is the same one in both modes
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=p_max, gamma_max=gamma_max, zeta=zeta)
    h2, ga2, gb2 = (np.array(c) for c in zip(*draws))
    batch_gains = ChannelGains(h2, ga2, gb2)
    taus = np.array([0.0, 5e-324, 0.5, TAU_LIMIT])[:, None]
    calls = [
        lambda: capacity(p_max, taus, gamma_max, batch_gains, params),
        lambda: p_threshold(taus, batch_gains, params),
        lambda: jamming_sign(p_max, taus, batch_gains, params),
        lambda: [getattr(ChannelBatch(batch_gains, params), name)(p_max)
                 for name in ("ne", "nj", "no_eh")],
        lambda: sir_sweep(SweepConfig(-30.0, 10.0, 10.0, params,
                                      fixed_gains=ChannelGains(*draws[0]))),
    ]
    for draw in draws:
        gains = ChannelGains(*draw)
        calls += [
            lambda gains=gains: capacity(p_max, tau, gamma_max, gains, params),
            lambda gains=gains: p_threshold(tau, gains, params),
            lambda gains=gains: jamming_sign(p_max, tau, gains, params),
            lambda gains=gains: solve_ne(gains, params),
            lambda gains=gains: solve_nj(gains, params),
        ]
    for call in calls:
        default = _outcome(call)
        with np.errstate(all="raise"):
            assert _outcome(call) == default
