"""Property tests of the closed-form tau and the array solver cores over
extreme inputs: profile coefficients from 0 to 1e13, gains of 0, subnormal
or up to 1e300, zeta from 0 (and subnormal) to 1 and jamming budgets from 0
to 1e300, next to ordinary values."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ehjam import (
    NJ_REGIMES,
    TAU_LIMIT,
    ChannelBatch,
    ChannelGains,
    SystemParams,
    capacity,
    jamming_sign,
    ne_grid_optimum,
    neutralization_feasible,
    nj_grid_value,
    solve_ne,
    solve_nj,
)
from ehjam.solvers import _optimal_snr, _optimal_tau, _tau_derivative

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
    tau = _optimal_tau(alpha, beta, _optimal_snr(beta))
    assert np.all(np.isfinite(tau))
    assert np.all((tau >= 0.0) & (tau <= TAU_LIMIT))
    interior = (tau > 0.0) & (tau < TAU_LIMIT)
    resid = _tau_derivative(tau[interior], alpha[interior], beta[interior])
    assert np.all(np.abs(resid) <= 1e-12 * np.maximum(1.0, alpha + beta)[interior])
    for i, (a, b) in enumerate(pairs):
        assert _optimal_tau(a, b, _optimal_snr(b)) == tau[i]


@_SETTINGS
@given(_log_uniform(-300.0, -2.0))
def test_optimal_tau_accurate_near_branch_point(beta):
    # W0((beta-1)/e) is sqrt(eps)-conditioned here; check the SNR term s at
    # the returned tau against (1+s)*log1p(s) - s = beta, summed as its
    # alternating series so that no digits cancel
    alpha = np.sqrt(2.0 * beta) / 2.0  # puts tau near 1/2
    tau = float(_optimal_tau(alpha, beta, _optimal_snr(beta)))
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
