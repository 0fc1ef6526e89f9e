import math
import re

import numpy as np
import pytest

from ehjam import (
    ChannelBatch,
    ChannelGains,
    FixedPower,
    LegitStrategy,
    StrategyProfile,
    SystemParams,
    TAU_LIMIT,
    capacity,
    capacity_tau_derivative,
    db_to_linear,
    jamming_sign,
    linear_to_db,
    metric_f,
    metric_fnj,
    neutralization_feasible,
    p_threshold,
    snr_factors,
    snr_scale,
)
from helpers import random_gains, reference_params


# --- unit conversions -------------------------------------------------------

def test_db_to_linear_identity():
    assert db_to_linear(0.0) == 1.0


def test_db_to_linear_ten_dbm_is_ten_mw():
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)


def test_db_to_linear_high_precision_point():
    # 10**(-0.7), evaluated independently at high precision
    assert db_to_linear(-7.0) == pytest.approx(0.19952623149688797, rel=1e-15)


def test_db_roundtrip():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-60.0, 40.0, size=50):
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, abs=1e-12)


def test_db_to_linear_rejects_non_finite():
    with pytest.raises(ValueError):
        db_to_linear(math.nan)
    with pytest.raises(ValueError):
        db_to_linear(math.inf)


def test_db_to_linear_rejects_overflow():
    assert db_to_linear(3080.0) == 1e308
    with pytest.raises(ValueError, match="decibel value out of range"):
        db_to_linear(4000.0)
    with pytest.raises(ValueError, match="decibel value out of range"):
        db_to_linear(np.array([0.0, 4000.0]))


@pytest.mark.parametrize("x_db, kind", [
    (-7.0, float), (-0.0, float), (-4000.0, float), (3, float),
    (np.float64(-7.0), np.float64), (np.float64(-0.0), np.float64),
    (np.array([-7.0, -0.0, 3.0]), np.ndarray),
])
def test_db_to_linear_keeps_the_input_kind(x_db, kind):
    # floats take a math-only path; np.float64, a float subclass, stays numpy's
    out = db_to_linear(x_db)
    assert type(out) is kind
    assert np.allclose(out, 10.0 ** (np.asarray(x_db, dtype=float) / 10.0), rtol=1e-15)


@pytest.mark.parametrize("wrap", [float, np.float64, lambda v: np.array([0.0, v])])
@pytest.mark.parametrize("x_db, message", [
    (math.nan, "decibel value must be finite"),
    (math.inf, "decibel value must be finite"),
    (-math.inf, "decibel value must be finite"),
    (3100.0, "decibel value out of range"),
])
def test_db_to_linear_errors_alike_for_every_input_kind(wrap, x_db, message):
    with pytest.raises(ValueError, match=message):
        db_to_linear(wrap(x_db))


def test_db_to_linear_overflow_from_an_int():
    with pytest.raises(ValueError, match="decibel value out of range"):
        db_to_linear(3100)


def test_linear_to_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-1.0)


# --- domain type validation -------------------------------------------------

def test_channel_gains_validation():
    with pytest.raises(ValueError):
        ChannelGains(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ChannelGains(1.0, math.nan, 0.0)
    ChannelGains(0.0, 0.0, 0.0)  # zeros are allowed


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-320, -1.0])
def test_channel_gains_reject_every_field_not_finite_and_nonnegative(bad):
    for field in range(3):
        for wrap in (float, lambda v: np.array([1.0, v, 0.5])):
            values = [1.0, 1.0, 1.0]
            values[field] = wrap(bad)
            with pytest.raises(ValueError, match="must be finite and >= 0"):
                ChannelGains(*values)
    ChannelGains(-0.0, np.array([0.0, -0.0, 5e-324]), 1.7976931348623157e308)


@pytest.mark.parametrize("value", [
    0.5, -0.0, 5e-324, 1.7976931348623157e308, 2, 0,
    np.float64(0.5), np.float64(-0.0), np.array([0.1, -0.0]),
])
def test_channel_gains_keep_each_field_as_given(value):
    g = ChannelGains(value, value, value)
    assert g.h2 is value and g.ga2 is value and g.gb2 is value


@pytest.mark.parametrize("bad", [
    np.float64(math.nan), np.float64(math.inf), np.float64(-math.inf),
    np.float64(-1.0), -1, np.array(-0.5),
])
def test_channel_gains_reject_numpy_scalars_and_ints_alike(bad):
    for field in range(3):
        values = [1.0, 1.0, 1.0]
        values[field] = bad
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            ChannelGains(*values)


def test_snr_factors_divide_the_transmit_term_by_snr_scale():
    gains, params = ChannelGains(1.0, 1.0, 0.2), reference_params()
    for gamma in (0.0, 0.5, 1.0, 10.0, 1e300):
        assert snr_scale(gamma) == max(gamma, 1.0)
        assert snr_factors(3.7, gamma, gains, params)[0] == 3.7 / snr_scale(gamma)


@pytest.mark.parametrize("kwargs", [
    dict(n_a=0.0), dict(n_b=-1.0), dict(p_max=0.0),
    dict(gamma_max=-1.0), dict(zeta=1.5), dict(zeta=-0.1),
])
def test_system_params_validation(kwargs):
    base = dict(n_a=0.1, n_b=0.2, p_max=1.0, gamma_max=10.0, zeta=0.8)
    base.update(kwargs)
    with pytest.raises(ValueError):
        SystemParams(**base)


def test_strategy_validation():
    with pytest.raises(ValueError):
        LegitStrategy(-1.0, 0.0)
    with pytest.raises(ValueError):
        LegitStrategy(1.0, 1.0)  # tau == 1 is excluded from the action set
    with pytest.raises(ValueError):
        StrategyProfile(LegitStrategy(1.0, 0.5), -1.0)


# --- capacity ---------------------------------------------------------------

def test_capacity_zero_without_power():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params(zeta=0.8)
    for gamma in (0.0, 10.0):
        assert capacity(0.0, 0.0, gamma, gains, params) == 0.0


def test_capacity_unit_snr():
    gains = ChannelGains(1.0, 0.0, 0.0)
    params = SystemParams(n_a=0.1, n_b=1.0, p_max=1.0, gamma_max=0.0, zeta=0.0)
    assert capacity(1.0, 0.0, 0.0, gains, params) == pytest.approx(0.5, rel=1e-15)


def test_capacity_regression_constant():
    # frozen from an independent 60-digit evaluation of the same expression
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = SystemParams(n_a=0.1, n_b=db_to_linear(-7.0), p_max=10.0,
                          gamma_max=10.0, zeta=0.8)
    assert capacity(10.0, 0.2, 10.0, gains, params) == pytest.approx(
        1.170507702174352169, rel=1e-12)


def test_capacity_tau_one_limit():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    assert capacity(5.0, 1.0, 3.0, gains, params) == 0.0
    assert capacity(5.0, 1.0 - 1e-9, 3.0, gains, params) < 1e-6


def test_capacity_beyond_float_range_snr():
    # the SNR term, and with it h2/den, exceeds the float range at
    # tau = TAU_LIMIT; 50-digit references, where the log used to read inf
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=10.0, gamma_max=10.0, zeta=1.0)
    c = capacity(10.0, TAU_LIMIT, 0.0, ChannelGains(1e300, 1.0, 0.2), params)
    assert c == pytest.approx(5.1606698182649592e-7, rel=1e-12)
    c = capacity(0.0, TAU_LIMIT, 0.0, ChannelGains(1e300, 0.0, 1e-10), params)
    assert c == pytest.approx(5.1273787617855935e-7, rel=1e-12)
    # nothing to send, while h2/den alone overflows
    silent = SystemParams(n_a=0.1, n_b=0.2, p_max=10.0, gamma_max=10.0, zeta=0.0)
    assert capacity(0.0, TAU_LIMIT, 0.0, ChannelGains(1e300, 1.0, 0.2), silent) == 0.0


def test_capacity_jamming_budget_times_gain_beyond_float_range():
    # gamma*ga2 = 1e310; 50-digit references, where capacity used to read
    # nan at tau = 0 and inf at tau = 0.5
    gains = ChannelGains(1.0, 1e10, 1.0)
    params = SystemParams(n_a=0.1, n_b=db_to_linear(-7.0), p_max=1.0,
                          gamma_max=1e300, zeta=0.8)
    c = capacity(1.0, 0.0, 1e300, gains, params)
    assert c == pytest.approx(7.2134752044448166581e-301, rel=1e-12)
    c = capacity(1.0, 0.5, 1e300, gains, params)
    assert c == pytest.approx(8.2243382135416495228, rel=1e-12)


def test_capacity_domain_errors():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    with pytest.raises(ValueError):
        capacity(-1.0, 0.5, 0.0, gains, params)
    with pytest.raises(ValueError):
        capacity(1.0, -0.1, 0.0, gains, params)
    with pytest.raises(ValueError):
        capacity(1.0, 1.1, 0.0, gains, params)
    with pytest.raises(ValueError):
        capacity(1.0, 0.5, -2.0, gains, params)


_GAINS = ChannelGains(1.0, 1.0, 0.2)


@pytest.mark.parametrize("call, message", [
    (lambda: capacity(math.nan, 0.5, 0.0, _GAINS, reference_params()), "p must be >= 0"),
    (lambda: capacity(1.0, math.nan, 0.0, _GAINS, reference_params()), "tau must lie in [0, 1]"),
    (lambda: capacity(1.0, 0.5, np.array([1.0, math.nan]), _GAINS, reference_params()),
     "gamma must be >= 0"),
    (lambda: p_threshold(np.array([0.5, math.nan]), _GAINS, reference_params()),
     "tau must lie in [0, 1]"),
    (lambda: jamming_sign(1.0, math.nan, _GAINS, reference_params()), "tau must lie in [0, 1)"),
    (lambda: jamming_sign(math.nan, 0.5, _GAINS, reference_params()), "p must be >= 0"),
    (lambda: capacity_tau_derivative(FixedPower(1.0, 0.0), math.nan, _GAINS,
                                     reference_params()), "tau must lie in [0, 1)"),
    (lambda: metric_f(1.0, math.nan), "capacities must be >= 0"),
    (lambda: metric_fnj(np.array([math.nan, 1.0]), 0.5), "capacities must be >= 0"),
    (lambda: linear_to_db(math.nan), "linear value must be positive to express in dB"),
], ids=["capacity-p", "capacity-tau", "capacity-gamma", "p_threshold", "jamming_sign",
        "jamming_sign-p", "capacity_tau_derivative", "metric_f", "metric_fnj", "linear_to_db"])
def test_range_checks_reject_nan(call, message):
    # each check is written as the range it accepts, so nan falls outside it
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_capacity_increasing_in_transmit_power():
    rng = np.random.default_rng(2)
    params = reference_params()
    for _ in range(50):
        gains = random_gains(rng)
        if gains.h2 == 0:
            continue
        tau = float(rng.uniform(0.0, 0.9))
        gamma = float(rng.uniform(0.0, 10.0))
        p = np.sort(rng.uniform(0.0, 20.0, size=8))
        c = capacity(p, tau, gamma, gains, params)
        assert np.all(np.diff(c) > 0.0)


def test_capacity_broadcasts_over_grids():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    p = np.linspace(0.0, 10.0, 7)[:, None]
    tau = np.linspace(0.0, 0.9, 5)[None, :]
    c = capacity(p, tau, 10.0, gains, params)
    assert c.shape == (7, 5)
    assert c[0, 0] == 0.0
    # spot check one cell against the scalar path
    assert c[3, 2] == pytest.approx(
        capacity(float(p[3, 0]), float(tau[0, 2]), 10.0, gains, params), rel=1e-15)


# --- threshold machinery ----------------------------------------------------

def test_k_constant_values():
    # the threshold at tau = 1/2 is K/2 with K = (ga2*n_b/gb2 - n_a)*zeta
    params = reference_params()
    assert p_threshold(0.5, ChannelGains(1.0, 1.0, 0.2), params) == pytest.approx(
        0.35905246299377597, rel=1e-14)
    assert p_threshold(0.5, ChannelGains(0.2, 0.2, 1.0), params) == pytest.approx(
        -0.024037901480248966, rel=1e-14)


def test_k_constant_zero_efficiency():
    params = reference_params(zeta=0.0)
    assert p_threshold(0.5, ChannelGains(1.0, 5.0, 0.1), params) == 0.0
    # ga2*n_b/gb2 overflows; zeta == 0 still gives K = 0, not inf*0 = nan
    assert p_threshold(0.5, ChannelGains(1.0, 5.0, 1e-320), params) == 0.0


def test_k_constant_unbounded_when_receiver_unreachable():
    # K = +inf, so the kink P/K that ChannelBatch.nj reads is 0
    gains = ChannelGains(1.0, 1.0, 0.0)
    params = reference_params()
    assert 0.5 * params.p_max / p_threshold(0.5, gains, params) == 0.0


def test_neutralization_feasible_examples():
    params = reference_params()
    # 0.2/0.1 = 2.0 < 1.0/0.1995... ~ 5.01
    assert not neutralization_feasible(ChannelGains(0.2, 0.2, 1.0), params)
    assert neutralization_feasible(ChannelGains(1.0, 1.0, 0.2), params)
    # equality is not strict feasibility
    equal = SystemParams(n_a=0.3, n_b=0.3, p_max=1.0, gamma_max=1.0, zeta=0.8)
    assert not neutralization_feasible(ChannelGains(1.0, 0.7, 0.7), equal)


def test_p_threshold_examples():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    assert p_threshold(0.0, gains, params) == 0.0
    assert p_threshold(0.5, gains, params) == 0.35905246299377597
    assert p_threshold(1.0, gains, params) == 2 * 0.35905246299377597  # K itself
    for tau in (np.nextafter(1.0, 2.0), -1e-300):
        with pytest.raises(ValueError):
            p_threshold(tau, gains, params)


def test_p_threshold_at_one_is_the_slope():
    # tau * K on [0, 1]: K = p_threshold(1) is twice the threshold at 1/2, for
    # a normal K, under the unbounded rule (gb2 == 0) and at zeta == 0
    params, zeta0 = reference_params(), reference_params(zeta=0.0)
    normal, unreachable = ChannelGains(1.0, 1.0, 0.2), ChannelGains(1.0, 1.0, 0.0)
    for gains, p in ((normal, params), (unreachable, params), (normal, zeta0)):
        assert p_threshold(1.0, gains, p) == 2 * p_threshold(0.5, gains, p)
    assert p_threshold(1.0, unreachable, params) == math.inf
    assert p_threshold(1.0, normal, zeta0) == 0.0
    assert p_threshold(1.0, ChannelGains(1.0, 5.0, 1e-320), zeta0) == 0.0


def test_jamming_sign_rejects_tau_of_one():
    # a strategy's tau lies in [0, 1), though p_threshold accepts tau == 1
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    for tau in (1.0, np.array([0.5, 1.0]), -1e-300):
        with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\)"):
            jamming_sign(1.0, tau, gains, params)


def test_threshold_unbounded_interference_free_jammer():
    gains = ChannelGains(1.0, 1.0, 0.0)
    params = reference_params()
    assert math.isinf(p_threshold(0.5, gains, params))
    assert math.isinf(p_threshold(0.0, gains, params))


def test_p_threshold_array_matches_scalar_calls():
    params = reference_params()
    # ordinary, gb2 == 0, K overflowing, infeasible (negative slope)
    h2 = np.array([1.0, 1.0, 1.0, 0.2])
    ga2 = np.array([1.0, 1.0, 1.0, 0.2])
    gb2 = np.array([0.2, 0.0, 5e-324, 1.0])
    taus = np.array([0.0, 1e-300, 0.5, TAU_LIMIT])
    out = p_threshold(taus[:, None], ChannelGains(h2, ga2, gb2), params)
    assert out.shape == (4, 4)
    for i, tau in enumerate(taus):
        for j in range(4):
            gains = ChannelGains(h2[j], ga2[j], gb2[j])
            assert out[i, j] == p_threshold(float(tau), gains, params)
    assert np.all(np.isinf(out[:, 1]))  # unbounded at every tau, tau == 0 too
    assert out[0, 2] == 0.0 and np.all(np.isinf(out[1:, 2]))
    assert np.all(out[1:, 3] < 0.0)
    gains = ChannelGains(1.0, 1.0, 0.2)
    half, k = p_threshold(np.array([0.5, 1.0]), gains, params)
    assert k == 2 * half == p_threshold(1.0, gains, params)
    with pytest.raises(ValueError):
        p_threshold(np.array([0.5, np.nextafter(1.0, 2.0)]), gains, params)


def test_threshold_at_zero_is_plus_zero_where_k_is_negative():
    # links that cannot be neutralized have K < 0, where tau*K reads -0.0 at
    # tau = 0; the threshold there is +0.0, for a scalar and an array tau,
    # and the neutralizing solve gives p = tau = +0.0 on those links
    params = SystemParams(0.1, 0.2, 1.0, 10.0, 0.8)
    gains = ChannelGains(1.0, 0.01, 1.0)
    assert p_threshold(1.0, gains, params) < 0.0
    plus_zero = np.zeros(2).tobytes()
    assert np.float64(p_threshold(0.0, gains, params)).tobytes() == plus_zero[:8]
    assert p_threshold(np.zeros(2), gains, params).tobytes() == plus_zero
    batch = ChannelGains(np.array([1.0, 0.5]), np.array([0.01, 0.02]), np.array([1.0, 2.0]))
    assert np.all(p_threshold(1.0, batch, params) < 0.0)
    assert p_threshold(np.zeros(2), batch, params).tobytes() == plus_zero
    assert p_threshold(0.0, batch, params).tobytes() == plus_zero
    nj = ChannelBatch(batch, params).nj(params.p_max)
    assert nj.p.tobytes() == nj.tau.tobytes() == plus_zero


_TAUS = (0.0, 5e-324, 0.5, 1.0)
_PS = (0.0, -0.0, 1.0)


@pytest.mark.parametrize("gains, params, line, signs", [
    # gb2 == 0: +inf at every tau; the sign is that of tau*zeta*ga2, or -1
    # where ga2 == 0 too (the link cannot be neutralized)
    (ChannelGains(1.0, 1.0, 0.0), reference_params(), (math.inf,) * 4, ((0.0, 1.0),) * 3),
    (ChannelGains(1.0, 1.0, 0.0), reference_params(zeta=0.0), (math.inf,) * 4,
     ((0.0, 0.0),) * 3),
    (ChannelGains(1.0, 0.0, 0.0), reference_params(), (math.inf,) * 4, ((-1.0, -1.0),) * 3),
    (ChannelGains(1.0, 0.0, 0.0), reference_params(zeta=0.0), (math.inf,) * 4,
     ((-1.0, -1.0),) * 3),
    # K beyond the float range: +0 at tau == 0 and +inf at every tau > 0
    (ChannelGains(1.0, 1.0, 1e-310), reference_params(), (0.0, math.inf, math.inf, math.inf),
     ((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))),
    # K = 1*(1*2/1 - 4) = -2: +0 at tau == 0, tau*K elsewhere; infeasible, so -1
    (ChannelGains(1.0, 1.0, 1.0), SystemParams(4.0, 2.0, 1.0, 10.0, 1.0),
     (0.0, -2 * 5e-324, -1.0, -2.0), ((-1.0, -1.0),) * 3),
    # K = 0 (zeta == 0): +0 at every tau, so the sign is that of -p
    (ChannelGains(1.0, 1.0, 0.2), reference_params(zeta=0.0), (0.0,) * 4,
     ((0.0, 0.0), (0.0, 0.0), (-1.0, -1.0))),
    # K = 1*(1*0.5/0.125 - 1) = 3: tau*K, and the sign of tau*K - p
    (ChannelGains(1.0, 1.0, 0.125), SystemParams(1.0, 0.5, 1.0, 10.0, 1.0),
     (0.0, 3 * 5e-324, 1.5, 3.0), ((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))),
], ids=["unreached", "unreached-zeta0", "unreached-infeasible",
        "unreached-infeasible-zeta0", "k-overflow", "k-negative", "k-zero", "k-positive"])
def test_threshold_line_and_jamming_sign_bytes_on_every_kind_of_lane(gains, params, line,
                                                                     signs):
    # p_threshold at _TAUS and jamming_sign at _PS x (tau 0, 0.5), written out
    # from the documented rules, bit for bit (the sign of zero included), for
    # scalar and array arguments
    bits = lambda x: np.asarray(x, dtype=float).tobytes()
    assert bits(p_threshold(np.array(_TAUS), gains, params)) == bits(line)
    for tau, want in zip(_TAUS, line):
        assert bits(p_threshold(tau, gains, params)) == bits(want)
    p, tau = np.array(_PS)[:, None], np.array([0.0, 0.5])
    assert bits(jamming_sign(p, tau, gains, params)) == bits(signs)
    for p, want in zip(_PS, signs):
        for tau, sign in zip((0.0, 0.5), want):
            assert bits(jamming_sign(p, tau, gains, params)) == bits(sign)


def test_p_threshold_never_reads_minus_zero():
    # K = 0.8*(0.01*0.2/1 - 0.1) < 0: tau*K is -0 at tau == 0 and where it
    # underflows (tau = 5e-324), and p_threshold reads +0 at both
    params = SystemParams(0.1, 0.2, 1.0, 10.0, 0.8)
    gains = ChannelGains(1.0, 0.01, 1.0)
    assert p_threshold(np.array([0.0, -0.0, 5e-324]), gains, params).tobytes() == \
        np.zeros(3).tobytes()
    assert np.float64(p_threshold(5e-324, gains, params)).tobytes() == np.zeros(1).tobytes()


def test_lane_rules_hold_for_any_memory_layout():
    # the gb2 == 0 and infeasible lane rules broadcast per-lane arrays, so
    # Fortran-ordered 2-D gains, tau and p, strided columns of an (n, 3) block
    # and reversed views give the same bytes as their C-ordered copies
    rng = np.random.default_rng(7)
    params = SystemParams(0.1, 0.2, 1.0, 10.0, 0.8)
    h2, ga2, gb2 = (rng.lognormal(0.0, 2.0, (4, 6)) for _ in range(3))
    gb2[0, ::2] = 0.0
    ga2[1] = 1e-3  # K < 0: these links cannot be neutralized
    tau = rng.uniform(0.0, 0.9, (4, 6))
    tau[:, 0] = 0.0
    p = rng.uniform(0.0, 2.0, (4, 6))
    block = np.stack([h2, ga2, gb2, tau, p], axis=-1).reshape(-1, 5)
    columns = [block[:, j] for j in range(5)]  # 40-byte strides
    reversed_ = [np.ascontiguousarray(x.ravel()[::-1])[::-1] for x in (h2, ga2, gb2, tau, p)]
    same = lambda a, b: (np.shape(a) == np.shape(b) and np.asarray(a).dtype == np.asarray(b).dtype
                         and np.asarray(a).tobytes() == np.asarray(b).tobytes())
    for *gains_, tau_v, p_v in ([*map(np.asfortranarray, (h2, ga2, gb2, tau, p))],
                                columns, reversed_):
        gains_c = ChannelGains(*(np.array(x, order="C") for x in gains_))
        gains_v = ChannelGains(*gains_)
        assert not np.all(neutralization_feasible(gains_c, params))
        for p_, tau_ in ((0.0, 0.0), (0.5, tau_v), (p_v, 0.3), (p_v, tau_v)):
            p_c, tau_c = np.array(p_, order="C"), np.array(tau_, order="C")
            sign_c = jamming_sign(p_c, tau_c, gains_c, params)
            assert same(jamming_sign(p_, tau_, gains_v, params), sign_c)
            assert same(p_threshold(tau_, gains_v, params), p_threshold(tau_c, gains_c, params))
        batch_c, batch_v = ChannelBatch(gains_c, params), ChannelBatch(gains_v, params)
        for p_max in (1e-3, 1.0, 1e3):
            for solve in ("ne", "nj"):
                c, v = getattr(batch_c, solve)(p_max), getattr(batch_v, solve)(p_max)
                assert all(same(a, b) for a, b in zip(c, v))


def test_p_threshold_unbounded_at_zero_efficiency_without_interference():
    # zeta == 0 with gb2 == 0: jamming cannot change capacity at all, so every
    # power neutralizes; the threshold is +inf like jamming_sign's flat answer
    gains = ChannelGains(1.0, 1.0, 0.0)
    params = reference_params(zeta=0.0)
    assert p_threshold(0.5, ChannelGains(1.0, 1.0, 0.2), params) == 0.0  # K == 0
    assert math.isinf(p_threshold(0.5, gains, params))
    assert math.isinf(p_threshold(0.0, gains, params))
    assert jamming_sign(5.0, 0.5, gains, params) == 0.0


# --- jammer best response ---------------------------------------------------

def test_jammer_best_response_silent_below_threshold():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    assert jamming_sign(0.0, 0.5, gains, params) == 1.0


def test_jammer_best_response_full_power_above_threshold():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params(p_max=10.0)
    assert p_threshold(0.5, gains, params) < 10.0
    assert jamming_sign(10.0, 0.5, gains, params) == -1.0


def test_jammer_best_response_tie_on_threshold():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    tau = 0.5
    p = p_threshold(tau, gains, params)
    assert jamming_sign(p, tau, gains, params) == 0.0
    c0 = capacity(p, tau, 0.0, gains, params)
    cg = capacity(p, tau, params.gamma_max, gains, params)
    assert cg == pytest.approx(c0, rel=1e-12)


def test_jammer_best_response_infeasible_always_full_power():
    # ga2 == gb2 == 0 is out of the jammer's reach too: the infeasible rule wins
    params = reference_params()
    for gains in (ChannelGains(0.2, 0.2, 1.0), ChannelGains(1.0, 0.0, 0.0)):
        for p, tau in ((0.0, 0.0), (0.0, 0.5), (5.0, 0.2)):
            assert jamming_sign(p, tau, gains, params) == -1.0


def test_jammer_best_response_interference_free_jammer():
    gains = ChannelGains(1.0, 1.0, 0.0)
    params = reference_params()
    # nothing harvested at tau == 0: capacity is flat in gamma
    assert jamming_sign(5.0, 0.0, gains, params) == 0.0
    assert jamming_sign(5.0, 0.5, gains, params) == 1.0
    # tau*zeta*ga2 = 0.5e-400 flushes to 0, yet every factor is positive
    gains = ChannelGains(1.0, 1e-200, 0.0)
    assert jamming_sign(0.0, 0.5, gains, reference_params(zeta=1e-200)) == 1.0
    assert jamming_sign(0.0, 0.5, gains, reference_params(zeta=0.0)) == 0.0  # exactly 0


def test_jammer_best_response_validates_strategy():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params(p_max=10.0)
    with pytest.raises(ValueError):
        jamming_sign(1.0, 1.0, gains, params)
    for p in (-1.0, np.array([0.5, -1.0])):
        with pytest.raises(ValueError, match="p must be >= 0"):
            jamming_sign(p, 0.5, gains, params)


# --- monotonicity in the jamming power --------------------------------------

def _gamma_grid_capacity(p, tau, gains, params, n=100):
    gammas = np.linspace(0.0, params.gamma_max, n)
    return capacity(p, tau, gammas, gains, params)


def test_capacity_monotone_in_gamma_three_branches():
    rng = np.random.default_rng(3)
    params = reference_params()
    done = 0
    while done < 40:
        gains = random_gains(rng)
        if not neutralization_feasible(gains, params) or gains.h2 == 0:
            continue
        tau = float(rng.uniform(0.05, 0.9))
        pth = p_threshold(tau, gains, params)
        if not 0 < pth < math.inf:
            continue
        below = _gamma_grid_capacity(0.5 * pth, tau, gains, params)
        above = _gamma_grid_capacity(2.0 * pth, tau, gains, params)
        assert np.all(np.diff(below) >= -1e-12)
        assert np.all(np.diff(above) <= 1e-12)
        done += 1


def test_capacity_monotone_decreasing_when_infeasible():
    rng = np.random.default_rng(4)
    params = reference_params()
    done = 0
    while done < 40:
        gains = random_gains(rng)
        if neutralization_feasible(gains, params):
            continue
        tau = float(rng.uniform(0.0, 0.9))
        p = float(rng.uniform(0.0, 20.0))
        c = _gamma_grid_capacity(p, tau, gains, params)
        assert np.all(np.diff(c) <= 1e-12)
        done += 1


def test_capacity_constant_on_threshold_dense_grid():
    rng = np.random.default_rng(5)
    params = reference_params()
    done = 0
    while done < 20:
        gains = random_gains(rng)
        if not neutralization_feasible(gains, params) or gains.h2 == 0:
            continue
        tau = float(rng.uniform(0.05, 0.9))
        pth = p_threshold(tau, gains, params)
        if not 0 < pth < math.inf:
            continue
        c = _gamma_grid_capacity(pth, tau, gains, params, n=1000)
        ref = c[0]
        assert np.max(np.abs(c - ref)) <= 1e-10 * max(ref, 1e-300)
        done += 1


# --- log-base invariance ----------------------------------------------------

def test_strategy_ranking_invariant_under_log_base():
    gains = ChannelGains(1.2, 0.8, 0.3)
    params = reference_params()
    p = np.linspace(0.0, 10.0, 20)[:, None]
    tau = np.linspace(0.0, 0.95, 21)[None, :]
    bits = capacity(p, tau, params.gamma_max, gains, params).ravel()
    nats = bits * math.log(2.0)  # capacity with a natural log is a fixed rescale
    assert int(np.argmax(bits)) == int(np.argmax(nats))
    assert np.array_equal(np.argsort(bits, kind="stable"),
                          np.argsort(nats, kind="stable"))
