"""The package's own special functions (Lambert W0 and Wright omega in
solvers, the normal quantile in experiments) against scipy.special, which
only the tests import, and against 50-digit points; the one-value quantile
against the array one, bit for bit; and the package running where scipy
cannot be imported at all, and without numpy.random outside sweeps."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehjam.experiments import _ndtri, _ndtri_one
from ehjam.model import ChannelGains
from ehjam.solvers import _lambert_w0, _wright_omega

ROOT = Path(__file__).resolve().parents[1]

# deterministic examples, no example database: the suite reruns identically
_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _ulps(got, ref):
    return np.abs(got - ref) / np.spacing(np.abs(ref))


# --- normal quantile --------------------------------------------------------

# the uniforms _gain_block feeds it: (k + 0.5) * 2^-53 for 53-bit k; the top k
# rounds to u = 1.0 (2^53 - 0.5 is not a double)
_KS = st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=64)


def _uniforms(ks):
    return [(k + 0.5) * 2.0**-53 for k in ks]


@_SETTINGS
@given(_KS)
@example([0, 2**53 - 1, 2**52, 2**52 - 1])
def test_ndtri_within_a_few_ulps_of_scipy(ks):
    u = (np.array(ks, dtype=np.float64) + 0.5) * 2.0**-53
    got, ref = _ndtri(u), scipy.special.ndtri(u)
    finite = np.isfinite(ref)
    assert np.array_equal(got[~finite], ref[~finite])  # +inf at u = 1
    assert np.all(_ulps(got[finite], ref[finite]) <= 8.0)


def _draws(x):
    """ChannelGains of each whole triple of quantiles, or the error it raises."""
    out = []
    for i in range(0, len(x) - 2, 3):
        try:
            out.append(ChannelGains(*(v * v for v in x[i:i + 3])))
        except ValueError as exc:
            out.append(str(exc))
    return out


@_SETTINGS
@given(_KS.map(_uniforms))
@example([5.551115123125783e-17, 1e-11, 1.4e-11, 0.9999999999999999])  # r > 5 and near it
@example([2.0**-54, 2.0**-54, 2.0**-54])  # k = 0
@example(_uniforms([2**53 - 1, 2**52, 0]))  # u = 1.0: +inf, and a gain ChannelGains rejects
@example([0.075, 0.925, 0.0750000000000001, 0.9249999999999999, 0.5])  # lane boundaries
@example([0.0, 1.0, 0.02425, 0.3225971716937021, 0.5000000000000001])
# tail uniforms where math.log's last bit differs from np.log's on an AVX-512 host
@example(_uniforms([8485892354229149, 8982223276573222, 336091789631964, 572100113987236]))
def test_ndtri_one_matches_ndtri_bit_for_bit(us):
    got = [_ndtri_one(u) for u in us]
    ref = _ndtri(np.array(us))
    assert all(type(x) is float for x in got)
    assert np.array(got).tobytes() == ref.tobytes()
    # a draw's three gains, from either path: equal gains or the same error
    assert _draws(got) == _draws(ref.tolist())


def test_ndtri_edges_and_shape():
    u = np.array([[0.0, 1.0, 0.5], [2.0**-54, 1.0 - 2.0**-53, 0.075]])
    x = _ndtri(u)
    assert x.shape == u.shape
    assert x[0, 0] == -math.inf and x[0, 1] == math.inf and x[0, 2] == 0.0
    assert np.all(np.isfinite(x[1]))


@pytest.mark.parametrize("u, expected", [
    # 50-digit quantiles sqrt(2)*erfinv(2u - 1): both tails, both tail
    # rationals (r = sqrt(-log u) on either side of 5) and the central one
    (5.551115123125783e-17, -8.2923610758135955382),
    (1e-11, -6.7060231554951362961),
    (1.4e-11, -6.6567230915181836356),
    (0.02425, -1.9729610513118848376),
    (0.075, -1.4395314709384559349),
    (0.3225971716937021, -0.46044848012753257466),
    (0.5000000000000001, 2.7829164246717669222e-16),
    (0.925, 1.4395314709384562291),
    (0.9999999999999999, 8.2095361516013868556),
])
def test_ndtri_fifty_digit_points(u, expected):
    assert _ulps(_ndtri(np.array([u]))[0], expected) <= 4.0


# --- Lambert W0 ---------------------------------------------------------------

def _w0_tolerance(w):
    """1e-15 relative, times the condition number 1/(1 + w) of W0 near its
    branch point, where any double-precision W0 (scipy's too) loses digits."""
    return 1e-15 * np.abs(w) * np.maximum(1.0, 1.0 / np.abs(1.0 + w))


# _optimal_snr calls W0 at z = (beta - 1)/e for beta >= 1e-6
@_SETTINGS
@given(st.floats(1e-6, 1.7976931348623157e308))
@example(1.0)  # z = 0
@example(1.0 + 2.0**-52)  # a tiny z, where a start that is not exact at 0 fails
@example(1e-6)
@example(1.7976931348623157e308)
def test_lambert_w0_matches_scipy(beta):
    z = (beta - 1.0) / math.e
    got = _lambert_w0(np.array([z]))[0]
    ref = scipy.special.lambertw(z).real
    assert abs(got - ref) <= _w0_tolerance(ref)
    # a one-channel solve passes a numpy scalar: the same bits as a batch lane
    assert _lambert_w0(np.float64(z)) == got


@pytest.mark.parametrize("z, expected", [
    # 50-digit W0(z) at z = (beta - 1)/e for beta = 1e-6, 1e-3, 0.5, 1.5, 2,
    # 1e3, 1e100 and the largest double
    (-0.36787907329200115, -0.99858645267248375705),
    (-0.3675115617302709, -0.95593195301694462831),
    (-0.18393972058572117, -0.23196095298653444495),
    (0.18393972058572117, 0.15718495148381401418),
    (0.36787944117144233, 0.27846454276107380247),
    (367.5115617302709, 4.4205016039429275368),
    (3.6787944117144233e+99, 223.84754408602626512),
    (6.61334345850887e+307, 702.22845410909624416),
    (0.0, 0.0),
    (1e-300, 1e-300),
])
def test_lambert_w0_fifty_digit_points(z, expected):
    got = _lambert_w0(np.array([z]))[0]
    assert abs(got - expected) <= 0.5 * _w0_tolerance(expected)


# --- Wright omega -------------------------------------------------------------

# _tau_profile calls omega at x = L - 1 with L = ln(1 + beta) > 709.78
@_SETTINGS
@given(st.floats(700.0, 1e10))
def test_wright_omega_matches_scipy(log1p_beta):
    x = log1p_beta - 1.0
    got = _wright_omega(np.array([x]))[0]
    ref = scipy.special.wrightomega(x)
    assert abs(got - ref) <= 4e-16 * ref


@pytest.mark.parametrize("x, expected", [
    # 50-digit W0(exp(x))
    (699.0, 692.45974988653523842),
    (707.5, 700.94756691331877991),
    (9999.0, 9989.7906810814216173),
    (9999999999.0, 9999999975.9741490725),
])
def test_wright_omega_fifty_digit_points(x, expected):
    assert abs(_wright_omega(np.array([x]))[0] - expected) <= 4e-16 * expected


# --- no scipy at run time -----------------------------------------------------

def test_cli_runs_where_scipy_cannot_be_imported(tmp_path):
    script = f"""
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from ehjam.cli import run
point = ["--h2", "1", "--ga2", "1", "--gb2", "0.2"]
codes = [run(["ne", *point]), run(["nj", *point]),
         run(["sweep", "--draws", "1000", "--out", {str(tmp_path / "s.csv")!r}])]
print("codes", codes)
print("scipy modules", sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "codes [0, 0, 0]" in proc.stdout
    assert "scipy modules ['scipy']" in proc.stdout  # only the blocking None
    assert (tmp_path / "s.csv").read_text().count("\n") > 41


# --- no numpy.random outside sweeps -------------------------------------------

def test_cli_and_one_draw_leave_numpy_random_unimported():
    script = """
import sys
from ehjam.cli import run
from ehjam.experiments import sample_channels
gains = sample_channels(2**128 - 1, 2**64 + 3)
point = ["--h2", "1", "--ga2", "1", "--gb2", "0.2"]
codes = [run(["ne", *point]), run(["nj", *point]), run(["verify", "--sets", "5"])]
print("codes", codes)
print("loaded", sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "codes [0, 0, 0]" in proc.stdout
    assert "loaded []" in proc.stdout
