import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import germdeform as gd
from germdeform.koenigs import critical_points


def test_critical_points(quad_germ):
    pts = critical_points(quad_germ)
    assert len(pts) == 1
    assert pts[0] == pytest.approx(-1.0)


def test_chart_series_is_log1p(chart):
    # for 2z + z^2 the linearizer at 0 is log(1 + z)/log-base, normalized
    # phi'(0) = 1, i.e. coefficients (-1)^(k+1)/k
    want = [(-1.0) ** (k + 1) / k for k in range(1, len(chart.coeffs) + 1)]
    assert np.allclose(chart.coeffs, want, rtol=0, atol=1e-12)
    # its reversion is psi(w) = e^w - 1, coefficients 1/k!
    want = [1.0 / math.factorial(k) for k in range(1, len(chart.inverse_coeffs) + 1)]
    assert np.allclose(chart.inverse_coeffs, want, rtol=0, atol=1e-12)


def test_chart_radius(chart):
    assert chart.radius == pytest.approx(0.2025)
    assert chart.multiplier == pytest.approx(2.0)
    assert abs(chart.center) < 1e-12


def test_functional_equation_on_ring(quad_germ, chart):
    # f doubles the ring, so evaluate the image through the raw series,
    # which still converges there
    theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    z = chart.radius * np.exp(1j * theta)
    lhs = np.array([chart.phi_raw(quad_germ.eval(complex(v))) for v in z])
    rhs = chart.multiplier * np.array([chart.phi_raw(complex(v)) for v in z])
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() / scale < 1e-9


def test_psi_inverts_phi(chart):
    theta = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    for v in 0.5 * chart.radius * np.exp(1j * theta):
        z = complex(v)
        assert abs(chart.psi(chart.phi(z)) - z) < 1e-12


def test_phi_outside_chart_raises(chart):
    with pytest.raises(gd.DomainError):
        chart.phi(complex(chart.radius * 1.5))


def test_dphi_at_center_is_one(chart):
    assert chart.dphi(0j) == pytest.approx(1.0)


def test_chart_rejects_non_repelling(quad_germ_wide):
    cycles = gd.find_cycles(quad_germ_wide, 1)
    attracting = [c for c in cycles if c.kind == "attracting"][0]
    with pytest.raises(gd.ChartError):
        gd.build_chart(quad_germ_wide, attracting)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_chart_at_cycle_of_order(quad_germ_wide, order):
    cycle = gd.repelling_cycle(quad_germ_wide, order, 0)
    lam = 2.0 ** order
    for idx in range(order):
        ch = gd.build_chart(quad_germ_wide, cycle, base_index=idx)
        assert ch.multiplier == pytest.approx(lam)
        assert ch.center == pytest.approx(cycle.points[idx])
        # functional equation for the return map f^q
        for t in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
            z = complex(ch.center + 0.8 * ch.radius * np.exp(1j * t))
            w = z
            for _ in range(order):
                w = quad_germ_wide.eval(w)
            assert abs(ch.phi_raw(w) - lam * ch.phi(z)) < 1e-7 * abs(ch.phi(z))


def test_iterative_agrees_with_series(chart):
    theta = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    worst = 0.0
    for v in 0.5 * chart.radius * np.exp(1j * theta):
        z = complex(v)
        a = chart.phi(z)
        b = gd.phi_iterative(chart, z)
        worst = max(worst, abs(a - b) / abs(a))
    assert worst < 1e-7


def test_chart_json(chart):
    data = chart.to_json()
    assert data["multiplier"][0] == pytest.approx(2.0)
    assert abs(data["multiplier"][1]) < 1e-12
    assert data["radius"] == chart.radius
    assert len(data["coeffs"]) == len(chart.coeffs)


@given(st.floats(0.05, 0.95), st.floats(0.0, 2 * np.pi))
def test_phi_functional_equation_property(quad_germ, chart, s, t):
    # anywhere in the chart where f(z) is still inside, the equation holds
    z = complex(s * chart.radius * np.exp(1j * t))
    w = quad_germ.eval(z)
    if abs(w) >= chart.radius:
        return
    assert abs(chart.phi(w) - 2.0 * chart.phi(z)) <= 1e-9 * max(abs(chart.phi(z)), 1e-6)


def test_scalar_and_array_evaluation_agree(quad_germ_wide):
    ch = gd.build_chart(quad_germ_wide, gd.repelling_cycle(quad_germ_wide, 3, 0), base_index=1)
    theta = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    z = ch.center + 0.7 * ch.radius * np.exp(1j * theta)
    w = 0.6 * ch.radius * np.exp(1j * theta)
    for method, pts in ((ch.phi, z), (ch.dphi, z), (ch.psi, w)):
        arr = method(pts)
        assert arr.shape == pts.shape
        for v, a in zip(pts, arr):
            s = method(complex(v))
            assert type(s) is complex
            assert abs(s - a) <= 1e-14 * abs(a)
    grid = z[:12].reshape(3, 4)
    assert ch.phi(grid).shape == (3, 4)


def test_array_domain_checks_keep_their_messages(chart):
    inside = 0.5 * chart.radius * np.exp(1j * np.linspace(0.0, 2 * np.pi, 8, endpoint=False))
    for bad in (complex(1.5 * chart.radius), complex(np.nan, 0.0)):
        with pytest.raises(gd.DomainError, match="point outside chart disk"):
            chart.phi(np.append(inside, bad))
        with pytest.raises(gd.DomainError, match="point outside chart disk"):
            chart.dphi(bad)
        with pytest.raises(gd.DomainError, match="coordinate outside inverse chart domain"):
            chart.psi(np.append(0.5 * inside, bad))
