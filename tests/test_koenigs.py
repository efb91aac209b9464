import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import germdeform as gd
from germdeform import koenigs
from germdeform.cremer import ContinuedFraction
from germdeform.cycles import Cycle
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


def _reversion_by_composition(a):
    # the O(K^2) reversion that Lagrange inversion replaced: the whole
    # series recomposed once per degree
    b = np.zeros_like(a)
    b[1] = 1.0
    for k in range(2, len(a)):
        b[k] = -koenigs._compose(a[: k + 1], b[: k + 1])[k]
    return b


def _assert_reversion_matches_composition(chart):
    a = np.array((0j,) + chart.coeffs)
    got = koenigs._reversion(a)
    assert tuple(got[1:].tolist()) == chart.inverse_coeffs
    want = _reversion_by_composition(a)
    weight = chart.radius ** np.arange(len(a))
    # |delta b_k| R^k against the largest |b_j| R^j of the chart disk
    assert np.max(np.abs(got - want) * weight) <= 1e-15 * np.max(np.abs(want) * weight)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_lagrange_reversion_matches_composition(quad_germ_wide, order):
    for cycle in gd.repelling_cycles(quad_germ_wide, order):
        for idx in range(order):
            _assert_reversion_matches_composition(gd.build_chart(quad_germ_wide, cycle, idx))


def test_lagrange_reversion_matches_composition_at_a_convergent_order():
    # alpha = [0; 3, 20, 50, 1], whose second convergent denominator is 61
    alpha = ContinuedFraction((3, 20, 50, 1)).value()
    germ = gd.Germ.create([cmath.exp(2j * math.pi * alpha), 1], alpha=alpha)
    cycle = gd.repelling_cycle(germ, 61, 0)
    _assert_reversion_matches_composition(gd.build_chart(germ, cycle))


def _compose_by_full_horner(outer, inner):
    # Horner over every coefficient of outer, its zero tail included
    acc = np.zeros(len(inner), dtype=complex)
    for c in outer[::-1]:
        acc = np.convolve(acc, inner)[: len(inner)]
        acc[0] += c
    return acc


def _cubic_germ():
    return gd.Germ.create([1.7 + 0.9j, 0.3 - 0.5j, 0.8 + 0.2j], radius_U=2.0)


def test_compose_is_bitwise_the_full_horner():
    rng = np.random.default_rng(7)
    n = koenigs.SERIES_ORDER + 1
    inners = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3)]
    inners[1][0] = 0
    inners[2][5:] = complex(-0.0, -0.0)
    for d in range(n):
        for tail in (0.0, -0.0):
            outer = np.zeros(n, dtype=complex)
            outer[: d + 1] = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            outer[d + 1 :] = complex(0.0, tail)
            outer[-1] = complex(tail, tail)
            # a signed zero in the last nonzero coefficient itself
            outer[d] = complex(outer[d].real, tail)
            for inner in inners:
                want = _compose_by_full_horner(outer, inner)
                assert koenigs._compose(outer, inner).tobytes() == want.tobytes()
    for tail in (0.0, -0.0):
        outer = np.full(n, complex(tail, tail))
        want = _compose_by_full_horner(outer, inners[0])
        assert koenigs._compose(outer, inners[0]).tobytes() == want.tobytes()
    # the compositions of a cycle's return map: shifted series of a cubic
    # germ with complex coefficients, zero beyond degree 3
    germ = _cubic_germ()
    cycle = gd.repelling_cycles(germ, 3)[0]
    f = np.array((0j,) + germ.coeffs)
    shifted = []
    for p in cycle.points:
        shift = np.zeros(n, dtype=complex)
        shift[:2] = p, 1.0
        shifted.append(koenigs._compose(f, shift))
        shifted[-1][0] = 0
    cur = np.zeros(n, dtype=complex)
    cur[1] = 1.0
    for outer in shifted + shifted:
        want = _compose_by_full_horner(outer, cur)
        cur = koenigs._compose(outer, cur)
        assert cur.tobytes() == want.tobytes()


def test_cycle_charts_evaluate_f_at_most_q_times_per_block_of_rungs(monkeypatch, quad_germ_wide):
    calls = []
    eval_raw = gd.Germ.eval_raw

    def counting(self, z):
        calls.append(z)
        return eval_raw(self, z)

    monkeypatch.setattr(gd.Germ, "eval_raw", counting)
    # f^q is taken once per block of rungs up to the chart's rung k: the
    # charts of the order-4 cycles pass at rungs 4-5, and 6 of the 16
    # order-8 charts at rung 8, the first of the second block (one ring at a
    # time took 78 steps at order 4)
    rungs = []
    for order in (4, 8):
        for cycle in gd.repelling_cycles(quad_germ_wide, order):
            for i in range(order):
                top = koenigs._series_chart(quad_germ_wide, cycle, i)
                calls.clear()
                chart = gd.build_chart(quad_germ_wide, cycle, i)
                k = int(math.log2(top.radius / chart.radius))
                assert chart.radius == top.radius * 0.5 ** k
                assert len(calls) == order * (k // koenigs.LADDER_BLOCK + 1)
                rungs.append(k)
    assert max(rungs) == koenigs.LADDER_BLOCK


def _functional_residual_one_ring(germ, chart, radius):
    # the validation ring of one chart and one radius, alone through f^q
    z = gd.germ.circle(chart.center, radius, koenigs.RING_SAMPLES)
    fz = z
    for _ in range(chart.cycle.order):
        fz = germ.eval_raw(fz)
        if not np.all(np.abs(fz) <= germ.radius_U):
            return math.inf
    if np.any(np.abs(fz - chart.center) > 4.0 * radius * max(1.0, abs(chart.multiplier))):
        return math.inf
    lhs = gd.germ.horner(chart.coeffs, fz - chart.center)
    rhs = chart.multiplier * gd.germ.horner(chart.coeffs, z - chart.center)
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)))


def _radius_by_sequential_halving(germ, top):
    # one rung at a time from the chart's top radius: the functional check,
    # then the round trip
    radius = top.radius
    for _ in range(koenigs.MAX_HALVINGS + 1):
        if _functional_residual_one_ring(germ, top, radius) < koenigs.CHART_RESIDUAL_TOL:
            chart = dataclasses.replace(top, radius=radius)
            z = gd.germ.circle(chart.center, 0.5 * radius, koenigs.RING_SAMPLES)
            back = chart.psi(chart.phi(z))
            rel = np.abs(back - z) / np.maximum(np.abs(z - chart.center), 1e-300)
            if float(np.max(rel)) < koenigs.CHART_RESIDUAL_TOL:
                return radius
        radius *= 0.5
    return None


def _assert_ladder_radii_are_sequential_halving(germ, cycle):
    for i in range(cycle.order):
        chart = gd.build_chart(germ, cycle, i)
        top = koenigs._series_chart(germ, cycle, i)
        assert chart.radius == _radius_by_sequential_halving(germ, top)
        assert chart == dataclasses.replace(top, radius=chart.radius)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7, 8])
def test_ladder_radii_are_those_of_sequential_halving(quad_germ_wide, order):
    for cycle in gd.repelling_cycles(quad_germ_wide, order):
        _assert_ladder_radii_are_sequential_halving(quad_germ_wide, cycle)


def test_ladder_radii_are_those_of_sequential_halving_off_the_real_axis():
    alpha = 1 / 3 + 1e-3
    paper = gd.Germ.create([cmath.exp(2j * math.pi * alpha), 1], alpha=alpha)
    cubic = _cubic_germ()
    for germ, order in ((paper, 3), (cubic, 2), (cubic, 3)):
        for cycle in gd.repelling_cycles(germ, order):
            _assert_ladder_radii_are_sequential_halving(germ, cycle)


def test_cycle_charts_raise_the_first_failing_chart_in_base_order(quad_germ_wide):
    # not a cycle: the first point's rings never close up under f^2, and the
    # second point lies outside U
    p = gd.repelling_cycle(quad_germ_wide, 2, 0).points[0]
    points = (p, 3.5 + 0j)
    lam = complex(np.prod(quad_germ_wide.derivative_raw(np.array(points))))
    fake = Cycle(points, 2, lam, "repelling")
    with pytest.raises(gd.ChartError, match="no chart radius passed validation after 20 halvings"):
        gd.build_chart(quad_germ_wide, fake, 0)
    with pytest.raises(gd.ChartError, match="cycle point leaves no room for a chart disk"):
        gd.build_chart(quad_germ_wide, fake, 1)
    # reading the charts in base order raises each refusal at its own read
    lc = gd.LocalConjugacy(quad_germ_wide, fake, gd.shear_coefficient(lam, 2 * lam))
    with pytest.raises(gd.ChartError, match="no chart radius passed validation after 20 halvings"):
        lc.chart(0)
    with pytest.raises(gd.ChartError, match="cycle point leaves no room for a chart disk"):
        lc.chart(1)


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
