import cmath
import json
import math

import numpy as np
import pytest

import germdeform as gd
from germdeform import local_deform
from germdeform.cli import main
from germdeform.germ import circle, horner, horner_derivative
from germdeform.koenigs import PSI_DOMAIN_FACTOR
from germdeform.local_deform import MEASURE_POINTS, TWO_PI_I, contour_multiplier, residual_readings
from germdeform.numdiff import wirtinger_pair


@pytest.fixture(scope="module")
def conj3(quad_germ, repelling_fixed):
    return gd.LocalConjugacy.build(quad_germ, repelling_fixed, 3.0 + 0j)


def test_target_property(conj3):
    assert conj3.target == pytest.approx(3.0)
    assert conj3.shear.lam == pytest.approx(2.0)


def test_identity_at_center(conj3):
    c = conj3.charts[0].center
    assert conj3.k_eval(c) == c
    assert conj3.k_inverse(c) == c
    assert abs(conj3.deformed_eval(c) - c) < 1e-15


def test_k_round_trip(conj3):
    r = conj3.working_radius()
    for t in np.linspace(0, 2 * math.pi, 12, endpoint=False):
        z = complex(0.6 * r * cmath.exp(1j * t))
        assert abs(conj3.k_inverse(conj3.k_eval(z)) - z) < 1e-10


def test_conjugation_moves_multiplier(quad_germ, conj3):
    m = gd.measure_multiplier(conj3)
    assert abs(m - 3.0) / 3.0 < 1e-5


def test_all_four_targets(quad_germ, repelling_fixed):
    targets = [3.0 + 0j, 2.0 * cmath.exp(1j * math.pi / 4), 1.2 + 0j, 4.0j]
    for t in targets:
        conj = gd.LocalConjugacy.build(quad_germ, repelling_fixed, t)
        m = gd.measure_multiplier(conj)
        assert abs(m - t) / abs(t) < 1e-5, t


def test_deformed_map_is_holomorphic(quad_germ, conj3):
    r = conj3.working_radius()
    res = gd.holomorphy_residual(conj3.deformed_return_map, 0j, r)
    assert res < 1e-5


def test_k_is_not_holomorphic(conj3):
    r = conj3.working_radius()
    res = gd.holomorphy_residual(conj3.k_eval, 0j, r)
    assert res > abs(conj3.shear.mu) / 2


def test_cauchy_derivative_exact_for_polynomial():
    # G(z) = c + 3(z - c) + (z - c)^2 about c: first derivative coefficient 3
    c = 0.3 + 0.2j

    def step(z):
        return c + 3.0 * (z - c) + (z - c) ** 2

    d = gd.cauchy_cycle_derivative(step, c, 0.1)
    assert abs(d - 3.0) < 1e-12


def _counted(fn):
    calls = []

    def wrapped(z):
        calls.append(np.array(z))
        return fn(z)

    return wrapped, calls


def test_wirtinger_pair_on_an_array_calls_fn_once(quad_germ_wide):
    cycle = gd.repelling_cycle(quad_germ_wide, 4, 0)
    lc = gd.LocalConjugacy.build(quad_germ_wide, cycle, 20.0 + 5j)
    r = lc.working_radius()
    at = lc.charts[0].center + 0.1 * r * circle(0.0, 1.0, 16)
    step = np.full(at.shape, 1e-5 * r)
    fn, calls = _counted(lc.deformed_return_map)
    d, dbar = wirtinger_pair(fn, at, step)
    assert len(calls) == 1 and calls[0].shape == (4 * at.size,)
    # the four-call stencil it replaced
    g = lc.deformed_return_map
    fx = (g(at + step) - g(at - step)) / (2.0 * step)
    fy = (g(at + 1j * step) - g(at - 1j * step)) / (2.0 * step)
    assert np.array_equal(d, 0.5 * (fx - 1j * fy))
    assert np.array_equal(dbar, 0.5 * (fx + 1j * fy))


def test_wirtinger_pair_on_a_scalar_takes_a_scalar_only_function():
    def scalar_only(z):
        return cmath.exp(complex(z))  # refuses an array

    d, dbar = wirtinger_pair(scalar_only, 0.3 + 0.2j, 1e-5)
    assert abs(d - cmath.exp(0.3 + 0.2j)) < 1e-9
    assert abs(dbar) < 1e-9


@pytest.mark.parametrize(
    "step", [0.0, -1e-3, math.nan, math.inf, np.array([1e-5, 0.0])],
    ids=["zero", "negative", "nan", "inf", "array-with-zero"],
)
def test_wirtinger_pair_refuses_a_step_that_is_not_positive_and_finite(step):
    # a zero step ended in ZeroDivisionError, a NaN or infinite one read
    # nan+nanj, and an array holding a zero read NaN after a RuntimeWarning
    def unreachable(z):
        raise AssertionError("fn ran on a step that was not positive and finite")

    at = np.full(np.shape(step), 0.3 + 0.2j) if np.ndim(step) else 0.3 + 0.2j
    for derivative in (wirtinger_pair, gd.wirtinger_dbar):
        with pytest.raises(gd.DomainError, match=r"^step must be positive and finite \(got "):
            derivative(unreachable, at, step)


def test_cauchy_derivative_reads_several_radii_in_one_call():
    c = 0.3 + 0.2j

    def step(z):
        return c + 3.0 * (z - c) + (z - c) ** 2

    fn, calls = _counted(step)
    both = gd.cauchy_cycle_derivative(fn, c, (0.1, 0.05))
    assert len(calls) == 1
    assert both == [gd.cauchy_cycle_derivative(step, c, r) for r in (0.1, 0.05)]


# order 1 places its circles at once; orders 2 and 4 retry at half the
# radius after a chart refuses a point
@pytest.mark.parametrize(
    "order, target, attempts", [(1, 3.0 + 0j, 1), (2, 5.0 + 0j, 2), (4, 20.0 + 5j, 3)]
)
def test_measure_multiplier_makes_one_return_map_call_per_attempt(
    monkeypatch, quad_germ_wide, order, target, attempts
):
    cycle = gd.repelling_cycle(quad_germ_wide, order, 0)
    lc = gd.LocalConjugacy.build(quad_germ_wide, cycle, target)
    center, n = lc.charts[0].center, MEASURE_POINTS
    calls = []
    plain = gd.LocalConjugacy.deformed_return_map

    def counted(self, z):
        calls.append(np.array(z))
        return plain(self, z)

    with monkeypatch.context() as m:
        m.setattr(gd.LocalConjugacy, "deformed_return_map", counted)
        measured = gd.measure_multiplier(lc)
    assert len(calls) == attempts
    rho = lc.charts[0].radius / 8.0
    while not np.array_equal(calls[0][:n], circle(center, rho, n)):
        rho *= 0.5
        assert rho > 1e-12
    for w in calls:
        # both circles of the attempt, each as one call would have made it
        both = np.concatenate([circle(center, rho, n), circle(center, rho / 2.0, n)])
        assert np.array_equal(w, both)
        rho *= 0.5
    # the two-call estimates on the last attempt's circles
    m1, m2 = [contour_multiplier(c, lc.deformed_return_map(c), center) for c in (w[:n], w[n:])]
    assert measured == m2
    assert abs(m1 - m2) <= 1e-5 * abs(m2)


def test_two_cycle_deformation(quad_germ_wide):
    two = gd.find_cycles(quad_germ_wide, 2)[0]
    conj = gd.LocalConjugacy.build(quad_germ_wide, two, 5.0 + 0j)
    m = gd.measure_multiplier(conj)
    assert abs(m - 5.0) / 5.0 < 1e-5


def test_build_rejects_attracting(quad_germ_wide):
    att = [c for c in gd.find_cycles(quad_germ_wide, 1) if c.kind == "attracting"][0]
    with pytest.raises((gd.ChartError, gd.ShearError)):
        gd.LocalConjugacy.build(quad_germ_wide, att, 3.0 + 0j)


def test_build_rejects_bad_target(quad_germ, repelling_fixed):
    with pytest.raises(gd.ShearError):
        gd.LocalConjugacy.build(quad_germ, repelling_fixed, 0.5 + 0j)


def test_residual_requires_positive_radius(conj3):
    with pytest.raises(gd.DomainError):
        gd.holomorphy_residual(conj3.k_eval, 0j, 0.0)


@pytest.mark.parametrize(
    "radius", [0.0, -0.1, math.nan, math.inf, (0.1, math.nan)], ids=["zero", "negative", "nan", "inf", "nan-pair"]
)
def test_a_radius_that_is_not_positive_and_finite_is_refused_by_name(conj3, radius):
    # a zero radius read nan+nanj after a RuntimeWarning, and a NaN one
    # passed `radius <= 0` on to a misleading "derivative vanished"
    def unreachable(z):
        raise AssertionError("the map ran on a radius that was not positive and finite")

    with pytest.raises(gd.DomainError, match="^radius must be positive and finite"):
        gd.cauchy_cycle_derivative(unreachable, 0j, radius)
    if np.ndim(radius) == 0:
        with pytest.raises(gd.DomainError, match="^radius must be positive and finite"):
            residual_readings(unreachable, 0j, radius)
        with pytest.raises(gd.DomainError, match="^radius must be positive and finite"):
            gd.holomorphy_residual(conj3.k_eval, 0j, radius)


def test_an_empty_sequence_of_radii_is_refused_by_name():
    # it ended in numpy's "need at least one array to concatenate"
    def unreachable(z):
        raise AssertionError("the map ran on no circle")

    for empty in ((), [], np.array([])):
        with pytest.raises(gd.DomainError, match=r"^need at least one radius \(got "):
            gd.cauchy_cycle_derivative(unreachable, 0j, empty)


# seed 1, job local-20 of the local-census benchmark: |target/lambda| = 0.099
COLLAPSE_TARGET = 0.8292629230822784 - 1.3502956612035348j


def test_collapsed_measuring_circle_is_named_before_the_two_radius_check(monkeypatch, quad_germ_wide):
    lc = gd.LocalConjugacy.build(quad_germ_wide, gd.repelling_cycle(quad_germ_wide, 4, 0), COLLAPSE_TARGET)
    center = lc.charts[0].center
    # the inverse conjugacy rounds the measuring circle onto the center
    assert lc.k_inverse(center + lc.charts[0].radius / 8.0) == center

    def unreachable(*args, **kwargs):
        raise AssertionError("a contour estimate ran on a collapsed circle")

    monkeypatch.setattr(gd.local_deform, "cauchy_cycle_derivative", unreachable)
    with pytest.raises(gd.UnreliableEstimateError, match="measuring circle collapses onto the chart center"):
        gd.measure_multiplier(lc)


def test_collapsed_measuring_circle_exits_3_naming_it(tmp_path, capsys):
    cfg = {
        "germ": {"coeffs": [[2, 0], [1, 0]], "radius_U": 3.0},
        "order": 4,
        "cycle_index": 0,
        "target": [COLLAPSE_TARGET.real, COLLAPSE_TARGET.imag],
    }
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["deform-local", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "measuring circle collapses onto the chart center" in err
    assert "disagree" not in err


# The chart-by-chart scalar route, kept here as the reference for the array
# route: one Python complex at a time, through the chart series directly,
# and each step of the return map leaving its chart and entering the next,
# so it also checks that the array route's return map, which enters and
# leaves one chart per call, is the same map.
def scalar_shear_in_chart(lc, z, index, inverse):
    chart = lc.charts[index]
    z = complex(z)
    if z == chart.center:
        return chart.center
    if abs(z - chart.center) > chart.radius:
        raise gd.DomainError("point outside chart disk")
    ph = complex(horner(chart.coeffs, z - chart.center))
    if ph == 0:
        return chart.center
    xi = cmath.log(ph) / TWO_PI_I
    eta = lc.shear.apply_inverse(xi) if inverse else lc.shear.apply(xi)
    w = cmath.exp(TWO_PI_I * eta)
    if abs(w) > PSI_DOMAIN_FACTOR * chart.radius:
        raise gd.DomainError("coordinate outside inverse chart domain")
    u = complex(horner(chart.inverse_coeffs, w))
    d = complex(horner_derivative(chart.coeffs, u))
    if d != 0:
        u = u - (complex(horner(chart.coeffs, u)) - w) / d
    return chart.center + u


def scalar_return_map(lc, z):
    pts = lc.cycle.points
    q = lc.cycle.order
    w = complex(z)
    for _ in range(q):
        i = min(range(q), key=lambda k: abs(w - pts[k]))
        u = scalar_shear_in_chart(lc, w, i, inverse=True)
        w = scalar_shear_in_chart(lc, lc.germ.eval(u), (i + 1) % q, inverse=False)
    return w


# cycles of 2z + z^2 on the radius-3 disk, by order and target
QUAD_CASES = {
    "order1": (1, 3.0 + 0.5j),
    "order2": (2, 6.0 - 1.0j),
    "order3": (3, 5.0 + 7.0j),
    "order4": (4, 20.0 - 3.0j),
}
# cycles of the paper's germ e^(2 pi i alpha) z + z^2, by alpha and order:
# alpha = 1/3 + 1e-3 and its 3-cycle, and alpha = [0; 3, 20, 50, 1], whose
# second convergent denominator is 61
PAPER_CASES = {
    "paper3": (1 / 3 + 1e-3, 3),
    "paper61": (gd.ContinuedFraction((3, 20, 50, 1)).value(), 61),
}


def case_conjugacy(name, quad_germ):
    """The LocalConjugacy of a named case; a paper case sends its cycle to
    the paper's target lambda |lambda|^(1/2)."""
    if name in QUAD_CASES:
        order, target = QUAD_CASES[name]
        return gd.LocalConjugacy.build(quad_germ, gd.repelling_cycle(quad_germ, order, 0), target)
    alpha, order = PAPER_CASES[name]
    germ = gd.Germ.create([cmath.exp(2j * math.pi * alpha), 1], alpha=alpha)
    cycle = gd.repelling_cycle(germ, order, 0)
    lam = cycle.multiplier
    return gd.LocalConjugacy.build(germ, cycle, lam * abs(lam) ** 0.5)


@pytest.fixture(scope="module", params=[*QUAD_CASES, "paper3"])
def route_case(request, quad_germ_wide):
    return case_conjugacy(request.param, quad_germ_wide)


def measuring_circle(lc, rho):
    theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    return lc.charts[0].center + rho * np.exp(1j * theta)


@pytest.mark.parametrize("fraction", [1.0 / 32, 1.0 / 128, 1.0 / 512])
def test_array_route_matches_the_scalar_route_on_measuring_circles(route_case, fraction):
    lc = route_case
    center = lc.charts[0].center
    z = measuring_circle(lc, fraction * lc.charts[0].radius)
    got = lc.deformed_return_map(z)
    want = np.array([scalar_return_map(lc, v) for v in z])
    assert got.shape == z.shape
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12
    inv = lc.k_inverse(z)
    want = np.array([scalar_shear_in_chart(lc, v, 0, inverse=True) for v in z])
    assert np.max(np.abs(inv - want) / np.abs(want - center)) < 1e-12


@pytest.mark.parametrize("name", [*QUAD_CASES, "paper61"])
def test_return_map_enters_and_leaves_one_chart_per_call(monkeypatch, quad_germ_wide, name):
    # q steps of the germ between one pass into the chart and one out of it;
    # a chain of q deformed steps makes 2q chart passes
    lc = case_conjugacy(name, quad_germ_wide)
    z = measuring_circle(lc, lc.charts[0].radius / 64)
    calls = []
    plain_psi, plain_eval = gd.KoenigsChart.psi, gd.Germ.eval

    def counted_psi(self, w):
        calls.append("psi")
        return plain_psi(self, w)

    def counted_eval(self, w):
        calls.append("eval")
        return plain_eval(self, w)

    with monkeypatch.context() as m:
        m.setattr(gd.KoenigsChart, "psi", counted_psi)
        m.setattr(gd.Germ, "eval", counted_eval)
        lc.deformed_return_map(z)
    assert calls == ["psi"] + ["eval"] * lc.cycle.order + ["psi"]


@pytest.mark.parametrize("name", sorted(PAPER_CASES))
def test_the_paper_cycles_reach_their_target_through_the_local_route(quad_germ_wide, name):
    # budgets set before measuring: 1e-8 of the move (the chart-by-chart
    # route read 3.5e-10 and 2.7e-10 of it), and the CLI's 1e-5 residual
    lc = case_conjugacy(name, quad_germ_wide)
    move = abs(lc.target - lc.cycle.multiplier)
    assert abs(gd.measure_multiplier(lc) - lc.target) <= 1e-8 * move
    assert gd.holomorphy_residual(lc.deformed_return_map, lc.cycle.base, lc.working_radius()) <= 1e-5


@pytest.mark.parametrize("name", [*QUAD_CASES, "paper61"])
def test_a_measurement_makes_the_base_chart_alone(monkeypatch, quad_germ_wide, name):
    # the measuring circles, the return map and the residual stencil all
    # sit around the base point, so no other chart is read
    built = []

    def counted(germ, cycle, base_index):
        built.append(base_index)
        return gd.build_chart(germ, cycle, base_index)

    monkeypatch.setattr(local_deform, "build_chart", counted)
    lc = case_conjugacy(name, quad_germ_wide)
    gd.measure_multiplier(lc)
    gd.holomorphy_residual(lc.deformed_return_map, lc.cycle.base, lc.working_radius())
    assert built == [0]
    gd.measure_multiplier(lc)
    assert built == [0]


def test_a_chart_elsewhere_is_made_when_read_and_refused_there(monkeypatch, quad_germ_wide):
    cycle = gd.repelling_cycle(quad_germ_wide, 2, 0)
    plain = gd.measure_multiplier(gd.LocalConjugacy.build(quad_germ_wide, cycle, 6.0 + 0j))

    def refusing(germ, cycle, base_index):
        if base_index == 1:
            raise gd.ChartError("no chart at cycle point 1")
        return gd.build_chart(germ, cycle, base_index)

    with monkeypatch.context() as m:
        m.setattr(local_deform, "build_chart", refusing)
        lc = gd.LocalConjugacy.build(quad_germ_wide, cycle, 6.0 + 0j)
        m2 = gd.measure_multiplier(lc)
        assert np.array(m2).tobytes() == np.array(plain).tobytes()
        near = cycle.points[1] + 1e-3 * lc.working_radius()
        with pytest.raises(gd.ChartError, match="no chart at cycle point 1"):
            lc.k_eval(near)
        with pytest.raises(gd.ChartError, match="no chart at cycle point 1"):
            lc.charts
    # unpatched, every chart is the one build_chart makes, in any order of
    # reads: its JSON holds every number by repr, so equal text is equal bits
    cycle = gd.repelling_cycle(quad_germ_wide, 3, 0)
    want = [json.dumps(gd.build_chart(quad_germ_wide, cycle, i).to_json()) for i in range(3)]
    for first in ((), (1,), (2,), (2, 1)):
        lc = gd.LocalConjugacy.build(quad_germ_wide, cycle, 5.0 + 7.0j)
        for i in first:
            lc.k_eval(cycle.points[i] + 1e-3 * lc.working_radius())
        assert [json.dumps(chart.to_json()) for chart in lc.charts] == want
    # the charts made so far take no part in ==, hash or repr
    fresh = gd.LocalConjugacy.build(quad_germ_wide, cycle, 5.0 + 7.0j)
    assert (fresh, hash(fresh), repr(fresh)) == (lc, hash(lc), repr(lc))


def test_scalar_calls_return_python_complex_matching_the_array_route(route_case):
    lc = route_case
    z = measuring_circle(lc, lc.charts[0].radius / 64)[:8]
    for method in (lc.k_eval, lc.k_inverse, lc.deformed_eval, lc.deformed_return_map):
        arr = method(z)
        for v, a in zip(z, arr):
            s = method(complex(v))
            assert type(s) is complex
            assert abs(s - a) <= 1e-14 * abs(a - lc.charts[0].center)


def test_center_maps_exactly_to_itself(route_case):
    lc = route_case
    c = lc.charts[0].center
    z = measuring_circle(lc, lc.charts[0].radius / 64)
    z[5] = c
    for method in (lc.k_eval, lc.k_inverse):
        assert method(z)[5] == c
        assert method(c) == c
    # on the way round the cycle f moves each center by its rounding only
    assert abs(lc.deformed_return_map(z)[5] - scalar_return_map(lc, c)) < 1e-14


def test_a_circle_with_one_point_outside_the_chart_is_refused(quad_germ_wide):
    lc = gd.LocalConjugacy.build(quad_germ_wide, gd.repelling_cycle(quad_germ_wide, 2, 0), 6.0 + 0j)
    chart = lc.charts[0]
    away = chart.center - lc.cycle.points[1]
    bad = chart.center + 1.01 * chart.radius * away / abs(away)
    with pytest.raises(gd.DomainError):
        scalar_return_map(lc, bad)
    z = measuring_circle(lc, chart.radius / 16)
    z[17] = bad
    for method in (lc.k_eval, lc.k_inverse, lc.deformed_return_map):
        with pytest.raises(gd.DomainError, match="outside chart disk"):
            method(z)


def test_a_nan_point_is_refused(conj3):
    c = conj3.charts[0].center
    nan = complex(np.nan, 0.0)
    for method in (conj3.k_eval, conj3.k_inverse, conj3.deformed_eval, conj3.deformed_return_map):
        with pytest.raises(gd.DomainError):
            method(nan)
        with pytest.raises(gd.DomainError):
            method(np.array([c + 0.001, nan]))
    with pytest.raises(gd.DomainError):
        conj3.charts[0].psi(nan)


def test_known_dbar_reads_its_coefficient_at_both_steps():
    eps, c = 2e-5, 0.1 - 0.05j
    readings = residual_readings(lambda z: z + eps * np.conj(z - c), c, 0.05)
    for reading in readings:
        assert abs(reading - eps) <= 0.01 * eps
    # the smaller reading is still above the 1e-5 budget, so the check fails it
    assert gd.holomorphy_residual(lambda z: z + eps * np.conj(z - c), c, 0.05) > 1e-5


NOISY_ORDER, NOISY_INDEX = 3, 0
NOISY_TARGET = -0.64403749506194 - 2.286575645805014j


def test_residual_keeps_the_wider_step_when_rounding_dominates():
    # seed 11, job local-48 of the local-census benchmark: at the 1e-5 step
    # the stencil reads rounding noise just under the 1e-5 budget
    germ = gd.Germ.create([2, 1], radius_U=3)
    lc = gd.LocalConjugacy.build(germ, gd.repelling_cycle(germ, NOISY_ORDER, NOISY_INDEX), NOISY_TARGET)
    small, wide = residual_readings(lc.deformed_return_map, lc.cycle.base, lc.working_radius())
    assert wide < small / 10
    assert gd.holomorphy_residual(lc.deformed_return_map, lc.cycle.base, lc.working_radius()) == wide
