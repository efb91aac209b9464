import cmath
import json
import math

import numpy as np
import pytest

import germdeform as gd
from germdeform.cli import main


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
