import math

import pytest
from hypothesis import given, strategies as st

import germdeform as gd

SQRT3_HALF = 0.8660254037844386


@pytest.fixture(scope="module")
def census2(quad_germ_wide):
    return gd.find_cycles(quad_germ_wide, 2)


def test_fixed_points(quad_germ_wide):
    cycles = gd.find_cycles(quad_germ_wide, 1)
    assert len(cycles) == 2
    zero, minus_one = cycles
    assert zero.base == pytest.approx(0.0, abs=1e-12)
    assert zero.multiplier == pytest.approx(2.0)
    assert zero.kind == "repelling"
    assert not zero.critical
    # z = -1 is fixed and critical: multiplier forced to 0
    assert minus_one.base == pytest.approx(-1.0)
    assert minus_one.multiplier == 0
    assert minus_one.kind == "attracting"
    assert minus_one.critical


def test_two_cycle_closed_form(census2):
    # the period-2 polynomial factors by hand: roots of z^2 + 3z + 3,
    # so the orbit is (-3 +- i sqrt 3)/2 and the multiplier is
    # (-1 + i sqrt 3)(-1 - i sqrt 3) = 4
    assert len(census2) == 1
    c = census2[0]
    assert c.order == 2
    assert sorted(p.imag for p in c.points) == pytest.approx([-SQRT3_HALF, SQRT3_HALF])
    assert all(p.real == pytest.approx(-1.5) for p in c.points)
    assert c.multiplier == pytest.approx(4.0)
    assert c.kind == "repelling"


def test_canonical_rotation_and_order(census2):
    c = census2[0]
    # canonical start: lexicographic minimum by (re, im)
    assert c.base.imag < 0
    # forward order: the second point is f of the first
    g = gd.Germ.create([2, 1], radius_U=3)
    assert g.eval(c.base) == pytest.approx(c.points[1])


def test_primitive_filter(quad_germ_wide):
    # fixed points must not reappear as order-2 cycles
    for c in gd.find_cycles(quad_germ_wide, 2):
        for p in c.points:
            assert abs(p) > 1e-3 and abs(p + 1) > 1e-3


def test_multiple_fixed_point_is_refused():
    # z + z^2 has the double fixed point 0, where Newton converges only
    # linearly: its stopping points scatter within 3.2e-7 of 0 and would
    # enter the census as hundreds of distinct fixed points
    with pytest.raises(gd.DomainError, match=r"multiple root of f\^1\(z\) - z near"):
        gd.find_cycles(gd.Germ.create([1, 1]), 1)


def test_census_is_deterministic(quad_germ_wide):
    a = gd.find_cycles(quad_germ_wide, 2)
    b = gd.find_cycles(quad_germ_wide, 2)
    assert gd.cycles_to_csv(a) == gd.cycles_to_csv(b)


def test_csv_shape(census2):
    text = gd.cycles_to_csv(census2)
    lines = text.strip().split("\n")
    assert lines[0] == "order,point_index,re,im,mult_re,mult_im,kind"
    assert len(lines) == 1 + 2
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "0"
    assert first[6] == "repelling"


def test_diagnostics_counts(quad_germ_wide):
    diag = {}
    gd.find_cycles(quad_germ_wide, 1, diagnostics=diag)
    assert diag["seeds_attempted"] > 0
    assert 0 < diag["seeds_converged"] <= diag["seeds_attempted"]
    assert diag["cycles_found"] == 2


def test_classify_band():
    assert gd.classify(1.0 + 1e-6) == "repelling"
    assert gd.classify(1.0 - 1e-6) == "attracting"
    assert gd.classify(complex(0, 1.0)) == "indifferent"
    assert gd.classify(1.0 + 1e-12) == "indifferent"


def test_multiplier_of_rejects_critical(quad_germ_wide):
    with pytest.raises(gd.DegenerateCycleError):
        gd.multiplier_of(quad_germ_wide, (-1.0 + 0j,))


@given(st.floats(0.01, 5.0), st.floats(0.0, 2 * math.pi))
def test_classify_matches_modulus(r, theta):
    m = r * complex(math.cos(theta), math.sin(theta))
    kind = gd.classify(m)
    if kind == "repelling":
        assert abs(m) > 1
    elif kind == "attracting":
        assert abs(m) < 1
    else:
        assert abs(abs(m) - 1) <= 1e-9
