import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import germdeform as gd
from germdeform.errors import ConvergenceError, DomainError


def test_auto_radius_quadratic():
    # boundary derivative check fails at r = 1 (critical point on the ring),
    # passes at 0.9, and the passing radius is halved
    assert gd.auto_radius([2, 1]) == pytest.approx(0.45)


def test_eval_outside_disk_rejected(quad_germ):
    with pytest.raises(DomainError):
        quad_germ.eval(0.5)
    with pytest.raises(DomainError):
        quad_germ.eval(complex("nan"))
    # an array is refused as a whole when any of its points is
    with pytest.raises(DomainError, match=r"point \(0\.5\+0j\) outside working disk"):
        quad_germ.eval(np.array([0.1, 0.5]))
    with pytest.raises(DomainError, match="point must be finite"):
        quad_germ.eval(np.array([0.1, complex("nan")]))
    z = np.array([0.1, 0.2j, -0.3 + 0.1j])
    assert np.allclose(quad_germ.eval(z), [quad_germ.eval(complex(v)) for v in z], rtol=1e-15, atol=0)


def test_preimages_batch_is_pointwise_bitwise(quad_germ_wide):
    w = np.array([3.0, 0.5 + 0.5j, -0.99 + 0.01j, 1e-8j, 2.5 - 1.0j, -1.0])
    guess = np.array([0.9, 0.5 + 0.5j, -1.0 + 0.2j, 0.0, 2.5 - 1.0j, -1.0])
    z, ok = quad_germ_wide.preimages(w, guess)
    for k in range(w.size):
        zk, okk = quad_germ_wide.preimages(w[k : k + 1], guess[k : k + 1])
        assert z[k : k + 1].tobytes() == zk.tobytes()
        assert ok[k] == okk[0]
    assert ok.all()
    assert np.all(np.abs(quad_germ_wide.eval_raw(z) - w) <= 1e-12 * np.maximum(1.0, np.abs(w)))


def test_inverse_step_picks_branch_near_guess(quad_germ_wide):
    # f(1) = 3 exactly; the other preimage is -3
    z, ok = quad_germ_wide.preimages(np.array([3.0, 3.0]), np.array([0.9, -2.9]))
    assert ok.all()
    assert z == pytest.approx([1.0, -3.0], abs=1e-9)


def test_inverse_step_divergence_raises(chart):
    # from w = -2 the linearized guess at the fixed point 0 is the critical
    # point -1, where the derivative vanishes: the walk raises a typed error
    with pytest.raises(ConvergenceError, match="inverse step 1 did not converge"):
        gd.phi_iterative(chart, -2.0)


def test_preimages_flat_guess_is_not_converged(quad_germ_wide):
    # f'(-1) = 0: the point leaves the batch at once and nothing raises
    z, ok = quad_germ_wide.preimages(np.array([3.0 + 0j, 3.0 + 0j]), np.array([-1.0 + 0j, 0.9 + 0j]))
    assert z[0] == -1.0 and not ok[0]
    assert ok[1] and z[1] == pytest.approx(1.0, abs=1e-12)


def test_validation_rules():
    with pytest.raises(DomainError):
        gd.Germ.create([2])  # degree 1
    with pytest.raises(DomainError):
        gd.Germ.create([0, 1])  # vanishing linear term
    with pytest.raises(DomainError):
        gd.Germ.create([2, 0])  # vanishing leading term
    with pytest.raises(DomainError):
        gd.Germ.create([2, 1], radius_U=1.0)  # critical point on the ring
    with pytest.raises(DomainError):
        gd.Germ.create([2, 1], radius_U=-1)
    with pytest.raises(DomainError):
        gd.Germ.create([float("inf"), 1])


def test_alpha_must_match_linear_coefficient():
    import cmath

    alpha = 0.25
    c1 = cmath.exp(2j * cmath.pi * alpha)
    g = gd.Germ.create([c1, 1], alpha=alpha)
    assert g.alpha == alpha
    with pytest.raises(DomainError):
        gd.Germ.create([2, 1], alpha=0.25)


def test_json_round_trip(quad_germ):
    data = quad_germ.to_json()
    back = gd.Germ.from_json(data)
    assert back == quad_germ
    with pytest.raises(DomainError):
        gd.Germ.from_json({"coeffs": [[2, 0], [1, 0]], "extra": 1})


def test_non_numeric_fields_raise_domain_error():
    with pytest.raises(DomainError):
        gd.Germ.from_json({"coeffs": [["a", 0], [1, 0]]})
    with pytest.raises(DomainError):
        gd.Germ.from_json({"coeffs": [[2, 0], [1, 0]], "radius_U": "x"})
    with pytest.raises(DomainError):
        gd.Germ.create([2, 1], alpha="x")
    with pytest.raises(DomainError):
        gd.Germ.create([2, None])


@pytest.mark.parametrize(
    "data, field",
    [
        ({"coeffs": [[True, 0], [1, False]]}, "coeffs"),
        ({"coeffs": [[2, 0], [1, 0]], "radius_U": True}, "radius_U"),
        ({"coeffs": [[1, 0], [1, 0]], "alpha": False}, "alpha"),
    ],
)
def test_boolean_fields_raise_domain_error(data, field):
    # JSON true/false convert to 1.0/0.0, so they are refused by name
    with pytest.raises(DomainError, match="^germ %s must" % field):
        gd.Germ.from_json(data)


@given(re=st.floats(-2.0, 2.0), im=st.floats(-2.0, 2.0))
def test_preimages_is_a_preimage(quad_germ_wide, re, im):
    # started at w itself: a converged point solves f(z) = w, and a point
    # that did not converge is flagged instead of raising
    w = complex(re, im)
    z, ok = quad_germ_wide.preimages(np.array([w]), np.array([w]))
    if ok[0]:
        assert abs(quad_germ_wide.eval_raw(z)[0] - w) < 1e-9 * max(1.0, abs(w))
