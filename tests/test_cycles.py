import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import germdeform as gd
from germdeform import cycles as cyc

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
    # canonical start: minimum by re on the DEDUP_EPS grid, then im
    assert c.base.imag < 0
    # forward order: the second point is f of the first
    g = gd.Germ.create([2, 1], radius_U=3)
    assert g.eval(c.base) == pytest.approx(c.points[1])


@pytest.mark.parametrize("order", range(1, 9))
def test_canonical_order_ignores_last_bits(quad_germ_wide, order):
    # moving every point by one ulp either way, and starting each orbit at
    # another point, gives back the same rotation and the same order
    cycles = gd.find_cycles(quad_germ_wide, order)
    orbits = np.array([c.points for c in cycles])
    rng = np.random.default_rng(0)
    for _ in range(8):
        up_re, up_im = rng.choice([np.inf, -np.inf], size=(2,) + orbits.shape)
        nudged = np.nextafter(orbits.real, up_re) + 1j * np.nextafter(orbits.imag, up_im)
        rot = cyc._canonical_rotation(np.roll(nudged, 1, axis=1))
        assert rot.tobytes() == nudged.tobytes()
        keys = [cyc._order_key(b) for b in rot[:, 0]]
        assert keys == sorted(keys)


def test_conjugate_cycles_list_the_lower_half_plane_first(quad_germ_wide):
    # a real germ has conjugate-symmetric cycles: a self-conjugate cycle
    # starts at its im < 0 point, and a conjugate pair lists the im < 0
    # base first
    for order in range(2, 9):
        cycles = gd.find_cycles(quad_germ_wide, order)
        for i, c in enumerate(cycles):
            mirror = [
                j for j, d in enumerate(cycles)
                if min(abs(d.base - p.conjugate()) for p in c.points) < 1e-9
            ]
            assert len(mirror) == 1
            j = mirror[0]
            assert (c.base.imag < 0) == (i <= j)
            if i != j:
                assert abs(cycles[j].base - c.base.conjugate()) < 1e-9


def test_cycles_are_exact_cycles_of_the_squaring_map(quad_germ_wide):
    # 2z + z^2 = (z + 1)^2 - 1, so w = z + 1 conjugates it to w -> w^2:
    # a q-cycle solves w^(2^q) = w, lies on |w| = 1 (or is w = 0, the
    # critical fixed point z = -1) and has multiplier 2^q w^(2^q - 1) = 2^q
    for order in range(1, 9):
        for c in gd.find_cycles(quad_germ_wide, order):
            pts = np.array(c.points)
            w = pts + 1
            for _ in range(order):
                w = w * w
            # w^(2^q) - w has slope about 2^q on |w| = 1, so this bounds each
            # point's distance to the exact cycle by 1e-12
            assert np.max(np.abs(w - (pts + 1))) <= 1e-12 * 2.0 ** order
            if c.critical:
                assert c.points == (pytest.approx(-1.0),)
            else:
                assert abs(abs(c.multiplier) - 2.0 ** order) <= 1e-9 * 2.0 ** order
            for d in range(1, order):
                if order % d == 0:
                    # no point is back at a proper divisor of the order
                    assert np.min(np.abs(np.roll(pts, -d) - pts)) > 1e-6


def _exact_cycle_count(order):
    # through w = z + 1, the points of period dividing q >= 2 are the
    # (2^q - 1)-th roots of unity e^(2 pi i k / m), and squaring doubles k
    # mod m: a point has exact period q when no proper divisor d of q has
    # k 2^d = k mod m
    m = 2**order - 1
    divisors = [d for d in range(1, order) if order % d == 0]
    return sum(all(k * 2**d % m != k for d in divisors) for k in range(m)) // order


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP G.1: the Newton census finds 4, 4 and 2 of the 9, 18 and 30 cycles",
)
def test_the_census_finds_every_cycle_of_orders_6_to_8(quad_germ_wide):
    orders = (6, 7, 8)
    want = [_exact_cycle_count(q) for q in orders]
    assert want == [9, 18, 30]
    assert [len(gd.find_cycles(quad_germ_wide, q)) for q in orders] == want


def test_the_cremer_germ_cycles_close_in_at_its_convergent_orders():
    # ROADMAP G.2's hypothesis at the orders the census reaches: on
    # e^(2 pi i alpha) z + z^2, alpha = [0; 3, 20, 50, 1], the cycle at each
    # convergent denominator 3 and 61 comes nearer 0, and its |lambda| - 1
    # stays positive and falls
    cf = gd.ContinuedFraction((3, 20, 50, 1))
    alpha = cf.value()
    assert [q for _, q in cf.convergents()][:2] == [3, 61]
    germ = gd.Germ.create([cmath.exp(2j * math.pi * alpha), 1], alpha=alpha)
    assert germ.radius_U == 0.5
    found = [gd.repelling_cycles(germ, q) for q in (3, 61)]
    assert [len(cycles) for cycles in found] == [1, 1]
    distances = [min(abs(p) for p in cycles[0].points) for cycles in found]
    moduli = [abs(cycles[0].multiplier) for cycles in found]
    assert [round(d, 4) for d in distances] == [0.2510, 0.1934]
    assert [round(m, 4) for m in moduli] == [1.0551, 1.0072]
    assert 0 < moduli[1] - 1 < moduli[0] - 1


def _f(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc * z


def _df(coeffs, z):
    acc = 0j
    for k in range(len(coeffs), 0, -1):
        acc = acc * z + k * coeffs[k - 1]
    return acc


def _scalar_newton_periodic(germ, z, q):
    # the one-seed-at-a-time Newton that the batched census replaced
    for _ in range(64):
        w, prod = z, 1.0 + 0j
        for _ in range(q):
            prod *= _df(germ.coeffs, w)
            w = _f(germ.coeffs, w)
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                return None
            if abs(w) > 4.0 * germ.radius_U:
                return None
        res = w - z
        if abs(res) <= 1e-13 * max(1.0, abs(z)):
            return z
        denom = prod - 1.0
        if abs(denom) < 1e-16:
            return None
        z = z - res / denom
        if abs(z) > 8.0 * germ.radius_U:
            return None
    return None


def _scalar_census(germ, q):
    """(points, kind) per cycle from the scalar Newton and primitive test,
    rotated and ordered by the census's canonical keys, and the number of
    seeds that converged."""
    found = []
    converged = 0
    for seed in cyc._seeds(germ):
        z = _scalar_newton_periodic(germ, complex(seed), q)
        if z is None:
            continue
        converged += 1
        if abs(z) > germ.radius_U:
            continue
        pts = [z]
        for _ in range(q - 1):
            pts.append(_f(germ.coeffs, pts[-1]))
        if any(abs(pts[d] - z) < cyc.CYCLE_CLOSE_TOL for d in range(1, q) if q % d == 0):
            continue
        if any(abs(p) > germ.radius_U for p in pts):
            continue
        pts = cyc._canonical_rotation(np.array([pts]))[0]
        if min((abs(pts[0] - p) for other in found for p in other), default=math.inf) >= cyc.DEDUP_EPS:
            found.append(pts)
    found.sort(key=lambda pts: cyc._order_key(pts[0]))
    out = []
    for pts in found:
        d = [_df(germ.coeffs, p) for p in pts]
        mult = 0j if min(map(abs, d)) < cyc.CRITICAL_FLOOR else math.prod(d)
        out.append((pts, gd.classify(mult)))
    return out, converged


ALPHA = 1 / 3 + 1e-3


@pytest.mark.parametrize(
    "coeffs, radius, alpha, orders",
    [
        ([2, 1], 3.0, None, range(1, 9)),
        ([2, 1], None, None, range(1, 4)),
        ([cmath.exp(2j * cmath.pi * ALPHA), 1], None, ALPHA, range(1, 5)),
        # escaping seeds overflow here from order 6 on, which must not warn
        ([1.5, 0.3, 1], 2.0, None, range(1, 9)),
    ],
    ids=["quad-radius-3", "quad-auto-disk", "alpha-germ", "cubic-radius-2"],
)
def test_batched_census_matches_scalar_reference(coeffs, radius, alpha, orders):
    germ = gd.Germ.create(coeffs, radius_U=radius, alpha=alpha)
    for q in orders:
        ref, converged = _scalar_census(germ, q)
        diag = {}
        got = gd.find_cycles(germ, q, diagnostics=diag)
        assert diag["seeds_converged"] == converged
        assert len(got) == len(ref), q
        for c, (pts, kind) in zip(got, ref):
            assert c.kind == kind
            assert np.max(np.abs(np.array(c.points) - pts)) <= 1e-12


def _greedy_loop_census(germ, order):
    """find_cycles with the per-root deduplication loop that the array pass
    replaced: each root in seed order is compared with every kept orbit."""
    roots = cyc._newton_periodic(germ, cyc._seeds(germ), order)
    orbits = np.empty((roots.size, order), dtype=complex)
    orbits[:, 0] = roots
    for k in range(1, order):
        orbits[:, k] = germ.eval_raw(orbits[:, k - 1])
    keep = np.all(np.abs(orbits) <= germ.radius_U, axis=1)
    for qq in range(1, order):
        if order % qq == 0:
            keep &= np.abs(orbits[:, qq] - orbits[:, 0]) >= cyc.CYCLE_CLOSE_TOL
    orbits = cyc._canonical_rotation(orbits[keep])
    found = []
    for k, base in enumerate(orbits[:, 0]):
        gap = np.min(np.abs(orbits[found] - base)) if found else math.inf
        if gap < cyc.DEDUP_EPS:
            continue
        if gap < cyc.MULTIPLE_ROOT_EPS:
            raise gd.DomainError(
                "Newton stalls on a multiple root of f^%d(z) - z near %r; "
                "the census cannot separate its cycles" % (order, complex(base))
            )
        found.append(k)
    cycles = []
    for row in orbits[found]:
        pts = tuple(row.tolist())
        try:
            mult, critical = cyc.multiplier_of(germ, pts), False
        except gd.DegenerateCycleError:
            mult, critical = 0j, True
        cycles.append(gd.Cycle(pts, order, mult, gd.classify(mult), critical))
    cycles.sort(key=lambda c: cyc._order_key(c.base))
    return cycles


@pytest.mark.parametrize(
    "coeffs, radius, alpha, orders",
    [
        ([2, 1], 3.0, None, range(1, 9)),
        ([2, 1], None, None, range(1, 9)),
        ([cmath.exp(2j * cmath.pi * ALPHA), 1], None, ALPHA, range(1, 7)),
        ([1.5, 0.3, 1], 2.0, None, range(1, 9)),
    ],
    ids=["quad-radius-3", "quad-auto-disk", "alpha-germ", "cubic-radius-2"],
)
def test_array_dedup_equals_the_greedy_loop(coeffs, radius, alpha, orders):
    germ = gd.Germ.create(coeffs, radius_U=radius, alpha=alpha)
    for q in orders:
        assert gd.find_cycles(germ, q) == _greedy_loop_census(germ, q), q


def test_array_dedup_names_the_multiple_root_as_the_greedy_loop():
    germ = gd.Germ.create([1, 1])
    with pytest.raises(gd.DomainError) as want:
        _greedy_loop_census(germ, 1)
    with pytest.raises(gd.DomainError) as got:
        gd.find_cycles(germ, 1)
    assert str(got.value) == str(want.value)


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
