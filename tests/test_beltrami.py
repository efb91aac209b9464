import cmath
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import germdeform as gd
from germdeform.cycles import INDIFFERENT_BAND

MU_2_TO_3 = -0.22629438553091683


def test_tau_of_real_multiplier():
    t = gd.tau_of(2.0 + 0j)
    assert t.real == 0
    assert t.imag == pytest.approx(-math.log(2.0) / (2 * math.pi))


def test_tau_of_complex_multiplier():
    lam = 2.0 * cmath.exp(1j * math.pi / 3)
    t = gd.tau_of(lam)
    assert t.real == pytest.approx(1.0 / 6.0)
    assert t.imag == pytest.approx(-math.log(2.0) / (2 * math.pi))


def test_shear_two_to_four_is_minus_third():
    sh = gd.shear_coefficient(2.0 + 0j, 4.0 + 0j)
    assert abs(sh.mu - (-1.0 / 3.0)) < 1e-12


def test_shear_two_to_three_frozen():
    sh = gd.shear_coefficient(2.0 + 0j, 3.0 + 0j)
    assert abs(sh.mu - MU_2_TO_3) < 1e-15


def test_shear_identity_when_targets_match():
    sh = gd.shear_coefficient(2.0 + 0j, 2.0 + 0j)
    assert sh.mu == 0
    assert sh.a == pytest.approx(1.0)
    assert sh.b == pytest.approx(0.0)


def test_affine_normalization():
    # a + b = 1 keeps the marked direction fixed, and mu = b / a
    sh = gd.shear_coefficient(2.0 + 0j, complex(0, 4))
    assert sh.a + sh.b == pytest.approx(1.0)
    assert sh.b / sh.a == pytest.approx(sh.mu)


def test_mu_dual_route():
    # closed form against the tau-ratio route
    rng = np.random.default_rng(7)
    for _ in range(50):
        lam = complex(*rng.uniform(-3, 3, 2))
        lam2 = complex(*rng.uniform(-3, 3, 2))
        if abs(lam) < 1.1 or abs(lam2) < 1.1:
            continue
        sh = gd.shear_coefficient(lam, lam2)
        other = (sh.tau - sh.tau_prime) / (sh.tau_prime - sh.tau.conjugate())
        assert abs(sh.mu - other) < 1e-12


def test_apply_round_trip():
    sh = gd.shear_coefficient(2.0 + 0j, complex(1, 3))
    for xi in (0.3 + 0.1j, -1.2 + 2.4j, 0.0j, 5.0 - 0.7j):
        assert abs(sh.apply_inverse(sh.apply(xi)) - xi) < 1e-12 * max(1, abs(xi))


def test_shear_rejects_non_repelling():
    with pytest.raises(gd.ShearError):
        gd.shear_coefficient(0.5 + 0j, 3.0 + 0j)
    with pytest.raises(gd.ShearError):
        gd.shear_coefficient(2.0 + 0j, 1.0 + 0j)
    with pytest.raises(gd.DomainError):
        gd.shear_coefficient(2.0 + 0j, complex("inf"))


def test_shear_refuses_exactly_what_classify_calls_non_repelling():
    # the edge of the repelling band and the floats either side of it, on
    # and off the real axis
    edge = 1.0 + INDIFFERENT_BAND
    moduli = (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0))
    kinds = set()
    for lam in [m * cmath.exp(1j * a) for m in moduli for a in (0.0, 0.7)]:
        kinds.add(gd.classify(lam))
        # lam' = lam gives mu = 0; a lam of the same argument well inside the
        # repelling band keeps |mu| away from 1
        for args, name in (((lam, lam), "lam"), ((1.001 * lam / abs(lam), lam), "lam_prime")):
            if gd.classify(lam) == "repelling":
                gd.shear_coefficient(*args)
            else:
                with pytest.raises(gd.ShearError, match="^%s must be repelling" % name):
                    gd.shear_coefficient(*args)
    assert kinds == {"repelling", "indifferent"}


def test_pullback_is_unimodular_twist():
    mu = 0.4 - 0.1j
    g = 2.3 - 1.7j
    out = gd.pullback_by_holomorphic(mu, g)
    assert abs(out) == pytest.approx(abs(mu))
    assert out == pytest.approx(mu * g.conjugate() / g)


@given(
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
    st.floats(0.1, 10.0),
    st.floats(0.0, 2 * math.pi),
)
def test_transport_preserves_modulus(mre, mim, r, t):
    mu = complex(mre, mim)
    p = r * cmath.exp(1j * t)
    out = gd.transport_forward(mu, p)
    assert abs(out) == pytest.approx(abs(mu), rel=1e-12)


@pytest.fixture(scope="module")
def field_one_cycle(quad_germ):
    cycles = gd.find_cycles(quad_germ, 1)
    rep = [c for c in cycles if c.kind == "repelling"][0]
    conj = gd.LocalConjugacy.build(quad_germ, rep, 3.0 + 0j)
    sh = gd.shear_coefficient(2.0 + 0j, 3.0 + 0j)
    return gd.BeltramiField(quad_germ, (gd.FieldEntry(conj.chart(0), sh),))


def test_field_finite_at_cycle_point(field_one_cycle):
    # the seed formula has a puncture at the cycle point; the clamp nudges
    # the evaluation off it so the value stays finite with the right modulus
    v = field_one_cycle.sample_grid(np.array([0j]))[0]
    assert abs(v) == pytest.approx(abs(MU_2_TO_3), rel=1e-6)


def test_field_constant_modulus_inside_chart(field_one_cycle):
    vals = [
        field_one_cycle.sample_grid(np.array([0.1 * cmath.exp(1j * t)]))[0]
        for t in np.linspace(0, 2 * np.pi, 8, endpoint=False)
    ]
    mags = [abs(v) for v in vals]
    assert all(abs(m - abs(MU_2_TO_3)) < 1e-10 for m in mags)


def test_field_invariance_small_sample(quad_germ, field_one_cycle):
    # mu(f(z)) = mu(z) f'(z) / conj(f'(z)) wherever both sides resolve
    rng = np.random.default_rng(3)
    count = 0
    for _ in range(40):
        z = complex(*rng.uniform(-0.1, 0.1, 2))
        if abs(z) < 1e-3:
            continue
        w = quad_germ.eval(z)
        if abs(w) >= quad_germ.radius_U:
            continue
        mu_z = field_one_cycle.sample_grid(np.array([z]))[0]
        mu_w = field_one_cycle.sample_grid(np.array([w]))[0]
        d = quad_germ.derivative(z)
        assert abs(mu_w - mu_z * d / d.conjugate()) < 1e-8
        count += 1
    assert count > 20


def test_field_resolves_across_disk(field_one_cycle):
    # backward walking reaches the chart from anywhere in the working disk,
    # so the coefficient keeps the constant modulus even far from the chart
    v = field_one_cycle.sample_grid(np.array([0.42 + 0j]))[0]
    assert abs(v) == pytest.approx(abs(MU_2_TO_3), rel=1e-9)


def test_field_stalls_at_critical_point(quad_germ_wide):
    # at z = -1 the inverse step is singular; the walk reports it and
    # assigns no field there
    cycles = gd.find_cycles(quad_germ_wide, 1)
    rep = [c for c in cycles if c.kind == "repelling"][0]
    conj = gd.LocalConjugacy.build(quad_germ_wide, rep, 3.0 + 0j)
    field = gd.BeltramiField(quad_germ_wide, (gd.FieldEntry(conj.chart(0), conj.shear),))
    diag = {}
    v = field.sample_grid(np.array([-1.0 + 0j]), diagnostics=diag)[0]
    assert v == 0
    assert diag.get("stalled", 0) + diag.get("unresolved", 0) == 1


def test_critical_point_counts_do_not_depend_on_batch(quad_germ_wide):
    # z = -1 is a critical fixed point: its backward walk lands on a zero
    # derivative and stalls there, whether or not other points walk with it
    cycles = gd.find_cycles(quad_germ_wide, 1)
    rep = [c for c in cycles if c.kind == "repelling"][0]
    conj = gd.LocalConjugacy.build(quad_germ_wide, rep, 3.0 + 0j)
    field = gd.BeltramiField(quad_germ_wide, (gd.FieldEntry(conj.chart(0), conj.shear),))
    alone, batch = {}, {}
    field.sample_grid(np.array([-1.0 + 0j]), diagnostics=alone)
    field.sample_grid(np.array([-1.0 + 0j, 0.3 + 0.2j]), diagnostics=batch)
    batch_other = {}
    field.sample_grid(np.array([0.3 + 0.2j]), diagnostics=batch_other)
    for key in ("escaped", "stalled", "unresolved"):
        assert batch[key] == alone[key] + batch_other[key]
    assert alone["stalled"] == 1


def test_sample_grid_matches_scalar(field_one_cycle):
    xs = np.linspace(-0.15, 0.15, 7)
    zs = (xs[None, :] + 1j * xs[:, None]).ravel()
    grid = field_one_cycle.sample_grid(zs)
    for z, v in zip(zs, grid):
        assert abs(v - field_one_cycle.sample_grid(np.array([z]))[0]) < 1e-12


def test_weakly_repelling_walk_gives_each_point_its_batch_value():
    # on e^{2 pi i alpha} z + z^2 with alpha = 1/3 + 1e-3 the 3-cycle is
    # weakly repelling: on this grid the walks reach its chart after 2 to
    # 139 backward steps, and 15 of the 49 points are still walking at
    # TRANSPORT_DEPTH
    alpha = 1.0 / 3.0 + 1e-3
    germ = gd.Germ.create([cmath.exp(2j * math.pi * alpha), 1], alpha=alpha)
    lam = gd.repelling_cycle(germ, 3, 0).multiplier
    field = gd.build_field(germ, [gd.Deformation(3, lam * abs(lam) ** 0.5)])
    xs = np.linspace(-0.45, 0.45, 7)
    zs = xs[None, :] + 1j * xs[:, None]
    batch = {}
    grid = field.sample_grid(zs, diagnostics=batch)
    alone = dict.fromkeys(("escaped", "stalled", "unresolved"), 0)
    for z, v in zip(zs.ravel(), grid.ravel()):
        diag = {}
        assert field.sample_grid(np.array([z]), diag)[0] == v
        for key in alone:
            alone[key] += diag[key]
    assert {key: batch[key] for key in alone} == alone
    assert batch["unresolved"] > 0 and np.count_nonzero(grid) > 1


def test_distinct_cycles_required(quad_germ):
    cycles = gd.find_cycles(quad_germ, 1)
    rep = [c for c in cycles if c.kind == "repelling"][0]
    conj = gd.LocalConjugacy.build(quad_germ, rep, 3.0 + 0j)
    sh = conj.shear
    entry = gd.FieldEntry(conj.chart(0), sh)
    with pytest.raises(gd.DomainError):
        gd.BeltramiField(quad_germ, (entry, entry))


def per_row_table(box, mu) -> bytes:
    """field.csv formatted node by node from box.nodes(n)."""
    rows = ["re,im,mu_re,mu_im"]
    for a, m in zip(box.nodes(mu.shape[0]).ravel(), mu.ravel()):
        rows.append("%.17g,%.17g,%.17g,%.17g" % (a.real, a.imag, m.real, m.imag))
    return ("\n".join(rows) + "\n").encode()


# a 7-row table is under one write chunk; at 150 the grid rows run past
# several chunks, and the last one is cut short
@pytest.mark.parametrize("n", [7, 150])
def test_field_csv_equals_per_row_formatting(n):
    rng = np.random.default_rng(3)
    values = np.array([0.0, -0.0, 5e-324, 1e-300, -2.5e17, math.pi, math.nan])
    nonzero = values[[2, 3, 4, 5, 6]]
    mu = rng.choice(values, (n, n)) + 1j * rng.choice(values, (n, n))
    mu[1] = 0.0
    mu[2] = rng.choice(nonzero, n) + 1j * rng.choice(values, n)
    mu[3] = -0.0 + 0j
    mu[-1, -1] = 5e-324j
    box = gd.Box(2.5)
    sink = io.BytesIO()
    gd.field_to_csv(box, mu, sink)
    table = sink.getvalue()
    assert table == per_row_table(box, mu)
    # a Fortran-ordered mu is written as the grid it holds
    sink = io.BytesIO()
    gd.field_to_csv(box, np.asfortranarray(mu), sink)
    assert sink.getvalue() == table
    assert b",-0,0\n" in table and b",nan," in table and b",0,4.9406564584124654e-324\n" in table


@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 2, 2), ()], ids=["1-d", "3x4", "3-d", "0-d"])
def test_field_csv_refuses_a_mu_that_is_not_a_square_grid(shape):
    sink = io.BytesIO()
    cause = r"^mu must be a square 2-d grid \(got shape %s\)$" % re.escape(str(shape))
    with pytest.raises(gd.DomainError, match=cause):
        gd.field_to_csv(gd.Box(1.25), np.zeros(shape), sink)
    assert sink.getvalue() == b""


class CountingSink:
    def __init__(self):
        self.size = 0

    def write(self, data):
        self.size += len(data)


def test_field_csv_streams_in_blocks():
    # a 512 x 512 table with mu nonzero at every node is about 17 MB of
    # text. Written by grid rows joined about 256 KiB at a time, the writer
    # holds at most two copies of one chunk, each under 256 KiB plus one
    # grid row of at most 4 * 24 + 4 bytes a node (51,200 bytes), and per
    # column under 300 bytes: its axis text and that text's `re,` form,
    # and the row's mu parts as two floats in a tuple. Under
    # 2 * (262144 + 51200) + 512 * 300 = 780,288 bytes
    rng = np.random.default_rng(5)
    pool = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    mu = 0.5 * rng.choice(pool, (512, 512))
    sink = CountingSink()
    tracemalloc.start()
    try:
        gd.field_to_csv(gd.Box(1.25), mu, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 15e6
    assert peak < 2 * (262144 + 512 * 100) + 512 * 300


def single_pass_sample_grid(field, z_grid, diagnostics):
    """The field by one backward walk that assembles each landing as it
    happens: the pullback and transport applied to each step's landed
    points at once."""
    germ = field.germ
    z = np.asarray(z_grid, dtype=complex)
    mu = np.zeros(z.size, dtype=complex)
    idx = np.flatnonzero(np.isfinite(z))
    w = z.ravel()[idx]
    prod = np.ones_like(w)
    escaped_total = stalled_total = 0
    c1, c2 = germ.coeffs[0], germ.coeffs[1]
    for _ in range(gd.beltrami.TRANSPORT_DEPTH + 1):
        keep = np.abs(w) <= germ.radius_U
        escaped_total += keep.size - int(np.count_nonzero(keep))
        idx, w, prod = idx[keep], w[keep], prod[keep]
        for e in field.entries:
            hit = np.abs(w - e.chart.center) <= e.chart.radius
            if hit.any():
                wh = w[hit]
                d = wh - e.chart.center
                tiny = np.abs(d) < gd.beltrami.PUNCTURE_RADIUS
                if tiny.any():
                    dt = d[tiny]
                    adt = np.abs(dt)
                    unit = np.where(adt == 0, 1.0 + 0j, dt / np.where(adt == 0, 1.0, adt))
                    wh[tiny] = e.chart.center + gd.beltrami.PUNCTURE_RADIUS * unit
                ph = e.chart.phi_raw(wh)
                dph = e.chart.dphi_raw(wh)
                g = dph / (2j * math.pi * ph)
                nu = gd.pullback_by_holomorphic(e.shear.mu, g)
                mu[idx[hit]] = gd.transport_forward(nu, prod[hit])
                keep = ~hit
                idx, w, prod = idx[keep], w[keep], prod[keep]
        if not idx.size:
            break
        s = np.sqrt(c1 * c1 + 4 * c2 * w)
        s[(s * c1.conjugate()).real < 0] *= -1
        zn, ok = germ.preimages(w, 2 * w / (c1 + s))
        dz = germ.derivative_raw(zn)
        close = np.abs(germ.eval_raw(zn) - w) <= 1e-10 * np.maximum(1.0, np.abs(w))
        ok |= close & np.isfinite(zn) & (np.abs(dz) >= gd.germ.DERIVATIVE_FLOOR)
        prod = prod * dz
        ok &= prod != 0
        stalled_total += ok.size - int(np.count_nonzero(ok))
        idx, w, prod = idx[ok], zn[ok], prod[ok]
    diagnostics.update(escaped=escaped_total, stalled=stalled_total, unresolved=int(idx.size))
    return mu.reshape(z.shape)


@pytest.mark.parametrize(
    "radius_U, deformations",
    [
        (None, [gd.Deformation(1, 2.5 + 1.0j)]),
        (3.0, [gd.Deformation(1, 3.0 + 0j), gd.Deformation(2, 5.0 + 1.0j)]),
    ],
    ids=["one-entry-auto-disk", "orders-1-2-radius-3"],
)
def test_walk_then_assembly_is_bitwise_the_single_pass_walk(radius_U, deformations):
    # at N=512 one walk step lands more than 16384 points, where numpy
    # reuses a scalar product's temporary in place and can round it apart
    # from the same product on fewer points
    germ = gd.Germ.create([2, 1]) if radius_U is None else gd.Germ.create([2, 1], radius_U=radius_U)
    field = gd.build_field(germ, deformations)
    z = gd.box_for(germ).nodes(512)
    want_diag, got_diag = {}, {}
    want = single_pass_sample_grid(field, z, want_diag)
    got = field.sample_grid(z, diagnostics=got_diag)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert {key: got_diag[key] for key in want_diag} == want_diag
    assert np.count_nonzero(got) > 0


def test_walk_counts_the_nodes_outside_u_and_skips_the_non_finite():
    # a finite node outside U escapes at step 0 (1e308 + 1e308j too, whose
    # modulus overflows); a node that is not finite is neither walked nor
    # counted; the critical point -1 is a fixed point, so a node there is its
    # own preimage and stalls on the vanishing derivative
    germ = gd.Germ.create([2, 1], radius_U=3.0)
    field = gd.build_field(germ, [gd.Deformation(1, 3.0 + 0j), gd.Deformation(2, 5.0 + 1.0j)])
    z = gd.box_for(germ).nodes(64)
    bad = [complex(np.nan, 0.0), complex(0.1, np.nan), complex(np.inf, 0.0), complex(-np.inf, 1.0),
           complex(0.0, np.inf), complex(0.2, -np.inf), complex(np.nan, np.inf), 1e308 + 1e308j, -1 + 0j]
    z.ravel()[np.random.default_rng(6).choice(z.size, len(bad), replace=False)] = bad
    finite = np.isfinite(z)
    want_diag, got_diag = {}, {}
    want = single_pass_sample_grid(field, z, want_diag)
    got = field.sample_grid(z, diagnostics=got_diag)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert {key: got_diag[key] for key in want_diag} == want_diag
    assert got_diag["escaped"] == np.count_nonzero(finite & ~(np.abs(z) <= germ.radius_U))
    assert np.all(got[~finite] == 0)
    landed = np.count_nonzero(got)
    assert landed + got_diag["escaped"] + got_diag["stalled"] + got_diag["unresolved"] == np.count_nonzero(finite)
    assert landed > 0 and got_diag["stalled"] > 0


def test_sample_grid_memory_is_the_field_and_the_walk_of_the_nodes_in_u():
    # on 2z + z^2 at N=512 about 10% of the nodes lie in U; besides the field
    # array, sampling holds one pass over |z| (half the node array) and, per
    # node in U, the walk's arrays: at most 8 complex numbers
    germ = gd.Germ.create([2, 1])
    field = gd.build_field(germ, [gd.Deformation(1, 3.0 + 0j)])
    z = gd.box_for(germ).nodes(512)
    inside = np.count_nonzero(np.abs(z) <= germ.radius_U)
    assert inside < 0.15 * z.size
    tracemalloc.start()
    try:
        mu = field.sample_grid(z, diagnostics={})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < z.nbytes + mu.nbytes + 8 * 16 * inside


def test_a_points_value_does_not_depend_on_its_batch():
    # at N=512 one walk step lands more than 16384 points, where numpy
    # computes a scalar times a temporary array in place, with other rounding
    germ = gd.Germ.create([2, 1])
    field = gd.build_field(germ, [gd.Deformation(1, 2.5 + 1.0j)])
    z = gd.box_for(germ).nodes(512).ravel()
    grid = field.sample_grid(z)
    landed = np.flatnonzero(grid)
    rng = np.random.default_rng(4)
    for k in rng.choice(landed, 300, replace=False):
        assert field.sample_grid(np.array([z[k]]))[0] == grid[k]
    for size in (1, 100, 20000):
        pick = rng.choice(landed, size, replace=False)
        assert np.array_equal(field.sample_grid(z[pick]).view(np.int64), grid[pick].view(np.int64))

