import numpy as np
import pytest

import germdeform as gd
from germdeform import cycles as cycles_mod
from germdeform.straighten import Box, box_for


def constant_disk_mu(box: Box, n: int, m: complex, disk_radius: float) -> np.ndarray:
    z = box.nodes(n)
    return np.where(np.abs(z) <= disk_radius, m, 0j)


def shear_oracle(z: np.ndarray, m: complex, disk_radius: float) -> np.ndarray:
    # straightening of a constant coefficient on a centered disk: affine
    # shear inside, its holomorphic matching continuation outside, fixing 0;
    # scaled afterward so 1 goes to 1
    inside = np.abs(z) <= disk_radius
    w = np.where(
        inside,
        (z + m * np.conj(z)) / (1 + m),
        (z + m * disk_radius**2 / np.where(z == 0, 1, z)) / (1 + m),
    )
    one = (1.0 + m * disk_radius**2) / (1 + m) if disk_radius < 1 else 1.0 + 0j
    return w / one


@pytest.fixture(scope="module")
def disk_solution():
    box = Box(0j, 1.7)
    n = 256
    m = -1.0 / 3.0
    r = 0.6
    mu = constant_disk_mu(box, n, m, r)
    gm = gd.solve_beltrami(mu, box)
    return box, n, m, r, gm


def test_solver_against_disk_oracle(disk_solution):
    box, n, m, r, gm = disk_solution
    z = box.nodes(n)
    keep = (np.abs(z.real) <= box.half_width / 2) & (np.abs(z.imag) <= box.half_width / 2)
    want = shear_oracle(z[keep], m, r)
    got = gm(z[keep])
    assert np.abs(got - want).max() < 0.02


def test_solver_normalization(disk_solution):
    _, _, _, _, gm = disk_solution
    assert abs(gm(0j)) < 1e-12
    assert abs(gm(1.0 + 0j) - 1.0) < 1e-12


def test_solver_readback(disk_solution):
    box, n, m, r, gm = disk_solution
    # away from the jump circle the measured coefficient matches the input
    pts = [0.1 + 0.1j, -0.3 + 0.2j, 0.25j, -0.4 - 0.1j]
    for z in pts:
        assert abs(gm.beltrami_at(z) - m) < 1e-5
    for z in (1.2 + 0.5j, -1.1 - 0.8j):
        assert abs(gm.beltrami_at(z)) < 1e-5


def test_solver_orientation(disk_solution):
    _, _, _, _, gm = disk_solution
    assert gm.diagnostics["min_jacobian"] > 0


def test_zero_field_gives_identity():
    box = Box(0j, 1.5)
    mu = np.zeros((64, 64), dtype=complex)
    gm = gd.solve_beltrami(mu, box)
    z = box.nodes(64)
    inner = (np.abs(z.real) <= 1.0) & (np.abs(z.imag) <= 1.0)
    assert np.abs(gm(z[inner]) - z[inner]).max() < 1e-10


def test_inverse_accuracy(disk_solution):
    _, _, _, _, gm = disk_solution
    for z in (0.3 + 0.4j, -0.5 + 0.1j, 0.9 - 0.2j):
        w = complex(gm(z))
        back = gm.inverse(w)
        # contract is a residual bound in image space; domain-side error
        # can be a bit larger where the map contracts
        assert abs(complex(gm(back)) - w) < 1e-7
        assert abs(back - z) < 1e-5


def test_beltrami_at_needs_interior_margin(disk_solution):
    box, n, _, _, gm = disk_solution
    with pytest.raises(gd.DomainError):
        gm.beltrami_at(complex(box.half_width, 0))


def test_bytes_round_trip(disk_solution):
    _, _, _, _, gm = disk_solution
    raw = gm.to_bytes()
    back = gd.GridMap.from_bytes(raw)
    assert back.to_bytes() == raw
    assert np.array_equal(back.samples, gm.samples)


def test_from_bytes_rejects_truncation(disk_solution):
    _, _, _, _, gm = disk_solution
    raw = gm.to_bytes()
    with pytest.raises(gd.DomainError):
        gd.GridMap.from_bytes(raw[:-8])
    with pytest.raises(gd.DomainError):
        gd.GridMap.from_bytes(raw[:10])


def test_solver_input_validation():
    box = Box(0j, 1.5)
    with pytest.raises(gd.DomainError):
        gd.solve_beltrami(np.zeros((31, 31), dtype=complex), box)
    with pytest.raises(gd.DomainError):
        gd.solve_beltrami(np.zeros((8, 8), dtype=complex), box)
    with pytest.raises(gd.DomainError):
        gd.solve_beltrami(np.zeros((16, 20), dtype=complex), box)
    bad = np.zeros((32, 32), dtype=complex)
    bad[16, 16] = np.nan
    with pytest.raises(gd.DomainError):
        gd.solve_beltrami(bad, box)
    hot = np.zeros((32, 32), dtype=complex)
    hot[16, 16] = 0.9999
    with pytest.raises(gd.DomainError):
        gd.solve_beltrami(hot, box)
    with pytest.raises(gd.DomainError):
        gd.solve_beltrami(np.zeros((32, 32), dtype=complex), box, pad=0)


def test_box_validation():
    with pytest.raises(gd.DomainError):
        Box(0j, 0.0)
    with pytest.raises(gd.DomainError):
        Box(0j, -2.0)
    with pytest.raises(gd.DomainError):
        Box(complex("nan"), 1.0)


def test_box_for_germ(quad_germ):
    b = box_for(quad_germ)
    assert b.half_width == pytest.approx(1.25)
    wide = gd.Germ.create([2, 1], radius_U=3)
    assert box_for(wide).half_width == pytest.approx(6.0)


def test_box_nodes_layout():
    box = Box(0.5 + 0.25j, 2.0)
    z = box.nodes(16)
    assert z.shape == (16, 16)
    assert z[0, 0] == pytest.approx(0.5 - 2.0 + 1j * (0.25 - 2.0))
    # row index moves the imaginary part, column the real part
    assert z[0, 1].real > z[0, 0].real
    assert z[1, 0].imag > z[0, 0].imag


def test_select_cycle_errors(quad_germ_wide):
    with pytest.raises(gd.DomainError):
        gd.global_deform(
            quad_germ_wide,
            [gd.Deformation(order=1, target=3.0 + 0j, cycle_index=5)],
            n=32,
        )


def test_motion_targets(quad_germ_wide):
    defs = gd.motion_targets(quad_germ_wide, 0.4 + 0j, orders=(1,))
    assert len(defs) == 1
    assert defs[0].target == pytest.approx(2.5)
    with pytest.raises(gd.DomainError):
        gd.motion_targets(quad_germ_wide, 0j, orders=(1,))
    with pytest.raises(gd.DomainError):
        gd.motion_targets(quad_germ_wide, 1.5 + 0j, orders=(1,))


def test_motion_sample_runs_one_census_per_order(monkeypatch, quad_germ):
    ts = [0.4 + 0j, 0.35 + 0.05j, 0.3 - 0.1j]
    points = [0.1 + 0j, 0.05j]
    separate = [gd.motion_sample(quad_germ, [t], points, orders=(1, 2), n=64)[0] for t in ts]
    calls = []
    census = cycles_mod.find_cycles

    def counted(germ, order, *args, **kwargs):
        calls.append(order)
        return census(germ, order, *args, **kwargs)

    monkeypatch.setattr(cycles_mod, "find_cycles", counted)
    rows = gd.motion_sample(quad_germ, ts, points, orders=(1, 2), n=64)
    assert sorted(calls) == [1, 2]
    assert rows == separate


def test_global_deform_small_grid(quad_germ):
    # coarse run end to end: the measured multiplier moves toward the target
    dg = gd.global_deform(quad_germ, [gd.Deformation(1, 3.0 + 0j)], n=256)
    m = dg.measure_multiplier()
    assert abs(m - 3.0) < 0.05
    assert "field" in dg.grid_map.diagnostics
