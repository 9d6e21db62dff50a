"""Geometry kernels weighting the probabilistic correspondence step.

The library computes kernels only for all pairs at once; a single pair is the
1x1 case, checked here against the scalar factor oracles in conftest.
"""
from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    Geometry,
    geometry_arrays,
    kernel_geometry,
    kernel_location,
    kernel_orientation,
    kernel_scale,
)
from volkey.config import default_config, kernel_params
from volkey.errors import RejectedInputError
from volkey.frames import STATE_SIGNS
from volkey.kernels import KernelParams, kernel_matrix, log_kernel_matrix
from volkey.transforms import matrix_from_rotvec, rotation_z


def _random_geometry(rng):
    return Geometry(
        x=rng.uniform(0.0, 50.0, size=3),
        sigma=float(rng.uniform(1.0, 8.0)),
        theta=matrix_from_rotvec(rng.normal(size=3)),
    )


def _pair(
    x_n=(0.0, 0.0, 0.0), x_m=(0.0, 0.0, 0.0), s_n=1.0, s_m=1.0, t_n=None, t_m=None, params=None
):
    """Library kernel of one (fixed n, moving m) pair; the defaults make every factor 1."""
    t_n = np.eye(3) if t_n is None else t_n
    t_m = np.eye(3) if t_m is None else t_m
    fixed = geometry_arrays([Geometry(x=x_n, sigma=s_n, theta=t_n)])
    moving = geometry_arrays([Geometry(x=x_m, sigma=s_m, theta=t_m)])
    return float(kernel_matrix(*fixed, *moving, params or KernelParams())[0, 0])


def test_unit_values():
    # doubled scale
    assert _pair(s_n=2.0, s_m=1.0) == pytest.approx(np.exp(-np.log(2.0) ** 2), abs=1e-12)
    assert _pair(s_n=3.0, s_m=6.0) == pytest.approx(np.exp(-np.log(2.0) ** 2), abs=1e-12)
    # anti-aligned and quarter-turned frames
    plain = KernelParams(use_orientation_states=False)
    assert _pair(t_m=-np.eye(3), params=plain) == pytest.approx(np.exp(-6.0), abs=1e-15)
    assert _pair(t_m=rotation_z(np.pi / 2.0), params=plain) == pytest.approx(
        np.exp(-2.0), abs=1e-12
    )
    # displacement equal to the kernel's length scale
    params = KernelParams(k=12.0, sigma_t_sq=200.0)
    sn, sm = 2.0, 3.0
    gap = np.sqrt(params.k * sn * sm + params.sigma_t_sq)
    x = np.array([5.0, 6.0, 7.0])
    # divided by the coincident pair: the scale factor exp(-ln(2/3)^2) cancels
    located = _pair(x, x + [gap, 0, 0], sn, sm, params=params) / _pair(x, x, sn, sm)
    assert located == pytest.approx(np.exp(-1.0), abs=1e-12)
    # 10 mm apart at sigma 5 under the default constants
    assert _pair(x, x + [10.0, 0, 0], 5.0, 5.0, params=params) == pytest.approx(
        np.exp(-0.2), abs=1e-12
    )


def test_default_parameters_come_from_config():
    params = kernel_params(default_config())
    assert params.k == 12.0
    assert params.sigma_t_sq == 200.0
    assert params.use_orientation_states is True
    assert KernelParams() == params


def test_coincident_geometries_score_one():
    rng = np.random.default_rng(7)
    geoms = geometry_arrays([_random_geometry(rng) for _ in range(10)])
    mat = kernel_matrix(*geoms, *geoms, KernelParams())
    np.testing.assert_allclose(np.diag(mat), 1.0, rtol=0.0, atol=1e-12)


def test_symmetry_and_range():
    rng = np.random.default_rng(8)
    a = geometry_arrays([_random_geometry(rng) for _ in range(50)])
    b = geometry_arrays([_random_geometry(rng) for _ in range(50)])
    for states in (True, False):
        params = KernelParams(use_orientation_states=states)
        kab = kernel_matrix(*a, *b, params)
        kba = kernel_matrix(*b, *a, params)
        np.testing.assert_allclose(kab, kba.T, rtol=1e-12, atol=0.0)
        assert np.all((0.0 < kab) & (kab <= 1.0))


def test_scale_kernel_is_ratio_invariant():
    rng = np.random.default_rng(9)
    for _ in range(50):
        s1, s2, a = rng.uniform(0.5, 10.0, size=3)
        assert _pair(s_n=a * s1, s_m=a * s2) == pytest.approx(_pair(s_n=s1, s_m=s2), abs=1e-12)
        assert _pair(s_n=s1, s_m=s2) == pytest.approx(kernel_scale(s1, s2), abs=1e-12)


def test_location_kernel_monotonicity():
    x = np.zeros(3)
    gaps = [1.0, 5.0, 10.0, 20.0]
    vals = [_pair(x, [g, 0, 0], 3.0, 3.0) for g in gaps]
    assert vals == sorted(vals, reverse=True)
    # larger feature scales forgive the same displacement more
    sigs = [1.0, 2.0, 4.0, 8.0]
    vals = [_pair(x, [10.0, 0, 0], s, s) for s in sigs]
    assert vals == sorted(vals)


def test_geometry_kernel_factorizes():
    rng = np.random.default_rng(10)
    params = KernelParams(use_orientation_states=False)
    for _ in range(20):
        a, b = _random_geometry(rng), _random_geometry(rng)
        product = (
            kernel_scale(a.sigma, b.sigma)
            * kernel_orientation(a.theta, b.theta)
            * kernel_location(a.x, b.x, a.sigma, b.sigma, params)
        )
        assert _pair(a.x, b.x, a.sigma, b.sigma, a.theta, b.theta, params) == pytest.approx(
            product, rel=1e-12
        )


def test_state_max_ignores_state_relabeling():
    rng = np.random.default_rng(11)
    params = KernelParams(use_orientation_states=True)
    fixed = geometry_arrays([_random_geometry(rng) for _ in range(20)])
    x_m, s_m, t_m = geometry_arrays([_random_geometry(rng) for _ in range(20)])
    base = kernel_matrix(*fixed, x_m, s_m, t_m, params)
    for s in STATE_SIGNS:
        relabeled = kernel_matrix(*fixed, x_m, s_m, t_m @ s, params)
        np.testing.assert_allclose(relabeled, base, rtol=0.0, atol=1e-12)


def test_kernel_matrix_matches_scalar_loop():
    rng = np.random.default_rng(12)
    fixed = [_random_geometry(rng) for _ in range(5)]
    moving = [_random_geometry(rng) for _ in range(7)]
    for states in (True, False):
        params = KernelParams(use_orientation_states=states)
        mat = kernel_matrix(*geometry_arrays(fixed), *geometry_arrays(moving), params)
        assert mat.shape == (7, 5)
        for m, gm in enumerate(moving):
            for n, gn in enumerate(fixed):
                assert mat[m, n] == pytest.approx(kernel_geometry(gn, gm, params), rel=1e-12)


def test_parameter_validation():
    frame, ok = np.eye(3)[None], np.ones(1)
    for bad in (np.zeros(1), np.full(1, -2.0)):
        for s_f, s_m in ((bad, ok), (ok, bad)):
            with pytest.raises(RejectedInputError):
                log_kernel_matrix(np.zeros((1, 1)), s_f, frame, s_m, frame, KernelParams())
    with pytest.raises(RejectedInputError):
        KernelParams(k=0.0)
    with pytest.raises(RejectedInputError):
        KernelParams(sigma_t_sq=-1.0)
    # a vanishing positional floor is allowed; the scale product then rules
    params = KernelParams(sigma_t_sq=0.0)
    assert _pair(params=params) == 1.0
