"""Geometry kernels weighting the probabilistic correspondence step.

The library computes kernels only for all pairs at once; a single pair is the
1x1 case, checked here against the scalar factor oracles in conftest.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    Geometry,
    geometry_arrays,
    geometry_set,
    geometry_sets,
    kernel_geometry,
    kernel_location,
    kernel_orientation,
    kernel_scale,
    matrix_from_rotvec,
    orientation_scores,
)
from volkey.config import load_config
from volkey.errors import FINITE, RejectedInputError
from volkey.frames import STATE_SIGNS
from volkey.kernels import (
    KernelParams, kernel_matrix, kernel_rows, log_kernel_matrix, squared_distances,
)
from volkey.registration import RegistrationConfig, e_step
from volkey.transforms import rotation_z


# the 48 signed permutation matrices: axis cosines of 1, -1 and exactly 0
_SIGNED_PERMUTATIONS = [
    np.eye(3)[:, list(order)] * signs
    for order in itertools.permutations(range(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
]


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
    params = load_config(None)["kernel"]
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
    x, frame, ok = np.zeros((1, 3)), np.eye(3)[None], np.ones(1)
    for bad in (np.zeros(1), np.full(1, -2.0), np.full(1, np.nan), np.full(1, np.inf)):
        for s_f, s_m in ((bad, ok), (ok, bad)):
            with pytest.raises(RejectedInputError):
                kernel_matrix(x, s_f, frame, x, s_m, frame, KernelParams())
    with pytest.raises(RejectedInputError):
        KernelParams(k=0.0)
    with pytest.raises(RejectedInputError):
        KernelParams(sigma_t_sq=-1.0)
    # a vanishing positional floor is allowed; the scale product then rules
    params = KernelParams(sigma_t_sq=0.0)
    assert _pair(params=params) == 1.0


@pytest.mark.parametrize(
    "params, scale",
    [
        pytest.param(KernelParams(sigma_t_sq=0.0), 1e-200, id="divides-by-zero"),
        pytest.param(KernelParams(k=1e300), 1e10, id="overflows"),
    ],
)
def test_bandwidth_outside_its_range_is_rejected(params, scale):
    # one pair 10 mm apart: k s_m s_f + sigma_t_sq was 0, or overflowed
    x_f, x_m, s, frame = np.zeros((1, 3)), np.array([[10.0, 0.0, 0.0]]), np.full(1, scale), np.eye(3)[None]
    with pytest.raises(RejectedInputError, match="location bandwidth"):
        kernel_matrix(x_f, s, frame, x_m, s, frame, params)
    with pytest.raises(RejectedInputError, match="location bandwidth"):
        e_step(x_f, s, frame, x_m, s, frame, 1.0, RegistrationConfig(kernel=params))
    # "cpd" has no kernel, so no bandwidth
    p = e_step(x_f, s, frame, x_m, s, frame, 1.0, RegistrationConfig(variant="cpd", kernel=params))
    assert p.shape == (1, 1)


def test_bandwidth_at_its_bounds_keeps_every_term_finite():
    # the smallest bandwidth, 2^-768, with locations near check_geometry's 2^64
    # bound, and the largest, FINITE: no divide, overflow or invalid warning
    far = np.array([[-(2.0**63)] * 3, [2.0**63] * 3])
    frames = np.stack([np.eye(3)] * 2)
    cases = ((KernelParams(k=1.0, sigma_t_sq=0.0), 2.0**-384, 0.0), (KernelParams(k=FINITE), 1.0, 1.0))
    for params, s, across in cases:
        scales = np.full(2, s)
        k = kernel_matrix(far, scales, frames, far, scales, frames, params)
        assert np.isfinite(k).all() and k[0, 1] == across
        p = e_step(far, scales, frames, far, scales, frames, 1.0, RegistrationConfig(kernel=params))
        assert np.isfinite(p).all()
    # a moving scale of 1.5 takes the largest bandwidth past FINITE
    with pytest.raises(RejectedInputError, match="location bandwidth"):
        kernel_matrix(far, np.ones(2), frames, far, np.full(2, 1.5), frames, KernelParams(k=FINITE))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", range(6))
def test_kernel_matrix_rejects_non_finite_geometry(bad, which):
    # a NaN location gave a NaN kernel, an inf frame entry a kernel above 1
    rng = np.random.default_rng(13)
    geoms = geometry_arrays([_random_geometry(rng) for _ in range(3)])
    args = [a.copy() for a in geoms * 2]
    args[which].flat[1] = bad
    with pytest.raises(RejectedInputError):
        kernel_matrix(*args, KernelParams())


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_fixed=st.integers(1, 6),
    n_moving=st.integers(1, 6),
    states=st.booleans(),
)
def test_closed_form_state_score_equals_the_state_max(seed, n_fixed, n_moving, states):
    # moving frames are random rotations, signed permutations (cosines of
    # exactly 0 and +-1), copies of a fixed frame and its state relabelings:
    # exact ties between states and exactly zero cosines are common
    rng = np.random.default_rng(seed)

    def frame(kind):
        if kind == 0:
            return matrix_from_rotvec(rng.normal(size=3))
        if kind == 1:
            return _SIGNED_PERMUTATIONS[rng.integers(48)]
        return t_f[rng.integers(n_fixed)] @ STATE_SIGNS[rng.integers(4) if kind == 3 else 0]

    t_f = np.stack([frame(rng.integers(2)) for _ in range(n_fixed)])
    t_m = np.stack([frame(rng.integers(4)) for _ in range(n_moving)])
    params = KernelParams(use_orientation_states=states)
    s_f, s_m = np.ones(n_fixed), np.ones(n_moving)
    rows_f, rows_m = kernel_rows(s_f, t_f), kernel_rows(s_m, t_m, params)
    log_k = log_kernel_matrix(np.zeros((n_moving, n_fixed)), s_f, rows_f, s_m, rows_m, params)
    np.testing.assert_allclose(
        log_k + 3.0, orientation_scores(t_f, t_m, states), rtol=0.0, atol=1e-12
    )


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_moving=st.integers(0, 40),
    n_fixed=st.integers(0, 40),
    scale=st.sampled_from([1e-3, 1.0, 128.0, 1e6]),
)
def test_squared_distances_equal_exact_differences(seed, n_moving, n_fixed, scale):
    # locations of mixed sign and magnitude, some shared between the sets
    # (exactly zero differences) and some one ulp apart
    rng = np.random.default_rng(seed)
    x_m = rng.uniform(-scale, scale, (n_moving, 3))
    x_f = rng.uniform(-scale, scale, (n_fixed, 3))
    shared = min(n_moving, n_fixed) // 2
    x_f[:shared] = x_m[:shared]
    x_f[shared : 2 * shared] = np.nextafter(x_m[:shared], np.inf)
    want = sum(np.subtract.outer(x_m[:, i], x_f[:, i]) ** 2 for i in range(3))
    got = squared_distances(x_m, x_f)
    assert got.shape == (n_moving, n_fixed)
    assert got.tobytes() == np.asarray(want, dtype=float).reshape(n_moving, n_fixed).tobytes()


@settings(max_examples=150)
@given(fixed=geometry_sets, moving=geometry_sets, states=st.booleans())
# at the parent: IndexError, a bare ValueError, a UFuncTypeError, a RuntimeWarning
@example(fixed=geometry_set(1, 2, "shape", 0), moving=geometry_set(2), states=True)
@example(fixed=geometry_set(1), moving=geometry_set(2, 3, "shape", 1), states=True)
@example(fixed=geometry_set(1, 3, "text", 0), moving=geometry_set(2), states=False)
@example(fixed=geometry_set(1), moving=geometry_set(2, 3, "huge", 0), states=True)
def test_kernel_matrix_contract(fixed, moving, states):
    # NaN, inf, 1e200, empty, wrong-shape and wrongly typed sets: a kernel
    # matrix in [0, 1] (empty sets give an empty one) or RejectedInputError
    (f, f_spoil), (m, m_spoil) = fixed, moving
    params = KernelParams(use_orientation_states=states)
    if {f_spoil, m_spoil} <= {"none", "empty"}:
        k = kernel_matrix(*f, *m, params)
        assert k.shape == (len(m[1]), len(f[1]))
        assert ((k >= 0.0) & (k <= 1.0 + 1e-12)).all()
    else:
        with pytest.raises(RejectedInputError):
            kernel_matrix(*f, *m, params)
