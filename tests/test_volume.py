"""Scale-space construction, differential operators and resampling.

The operators are the ones the pipeline reads: `_sample_gradients` at world
points in mm (frames and descriptors) and each octave's DoG, the
scale-normalized Laplacian up to the factor DOG_TO_LOG (detection).
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXTRACTION, dog, gaussian_blob, volume_center
from volkey import descriptors, frames
from volkey.errors import RejectedInputError
from volkey.io import write_features
from volkey.synth import make_phantom, random_similarity
from volkey.transforms import SimilarityTransform
from volkey.volume import (
    ScalarVolume,
    _blur_into,
    _nearest_level,
    _sample_gradients,
    build_scale_space,
    gaussian_kernel1d,
    resample,
    to_isotropic,
)


def _random_volume(seed, dims=(16, 16, 16)):
    rng = np.random.default_rng(seed)
    return ScalarVolume(dims=dims, spacing=(1, 1, 1), origin=(0, 0, 0), data=rng.random(dims))


def _blur(data, sigma_vox):
    """Clamp-to-edge Gaussian blur of data into a new array."""
    out = np.empty(data.shape)
    _blur_into(data, sigma_vox, out, np.empty(data.shape))
    return out


def _trilinear(value, shape, coords):
    """Trilinear blend of value(ix, iy, iz) at the 8 grid corners around the
    voxel coordinates `coords` (..., 3), clamped to the grid, as one sum over
    the corners in a fixed order: the scalar-corner form of the sampler."""
    c = np.asarray(coords, dtype=float)
    n = np.asarray(shape)
    cc = np.clip(c, 0.0, n - 1)
    i0 = np.maximum(np.minimum(np.floor(cc).astype(np.intp), n - 2), 0)
    f = cc - i0
    x0, y0, z0 = i0[..., 0], i0[..., 1], i0[..., 2]
    x1, y1, z1 = np.minimum(x0 + 1, n[0] - 1), np.minimum(y0 + 1, n[1] - 1), np.minimum(z0 + 1, n[2] - 1)
    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    return (
        value(x0, y0, z0) * gx * gy * gz
        + value(x1, y0, z0) * fx * gy * gz
        + value(x0, y1, z0) * gx * fy * gz
        + value(x0, y0, z1) * gx * gy * fz
        + value(x1, y1, z0) * fx * fy * gz
        + value(x1, y0, z1) * fx * gy * fz
        + value(x0, y1, z1) * gx * fy * fz
        + value(x1, y1, z1) * fx * fy * fz
    )


def _sample(data, coords, fill=False):
    """Trilinear samples of data at voxel coordinates (..., 3), clamped to the
    grid, or 0 outside [0, n-1] on any axis with fill: the grid sampler that
    resampling used before scipy's affine_transform, kept as an oracle."""
    out = _trilinear(lambda x, y, z: data[x, y, z], data.shape, coords)
    if fill:
        c = np.asarray(coords, dtype=float)
        out = np.where(np.all((c >= 0.0) & (c <= np.asarray(data.shape) - 1), axis=-1), out, 0.0)
    return out


def test_scalar_volume_validation():
    with pytest.raises(RejectedInputError):
        ScalarVolume(dims=(4, 4), spacing=(1, 1, 1), origin=(0, 0, 0), data=np.zeros((4, 4)))
    with pytest.raises(RejectedInputError):
        ScalarVolume(dims=(4, 4, 4), spacing=(1, 0, 1), origin=(0, 0, 0), data=np.zeros((4, 4, 4)))
    with pytest.raises(RejectedInputError):
        ScalarVolume(dims=(4, 4, 4), spacing=(1, 1, 1), origin=(0, 0, 0), data=np.zeros((4, 4, 2)))
    bad = np.zeros((4, 4, 4))
    bad[0, 0, 0] = np.nan
    with pytest.raises(RejectedInputError):
        ScalarVolume(dims=(4, 4, 4), spacing=(1, 1, 1), origin=(0, 0, 0), data=bad)
    # two spacings or origin entries, or intensities that are not numbers
    zeros = np.zeros((4, 4, 4))
    for spacing, origin, data in (
        ((1, 1), (0, 0, 0), zeros),
        ((1, 1, 1), (0, 0), zeros),
        ((1, 1, 1), (0, 0, 0), np.full((4, 4, 4), "a")),
        (("a", 1, 1), (0, 0, 0), zeros),
    ):
        with pytest.raises(RejectedInputError):
            ScalarVolume(dims=(4, 4, 4), spacing=spacing, origin=origin, data=data)


def test_scale_space_structure():
    ss = build_scale_space(_random_volume(0, (32, 32, 32)), base_sigma=1.6, num_octaves=2)
    assert len(ss.octaves) == 2
    for o, octave in enumerate(ss.octaves):
        # 3 logarithmic increments spanning [sigma, 2 sigma]
        assert octave.sigmas[0] == pytest.approx(1.6 * 2.0**o)
        assert octave.sigmas[3] == pytest.approx(2.0 * octave.sigmas[0])
        ratios = np.diff(np.log(octave.sigmas))
        np.testing.assert_allclose(ratios, np.log(2.0) / 3.0, atol=1e-12)
    assert ss.octaves[1].data[0].shape == (16, 16, 16)
    assert ss.octaves[1].spacing == pytest.approx(2.0 * ss.octaves[0].spacing)


def test_levels_equal_chained_gaussian_blurs():
    # odd dims at 1 x 1 x 2 mm: to_isotropic, then floor halving between octaves
    rng = np.random.default_rng(3)
    vol = ScalarVolume((19, 17, 9), (1, 1, 2), (0, 0, 0), rng.random((19, 17, 9)))
    ss = build_scale_space(vol, num_octaves=2)
    current = to_isotropic(vol).data
    for o, octave in enumerate(ss.octaves):
        s, h = octave.sigmas, octave.spacing
        level = _blur(current, s[0] / h) if o == 0 else current
        np.testing.assert_array_equal(octave.data[0], level)
        for i in range(1, len(s)):
            level = _blur(level, math.sqrt(s[i] ** 2 - s[i - 1] ** 2) / h)
            np.testing.assert_array_equal(octave.data[i], level)
        half = [n // 2 for n in octave.data[3].shape]
        current = octave.data[3][: 2 * half[0] : 2, : 2 * half[1] : 2, : 2 * half[2] : 2]


def test_scale_space_build_peaks_at_octave_zero():
    # the isotropic resample and each octave's scratch are released before
    # the next octave allocates, so the build peaks while octave 0 blurs its
    # first level: 6 levels, the resample and one scratch, 8 x V x 8 B; kept
    # through the build, they would peak at 8.86 x V x 8 B on this phantom
    vol = make_phantom(7, 40, (40, 40, 20), (1.0, 1.0, 2.0))
    v_bytes = math.prod(to_isotropic(vol).dims) * 8
    tracemalloc.start()
    try:
        ss = build_scale_space(vol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ss.octaves) == 2
    assert peak < 8.25 * v_bytes


def test_build_scale_space_rejects_degenerate_inputs():
    small = ScalarVolume(dims=(8, 8, 4), spacing=(1, 1, 1), origin=(0, 0, 0), data=np.zeros((8, 8, 4)))
    with pytest.raises(RejectedInputError):
        build_scale_space(small)
    vol = _random_volume(1, (16, 16, 16))
    with pytest.raises(RejectedInputError):
        build_scale_space(vol, num_octaves=3)  # coarsest octave would be 4 voxels
    with pytest.raises(RejectedInputError):
        build_scale_space(vol, base_sigma=0.0)
    # a string sigma, and a bool standing for an octave count
    with pytest.raises(RejectedInputError):
        build_scale_space(vol, base_sigma="1")
    with pytest.raises(RejectedInputError):
        build_scale_space(vol, num_octaves=True)


def test_build_scale_space_bounds_the_base_blur_by_the_volume():
    # 3 base_sigma may reach the largest extent, 15 mm here, and no farther
    vol = _random_volume(1, (16, 16, 16))
    assert build_scale_space(vol, base_sigma=5.0, num_octaves=1).sigma_min == 5.0
    # 1e300 failed in np.arange and 1e9 asked for a 44.7 GiB kernel; both
    # are refused before any allocation
    tracemalloc.start()
    try:
        for sigma in (math.nextafter(5.0, 6.0), 1e9, 1e300, math.inf):
            with pytest.raises(RejectedInputError, match="base_sigma"):
                build_scale_space(vol, base_sigma=sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # the bound is in world mm: an anisotropic grid reaches its longest extent
    aniso = ScalarVolume(dims=(8, 8, 8), spacing=(1, 1, 3), origin=(0, 0, 0), data=np.zeros((8, 8, 8)))
    build_scale_space(aniso, base_sigma=7.0, num_octaves=1)


@pytest.mark.parametrize("spacing", [1.0, 2.0**-100, 2.0**100, 2.0**400])
def test_build_scale_space_keeps_every_blur_finite(spacing):
    # base_sigma 1e-200 overflowed the taps' (x / sigma)^2; at least 2^-400 in
    # mm and in voxels, and at most 2^400 mm, no tap or squared sigma
    # overflows or vanishes (a warning fails the test run)
    vol = ScalarVolume((16, 16, 16), (spacing,) * 3, (0, 0, 0), _random_volume(1).data)
    lo, hi = 2.0**-400 * max(1.0, spacing), min(5.0 * spacing, 2.0**400)
    for sigma in (lo, hi):
        assert build_scale_space(vol, base_sigma=sigma, num_octaves=1).sigma_min == sigma
    for sigma in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf), 1e-200):
        with pytest.raises(RejectedInputError, match="base_sigma"):
            build_scale_space(vol, base_sigma=sigma)


def test_constant_volume_stays_constant():
    vol = ScalarVolume(dims=(16, 16, 16), spacing=(1, 1, 1), origin=(0, 0, 0), data=np.full((16, 16, 16), 3.5))
    ss = build_scale_space(vol, num_octaves=2)
    for octave in ss.octaves:
        for level in octave.data:
            np.testing.assert_allclose(level, 3.5, atol=1e-12)


def test_blob_blur_matches_closed_form():
    # Gaussian blurred by Gaussian: width sqrt(sb^2 + sk^2), peak scaled to match
    sb = 5.0
    vol = gaussian_blob(widths=sb, center=(32, 32, 32))
    ss = build_scale_space(vol, base_sigma=1.6, num_octaves=3)
    center = np.array([32.0, 32.0, 32.0])
    for octave in ss.octaves:
        for i in (0, 3):
            sk = octave.sigmas[i]
            sc2 = sb**2 + sk**2
            amp = (sb**2 / sc2) ** 1.5
            shape = octave.data[i].shape
            axes = [octave.origin[a] + np.arange(shape[a]) * octave.spacing for a in range(3)]
            gx, gy, gz = np.meshgrid(*axes, indexing="ij")
            r2 = (gx - center[0]) ** 2 + (gy - center[1]) ** 2 + (gz - center[2]) ** 2
            expected = amp * np.exp(-0.5 * r2 / sc2)
            mask = r2 < 144.0
            assert np.max(np.abs(octave.data[i][mask] - expected[mask])) < 0.01 * amp


def test_separable_blur_equals_brute_force_dense():
    rng = np.random.default_rng(11)
    data = rng.random((8, 8, 8))
    sigma = 1.1
    k = gaussian_kernel1d(sigma)
    r = len(k) // 2
    pad = np.pad(data, r, mode="edge")
    k3 = np.einsum("i,j,k->ijk", k, k, k)
    brute = np.zeros((8, 8, 8))
    for a in range(len(k)):
        for b in range(len(k)):
            for c in range(len(k)):
                brute += k3[a, b, c] * pad[a : a + 8, b : b + 8, c : c + 8]
    sep = _blur(data, sigma)
    assert np.max(np.abs(brute - sep)) / np.max(np.abs(brute)) < 1e-6


def test_gaussian_semigroup_on_interior():
    rng = np.random.default_rng(12)
    data = rng.random((24, 24, 24))
    s1, s2 = 2.0, 1.5
    twice = _blur(_blur(data, s1), s2)
    once = _blur(data, float(np.hypot(s1, s2)))
    margin = int(np.ceil(3 * (s1 + s2)))
    inner = (slice(margin, -margin),) * 3
    rel = np.max(np.abs(twice[inner] - once[inner])) / np.max(np.abs(once[inner]))
    assert rel < 1e-4


def _gradient(ss, x, sigma):
    return _sample_gradients(ss, np.array([x], dtype=float), sigma)[0]


def _dog(data):
    vol = ScalarVolume(data.shape, (1, 1, 1), (0, 0, 0), data)
    return [dog(octave) for octave in build_scale_space(vol, num_octaves=1).octaves]


def test_gradient_of_linear_ramp():
    ax = np.arange(32.0)
    data = 2.0 * np.broadcast_to(ax[:, None, None], (32, 32, 32)).copy()
    vol = ScalarVolume(dims=(32, 32, 32), spacing=(1, 1, 1), origin=(0, 0, 0), data=data)
    ss = build_scale_space(vol, num_octaves=1)
    np.testing.assert_allclose(_gradient(ss, [15.5, 15.5, 15.5], 1.6), [2.0, 0.0, 0.0], atol=1e-6)


def test_gradient_matches_finite_differences_of_level():
    vol = _random_volume(13)
    ss = build_scale_space(vol, num_octaves=1)
    level = ss.octaves[0].data[0]
    x, y, z = 7, 8, 6
    fd = np.array(
        [
            (level[x + 1, y, z] - level[x - 1, y, z]) / 2.0,
            (level[x, y + 1, z] - level[x, y - 1, z]) / 2.0,
            (level[x, y, z + 1] - level[x, y, z - 1]) / 2.0,
        ]
    )
    g = _gradient(ss, [x, y, z], ss.octaves[0].sigmas[0])
    np.testing.assert_allclose(g, fd, atol=1e-9)


@pytest.fixture(scope="module")
def coarse_scale_space():
    # octave 1 is (8, 8, 9) voxels at 3 mm; the origin keeps lattice points exact
    data = np.random.default_rng(21).random((17, 16, 19))
    volume = ScalarVolume(data.shape, (1.5, 1.5, 1.5), (-6.0, 3.0, 10.5), data)
    return build_scale_space(volume, num_octaves=2)


def _axis_coordinates(n):
    """Voxel coordinates along an axis of n voxels: at, on and beyond its faces, or anywhere."""
    faces = [-1.5, -1.0, -0.25, 0.0, 0.5, 1.0, n - 2.0, n - 1.5, n - 1.0, n - 0.75, n, n + 1.0]
    return st.one_of(st.sampled_from(faces), st.floats(-2.0, n + 1.0))


@settings(max_examples=60)
@given(data=st.data(), i=st.integers(3, 5))
def test_sampled_gradients_equal_np_gradient_oracle(coarse_scale_space, data, i):
    # levels 3..5 of octave 1 lie above every octave-0 sigma, so sigma picks them
    octave = coarse_scale_space.octaves[1]
    level = octave.data[i]
    corners = st.tuples(*(_axis_coordinates(n) for n in level.shape))
    v = np.array(data.draw(st.lists(corners, min_size=1, max_size=16)))
    points = octave.origin + v * octave.spacing
    got = _sample_gradients(coarse_scale_space, points, octave.sigmas[i])
    vox = (points - octave.origin) / octave.spacing
    want = np.stack([_sample(g, vox) for g in np.gradient(level, octave.spacing)], axis=-1)
    assert got.shape == want.shape
    # callers sum over points along axis 0; another layout would sum in another order
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def _oracle_sampler():
    """_sample_gradients as np.gradient of the whole level, sampled by the
    scalar-corner blend; each level's gradient is taken once per sampler."""
    gradients = {}

    def sample(ss, points, sigma):
        o, i = _nearest_level(ss, sigma)
        octave = ss.octaves[o]
        if (o, i) not in gradients:
            gradients[o, i] = np.gradient(octave.data[i], octave.spacing)
        vox = (np.asarray(points, dtype=float) - octave.origin) / octave.spacing
        return np.stack([_sample(g, vox) for g in gradients[o, i]], axis=-1)

    return sample


def test_extracted_feature_bytes_equal_the_oracle_pipeline(
    phantom, phantom_features, monkeypatch, tmp_path
):
    assert len(phantom_features) > 20
    real = tmp_path / "real.feat"
    write_features(real, phantom_features, config=EXTRACTION)
    # frames and descriptors through the oracle sampler, each state sampled on its own
    sample = _oracle_sampler()
    monkeypatch.setattr(frames, "_sample_gradients", sample)
    monkeypatch.setattr(descriptors, "_sample_gradients", sample)
    monkeypatch.setattr(
        descriptors,
        "compute_state_descriptors",
        lambda ss, kp, base: [
            descriptors.compute_descriptor(ss, kp, s.frame) for s in frames.enumerate_states(base)
        ],
    )
    oracle = tmp_path / "oracle.feat"
    write_features(oracle, descriptors.extract_features(phantom, EXTRACTION), config=EXTRACTION)
    assert real.read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gradient_sampling_rejects_non_finite_points(coarse_scale_space, bad):
    points = np.full((2, 5, 3), 12.0)
    points[1, 3, 2] = bad
    with pytest.raises(RejectedInputError):
        _sample_gradients(coarse_scale_space, points, 2.0)


def test_gradient_sampling_allocates_less_than_a_level():
    ss = build_scale_space(_random_volume(19, (64, 64, 64)), num_octaves=1)
    # a frame's support ball: radius 3 sigma around the center
    ax = np.arange(-10.0, 11.0)
    ball = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    points = 32.0 + ball[(ball**2).sum(axis=1) <= 9.6**2]
    tracemalloc.start()
    try:
        _sample_gradients(ss, points, 3.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ss.octaves[0].data[0].nbytes


def test_gradient_rejects_sigma_outside_pyramid():
    ss = build_scale_space(_random_volume(14), num_octaves=1)
    with pytest.raises(RejectedInputError):
        _gradient(ss, [8.0, 8.0, 8.0], 100.0)


def test_laplacian_constant_zero_and_blob_negative():
    for layers in _dog(np.ones((16, 16, 16))):
        np.testing.assert_allclose(layers, 0.0, atol=1e-12)
    blob = gaussian_blob(widths=6.0, center=(32, 32, 32))
    for octave in build_scale_space(blob, num_octaves=3).octaves:
        at = tuple(int(v) for v in (32.0 - octave.origin) / octave.spacing)
        assert np.all(dog(octave)[(slice(None), *at)] < 0.0)


def test_laplacian_linearity_and_negation():
    rng = np.random.default_rng(2)
    a = rng.random((16, 16, 16))
    b = rng.random((16, 16, 16))
    (da,), (db,), (dc,), (dneg,) = (_dog(d) for d in (a, b, 2.0 * a - 3.0 * b, -a))
    np.testing.assert_allclose(dc, 2.0 * da - 3.0 * db, rtol=1e-6)
    np.testing.assert_array_equal(dneg, -da)


def test_operators_invariant_to_constant_offset():
    vol = _random_volume(15)
    shifted = ScalarVolume(vol.dims, vol.spacing, vol.origin, vol.data + 7.0)
    ss0 = build_scale_space(vol, num_octaves=1)
    ss1 = build_scale_space(shifted, num_octaves=1)
    x = [8.0, 8.0, 8.0]
    np.testing.assert_allclose(_gradient(ss0, x, 1.6), _gradient(ss1, x, 1.6), atol=1e-9)
    np.testing.assert_allclose(dog(ss0.octaves[0]), dog(ss1.octaves[0]), atol=1e-9)


def test_resample_identity_and_integer_shift():
    vol = _random_volume(16)
    same = resample(vol, SimilarityTransform())
    np.testing.assert_allclose(same.data, vol.data, atol=1e-12)
    shift = resample(vol, SimilarityTransform(translation=[1.0, 0.0, 0.0]))
    np.testing.assert_allclose(shift.data[1:], vol.data[:-1], atol=1e-12)
    np.testing.assert_allclose(shift.data[0], 0.0, atol=1e-12)


def _isotropic_oracle(vol):
    sp = np.asarray(vol.spacing)
    s = sp.min()
    dims = [int(np.floor((n - 1) * spc / s)) + 1 for n, spc in zip(vol.dims, sp)]
    ax = [np.arange(n) * s / spc for n, spc in zip(dims, sp)]
    return _sample(vol.data, np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1))


def _resample_oracle(vol, t):
    sp, org = np.asarray(vol.spacing), np.asarray(vol.origin)
    ax = [np.arange(n) * s + o for n, s, o in zip(vol.dims, sp, org)]
    pts = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)
    src = t.inverse().apply(pts.reshape(-1, 3)).reshape(pts.shape)
    return _sample(vol.data, (src - org) / sp, fill=True)


def test_resampling_equals_trilinear_oracle():
    data = np.random.default_rng(22).random((12, 10, 9)) - 0.3
    bound = 1e-14 * np.abs(data).max()
    # on a 1x1x2 grid only z interpolates, in the oracle's own expression
    vol = ScalarVolume(data.shape, (1.0, 1.0, 2.0), (-4.0, 7.0, 2.5), data)
    assert to_isotropic(vol).data.tobytes() == _isotropic_oracle(vol).tobytes()

    vol = ScalarVolume(data.shape, (1.0, 2.5, 1.5), (-4.0, 7.0, 2.5), data)
    iso = to_isotropic(vol)
    want = _isotropic_oracle(vol)
    assert iso.data.shape == want.shape == (12, 23, 13)
    assert np.abs(iso.data - want).max() <= bound
    center = (vol.world_min + vol.world_max) / 2.0
    for seed in range(5, 10):
        t = random_similarity(seed, center=center)
        got, want = resample(vol, t).data, _resample_oracle(vol, t)
        # both fill the same voxels; the 8-corner sum may associate differently
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        assert np.abs(got - want).max() <= bound


def test_resampling_edges_exactly():
    data = np.random.default_rng(23).random((6, 5, 4))
    vol = ScalarVolume(data.shape, (1.0, 1.0, 1.0), (2.0, -1.0, 0.5), data)
    assert resample(vol, SimilarityTransform()).data.tobytes() == data.tobytes()
    # output voxel j samples j + 1 along x: the edge value at n - 1, 0 past it
    shift = resample(vol, SimilarityTransform(translation=[-1.0, 0.0, 0.0])).data
    assert shift[:-1].tobytes() == data[1:].tobytes()
    assert np.all(shift[-1] == 0.0)
    past = resample(vol, SimilarityTransform(translation=[-1.0 - 1e-9, 0.0, 0.0])).data
    assert np.all(past[-2:] == 0.0) and np.all(past[:-2] != 0.0)
    # to_isotropic's last z sample sits on the last input plane; x and y stay on the lattice
    iso = to_isotropic(ScalarVolume(data.shape, (1.0, 1.0, 2.0), (0, 0, 0), data))
    assert iso.dims == (6, 5, 7)
    assert iso.data[..., ::2].tobytes() == data.tobytes()
    # a single-voxel axis: samples on it, 0 off it, and to_isotropic keeps it
    flat = ScalarVolume((6, 1, 4), (1.0, 1.0, 1.0), (0, 0, 0), data[:, :1])
    assert resample(flat, SimilarityTransform()).data.tobytes() == flat.data.tobytes()
    off = resample(flat, SimilarityTransform(translation=[0.0, 0.25, 0.0]))
    assert np.all(off.data == 0.0)
    thin = to_isotropic(ScalarVolume((6, 1, 4), (1.0, 1.0, 2.0), (0, 0, 0), data[:, :1]))
    assert thin.dims == (6, 1, 7)
    assert thin.data[..., ::2].tobytes() == flat.data.tobytes()


def test_resampling_allocates_under_16_bytes_per_sample():
    # beyond the 8 B output, no coordinate grid or corner array per sample
    data = np.random.default_rng(24).random((64, 48, 40))
    vol = ScalarVolume(data.shape, (1.0, 1.0, 1.5), (-3.0, 2.0, 1.0), data)
    t = random_similarity(5, center=(vol.world_min + vol.world_max) / 2.0)
    for run in (lambda: resample(vol, t), lambda: to_isotropic(vol)):
        tracemalloc.start()
        try:
            samples = run().data.size
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / samples < 16.0


def test_resample_round_trip_on_smooth_blob():
    vol = gaussian_blob(widths=6.0, center=(32, 32, 32))
    t = random_similarity(123, center=volume_center(vol))
    back = resample(resample(vol, t), t.inverse())
    inner = (slice(16, 48),) * 3
    rms = float(np.sqrt(np.mean((back.data[inner] - vol.data[inner]) ** 2)))
    dynamic = float(vol.data.max() - vol.data.min())
    assert rms < 0.01 * dynamic


def test_to_isotropic_resamples_to_min_spacing():
    rng = np.random.default_rng(17)
    ax = np.arange(16.0)
    ramp = np.broadcast_to(ax[:, None, None], (16, 16, 16)).copy()
    vol = ScalarVolume(dims=(16, 16, 16), spacing=(1.0, 2.0, 1.0), origin=(0, 0, 0), data=ramp)
    iso = to_isotropic(vol)
    assert iso.spacing == (1.0, 1.0, 1.0)
    assert iso.dims == (16, 31, 16)
    # a ramp along x is preserved exactly by trilinear interpolation
    np.testing.assert_allclose(iso.data[:, 0, 0], ax, atol=1e-12)
    # already-isotropic volumes pass through untouched
    same = to_isotropic(_random_volume(18))
    assert same.dims == (16, 16, 16)
