"""Scale-space construction, differential operators and resampling."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import gaussian_blob, volume_center
from volkey.errors import BoundaryError, RejectedInputError
from volkey.synth import random_similarity
from volkey.transforms import SimilarityTransform
from volkey.volume import (
    ScalarVolume,
    build_scale_space,
    gaussian_blur,
    gaussian_kernel1d,
    gradient_at,
    laplacian_at,
    resample,
    to_isotropic,
    trilinear_sample,
)


def _random_volume(seed, dims=(16, 16, 16)):
    rng = np.random.default_rng(seed)
    return ScalarVolume(dims=dims, spacing=(1, 1, 1), origin=(0, 0, 0), data=rng.random(dims))


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


def test_build_scale_space_rejects_degenerate_inputs():
    small = ScalarVolume(dims=(8, 8, 4), spacing=(1, 1, 1), origin=(0, 0, 0), data=np.zeros((8, 8, 4)))
    with pytest.raises(RejectedInputError):
        build_scale_space(small)
    vol = _random_volume(1, (16, 16, 16))
    with pytest.raises(RejectedInputError):
        build_scale_space(vol, num_octaves=3)  # coarsest octave would be 4 voxels
    with pytest.raises(RejectedInputError):
        build_scale_space(vol, base_sigma=0.0)


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
    sep = gaussian_blur(data, sigma)
    assert np.max(np.abs(brute - sep)) / np.max(np.abs(brute)) < 1e-6


def test_gaussian_semigroup_on_interior():
    rng = np.random.default_rng(12)
    data = rng.random((24, 24, 24))
    s1, s2 = 2.0, 1.5
    twice = gaussian_blur(gaussian_blur(data, s1), s2)
    once = gaussian_blur(data, float(np.hypot(s1, s2)))
    margin = int(np.ceil(3 * (s1 + s2)))
    inner = (slice(margin, -margin),) * 3
    rel = np.max(np.abs(twice[inner] - once[inner])) / np.max(np.abs(once[inner]))
    assert rel < 1e-4


def test_gradient_of_linear_ramp():
    ax = np.arange(32.0)
    data = 2.0 * np.broadcast_to(ax[:, None, None], (32, 32, 32)).copy()
    vol = ScalarVolume(dims=(32, 32, 32), spacing=(1, 1, 1), origin=(0, 0, 0), data=data)
    ss = build_scale_space(vol, num_octaves=1)
    g = gradient_at(ss, np.array([15.5, 15.5, 15.5]), 1.6)
    np.testing.assert_allclose(g, [2.0, 0.0, 0.0], atol=1e-6)


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
    g = gradient_at(ss, np.array([float(x), float(y), float(z)]), ss.octaves[0].sigmas[0])
    np.testing.assert_allclose(g, fd, atol=1e-9)


def test_gradient_rejects_out_of_domain_points():
    vol = _random_volume(14)
    ss = build_scale_space(vol, num_octaves=1)
    with pytest.raises(BoundaryError):
        gradient_at(ss, np.array([-5.0, 8.0, 8.0]), 1.6)
    with pytest.raises(RejectedInputError):
        gradient_at(ss, np.array([8.0, 8.0, 8.0]), 100.0)  # sigma outside pyramid


def test_laplacian_constant_zero_and_blob_negative():
    const = ScalarVolume(dims=(16, 16, 16), spacing=(1, 1, 1), origin=(0, 0, 0), data=np.ones((16, 16, 16)))
    ss = build_scale_space(const, num_octaves=1)
    x = np.array([8.0, 8.0, 8.0])
    assert laplacian_at(ss, x, 2.0) == pytest.approx(0.0, abs=1e-12)
    blob = gaussian_blob(widths=6.0, center=(32, 32, 32))
    ssb = build_scale_space(blob, num_octaves=3)
    center = np.array([32.0, 32.0, 32.0])
    assert laplacian_at(ssb, center, 3.0, method="dog") < 0.0
    assert laplacian_at(ssb, center, 3.0, method="stencil") < 0.0


def test_laplacian_linearity_and_negation():
    rng = np.random.default_rng(2)
    a = rng.random((16, 16, 16))
    b = rng.random((16, 16, 16))
    combo = 2.0 * a - 3.0 * b
    spaces = [
        build_scale_space(ScalarVolume((16, 16, 16), (1, 1, 1), (0, 0, 0), d), num_octaves=1)
        for d in (a, b, combo, -a)
    ]
    x = np.array([8.0, 8.0, 8.0])
    for sigma in (1.8, 2.54):
        la, lb, lc, lneg = (laplacian_at(s, x, sigma) for s in spaces)
        assert lc == pytest.approx(2.0 * la - 3.0 * lb, rel=1e-6)
        assert lneg == pytest.approx(-la, rel=1e-12)


def test_operators_invariant_to_constant_offset():
    vol = _random_volume(15)
    shifted = ScalarVolume(vol.dims, vol.spacing, vol.origin, vol.data + 7.0)
    ss0 = build_scale_space(vol, num_octaves=1)
    ss1 = build_scale_space(shifted, num_octaves=1)
    x = np.array([8.0, 8.0, 8.0])
    np.testing.assert_allclose(gradient_at(ss0, x, 1.6), gradient_at(ss1, x, 1.6), atol=1e-9)
    assert laplacian_at(ss0, x, 1.8) == pytest.approx(laplacian_at(ss1, x, 1.8), abs=1e-9)


def test_trilinear_sample_modes():
    data = np.arange(8.0).reshape(2, 2, 2)
    # exact at corners, linear midway
    assert trilinear_sample(data, np.array([1.0, 0.0, 1.0])) == pytest.approx(data[1, 0, 1])
    assert trilinear_sample(data, np.array([0.5, 0.5, 0.5])) == pytest.approx(data.mean())
    # clamp extends edges, fill writes the fill value
    assert trilinear_sample(data, np.array([-1.0, 0.0, 0.0]), mode="clamp") == pytest.approx(data[0, 0, 0])
    assert trilinear_sample(data, np.array([-1.0, 0.0, 0.0]), mode="fill", fill=9.0) == pytest.approx(9.0)


def test_resample_identity_and_integer_shift():
    vol = _random_volume(16)
    same = resample(vol, SimilarityTransform())
    np.testing.assert_allclose(same.data, vol.data, atol=1e-12)
    shift = resample(vol, SimilarityTransform(translation=[1.0, 0.0, 0.0]))
    np.testing.assert_allclose(shift.data[1:], vol.data[:-1], atol=1e-12)
    np.testing.assert_allclose(shift.data[0], 0.0, atol=1e-12)


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
