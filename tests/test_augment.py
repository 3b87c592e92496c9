import numpy as np
import pytest

from sinkmass.errors import NonSquareRaster
from sinkmass.neural.augment import (
    augment_array,
    dihedral,
    photometric_jitter,
    rotate_bilinear,
)


class TestDihedral:
    def test_preserves_pixel_multiset(self, rng):
        pixels = rng.integers(0, 256, size=(16, 16)).astype(float)
        for element in range(8):
            out = dihedral(pixels, element)
            assert sorted(out.ravel()) == sorted(pixels.ravel())

    def test_identity_element(self, rng):
        pixels = rng.integers(0, 256, size=(8, 8)).astype(float)
        assert np.array_equal(dihedral(pixels, 0), pixels)

    def test_horizontal_flip_is_involution(self, rng):
        pixels = rng.integers(0, 256, size=(8, 8)).astype(float)
        flipped = dihedral(pixels, 4)  # flip without rotation
        assert np.array_equal(dihedral(flipped, 4), pixels)

    def test_eight_distinct_elements_on_generic_image(self, rng):
        pixels = rng.normal(size=(6, 6))
        outputs = {dihedral(pixels, e).tobytes() for e in range(8)}
        assert len(outputs) == 8

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareRaster):
            dihedral(np.zeros((2, 3)), 0)


class TestRotateBilinear:
    def test_zero_angle_is_exact_identity(self, rng):
        pixels = rng.uniform(0, 255, size=(15, 15))
        assert np.array_equal(rotate_bilinear(pixels, 0.0), pixels)

    def test_full_turn_is_exact_identity(self, rng):
        pixels = rng.uniform(0, 255, size=(10, 10))
        out = rotate_bilinear(pixels, 360.0)
        assert np.allclose(out, pixels, atol=1e-9)

    def test_quarter_turn_matches_rot90_interior(self, rng):
        pixels = rng.uniform(0, 255, size=(9, 9))
        out = rotate_bilinear(pixels, 90.0)
        assert np.allclose(out, np.rot90(pixels, k=-1), atol=1e-9)

    def test_corner_fill_is_border_median(self):
        pixels = np.full((11, 11), 200.0)
        pixels[0, :] = 10.0  # pulls the border median down
        out = rotate_bilinear(pixels, 45.0)
        border = np.concatenate(
            [pixels[0, :], pixels[-1, :], pixels[1:-1, 0], pixels[1:-1, -1]]
        )
        assert out[0, 0] == np.median(border)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareRaster):
            rotate_bilinear(np.zeros((3, 4)), 10.0)


class TestPhotometric:
    def test_stays_in_range(self, rng):
        pixels = rng.uniform(0, 255, size=(12, 12))
        out = photometric_jitter(pixels, rng)
        assert out.min() >= 0.0 and out.max() <= 255.0

    def test_flat_image_shifts_uniformly(self, rng):
        pixels = np.full((8, 8), 100.0)
        out = photometric_jitter(pixels, rng)
        assert np.allclose(out, out[0, 0])


class TestAugmentDispatch:
    def test_none_policy_returns_input(self, rng):
        pixels = rng.uniform(0, 255, size=(8, 8))
        assert augment_array(pixels, "none", rng) is pixels

    def test_flips90_preserves_multiset(self, rng):
        pixels = rng.integers(0, 256, size=(8, 8)).astype(float)
        out = augment_array(pixels, "flips90", rng)
        assert sorted(out.ravel()) == sorted(pixels.ravel())

    def test_flips90_preserves_silhouette_area(self, rng):
        pixels = np.full((16, 16), 255.0)
        pixels[4:9, 5:12] = 0.0
        dark_before = int((pixels < 128).sum())
        out = augment_array(pixels, "flips90", rng)
        assert int((out < 128).sum()) == dark_before

    def test_unknown_policy_rejected(self, rng):
        with pytest.raises(ValueError):
            augment_array(np.zeros((4, 4)), "warp", rng)

    def test_deterministic_given_rng_state(self):
        pixels = np.arange(64, dtype=float).reshape(8, 8)
        a = augment_array(pixels, "flips90", np.random.default_rng(5))
        b = augment_array(pixels, "flips90", np.random.default_rng(5))
        assert np.array_equal(a, b)
