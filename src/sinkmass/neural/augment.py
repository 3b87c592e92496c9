"""Image augmentations: dihedral flips/rotations, continuous rotation, and
light photometric jitter.

Warping transforms (shear, affine, cropping) are deliberately absent: mass
scales with the physical size of the specimen, so augmentations must never
change apparent scale. Dihedral elements preserve the pixel multiset (and
hence the silhouette area) exactly; continuous rotation resamples bilinearly
and fills the exposed corners with the median border value so the fill
approximates background.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ..errors import NonSquareRaster


def _dihedral_view(pixels: np.ndarray, element: int) -> np.ndarray:
    """The dihedral element acting on the last two axes, as a view."""
    out = np.rot90(pixels, k=element % 4, axes=(-2, -1))
    return out[..., ::-1] if element >= 4 else out


def dihedral(pixels: np.ndarray, element: int) -> np.ndarray:
    """Element 0..7 of the square's symmetry group: rotations by 0/90/180/270
    degrees, optionally composed with a horizontal flip."""
    if pixels.shape[0] != pixels.shape[1]:
        raise NonSquareRaster(f"dihedral action needs a square raster, got {pixels.shape}")
    if not 0 <= element < 8:
        raise ValueError(f"dihedral element must be 0..7, got {element}")
    return np.ascontiguousarray(_dihedral_view(pixels, element))


def rotate_bilinear(pixels: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate about the image center with bilinear resampling.

    Samples that fall outside the source are set to the median of the
    border pixels. A zero angle reproduces the input exactly.
    """
    if pixels.shape[0] != pixels.shape[1]:
        raise NonSquareRaster(f"rotation needs a square raster, got {pixels.shape}")
    src = pixels.astype(float)
    border = np.concatenate([src[0, :], src[-1, :], src[1:-1, 0], src[1:-1, -1]])
    fill = float(np.median(border))
    s = src.shape[0]
    c = (s - 1) / 2.0
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    yy, xx = np.mgrid[0:s, 0:s].astype(float)
    dy, dx = yy - c, xx - c
    # inverse mapping: output pixel pulls from the source location
    sx = cos_t * dx + sin_t * dy + c
    sy = -sin_t * dx + cos_t * dy + c
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    result = np.full((s, s), fill, dtype=float)
    eps = 1e-9  # keep grid-aligned angles (0, 90, ...) from leaking into fill
    valid = (sx >= -eps) & (sx <= s - 1 + eps) & (sy >= -eps) & (sy <= s - 1 + eps)

    def sample(yi, xi):
        yi = np.clip(yi, 0, s - 1).astype(int)
        xi = np.clip(xi, 0, s - 1).astype(int)
        return src[yi, xi]

    v00 = sample(y0, x0)
    v01 = sample(y0, x0 + 1)
    v10 = sample(y0 + 1, x0)
    v11 = sample(y0 + 1, x0 + 1)
    interp = (
        v00 * (1 - fy) * (1 - fx)
        + v01 * (1 - fy) * fx
        + v10 * fy * (1 - fx)
        + v11 * fy * fx
    )
    result[valid] = interp[valid]
    return result


def photometric_jitter(pixels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Brightness/contrast jitter only; output stays within [0, 255]."""
    contrast = rng.uniform(0.8, 1.2)
    brightness = rng.uniform(-25.5, 25.5)
    out = (pixels.astype(float) - 127.5) * contrast + 127.5 + brightness
    return np.clip(out, 0.0, 255.0)


class AugmentPolicy(str, Enum):
    NONE = "none"
    FLIPS90 = "flips90"
    CONTINUOUS_ROTATION = "continuous_rotation"
    PHOTOMETRIC_LITE = "photometric_lite"


def augment_array(
    pixels: np.ndarray, policy: AugmentPolicy | str, rng: np.random.Generator
) -> np.ndarray:
    """Apply one random draw of ``policy`` to a square 2D array, or one
    independent draw per image to an (N, S, S) stack.

    Policies: ``none``, ``flips90`` (uniform dihedral element),
    ``continuous_rotation`` (uniform angle, bilinear), ``photometric_lite``.
    A stack consumes ``rng`` exactly as N calls on its images in order would,
    so both give the same output. For ``flips90`` a stack draws its N
    elements in one call and applies each element once, to all the images
    that drew it.
    """
    if pixels.ndim not in (2, 3) or pixels.shape[-2] != pixels.shape[-1]:
        raise NonSquareRaster(f"augmentation needs square rasters, got {pixels.shape}")
    policy = AugmentPolicy(policy)  # ValueError for an unknown policy
    if policy is AugmentPolicy.NONE:
        return pixels
    if pixels.ndim == 3:
        if policy is AugmentPolicy.FLIPS90:
            elements = rng.integers(0, 8, size=len(pixels))
            out = np.empty_like(pixels)
            for element in range(8):
                group = np.flatnonzero(elements == element)
                if group.size:
                    out[group] = _dihedral_view(pixels[group], element)
            return out
        out = np.empty(pixels.shape)
        for j, image in enumerate(pixels):
            out[j] = augment_array(image, policy, rng)
        return out
    if policy is AugmentPolicy.FLIPS90:
        return dihedral(pixels, int(rng.integers(0, 8)))
    if policy is AugmentPolicy.CONTINUOUS_ROTATION:
        return rotate_bilinear(pixels, float(rng.uniform(0.0, 360.0)))
    return photometric_jitter(pixels, rng)
