"""Forward/backward primitives for the small convolutional stack.

Everything works on NCHW arrays, computes in its inputs' floating dtype
(float32 in training and inference alike, float64 for gradient checks) and
returns exact analytic gradients. Convolutions are 3x3, stride 1,
zero-padded to preserve the spatial size; pooling is 2x2 max with stride 2;
the encoder ends with global average pooling.

Each encoder block runs conv -> max-pool -> ReLU. ReLU is monotone, so it
commutes with the max: pooling first gives the same activations and, with
ties resolved to the first window element, the same gradients as ReLU first,
while ReLU and its mask only touch the quarter-size pooled maps. The first
block's input is the image itself, so its backward pass skips the input
gradient (``input_grad=False``) and never builds the col2im buffer.

Every forward layer computes each sample's row from that row alone, so a
sample's output is bit-for-bit the same whichever other samples share its
batch. The conv's stacked matmul, the pooling, ReLU and GAP do so as they
stand; a BLAS product over a whole batch rounds a row differently depending
on how many rows share the call, so ``affine_forward`` runs one product per
row.

The 3x3 patch matrix is one strided copy (one NumPy call, not nine) from a
flat, zero-bordered copy of each channel, in which offset (di, dj) is the
contiguous slice from di * W + dj; entries that wrap round an image edge
into the next row are cleared. The input gradient clears the same
patch-gradient entries and adds its rows the same way, in the strided
order, into a flat zero buffer: its sums start at +0.0 and gain only +0.0
terms, so they keep their bits, as outputs do.

The conv functions take their padded input, im2col, output and padded
input-gradient arrays from a ``ConvScratch``. Without a ``scratch`` argument
they use a fresh one and are pure; given one, they allocate no array and
give the same bits, but the returned output and ``dx`` and the cache's patch
matrix live in the scratch and hold only until its next call.
The backward call writes the patch gradient over the cache's patch matrix
(``dw`` is done with it by then), so such a cache serves one backward call.
``maxpool2_backward`` is pure too unless given ``out``; the net passes the
conv output its scratch lent, as each window view is read before it is written
and no two views overlap, so a pool cache also serves one backward call.
"""

from __future__ import annotations

import numpy as np


class ConvScratch:
    """Work arrays of one conv layer, its output included, reused from call to call.

    Each named array grows to the largest batch it has been asked for and
    lends its leading rows; it is zero when made and otherwise holds what
    the last call left there.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        array = self._arrays.get(name)
        if (array is None or array.dtype != dtype or array.shape[1:] != shape[1:]
                or len(array) < shape[0]):
            array = self._arrays[name] = np.zeros(shape, dtype)
        return array[: shape[0]]


def _clear_wrapped(cols: np.ndarray, w: int) -> None:
    """Zero the entries of a (B, C, 3, 3, H*W) patch or patch-gradient matrix
    whose column offset takes them past the left or right image edge."""
    grid = cols.reshape(*cols.shape[:4], -1, w)
    grid[:, :, :, 0, :, 0] = 0
    grid[:, :, :, 2, :, -1] = 0


def _im2col3(x: np.ndarray, scratch: ConvScratch) -> np.ndarray:
    """(B, C, H, W) -> (B, C*9, H*W) patch matrix for a same-padded 3x3 conv."""
    b, c, h, w = x.shape
    n = h * w
    # only the interior is ever written, so the border stays zero
    xp = scratch.take("xp", (b, c, n + 2 * w + 2), x.dtype)
    xp[:, :, w + 1 : w + 1 + n] = x.reshape(b, c, n)
    cols = scratch.take("cols", (b, c, 3, 3, n), x.dtype)
    sb, sc, se = xp.strides  # view[:, :, di, dj] is xp[:, :, di * w + dj : di * w + dj + n]
    # the ndarray constructor checks the view stays in xp, at a seventh of as_strided's cost
    np.copyto(cols, np.ndarray((b, c, 3, 3, n), x.dtype, xp, 0, (sb, sc, w * se, se, se)))
    _clear_wrapped(cols, w)
    return cols.reshape(b, c * 9, n)


def conv3_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, *,
                  scratch: ConvScratch | None = None):
    """3x3 same conv. w: (C_out, C_in, 3, 3), b: (C_out,)."""
    batch, c_in, h, width = x.shape
    c_out = w.shape[0]
    scratch = ConvScratch() if scratch is None else scratch
    cols = _im2col3(x, scratch)
    wmat = w.reshape(c_out, c_in * 9)
    out = scratch.take("out", (batch, c_out, h * width), np.result_type(wmat, cols))
    out = np.matmul(wmat[None, :, :], cols, out=out).reshape(batch, c_out, h, width)
    out += b[None, :, None, None]
    cache = (x.shape, cols, wmat)
    return out, cache


def conv3_backward(dout: np.ndarray, cache, *, input_grad: bool = True,
                   scratch: ConvScratch | None = None):
    """Gradients (dx, dw, db) of a conv3_forward call; dx is None when
    ``input_grad`` is false."""
    (batch, c_in, h, width), cols, wmat = cache
    c_out = dout.shape[1]
    dflat = dout.reshape(batch, c_out, h * width)
    # a transposed view of cols goes to BLAS as is; tensordot would copy it
    dw = np.matmul(dflat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(c_out, c_in, 3, 3)
    db = dout.sum(axis=(0, 2, 3))
    if not input_grad:
        return None, dw, db
    if scratch is None:
        scratch = ConvScratch()
    n = h * width
    dcols = scratch.take("cols", (batch, c_in, 3, 3, n), np.result_type(wmat, dout))
    np.matmul(wmat.T[None, :, :], dflat, out=dcols.reshape(batch, c_in * 9, n))
    _clear_wrapped(dcols, width)
    dxp = scratch.take("dxp", (batch, c_in, n + 2 * width + 2), dout.dtype)
    dxp.fill(0)
    for di, dj in np.ndindex(3, 3):
        dxp[:, :, di * width + dj : di * width + dj + n] += dcols[:, :, di, dj]
    dx = dxp[:, :, width + 1 : width + 1 + n].reshape(batch, c_in, h, width)
    return dx, dw, db


def relu_forward(x: np.ndarray):
    mask = x > 0
    return x * mask, mask


def relu_backward(dout: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dout * mask


def _pool_views(x: np.ndarray):
    """The four strided views covering each 2x2 window, in row-major order."""
    return (x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2], x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2])


def maxpool2_forward(x: np.ndarray):
    """2x2 max pooling, stride 2; ties resolve to the first window element."""
    # max(max(v0, v1), max(v2, v3)) of _pool_views, column pairs over whole rows first
    pairs = np.maximum(x[..., 0::2], x[..., 1::2])
    out = np.maximum(pairs[:, :, 0::2], pairs[:, :, 1::2])
    return out, (x, out)


def maxpool2_backward(dout: np.ndarray, cache, *, out: np.ndarray | None = None) -> np.ndarray:
    """Input gradient of a maxpool2_forward call, written into ``out`` if given."""
    x, pooled = cache
    dx = np.empty_like(x) if out is None else out
    unclaimed = np.ones(pooled.shape, dtype=bool)
    winner = np.empty(pooled.shape, dtype=bool)
    for view, dview in zip(_pool_views(x), _pool_views(dx)):
        np.equal(view, pooled, out=winner)
        winner &= unclaimed
        np.multiply(dout, winner, out=dview)
        unclaimed ^= winner
    return dx


def gap_forward(x: np.ndarray):
    """Global average pooling (B, C, H, W) -> (B, C)."""
    return x.mean(axis=(2, 3)), x.shape


def gap_backward(dout: np.ndarray, shape) -> np.ndarray:
    b, c, h, w = shape
    return np.broadcast_to(dout[:, :, None, None], shape) / (h * w)


def affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (B, N), w: (M, N), b: (M,) -> (B, M), one (1, N) @ (N, M) product
    per row."""
    return np.matmul(x[:, None, :], w.T[None])[:, 0] + b, (x, w)


def affine_backward(dout: np.ndarray, cache):
    x, w = cache
    dw = dout.T @ x
    db = dout.sum(axis=0)
    dx = dout @ w
    return dx, dw, db
