"""Layer tests: packed kernels against dense references, gradients
against finite differences, scaling-mode algebra."""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnn import arch, autodiff, bittensor, layers, plan, train
from bnn.autodiff import STEConfig, Slot, Tape, sign_backward, sign_forward
from bnn.errors import NumericError, ShapeError
from bnn.layers import (
    AvgPool2d,
    BatchNorm,
    Flatten,
    GlobalAvgPool,
    MaxPool2d,
    QConv2d,
    QDense,
    QLayerConfig,
    col2im,
    compute_scaling_factor,
    concat,
    im2col,
    patch_rows,
    residual_add,
    swap_axes,
    unpack_patches,
)

from conftest import kernel_calls, numpy_kernels, split_in


def conv2d_reference(x, w, stride, padding, pad_value=0.0):
    """Naive direct convolution, float64, for oracle use."""
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    p = padding
    xp = np.full((n, c, h + 2 * p, wd + 2 * p), pad_value, dtype=np.float64)
    xp[:, :, p: p + h, p: p + wd] = x
    oh = (h + 2 * p - kh) // stride + 1
    ow = (wd + 2 * p - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for b in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride: i * stride + kh,
                               j * stride: j * stride + kw]
                    out[b, o, i, j] = (patch * w[o]).sum()
    return out


class TestIm2col:
    def test_reconstructs_conv(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        cols = im2col(x.transpose(0, 2, 3, 1), 3, 3, 2)  # channels-last
        w_flat = w.transpose(0, 2, 3, 1).reshape(4, -1)  # (ki, kj, c) columns
        out = (cols @ w_flat.T).reshape(2, 3, 3, 4).transpose(0, 3, 1, 2)
        ref = conv2d_reference(x, w, stride=2, padding=0)
        np.testing.assert_allclose(out, ref, rtol=1e-5)

    def test_col2im_is_adjoint(self):
        # <im2col(x), g @ w> == <x, col2im(g, w)> for all x, g, w
        rng = np.random.default_rng(1)
        shape = (2, 3, 8, 8)
        x = rng.standard_normal(shape)
        cols = im2col(x.transpose(0, 2, 3, 1), 3, 3, 1)
        g = rng.standard_normal((cols.shape[0], 4))
        w = rng.standard_normal((4, cols.shape[1]))
        lhs = (cols * (g @ w)).sum()
        rhs = (x * col2im(g, w, shape, 3, 3, 1)).sum()
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def col2im_bincount(g_cols, x_shape, kh, kw, stride):
    """Oracle: scatter-add every patch entry to its input position with
    np.bincount, in float64 (columns in (ki, kj, c) order)."""
    n, c, h, w = x_shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    ki, kj, ci = np.meshgrid(
        np.arange(kh), np.arange(kw), np.arange(c), indexing="ij"
    )
    per_patch = (ci * h * w + ki * w + kj).reshape(-1)
    ohi, owi = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    origin = (ohi * stride * w + owi * stride).reshape(-1)
    flat = (np.arange(n)[:, None, None] * (c * h * w)
            + origin[None, :, None] + per_patch[None, None, :]).reshape(-1)
    acc = np.bincount(flat, weights=g_cols.astype(np.float64).ravel(),
                      minlength=n * c * h * w)
    return acc.reshape(x_shape).astype(g_cols.dtype)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5]),
    st.sampled_from([1, 2, 3, 5]),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([1, 3, 64]),
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from([5, 64]),
    st.integers(0, 2 ** 32 - 1),
)
def test_col2im_matches_bincount_and_is_adjoint(kh, kw, stride, c, dh, dw, o, seed):
    rng = np.random.default_rng(seed)
    # odd H and W, at least one kernel tall and wide
    h = kh + 2 * dh + (kh + 1) % 2
    w = kw + 2 * dw + (kw + 1) % 2
    shape = (2, c, h, w)
    x = rng.standard_normal(shape).astype(np.float32)
    cols = im2col(x.transpose(0, 2, 3, 1), kh, kw, stride)
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    assert cols.shape == (2 * oh * ow, kh * kw * c)
    # row (b, i, j), column (ki, kj, ch) holds x[b, ch, i*s + ki, j*s + kj]
    b, i, j = rng.integers(2), rng.integers(oh), rng.integers(ow)
    ki, kj, ch = rng.integers(kh), rng.integers(kw), rng.integers(c)
    assert cols[(b * oh + i) * ow + j, (ki * kw + kj) * c + ch] == \
        x[b, ch, i * stride + ki, j * stride + kj]
    # one nonzero +-2^k per row of g, so every entry of g @ wt is exact
    # whatever order a BLAS sums it in (col2im forms it block by block)
    m = cols.shape[0]
    g = np.zeros((m, o), dtype=np.float32)
    g[np.arange(m), rng.integers(o, size=m)] = (
        rng.choice([-1.0, 1.0], m) * 2.0 ** rng.integers(-3, 4, m))
    wt = rng.standard_normal((o, cols.shape[1])).astype(np.float32)
    y = g @ wt
    back = col2im(g, wt, shape, kh, kw, stride)
    oracle = col2im_bincount(y, shape, kh, kw, stride)
    assert back.dtype == np.float32 and back.flags.c_contiguous
    assert back.tobytes() == oracle.tobytes()  # native kernel, when it builds
    with numpy_kernels():  # the strided slice adds
        assert col2im(g, wt, shape, kh, kw, stride).tobytes() == oracle.tobytes()
    saved, layers._COL2IM_BLOCK_BYTES = layers._COL2IM_BLOCK_BYTES, 1
    try:  # one image per block
        assert col2im(g, wt, shape, kh, kw, stride).tobytes() == oracle.tobytes()
    finally:
        layers._COL2IM_BLOCK_BYTES = saved
    lhs = (cols.astype(np.float64) * y).sum()
    rhs = (x.astype(np.float64) * back).sum()
    assert abs(lhs - rhs) <= 1e-5 * max(1.0, np.abs(cols * y).sum())


class TestQConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_packed_matches_dense_reference(self, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        cfg = QLayerConfig(3, 5, (3, 3), stride, padding)
        layer = QConv2d(cfg, rng=rng)
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
        out = layer.forward(Tape(), Slot(x))
        # oracle: sign both operands, pad the sign image with +1
        xs = np.where(x >= 0, 1.0, -1.0)
        ws = np.where(layer.weight.value >= 0, 1.0, -1.0)
        ref = conv2d_reference(xs, ws, stride, padding, pad_value=1.0)
        assert np.array_equal(out.value, ref.astype(np.float32))

    def test_plus_one_padding_equals_pre_sign_zero_padding(self):
        # padding the raw input with 0 and then taking sign gives +1 pads
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        x0 = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        assert np.array_equal(
            sign_forward(x0)[:, :, 1:-1, 1:-1], sign_forward(x)
        )
        assert np.all(sign_forward(x0)[:, :, 0, :] == 1.0)

    def test_full_precision_mode(self):
        rng = np.random.default_rng(7)
        cfg = QLayerConfig(2, 4, (3, 3), 1, 1, binarize_input=False)
        layer = QConv2d(cfg, binary=False, rng=rng)
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        out = layer.forward(Tape(), Slot(x))
        ref = conv2d_reference(x, layer.weight.value, 1, 1)
        np.testing.assert_allclose(out.value, ref, rtol=1e-4, atol=1e-5)

    def test_weight_grad_respects_ste_band(self):
        rng = np.random.default_rng(11)
        cfg = QLayerConfig(2, 3, (3, 3), 1, 1)
        layer = QConv2d(cfg, ste=STEConfig(t_clip=0.5), rng=rng)
        # push some latent weights outside the band
        layer.weight.value[0] = 0.9
        layer.weight.value[1] = -0.9
        tape = Tape()
        out = layer.forward(tape, Slot(rng.standard_normal((2, 2, 6, 6)).astype(np.float32)))
        loss = Slot(np.array(out.value.sum(), dtype=np.float32))
        tape.record(loss, (out,), lambda g: (np.ones_like(out.value) * g,))
        tape.backward(loss)
        g = layer.weight.grad
        assert np.all(g[np.abs(layer.weight.value) > 0.5] == 0.0)
        assert np.any(g[np.abs(layer.weight.value) <= 0.5] != 0.0)

    @pytest.mark.parametrize("kernel,stride,padding", [
        ((2, 3), 1, 0), ((2, 3), 2, 1), ((3, 1), 1, 1), ((1, 2), 2, 0),
    ])
    def test_non_square_kernel_matches_reference(self, kernel, stride, padding):
        # a transpose over the wrong weight axes would break these
        rng = np.random.default_rng(sum(kernel) * 10 + stride + padding)
        x = rng.standard_normal((2, 3, 7, 8)).astype(np.float32)
        layer = QConv2d(QLayerConfig(3, 5, kernel, stride, padding), rng=rng)
        out = layer.forward(Tape(), Slot(x)).value
        xs = np.where(x >= 0, 1.0, -1.0)
        ws = np.where(layer.weight.value >= 0, 1.0, -1.0)
        ref = conv2d_reference(xs, ws, stride, padding, pad_value=1.0)
        assert np.array_equal(out, ref.astype(np.float32))

        cfg = QLayerConfig(3, 5, kernel, stride, padding, binarize_input=False)
        layer = QConv2d(cfg, binary=False, rng=rng)
        w = layer.weight.value = layer.weight.value.astype(np.float64)
        x = x.astype(np.float64)
        tape = Tape()
        xs = Slot(x)
        out = layer.forward(tape, xs)
        ref = conv2d_reference(x, w, stride, padding)
        np.testing.assert_allclose(out.value, ref, rtol=1e-12, atol=1e-12)
        proj = rng.standard_normal(out.value.shape)
        loss = Slot(np.array((out.value * proj).sum()))
        tape.record(loss, (out,), lambda g: (proj * float(g),))
        tape.backward(loss)
        # d loss / d w and d loss / d x, patch by patch
        kh, kw = kernel
        p = padding
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        g_w = np.zeros_like(w)
        g_xp = np.zeros_like(xp)
        for i in range(proj.shape[2]):
            for j in range(proj.shape[3]):
                r, c = i * stride, j * stride
                win = np.s_[:, :, r: r + kh, c: c + kw]
                g_w += np.einsum("no,nckl->ockl", proj[:, :, i, j], xp[win])
                g_xp[win] += np.einsum("no,ockl->nckl", proj[:, :, i, j], w)
        np.testing.assert_allclose(layer.weight.grad, g_w, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(xs.grad, g_xp[:, :, p: p + 7, p: p + 8],
                                   rtol=1e-12, atol=1e-12)

    def test_channel_mismatch_raises(self):
        layer = QConv2d(QLayerConfig(3, 4, (3, 3)))
        with pytest.raises(ShapeError):
            layer.forward(Tape(), Slot(np.ones((1, 2, 8, 8), dtype=np.float32)))

    def test_binary_init_inside_clip_range(self):
        layer = QConv2d(QLayerConfig(64, 128, (3, 3)), rng=np.random.default_rng(0))
        assert np.all(np.abs(layer.weight.value) <= 1.0)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 3, 7, 8, 9, 13, 64, 65]),
    st.sampled_from([(1, 1), (2, 3), (3, 3), (5, 5)]),
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from(["N", "FB"]),
    st.integers(0, 2 ** 32 - 1),
)
def test_packed_conv_matches_patch_reference(c, kernel, stride, padding, dh, dw,
                                             mode, seed):
    """Channel-packed forward == float conv of the sign operands, exactly,
    for every C % 8; the backward's +-1 patches come from the same bits."""
    rng = np.random.default_rng(seed)
    kh, kw = kernel
    h, w = max(1, kh - 2 * padding) + dh, max(1, kw - 2 * padding) + dw
    x = rng.standard_normal((2, c, h, w)).astype(np.float32)
    x[rng.random(x.shape) < 0.15] = 0.0
    x[rng.random(x.shape) < 0.15] = -0.0  # sign(-0.0) = +1 too
    layer = QConv2d(QLayerConfig(c, 3, kernel, stride, padding, scaling_mode=mode),
                    rng=rng)
    tape = Tape()
    xs = Slot(x)
    out = layer.forward(tape, xs)
    signs = np.where(x >= 0, 1.0, -1.0)
    ws = np.where(layer.weight.value >= 0, 1.0, -1.0)
    ref = conv2d_reference(signs, ws, stride, padding, pad_value=1.0)
    if mode == "FB":
        ref = ref.astype(np.float32) * compute_scaling_factor(layer.weight.value)
    assert out.value.dtype == np.float32
    assert np.array_equal(out.value, ref.astype(np.float32))

    # small integer upstream gradients keep every sum exact in float32
    proj = rng.integers(-3, 4, out.value.shape).astype(np.float32)
    loss = Slot(np.array((out.value * proj).sum(), dtype=np.float32))
    tape.record(loss, (out,), lambda g: (proj * g,))
    tape.backward(loss)
    p = padding
    sp = np.pad(signs, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=1.0)
    g_w = np.zeros_like(ws)
    g_sp = np.zeros_like(sp)
    for i in range(proj.shape[2]):
        for j in range(proj.shape[3]):
            win = np.s_[:, :, i * stride: i * stride + kh, j * stride: j * stride + kw]
            g_w += np.einsum("no,nckl->ockl", proj[:, :, i, j], sp[win])
            g_sp[win] += np.einsum("no,ockl->nckl", proj[:, :, i, j], ws)
    g_s = g_sp[:, :, p: p + h, p: p + w]
    t = layer.ste.t_clip
    if mode == "FB":
        g_w = g_w.astype(np.float32) * compute_scaling_factor(layer.weight.value)
    assert np.array_equal(layer.weight.grad,
                          np.where(np.abs(layer.weight.value) <= t, g_w, 0.0))
    assert np.array_equal(xs.grad, np.where(np.abs(x) <= t, g_s, 0.0))


def channels_last_conv(layer, tape, x, pad_value=0.0):
    """Oracle for a convolution with a float input, as it was computed
    before the pixel-innermost path: channels-last patches, one row per
    output pixel, (N*P, K) @ wb.T and the NHWC result transposed to NCHW;
    backward forms the (N*P, O) gradient matrix, the weight gradient
    g_mat.T @ cols and, always, the input gradient with col2im of the
    padded input, then sliced.  A binary conv is this on the +-1 values
    of an autodiff.sign node, padded with +1 (unfused_binary_conv)."""
    cfg = layer.cfg
    kh, kw = cfg.kernel
    c, o, s, p = cfg.in_channels, cfg.out_channels, cfg.stride, cfg.padding
    xl = np.ascontiguousarray(x.value.transpose(0, 2, 3, 1))
    xl = np.pad(xl, ((0, 0), (p, p), (p, p), (0, 0)), constant_values=pad_value)
    n, hp, wp = xl.shape[:3]
    oh, ow = (hp - kh) // s + 1, (wp - kw) // s + 1
    cols = im2col(xl, kh, kw, s)
    w_flat = layer.weight.value.transpose(0, 2, 3, 1).reshape(o, -1)
    wb = sign_forward(w_flat) if layer.binary else w_flat
    out_mat = cols @ wb.T
    alpha = compute_scaling_factor(layer.weight.value)
    if layer.binary and cfg.scaling_mode == "FB":
        out_mat = out_mat * alpha
    y = out_mat.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)

    def backward_fn(g_y):
        g_mat = np.ascontiguousarray(g_y.transpose(0, 2, 3, 1)).reshape(-1, o)
        g_x = col2im(g_mat, wb, (n, c, hp, wp), kh, kw, s)[:, :, p: hp - p, p: wp - p]
        g_wb = (g_mat.T @ cols).reshape(o, kh, kw, c)
        g_wb = np.ascontiguousarray(g_wb.transpose(0, 3, 1, 2))
        if not layer.binary:
            return g_x, g_wb
        g_w = sign_backward(g_wb, layer.weight.value, layer.ste)
        return g_x, g_w * alpha if cfg.scaling_mode in ("B", "FB") else g_w

    out = Slot(np.ascontiguousarray(y), name=layer.name)
    return tape.record(out, (x, layer.weight), backward_fn)


def unfused_binary_conv(layer, tape, x):
    """Oracle for a conv with binarize_input: a tape-recorded sign with its
    STE backward, then the conv of its +-1 output (exact integer sums)."""
    return channels_last_conv(layer, tape, autodiff.sign(tape, x, layer.ste),
                              pad_value=1.0)


def ste_edge_input(rng, shape, t):
    """Normal values with |x| = t exactly, just above t, +-0.0 and
    subnormals planted at random positions."""
    x = (rng.standard_normal(shape) * t * 2).astype(np.float32)
    t32 = np.float32(t)
    above = np.nextafter(t32, np.float32(np.inf))
    edges = np.array([t32, -t32, above, -above, 0.0, -0.0, 1e-45, -1e-40, 3e-39],
                     dtype=np.float32)
    pick = rng.random(shape) < 0.4
    x[pick] = rng.choice(edges, pick.sum())
    return x


@pytest.mark.parametrize("c", [5, 44])
@pytest.mark.parametrize("padding,stride,k,h,w", [
    (0, 1, 3, 7, 6), (1, 1, 3, 7, 6), (2, 1, 3, 7, 6), (1, 2, 3, 7, 6), (2, 2, 3, 7, 6),
    (1, 1, 1, 1, 1),
], ids=["0-1", "1-1", "2-1", "1-2", "2-2", "one-pixel-1x1"])
@pytest.mark.parametrize("t", [0.5, 1 / 3])
def test_col2im_ste_matches_sign_backward(c, padding, stride, k, h, w, t):
    """col2im with the padding and the STE gives the bytes of slicing the
    padded gradient and applying sign_backward, natively and in numpy.  A
    one-pixel input with a 1x1 kernel (a dense layer's) skips the float64
    accumulator, with the bytes of the padded image's centre."""
    rng = np.random.default_rng(c * 100 + padding * 10 + stride)
    n, o, p = 3, 4, padding
    shape, padded = (n, c, h, w), (n, c, h + 2 * p, w + 2 * p)
    oh, ow = (h + 2 * p - k) // stride + 1, (w + 2 * p - k) // stride + 1
    g = rng.standard_normal((n * oh * ow, o)).astype(np.float32)
    wb = rng.standard_normal((o, k * k * c)).astype(np.float32)
    x = ste_edge_input(rng, shape, t)
    ste = STEConfig(t)
    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels():
            whole = col2im(g, wb, padded, k, k, stride)[:, :, p: p + h, p: p + w]
            assert col2im(g, wb, shape, k, k, stride, p).tobytes() == whole.tobytes()
            got = col2im(g, wb, shape, k, k, stride, p, x, ste)
            assert got.dtype == np.float32 and got.shape == shape
            assert got.tobytes() == sign_backward(whole, x, ste).tobytes()
            if h == w == k == 1:  # the centre's rows alone, unpadded
                centre = g.reshape(n, oh, ow, o)[:, p, p]
                assert col2im(centre, wb, shape, 1, 1, 1).tobytes() == whole.tobytes()
                got = col2im(centre, wb, shape, 1, 1, 1, 0, x, ste)
                assert got.tobytes() == sign_backward(whole, x, ste).tobytes()
            # a float64 input is compared in float64: float32(1/3) > 1/3
            x64 = x.astype(np.float64)
            x64.flat[:3] = [1 / 3, float(np.float32(1 / 3)), -1 / 3]
            got = col2im(g, wb, shape, k, k, stride, p, x64, STEConfig(1 / 3))
            mask = np.abs(x64) <= 1 / 3
            assert got.tobytes() == np.where(mask, whole, 0.0).astype(np.float32).tobytes()
            assert got.flat[1] == 0 != whole.flat[1]


@pytest.mark.parametrize("k,padding", [(3, 1), (1, 0)])
def test_col2im_ste_zeros_the_gradient_at_a_nan_input(k, padding):
    """Where the binary layer's input is NaN, |x| <= t_clip fails, so the
    native store gives sign_backward's 0 there, as its numpy twin does."""
    rng = np.random.default_rng(5)
    shape = (1, 3, 5, 5)
    g = rng.standard_normal((25, 4)).astype(np.float32)
    wb = rng.standard_normal((4, k * k * 3)).astype(np.float32)
    x = rng.uniform(-0.4, 0.4, shape).astype(np.float32)
    x[0, 1, 2, 3] = np.nan
    ste = STEConfig(0.5)
    native = col2im(g, wb, shape, k, k, 1, padding, x, ste)
    with numpy_kernels():
        twin = col2im(g, wb, shape, k, k, 1, padding, x, ste)
    assert native[0, 1, 2, 3] == 0.0 and native.tobytes() == twin.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 20), st.integers(1, 4), st.integers(1, 4), st.integers(1, 2),
       st.integers(0, 2), st.integers(0, 6), st.integers(0, 6), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_patch_rows_match_im2col_of_padded_bits(c, kh, kw, stride, padding, dh, dw, n, seed):
    """The native gather writes the bytes of im2col of the +1-padded sign
    bits, copied into word-padded rows, for every C % 8, stride and pad."""
    rng = np.random.default_rng(seed)
    h, w = max(1, kh - 2 * padding) + dh, max(1, kw - 2 * padding) + dw
    bits = bittensor.pack_signs(rng.standard_normal((n, c, h, w)).astype(np.float32))
    got = patch_rows(bits, kh, kw, stride, padding)
    want = bittensor.from_row_bytes(im2col(layers._pad_bits(bits, padding), kh, kw, stride))
    assert got.shape == want.shape
    assert got.words.dtype == want.words.dtype
    assert got.words.tobytes() == want.words.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0, 1, 3, 5]), st.sampled_from([1, 3, 5, 16]), st.integers(1, 5),
       st.integers(1, 5), st.integers(1, 3), st.integers(0, 2), st.integers(0, 6),
       st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
@example(3, 3, 3, 3, 1, 1, 0, 0, 0)  # one pixel in a padded window
@example(1, 16, 5, 2, 3, 2, 1, 0, 0)  # non-square, stride 3, a one-pixel-wide plane
def test_float_patches_match_im2col_of_the_padded_input(n, c, kh, kw, stride, padding,
                                                        dh, dw, seed):
    """The native float_patches writes every element of its twin, im2col of
    the zero-padded input with pixels innermost (-0.0 kept, +0.0 where a
    window reads padding), into an output filled with NaN beforehand."""
    rng = np.random.default_rng(seed)
    h, w = max(1, kh - 2 * padding) + dh, max(1, kw - 2 * padding) + dw
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    x[x > 1] = -0.0
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    want = im2col(xp.transpose(0, 2, 3, 1), kh, kw, stride, pixels_inner=True)
    got = np.full(want.shape, np.nan, np.float32)
    with kernel_calls():
        bittensor.native_kernels().float_patches(x.ctypes.data, got.ctypes.data, n, c, h, w,
                                                  kh, kw, stride, padding)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 7, 8, 9, 33, 64]), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 3), st.integers(0, 2), st.integers(0, 6), st.integers(0, 6),
       st.sampled_from([0, 1, 3]), st.integers(0, 2 ** 32 - 1))
@example(64, 1, 1, 1, 0, 0, 0, 3, 0)  # one pixel, decoded straight into the rows
@example(9, 3, 3, 2, 1, 0, 0, 3, 0)  # one pixel in a padded window
@example(33, 3, 3, 1, 1, 4, 6, 0, 0)  # no images
def test_unpack_patches_match_im2col_of_unpacked_bits(c, kh, kw, stride, padding, dh, dw,
                                                      n, seed):
    """The native unpack writes the bytes of im2col of the +-1 floats of the
    +1-padded sign bits, for every C % 8, stride and pad, and for n = 0."""
    rng = np.random.default_rng(seed)
    h, w = max(1, kh - 2 * padding) + dh, max(1, kw - 2 * padding) + dw
    bits = bittensor.pack_signs(rng.standard_normal((n, c, h, w)).astype(np.float32))
    signs = bittensor.unpack_signs(layers._pad_bits(bits, padding), c)  # (N, HP, WP, c)
    want = im2col(signs, kh, kw, stride)
    for kernels in (numpy_kernels, kernel_calls):  # the second skips without a compiler
        with kernels() as calls:
            got = unpack_patches(bits, c, kh, kw, stride, padding)
        # one native call per part of the images
        assert calls is None or (set(calls) <= {"unpack_patches"}
                                  and len(calls) <= bittensor.split_parts())
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def in_each_split(run):
    """run()'s bytes with the work split in 1, 2 and 3 parts, the size rules
    off so that small shapes split too; all equal."""
    got = []
    for parts in (1, 2, 3):
        with split_in(parts, size_rules=False):
            got.append([a.tobytes() for a in run()])
    assert got[0] == got[1] == got[2]


split_shapes = dict(n=st.sampled_from([0, 1, 2, 3, 5]), c=st.sampled_from([1, 5, 8, 9, 33]),
                    k=st.sampled_from([1, 3]), stride=st.integers(1, 2),
                    padding=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@given(**split_shapes, images_a_block=st.sampled_from([1, 2, 1000]), ste=st.booleans())
def test_col2im_bytes_do_not_depend_on_the_split(n, c, k, stride, padding, seed,
                                                  images_a_block, ste):
    """col2im splits whole blocks of images among the parts, so every GEMM
    block and float64 sum is the same in any split, natively and in numpy."""
    rng = np.random.default_rng(seed)
    h, w, o = 12, 11, 64
    oh, ow = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    g = rng.standard_normal((n * oh * ow, o)).astype(np.float32)
    wb = rng.standard_normal((o, k * k * c)).astype(np.float32)
    x = rng.standard_normal((n, c, h, w)).astype(np.float32) if ste else None
    saved = layers._COL2IM_BLOCK_BYTES
    layers._COL2IM_BLOCK_BYTES = images_a_block * (h + 2 * padding) * (w + 2 * padding) * c * 8
    try:
        for kernels in (contextlib.nullcontext, numpy_kernels):
            with kernels():
                in_each_split(lambda: [col2im(g, wb, (n, c, h, w), k, k, stride, padding, x,
                                              STEConfig(0.7))])
    finally:
        layers._COL2IM_BLOCK_BYTES = saved


@settings(max_examples=40, deadline=None)
@given(**split_shapes)
def test_unpack_patches_bytes_do_not_depend_on_the_split(n, c, k, stride, padding, seed):
    """The native unpack gives each part its images and its own scratch plane."""
    rng = np.random.default_rng(seed)
    bits = bittensor.pack_signs(rng.standard_normal((n, c, 5, 4)).astype(np.float32))
    with kernel_calls():
        in_each_split(lambda: [unpack_patches(bits, c, k, k, stride, padding)])


@contextlib.contextmanager
def per_offset_weight_grad(nbytes):
    """bits_weight_grad with its byte rule at nbytes, recording the (kh, kw)
    of every unpack_patches call and the (H, W) of the bits it decodes."""
    saved = layers._OFFSET_GRAD_BYTES, layers.unpack_patches
    calls = []

    def recorded(bits, c, kh, kw, stride, padding):
        calls.append((bits.shape[1:3], (kh, kw)))
        return saved[1](bits, c, kh, kw, stride, padding)

    layers._OFFSET_GRAD_BYTES, layers.unpack_patches = nbytes, recorded
    try:
        yield calls
    finally:
        layers._OFFSET_GRAD_BYTES, layers.unpack_patches = saved


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), c=st.sampled_from([1, 7, 8, 9, 33, 64, 176, 368]),
       k=st.integers(1, 5), stride=st.integers(1, 2), padding=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
@example(4, 33, 3, 1, 1, 0)  # per offset: 64 x 33 x 528, just over 100^3 multiply-adds
@example(1, 368, 5, 2, 2, 0)
@example(9, 1, 3, 1, 1, 0)  # one column a GEMM: the whole matrix
def test_per_offset_weight_grad_matches_the_whole_patch_matrix(n, c, k, stride, padding, seed):
    """Forced past its byte rule, bits_weight_grad gives the bytes of the
    GEMM over the whole +-1 patch matrix, natively and in numpy, in 1, 2
    and 3 parts; it runs per offset wherever each offset's GEMM has more
    than one column and over 100^3 multiply-adds."""
    rng = np.random.default_rng(seed)
    h, w, o = 12, 11, 64
    bits = bittensor.pack_signs(rng.standard_normal((n, c, h, w)).astype(np.float32))
    m = n * ((h + 2 * padding - k) // stride + 1) * ((w + 2 * padding - k) // stride + 1)
    g = rng.standard_normal((m, o)).astype(np.float32)
    for kernels, parts in itertools.product((contextlib.nullcontext, numpy_kernels), (1, 2, 3)):
        with kernels(), split_in(parts, size_rules=False):
            want = layers.gemm(g.T, unpack_patches(bits, c, k, k, stride, padding), 1)
            with per_offset_weight_grad(0) as calls:
                got = layers.bits_weight_grad(g, bits, c, k, k, stride, padding)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        per_offset = k > 1 and c > 1 and o * c * m > 100 ** 3
        assert [kk for _, kk in calls] == [(1, 1)] * k * k if per_offset else [(k, k)]


def test_wide_densenet_step_never_builds_a_whole_patch_matrix():
    """A CIFAR densenet:k=64,b=1 step at batch 8 decodes its 32x32 layers'
    +-1 patches one kernel offset at a time, with the bytes of the step
    that builds every whole matrix."""
    grads, large = [], []
    for nbytes in (layers._OFFSET_GRAD_BYTES, float("inf")):
        model = arch.build_model("densenet:k=64,b=1", num_classes=10, seed=0, preset="cifar")
        rng = np.random.default_rng(0)
        with per_offset_weight_grad(nbytes) as calls:
            _train_step(model, rng.standard_normal((8, 3, 32, 32)).astype(np.float32),
                        rng.integers(0, 10, 8))
        grads.append([p.grad.tobytes() for p in model.params()])
        large.append([kk for hw, kk in calls if hw == (32, 32)])
    # the 1x1 transition, then two 3x3 layers: per offset, or whole at an infinite rule
    assert large == [[(1, 1)] * (1 + 2 * 9), [(1, 1), (3, 3), (3, 3)]]
    assert grads[0] == grads[1]


@settings(max_examples=25, deadline=None)
@given(**split_shapes)
def test_binary_conv_backward_bytes_do_not_depend_on_the_split(n, c, k, stride, padding, seed):
    """A whole binary QConv2d backward, the input gradient and the weight
    gradient (whose GEMM splits by columns, large enough here to split),
    gives the same bytes in 1, 2 and 3 parts, natively and in numpy."""
    rng = np.random.default_rng(seed)
    layer = QConv2d(QLayerConfig(c, 64, (k, k), stride, padding), rng=rng)
    x = ste_edge_input(rng, (n, c, 16, 15), 0.5)
    oh, ow = (16 + 2 * padding - k) // stride + 1, (15 + 2 * padding - k) // stride + 1
    g_y = rng.standard_normal((n, 64, oh, ow)).astype(np.float32)
    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels():
            in_each_split(lambda: (lambda y, xs, g_w: (y, xs.grad, g_w))(
                *_step(layer.forward, layer.weight, x, g_y)))


@settings(max_examples=25, deadline=None)
@given(**split_shapes)
def test_binary_conv_forward_splits_by_images_and_rows(n, c, k, stride, padding, seed):
    """The forward's packer and patch gather (by images), its GEMM (by blocks
    of 6 rows, M = n * OH * OW mostly not a multiple of 6) and its output's
    transpose (by images) each run as one kernel call a part, and give the
    same bytes in 1, 2 and 3 parts, for n = 0 and 1 and C % 8 != 0 too; the
    weight is packed in numpy and never transposed."""
    rng = np.random.default_rng(seed)
    layer = QConv2d(QLayerConfig(c, 13, (k, k), stride, padding), rng=rng)
    x = rng.standard_normal((n, c, 9, 8)).astype(np.float32)
    with kernel_calls() as calls:
        in_each_split(lambda: [layer.forward(Tape(), Slot(x)).value])
        calls.clear()
        with split_in(2, size_rules=False):
            y = layer.forward(Tape(), Slot(x)).value
    rows = n * y.shape[2] * y.shape[3]
    want = {"pack_signs": min(n, 2), "gather_patches": min(n, 2),
            "xnor_gemm": min(-(-rows // 6), 2), "transpose": min(n, 2) if rows > n else 0}
    assert {name: calls.count(name) for name in want} == want


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([0, 1, 2, 3]), st.sampled_from([1, 3]), st.integers(1, 2),
       st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_float_conv_bytes_do_not_depend_on_the_split(n, c, stride, padding, seed):
    """The stem's patches (gathered natively in the GEMM's parts), its
    forward GEMM (an image a part, as the batched GEMM runs) and its weight
    gradient (by 32-row units, two of them here from n = 2 on) give the
    same bytes in 1, 2 and 3 parts, natively and in numpy, and the same
    bytes on both routes."""
    rng = np.random.default_rng(seed)
    layer = QConv2d(QLayerConfig(c, 64, (3, 3), stride, padding, binarize_input=False),
                    binary=False, rng=rng)
    x = rng.standard_normal((n, c, 32, 32)).astype(np.float32)
    side = (32 + 2 * padding - 3) // stride + 1
    g_y = rng.standard_normal((n, 64, side, side)).astype(np.float32)

    def run():  # the output, the patches backward reads, the weight gradient
        tape = Tape()
        y = layer.forward(tape, Slot(x, requires_grad=False))
        fn = tape.nodes[-1].backward_fn
        cols = fn.__closure__[fn.__code__.co_freevars.index("cols")].cell_contents
        tape.record(Slot(np.float32(0)), (y,), lambda g: (g_y,))
        tape.backward(tape.nodes[-1].output)
        return [y.value, cols, layer.weight.grad]

    routes = []
    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels():
            in_each_split(run)
            routes.append([a.tobytes() for a in run()])
    assert routes[0] == routes[1]


@pytest.mark.parametrize("n", [1, 3, 8])
def test_dense_input_gradient_bytes_do_not_depend_on_the_split(n):
    """QDense's one-pixel input gradient g_mat @ w splits by 32-column units
    of over 100^3 multiply-adds (two at n = 8), with the same bytes."""
    rng = np.random.default_rng(n)
    layer = QDense(1024, 256, rng=rng)
    x = ste_edge_input(rng, (n, 1024), 0.5)
    g_y = rng.standard_normal((n, 256)).astype(np.float32)
    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels():
            in_each_split(lambda: (lambda y, xs, g_w: (y, xs.grad, g_w))(
                *_step(layer.forward, layer.weight, x, g_y)))


@pytest.mark.parametrize("shape", [(3, 5, 7, 6), (2, 9, 4, 4), (1, 33, 8, 8), (3, 20), (5, 9)])
def test_batchnorm_bytes_do_not_depend_on_the_split(shape):
    """BatchNorm's sums split by channels, its normalize and input gradient
    by images, the latter with the whole batch's m: at 3 parts of
    (3, ...) each part holds one image, whose own count would change m."""
    rng = np.random.default_rng(len(shape))
    x = bn_input(shape, "wide", rng)
    g_y = rng.standard_normal(shape).astype(np.float32)
    gamma = rng.standard_normal(shape[1]).astype(np.float32)

    def run():  # a fresh layer, whose running statistics are updated once
        bn = BatchNorm(shape[1])
        bn.gamma.value = gamma
        tape = Tape()
        xs = Slot(x)
        out = bn.forward(tape, xs)
        tape.record(Slot(np.float32(0)), (out,), lambda g: (g_y,))
        tape.backward(tape.nodes[-1].output)
        return out.value, xs.grad, bn.gamma.grad, bn.beta.grad, bn.running_mean, bn.running_var

    for kernels in (kernel_calls, numpy_kernels):
        with kernels():
            in_each_split(run)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
@example(2, 37, 19, 0)  # both sides off multiples of 16
@example(0, 17, 33, 0)
def test_swap_axes_matches_numpy_transpose(n, a, b, seed):
    """The native tile transpose gives np.ascontiguousarray(transpose)'s
    bytes, full and partial tiles alike; a side of 1 copies nothing."""
    x = np.random.default_rng(seed).standard_normal((n, a, b)).astype(np.float32)
    want = np.ascontiguousarray(x.transpose(0, 2, 1))
    with kernel_calls() as calls:
        got = swap_axes(x)
    assert calls == (["transpose"] if a > 1 and b > 1 else [])
    assert got.flags.c_contiguous and got.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    with kernel_calls():  # by images, n = 0 and 1 included
        in_each_split(lambda: [swap_axes(x)])


@pytest.mark.parametrize("case", ["float64", "strided"])
def test_swap_axes_numpy_cases(case):
    """Non-float32 or non-contiguous input takes the numpy twin."""
    x = np.random.default_rng(4).standard_normal((2, 17, 66))
    x = x if case == "float64" else x.astype(np.float32)[:, :, ::2]
    with kernel_calls() as calls:
        got = swap_axes(x)
    assert calls == []
    assert got.dtype == x.dtype
    assert got.tobytes() == np.ascontiguousarray(x.transpose(0, 2, 1)).tobytes()


@pytest.mark.parametrize("n", [0, 1, 37])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_swap_leading_axes_matches_numpy_transpose(n, dtype):
    """The stem's output gradient as (o, n, p), copied in parts of the
    images, has the bytes of np.ascontiguousarray(g.transpose(1, 0, 2))."""
    g = np.random.default_rng(n).standard_normal((n, 5, 7)).astype(dtype)
    want = np.ascontiguousarray(g.transpose(1, 0, 2))
    got = layers.swap_leading_axes(g)
    assert got.flags.c_contiguous and got.dtype == dtype and got.tobytes() == want.tobytes()
    in_each_split(lambda: [layers.swap_leading_axes(g)])


@pytest.mark.parametrize("n", [0, 1, 37])
@pytest.mark.parametrize("h", [28, 5])
def test_stem_weight_gradient_bytes_do_not_depend_on_the_split(n, h):
    """The LeNet stem's weight gradient copies both GEMM operands in parts
    (swap_leading_axes of the output gradient, swap_axes of the patches) and
    gives, in 1, 2 and 3 parts, natively and in numpy, the bytes of
    np.tensordot's operands and one GEMM, also where those are transposed
    views: one image's patches, and at h = 5 a one-pixel output."""
    rng = np.random.default_rng(n)
    layer = QConv2d(QLayerConfig(1, 32, (5, 5), binarize_input=False), binary=False, rng=rng)
    x = rng.standard_normal((n, 1, h, h)).astype(np.float32)
    p = (h - 4) ** 2
    g_y = rng.standard_normal((n, 32, h - 4, h - 4)).astype(np.float32)
    cols = im2col(x.transpose(0, 2, 3, 1), 5, 5, 1, pixels_inner=True)
    a = g_y.reshape(n, 32, p).transpose(1, 0, 2).reshape(32, n * p)
    b = cols.transpose(0, 2, 1).reshape(n * p, 25)
    want = swap_axes(np.matmul(a, b).reshape(32, 25, 1)).reshape(32, 1, 5, 5)
    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels():
            in_each_split(lambda: [_step(layer.forward, layer.weight, x, g_y, False)[2]])
            assert _step(layer.forward, layer.weight, x, g_y, False)[2].tobytes() == want.tobytes()


def pool_input(rng, n, c, h, w):
    """MaxPool input with ties everywhere (+-0.0 among them), a window of
    NaN and a NaN in another window."""
    x = rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0, 2.0]), size=(n, c, h, w))
    if x.size:
        x[-1, -1, :2, :2] = np.nan
        x[0, 0, -1, -1] = np.nan
    return x


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 1, 2, 3, 5]), st.integers(1, 3), st.integers(4, 11),
       st.integers(4, 11), st.sampled_from([(2, 2), (3, 3), (3, 2)]),
       st.integers(0, 2 ** 32 - 1))
@example(3, 2, 9, 7, (2, 2), 0)  # a cropped odd row and column
def test_maxpool_bytes_do_not_depend_on_the_split(n, c, h, w, ks, seed):
    """MaxPool2d's forward passes and its native backward run in parts of
    the images, one maxpool_grad call a part, and give the same bytes in 1,
    2 and 3 parts, natively and in numpy: with ties, NaN windows, cropped
    rows and columns and no images."""
    k, s = ks
    rng = np.random.default_rng(seed)
    x = pool_input(rng, n, c, h, w)
    g_y = rng.standard_normal((n, c, (h - k) // s + 1, (w - k) // s + 1)).astype(np.float32)

    def run():
        tape = Tape()
        y = MaxPool2d(k, s).forward(tape, Slot(x))
        return [y.value, tape.nodes[-1].backward_fn(g_y)[0]]

    routes = []
    with np.errstate(invalid="ignore"):
        for kernels in (contextlib.nullcontext, numpy_kernels):
            with kernels():
                in_each_split(run)
                routes.append([a.tobytes() for a in run()])
        with kernel_calls() as calls, split_in(2, size_rules=False):
            run()
    assert routes[0] == routes[1]
    assert calls.count("maxpool_grad") == (min(n, 2) if k == s else 0)


def weight_edges(rng, shape, t):
    """Latent weights in [-1, 1] with values at exactly +-t, next to it,
    +-0.0 and +-1."""
    w = rng.uniform(-1, 1, shape).astype(np.float32)
    t32 = np.float32(t)
    edges = np.float32([t32, -t32, np.nextafter(t32, 1), -np.nextafter(t32, 1),
                        np.nextafter(t32, 0), 0.0, -0.0, 1.0, -1.0])
    flat = w.reshape(w.size)
    flat[rng.integers(0, w.size, 40)] = rng.choice(edges, 40)
    return w


@pytest.mark.parametrize("t", [0.5, 0.3])
@pytest.mark.parametrize("shape", [(7, 143), (3, 5, 1, 1), (32, 25)])
def test_weight_sign_passes_match_sign_forward_and_backward(shape, t):
    """The STE of the weights' sign, native in parts of the elements, gives
    sign_backward's bytes in 1, 2 and 3 parts, and in numpy: weights at
    exactly +-t_clip and +-0.0, gradients with NaN, +-inf and -0.0.  An odd
    element count leaves parts of unequal length.  The sign itself is
    pack_signs', decoded (test_decoded_weight_is_sign_forward)."""
    rng = np.random.default_rng(len(shape))
    w = weight_edges(rng, shape, t)
    g = rng.standard_normal(shape).astype(np.float32)
    g.reshape(g.size)[rng.integers(0, g.size, 12)] = np.float32([np.nan, np.inf, -np.inf, -0.0] * 3)
    ste = STEConfig(t)
    want = sign_backward(g, w, ste).tobytes()

    def run():
        return [layers.weight_ste(g, w, ste)]

    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels():
            in_each_split(run)
            got = run()[0]
        assert got.tobytes() == want and got.dtype == np.float32 and got.shape == shape
    with kernel_calls() as calls, split_in(2, size_rules=False):
        run()
    assert calls == ["weight_ste"] * 2


def binary_layers(c, o):
    """A binary layer of each kind, c inputs and o outputs, and an input
    batch for it: convs with a binarized and a float input (3 x 3 kernels,
    whose weight pack_signs packs in numpy, and a 7 x 7 one, natively), and
    dense layers with a binarized and a float input."""
    rng = np.random.default_rng(c + o)
    image = rng.standard_normal((2, c, 8, 8)).astype(np.float32)
    flat = rng.standard_normal((2, c)).astype(np.float32)
    return [(QConv2d(QLayerConfig(c, o, (3, 3), padding=1), rng=rng), image),
            (QConv2d(QLayerConfig(c, o, (7, 7), padding=3), rng=rng), image),
            (QConv2d(QLayerConfig(c, o, (3, 3), binarize_input=False), rng=rng), image),
            (QDense(c, o, rng=rng), flat),
            (QDense(c, o, binarize_input=False, rng=rng), flat)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 5, 8, 9, 13, 20]), st.integers(1, 9), st.sampled_from([1, 3, 5, 7]),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_decoded_weight_is_sign_forward(c, o, k, parts, seed):
    """A binary layer's +-1 weight, decoded from the bytes pack_signs makes
    of it, is sign_forward of the (O, kh*kw*C) weight in im2col's column
    order, bytewise, natively and in numpy, in 1-3 parts: C % 8 != 0, and
    entries at +-0.0 and +-inf (7 x 7 weights are packed natively)."""
    rng = np.random.default_rng(seed)
    layer = QConv2d(QLayerConfig(c, o, (k, k)), rng=rng)
    w = layer.weight.value
    w.reshape(w.size)[rng.integers(0, w.size, 8)] = np.float32([0.0, -0.0, np.inf, -np.inf] * 2)
    want = sign_forward(w.transpose(0, 2, 3, 1).reshape(o, -1)).tobytes()
    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels(), split_in(parts, size_rules=False):
            got = layer._weight_matrix()[1]()
        assert got.dtype == np.float32 and got.tobytes() == want


@pytest.mark.parametrize("at", ["first", "last"])
def test_weight_signs_raise_on_a_nan_weight(at):
    """A NaN latent weight raises sign_forward's NumericError from the
    forward of every kind of binary layer, in every split and natively or
    not, in the first output's weights or only the last's."""
    for layer, x in binary_layers(5, 7):
        w = layer.weight.value
        w.reshape(w.size)[0 if at == "first" else -1] = np.nan
        for kernels in (contextlib.nullcontext, numpy_kernels):
            with kernels():
                for parts in (1, 2, 3):
                    with split_in(parts, size_rules=False), \
                            pytest.raises(NumericError, match=autodiff.NAN_INPUT):
                        layer.forward(Tape(), Slot(x))


def closure_values(fn):
    """The values in fn's closure cells, leaving out those never assigned."""
    out = []
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            out.append(cell.cell_contents)
        except ValueError:  # empty
            pass
    return out


def test_binary_forward_packs_its_weight_once_and_keeps_no_float_weight(monkeypatch):
    """Each binary layer's forward calls pack_signs once on its weight, and
    its backward closure reaches its sign bits but no float32 (O, kh*kw*C)
    matrix: the +-1 weight is decoded where backward reads it."""
    packs, pack_signs = [], bittensor.pack_signs

    def spy(x, *args, **kwargs):
        packs.append(x)
        return pack_signs(x, *args, **kwargs)

    monkeypatch.setattr(bittensor, "pack_signs", spy)
    for layer, x in binary_layers(5, 7):
        packs.clear()
        tape = Tape()
        y = layer.forward(tape, Slot(x))
        w = layer.weight.value
        assert sum(np.shares_memory(a, w) for a in packs) == 1
        seen, todo, arrays = set(), [tape.nodes[-1].backward_fn], []
        while todo:  # what the closure reaches: functions, containers, arrays
            v = todo.pop()
            if id(v) in seen:
                continue
            seen.add(id(v))
            if isinstance(v, np.ndarray):
                arrays.append(v)
            elif isinstance(v, (list, tuple)):
                todo += v
            elif callable(v):
                todo += closure_values(v)
        assert any(a.dtype == np.uint8 for a in arrays)
        assert not [a for a in arrays if a.dtype == np.float32 and a.shape == (7, w[0].size)]
        g_x, g_w = tape.nodes[-1].backward_fn(np.ones_like(y.value))  # it still runs
        assert g_x.shape == x.shape and g_w.shape == w.shape


@pytest.mark.parametrize("c", [5, 44])
@pytest.mark.parametrize("padding,stride", [(0, 1), (1, 1), (2, 1), (1, 2)])
@pytest.mark.parametrize("t,mode", [(0.5, "N"), (1 / 3, "FB")])
def test_binary_conv_matches_unfused_sign(c, padding, stride, t, mode):
    """The binary conv with the STE inside gives the output, input gradient
    and weight gradient of a sign node followed by the conv, bytewise."""
    rng = np.random.default_rng(c + padding + 10 * stride)
    cfg = QLayerConfig(c, 6, (3, 3), stride, padding, scaling_mode=mode)
    layer = QConv2d(cfg, ste=STEConfig(t), rng=rng)
    x = ste_edge_input(rng, (3, c, 7, 6), t)
    oh, ow = (7 + 2 * padding - 3) // stride + 1, (6 + 2 * padding - 3) // stride + 1
    g_y = rng.standard_normal((3, 6, oh, ow)).astype(np.float32)
    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels():
            y, xs, g_w = _step(layer.forward, layer.weight, x, g_y)
            y_ref, xs_ref, g_w_ref = _step(lambda tp, v: unfused_binary_conv(layer, tp, v),
                                           layer.weight, x, g_y)
        assert y.tobytes() == y_ref.tobytes()
        assert xs.grad.tobytes() == xs_ref.grad.tobytes()
        assert g_w.tobytes() == g_w_ref.tobytes()


@pytest.mark.parametrize("t,mode", [(0.5, "N"), (1 / 3, "FB")])
def test_binary_dense_matches_unfused_sign(t, mode):
    """The binary dense layer, a 1x1 conv over (N, F, 1, 1), gives the
    bytes of a sign node followed by a float matmul of the +-1 values, at
    F with and without pad bits and at LeNet's width, natively and in numpy."""
    for f, n in itertools.product((5, 44, 1024), (1, 5, 300)):
        rng = np.random.default_rng(f + n)
        layer = QDense(f, 6, scaling_mode=mode, ste=STEConfig(t), rng=rng)
        twin = QDense(f, 6, scaling_mode=mode, binarize_input=False, ste=layer.ste)
        twin.weight = layer.weight
        x = ste_edge_input(rng, (n, f), t)
        g_y = rng.standard_normal((n, 6)).astype(np.float32)
        for kernels in (contextlib.nullcontext, numpy_kernels):
            with kernels():
                y, xs, g_w = _step(layer.forward, layer.weight, x, g_y)
                y_ref, xs_ref, g_w_ref = _step(
                    lambda tp, v: twin.forward(tp, autodiff.sign(tp, v, layer.ste)),
                    layer.weight, x, g_y)
            assert y.shape == (n, 6) and xs.grad.shape == (n, f)
            assert y.tobytes() == y_ref.tobytes()
            assert xs.grad.tobytes() == xs_ref.grad.tobytes()
            assert g_w.tobytes() == g_w_ref.tobytes()


@pytest.mark.parametrize("layer,shape", [
    (QConv2d(QLayerConfig(5, 4, (3, 3), padding=1)), (2, 5, 6, 6)),
    (QDense(12, 4), (2, 12)),
], ids=["conv", "dense"])
def test_nan_binary_input_raises(layer, shape):
    x = np.ones(shape, dtype=np.float32)
    x.flat[7] = np.nan
    tape = Tape()
    with pytest.raises(NumericError, match="^sign_forward received NaN input$"):
        layer.forward(tape, Slot(x))
    assert tape.nodes == []


def _step(forward, weight, x, g_y, requires_grad=True):
    """One forward and backward with upstream gradient g_y; returns the
    output, the input slot and the weight gradient."""
    tape = Tape()
    xs = Slot(x, requires_grad=requires_grad)
    out = forward(tape, xs)
    loss = Slot(np.array(0.0, dtype=np.float32))
    tape.record(loss, (out,), lambda g: (g_y,))
    tape.backward(loss)
    return out.value, xs, weight.grad.copy()


@pytest.mark.parametrize("shape,o,kernel,stride,padding,binary,mode", [
    ((8, 1, 28, 28), 32, (5, 5), 1, 0, False, "N"),
    ((4, 3, 32, 32), 32, (3, 3), 1, 1, False, "N"),
    ((2, 3, 45, 45), 16, (7, 7), 2, 3, False, "N"),
    ((3, 3, 13, 11), 8, (3, 3), 2, 1, False, "N"),
    ((4, 3, 32, 32), 32, (3, 3), 1, 1, True, "N"),
    ((3, 3, 13, 11), 8, (3, 3), 2, 1, True, "FB"),
], ids=["lenet-stem", "cifar-stem", "imagenet-stem", "odd-hw-stride-2",
        "binary-weights", "binary-weights-fb"])
def test_float_input_conv_matches_channels_last_oracle(shape, o, kernel, stride,
                                                       padding, binary, mode):
    """The pixel-innermost float path gives the same bytes as the
    channels-last one: output, weight gradient and input gradient."""
    rng = np.random.default_rng(shape[0] * 100 + o)
    cfg = QLayerConfig(shape[1], o, kernel, stride, padding, scaling_mode=mode,
                       binarize_input=False)
    layer = QConv2d(cfg, binary=binary, rng=rng)
    x = rng.standard_normal(shape).astype(np.float32)
    out_shape = (shape[0], o) + tuple((d + 2 * padding - k) // stride + 1
                                      for d, k in zip(shape[2:], kernel))
    g_y = rng.standard_normal(out_shape).astype(np.float32)
    y, xs, g_w = _step(layer.forward, layer.weight, x, g_y)
    y_ref, xs_ref, g_w_ref = _step(lambda t, v: channels_last_conv(layer, t, v),
                                   layer.weight, x, g_y)
    assert y.dtype == np.float32 and y.shape == out_shape and y.flags.c_contiguous
    assert y.tobytes() == y_ref.tobytes()
    assert g_w.tobytes() == g_w_ref.tobytes()
    assert xs.grad.tobytes() == xs_ref.grad.tobytes()
    # an input that needs no gradient gets none; the weight gradient holds
    y, xs, g_w = _step(layer.forward, layer.weight, x, g_y, requires_grad=False)
    assert xs.grad is None
    assert y.tobytes() == y_ref.tobytes() and g_w.tobytes() == g_w_ref.tobytes()


def _train_step(model, x, labels):
    tape = Tape()
    logits = model.forward(x, tape=tape, training=True)
    tape.backward(train.softmax_cross_entropy(tape, logits, labels))
    return tape


def _counting_col2im(monkeypatch):
    calls = []
    orig = layers.col2im

    def counted(g_mat, w, x_shape, *args):
        calls.append(x_shape)
        return orig(g_mat, w, x_shape, *args)

    monkeypatch.setattr(layers, "col2im", counted)
    return calls


@pytest.mark.parametrize("spec", ["lenet", "densenet:k=16,b=2"])
def test_tape_stops_at_the_image(spec, monkeypatch):
    """A training step computes no gradient for the image batch: col2im
    runs once per binary conv and never for the float stem, and every
    parameter gradient is the one the channels-last stem gives.  The
    binary layers apply sign's STE themselves: no sign node is recorded."""
    model = arch.build_model(spec, num_classes=10, seed=3, preset="cifar")
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4,) + model.input_shape).astype(np.float32)
    labels = rng.integers(0, 10, 4)
    calls = _counting_col2im(monkeypatch)
    tape = _train_step(model, x, labels)
    monkeypatch.undo()
    assert not [n for n in tape.nodes if n.output.name.startswith("sign(")]
    images = {id(s): s for node in tape.nodes for s in node.inputs if s.name == "input"}
    assert len(images) == 1
    assert next(iter(images.values())).grad is None
    stem = model.layers()[0]
    assert isinstance(stem, QConv2d) and not stem.binary
    binary_convs = [l for l in model.layers() if isinstance(l, QConv2d) and l.binary]
    assert len(calls) == len(binary_convs)
    assert all(c != stem.cfg.in_channels for _, c, _, _ in calls)

    reference = arch.build_model(spec, num_classes=10, seed=3, preset="cifar")
    ref_stem = reference.layers()[0]
    ref_stem.forward = lambda tape, x, training=True: channels_last_conv(ref_stem, tape, x)
    _train_step(reference, x, labels)
    for p, q in zip(model.params(), reference.params()):
        assert p.name == q.name and p.grad.tobytes() == q.grad.tobytes()


def test_inner_float_conv_keeps_its_input_gradient(monkeypatch):
    """In lenet-fp only the stem's input is the image: the inner float
    conv still routes its gradient to its input, patch by patch."""
    model = arch.build_lenet(binary=False, seed=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 1, 28, 28)).astype(np.float32)
    calls = _counting_col2im(monkeypatch)
    tape = Tape()
    loss = train.softmax_cross_entropy(tape, model.forward(x, tape=tape, training=True),
                                       rng.integers(0, 10, 4))
    node = next(n for n in tape.nodes if n.output.name == "conv1")
    tape.backward(loss, keep=(node.output, node.inputs[0]))  # the tape frees the rest
    monkeypatch.undo()
    conv = next(l for l in model.layers() if l.name == "conv1")
    assert calls == [node.inputs[0].value.shape]
    g_y = node.output.grad.astype(np.float64)
    w = conv.weight.value.astype(np.float64)
    kh, kw = conv.cfg.kernel
    g_x = np.zeros(node.inputs[0].value.shape)
    for i in range(g_y.shape[2]):
        for j in range(g_y.shape[3]):
            g_x[:, :, i: i + kh, j: j + kw] += np.einsum("no,ockl->nckl", g_y[:, :, i, j], w)
    np.testing.assert_allclose(node.inputs[0].grad, g_x, rtol=1e-5,
                               atol=1e-6 * np.abs(g_x).max())


class TestQDense:
    def test_packed_matches_float(self):
        rng = np.random.default_rng(2)
        layer = QDense(37, 8, rng=rng)
        x = rng.standard_normal((5, 37)).astype(np.float32)
        out = layer.forward(Tape(), Slot(x))
        xs = np.where(x >= 0, 1.0, -1.0)
        ws = np.where(layer.weight.value >= 0, 1.0, -1.0)
        assert np.array_equal(out.value, (xs @ ws.T).astype(np.float32))

    def test_bias_applied(self):
        rng = np.random.default_rng(3)
        layer = QDense(6, 4, binary=False, binarize_input=False, bias=True,
                       rng=rng)
        layer.bias.value[:] = [1, 2, 3, 4]
        x = np.zeros((2, 6), dtype=np.float32)
        out = layer.forward(Tape(), Slot(x))
        np.testing.assert_allclose(out.value, [[1, 2, 3, 4]] * 2)

    def test_constructor_errors(self):
        # a binarized input is multiplied with sign weights only
        for make in (lambda: QConv2d(QLayerConfig(3, 4), binary=False),
                     lambda: QDense(6, 4, binary=False)):
            with pytest.raises(ValueError, match="binarize_input needs binary weights"):
                make()
        # a bias belongs to the float classifier head
        with pytest.raises(ValueError, match="a bias needs binarize_input=False"):
            QDense(6, 4, bias=True)

    def test_shape_check(self):
        layer = QDense(6, 4)
        with pytest.raises(ShapeError):
            layer.forward(Tape(), Slot(np.ones((2, 7), dtype=np.float32)))


class TestScalingModes:
    def _forward(self, mode, seed=0):
        rng = np.random.default_rng(seed)
        layer = QDense(20, 6, scaling_mode=mode, rng=rng)
        x = rng.standard_normal((4, 20)).astype(np.float32)
        tape = Tape()
        out = layer.forward(tape, Slot(x))
        loss = Slot(np.array(out.value.sum(), dtype=np.float32))
        tape.record(loss, (out,), lambda g: (np.ones_like(out.value) * g,))
        tape.backward(loss)
        return layer, out.value.copy(), layer.weight.grad.copy()

    def test_fb_forward_is_scaled_n_forward(self):
        layer_n, out_n, _ = self._forward("N")
        _, out_fb, _ = self._forward("FB")
        alpha = compute_scaling_factor(layer_n.weight.value)
        np.testing.assert_allclose(out_fb, out_n * alpha, rtol=1e-6)

    def test_b_forward_unscaled(self):
        _, out_n, _ = self._forward("N")
        _, out_b, _ = self._forward("B")
        assert np.array_equal(out_b, out_n)

    def test_b_and_fb_weight_grad_scaled(self):
        layer_n, _, g_n = self._forward("N")
        alpha = compute_scaling_factor(layer_n.weight.value)
        for mode in ("B", "FB"):
            _, _, g = self._forward(mode)
            np.testing.assert_allclose(g, g_n * alpha, rtol=1e-6)

    @pytest.mark.parametrize("kind", ["conv", "dense", "float-input-conv", "float-dense"])
    def test_b_and_fb_weight_grads_are_the_n_grads_times_alpha(self, kind):
        """In B and FB the weight gradient is mode N's times alpha = mean|w|,
        as float32 bytes, whether the forward or the backward computes it."""
        grads = {}
        for mode in ("N", "B", "FB"):
            rng = np.random.default_rng(3)
            if kind in ("dense", "float-dense"):
                layer = QDense(20, 6, scaling_mode=mode, binarize_input=kind == "dense",
                               rng=rng)
                x = rng.standard_normal((4, 20)).astype(np.float32)
            else:
                cfg = QLayerConfig(3, 8, (3, 3), 1, 1, scaling_mode=mode,
                                   binarize_input=kind == "conv")
                layer = QConv2d(cfg, rng=rng)
                x = rng.standard_normal((4, 3, 6, 5)).astype(np.float32)
            y = layer.forward(Tape(), Slot(x)).value
            g_y = rng.standard_normal(y.shape).astype(np.float32)
            grads[mode] = _step(layer.forward, layer.weight, x, g_y)[2]
        alpha = compute_scaling_factor(layer.weight.value)
        want = (grads["N"] * alpha).tobytes()
        assert grads["B"].tobytes() == grads["FB"].tobytes() == want

    def test_scaling_factor_is_computed_only_where_read(self, monkeypatch):
        """alpha is computed only where a mode reads it: a B-mode eval
        forward and a B plan build compute none (B scales only the weight
        gradient), and a training step in B or FB computes it once per
        binary layer (FB's backward reuses its forward's)."""
        calls = []
        count = layers.compute_scaling_factor
        monkeypatch.setattr(layers, "compute_scaling_factor", lambda w: calls.append(1) or count(w))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 1, 28, 28)).astype(np.float32)
        for mode in ("B", "FB"):
            model = arch.build_model("lenet", num_classes=10, seed=0, scaling_mode=mode)
            binary = sum(getattr(layer, "binary", False) for layer in model.layers())
            assert binary == 2  # qconv0 and qdense0
            done = {}
            for name, run in (("eval", lambda: model.forward(x, training=False)),
                              ("plan", lambda: plan.InferencePlan(model)),
                              ("step", lambda: _train_step(model, x, rng.integers(0, 10, 3)))):
                calls.clear()
                run()
                done[name] = len(calls)
            assert done == ({"eval": 0, "plan": 0, "step": binary} if mode == "B"
                            else {"eval": binary, "plan": binary, "step": binary})

    def test_activation_grad_never_scaled(self):
        grads = {}
        for mode in ("N", "B", "FB"):
            rng = np.random.default_rng(4)
            layer = QDense(12, 5, scaling_mode=mode, binarize_input=False,
                           rng=rng)
            x = Slot(rng.standard_normal((3, 12)).astype(np.float32))
            tape = Tape()
            out = layer.forward(tape, x)
            loss = Slot(np.array(out.value.sum(), dtype=np.float32))
            tape.record(loss, (out,), lambda g, o=out: (np.ones_like(o.value) * g,))
            tape.backward(loss)
            grads[mode] = x.grad.copy()
        assert np.array_equal(grads["N"], grads["B"])
        assert np.array_equal(grads["N"], grads["FB"])

    def test_scaling_factor_is_mean_abs(self):
        w = np.array([[1.0, -3.0], [0.0, 2.0]])
        assert compute_scaling_factor(w) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            compute_scaling_factor(np.zeros((0, 3)))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            QLayerConfig(2, 2, scaling_mode="X")
        with pytest.raises(ValueError):
            QDense(2, 2, scaling_mode="fb")


class TestBatchNorm:
    def test_normalizes_in_training(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm(4)
        x = (rng.standard_normal((8, 4, 5, 5)) * 3 + 7).astype(np.float32)
        out = bn.forward(Tape(), Slot(x), training=True)
        m = out.value.mean(axis=(0, 2, 3))
        s = out.value.std(axis=(0, 2, 3))
        np.testing.assert_allclose(m, 0.0, atol=1e-5)
        np.testing.assert_allclose(s, 1.0, atol=1e-3)

    def test_running_stats_track_batches(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm(2, momentum=0.0)  # momentum 0: adopt batch stats
        x = (rng.standard_normal((16, 2, 4, 4)) * 2 + 5).astype(np.float32)
        bn.forward(Tape(), Slot(x), training=True)
        np.testing.assert_allclose(bn.running_mean, x.mean(axis=(0, 2, 3)),
                                   rtol=1e-5)
        out = bn.forward(Tape(), Slot(x), training=False)
        np.testing.assert_allclose(out.value.mean(axis=(0, 2, 3)), 0.0,
                                   atol=1e-5)

    def test_eval_does_not_touch_running_stats(self):
        bn = BatchNorm(3)
        before = bn.running_mean.copy()
        bn.forward(Tape(), Slot(np.random.default_rng(2).standard_normal(
            (4, 3, 2, 2)).astype(np.float32)), training=False)
        assert np.array_equal(bn.running_mean, before)

    def test_2d_input(self):
        rng = np.random.default_rng(3)
        bn = BatchNorm(6)
        out = bn.forward(Tape(), Slot(rng.standard_normal((32, 6)).astype(np.float32)))
        np.testing.assert_allclose(out.value.mean(axis=0), 0.0, atol=1e-5)

    def test_bad_ndim(self):
        with pytest.raises(ShapeError):
            BatchNorm(3).forward(Tape(), Slot(np.ones((2, 3, 4), dtype=np.float32)))

    @pytest.mark.parametrize("shape", [(0, 3, 4, 4), (0, 3), (2, 3, 0, 4)])
    def test_training_on_no_values_raises_and_keeps_running_stats(self, shape):
        bn = BatchNorm(3, name="bn7")
        bn.running_mean[:], bn.running_var[:] = [1, 2, 3], [4, 5, 6]
        before = bn.running_mean.tobytes(), bn.running_var.tobytes()
        with pytest.raises(ShapeError, match="bn7"):
            bn.forward(Tape(), Slot(np.zeros(shape, np.float32)), training=True)
        assert (bn.running_mean.tobytes(), bn.running_var.tobytes()) == before

    def test_lenet_training_forward_on_no_images_names_the_batchnorm(self):
        g = arch.build_model("lenet")
        stats = [b.tobytes() for layer in g.layers() for b in layer.buffers().values()]
        with pytest.raises(ShapeError, match="bn0"):
            g.forward(np.zeros((0, 1, 28, 28), np.float32), training=True)
        assert stats == [b.tobytes() for layer in g.layers() for b in layer.buffers().values()]


def bn_eval_oracle(bn, v):
    """BatchNorm's eval forward as numpy broadcasting over the running
    statistics, cast to the input's dtype: the expression it ran before it
    called bn_normalize."""
    shape = (1, -1) + (1,) * (v.ndim - 2)
    inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
    xhat = (v - bn.running_mean.reshape(shape)) * inv_std.reshape(shape)
    y = bn.gamma.value.reshape(shape) * xhat + bn.beta.value.reshape(shape)
    return y.astype(v.dtype)


@pytest.mark.parametrize("shape", [(5, 6), (3, 6, 4, 5), (2, 6, 1, 1), (0, 6), (0, 6, 4, 5)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_eval_gives_the_bytes_of_its_old_expression(shape, dtype):
    """The eval forward, native, numpy and in 1, 2 and 3 parts, gives the
    old expression's bytes, on no tape: NaN, +-inf and +-3e38 inputs, a
    batch of no images, and channels with gamma = 0 or running_var = 0."""
    rng = np.random.default_rng(len(shape))
    bn = BatchNorm(6)
    bn.gamma.value[:] = rng.standard_normal(6)
    bn.gamma.value[0] = 0.0
    bn.beta.value[:] = rng.standard_normal(6)
    bn.running_mean[:] = rng.standard_normal(6)
    bn.running_var[:] = rng.random(6) * 2
    bn.running_var[1] = 0.0
    x = (rng.standard_normal(shape) * 3).astype(dtype)
    if x.size:  # each special value on several channels, gamma = 0 among them
        rest = (0,) * (x.ndim - 2)
        specials = [np.nan, np.inf, -np.inf, 3e38, -3e38]
        x[(0, slice(0, 5)) + rest] = specials
        x[(-1, slice(1, 6)) + rest] = specials[::-1]
    with np.errstate(all="ignore"):
        want = bn_eval_oracle(bn, x).tobytes()
    for kernels in (contextlib.nullcontext, numpy_kernels):
        for parts in (1, 2, 3):
            tape = Tape()
            with kernels(), split_in(parts, size_rules=False), np.errstate(all="ignore"):
                y = bn.forward(tape, Slot(x), training=False).value
            assert (y.dtype, y.shape) == (dtype, shape)
            assert y.tobytes() == want
            assert tape.nodes == []


def bn_train_step(x, g_y, gamma, beta):
    """A fresh BatchNorm's training forward and backward: the bytes of y,
    g_x, g_gamma, g_beta and the running mean and variance."""
    bn = BatchNorm(x.shape[1])
    bn.gamma.value[:], bn.beta.value[:] = gamma, beta
    tape = Tape()
    y = bn.forward(tape, Slot(x), training=True)
    g_x, g_gamma, g_beta = tape.nodes[0].backward_fn(g_y)
    assert y.value.dtype == g_x.dtype == np.float32
    assert g_gamma.dtype == g_beta.dtype == np.float32
    return [a.tobytes() for a in (y.value, g_x, g_gamma, g_beta,
                                  bn.running_mean, bn.running_var)]


def bn_input(shape, case, rng):
    x = (rng.standard_normal(shape) * 3 + 2).astype(np.float32)
    if case == "constant":  # variance 0
        x[:, 0] = 1.25
    elif case == "nonfinite":
        x.reshape(-1)[:3] = [np.nan, np.inf, -np.inf]
        x.reshape(-1)[-1] = np.inf
    elif case == "wide":  # magnitudes 2^-20 .. 2^20, so the float64 sums round
        x *= 2.0 ** rng.integers(-20, 21, shape)
    return x


@pytest.mark.parametrize("shape", [(4, 3, 5, 5), (3, 2, 7, 6), (100, 1024), (5, 1, 7, 6),
                                   (1, 4, 5, 5), (6, 1), (1, 9), (2, 3, 16, 16)])
@pytest.mark.parametrize("case", ["normal", "constant", "gamma0", "nonfinite", "wide"])
def test_batchnorm_native_matches_twin(shape, case):
    """The native BatchNorm kernels and their numpy twin give the same
    bytes, H*W % 8 != 0, a single channel or image, var = 0, gamma = 0
    and NaN / +-inf inputs included."""
    rng = np.random.default_rng(len(shape) * 31 + shape[0])
    x = bn_input(shape, case, rng)
    g_y = rng.standard_normal(shape).astype(np.float32)
    gamma = rng.standard_normal(shape[1]).astype(np.float32)
    if case == "gamma0":
        gamma[0] = 0.0
    beta = rng.standard_normal(shape[1]).astype(np.float32)
    runs = []
    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels(), np.errstate(invalid="ignore"):
            runs.append(bn_train_step(x, g_y, gamma, beta))
    assert runs[0] == runs[1]


def lane_sums_oracle(terms, width=8):
    """float64 lanes of (n, c, hw) terms in Python floats, (c, width):
    element q of each image added to lane q % width, image after image."""
    n, c, hw = terms.shape
    lanes = np.zeros((c, width))
    for ch in range(c):
        acc = [0.0] * width
        for i in range(n):
            for q in range(hw):
                acc[q % width] += float(terms[i, ch, q])
        lanes[ch] = acc
    return lanes


def combine_lanes(lanes):
    l0, l1, l2, l3, l4, l5, l6, l7 = lanes.T
    return ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))


@pytest.mark.parametrize("shape", [(3, 4, 13), (4, 3, 20), (5, 3, 1), (1, 1, 20),
                                   (4, 2, 8), (7, 1, 1), (40, 3, 1), (40, 1, 1)])
def test_batchnorm_sums_match_loop_oracle(shape, monkeypatch):
    """bn_sums, bn_normalize and bn_grad_input, native and numpy, against
    Python loops: this pins numpy's reduce order on every numpy version.
    The numpy sums also run in small channel blocks (3 channels at
    (3, 4, 13), so its last block holds one)."""
    rng = np.random.default_rng(shape[2])
    x = bn_input(shape, "wide", rng)
    g = bn_input(shape, "wide", rng)
    n, c, hw = shape
    m = n * hw
    terms = [x.astype(np.float64)]
    s0 = combine_lanes(lane_sums_oracle(terms[0]))
    mean64 = s0 / m
    terms.append(np.square(x - mean64[:, None]))
    s1 = combine_lanes(lane_sums_oracle(terms[1]))
    mean = mean64.astype(np.float32)
    inv_std = (1.0 / np.sqrt(s1 / m + 1e-5)).astype(np.float32)
    gamma, beta = rng.standard_normal((2, c)).astype(np.float32)
    # one float32 operation at a time, elementwise
    xhat = np.empty_like(x)
    y = np.empty_like(x)
    for idx in np.ndindex(*shape):
        ch = idx[1]
        xhat[idx] = np.float32(x[idx] - mean[ch]) * inv_std[ch]
        y[idx] = np.float32(gamma[ch] * xhat[idx]) + beta[ch]
    terms += [g.astype(np.float64), g.astype(np.float64) * xhat]
    sg, sgx = (combine_lanes(lane_sums_oracle(t)) for t in terms[2:])
    if hw > 8 and c > 2:  # the data tells the lane order from others
        for t, want in zip(terms, (s0, s1, sg, sgx)):
            lanes = lane_sums_oracle(t)
            left_to_right = np.add.accumulate(lanes, axis=1)[:, -1]
            one_lane = lane_sums_oracle(t, 1)[:, 0]
            assert (want != left_to_right).any() and (want != one_lane).any()
    k = (gamma * inv_std.astype(np.float64) / m).astype(np.float32)
    sg32, sgx32 = sg.astype(np.float32), sgx.astype(np.float32)
    gx = np.empty_like(x)
    for idx in np.ndindex(*shape):
        ch = idx[1]
        t = np.float32(np.float32(np.float32(m) * g[idx]) - sg32[ch])
        gx[idx] = k[ch] * np.float32(t - np.float32(xhat[idx] * sgx32[ch]))
    for kernels, block in ((contextlib.nullcontext, layers._LANE_BLOCK),
                           (numpy_kernels, layers._LANE_BLOCK), (numpy_kernels, 150)):
        monkeypatch.setattr(layers, "_LANE_BLOCK", block)
        with kernels():
            got = layers.bn_sums(x)
            assert got[0].tobytes() == s0.tobytes() and got[1].tobytes() == s1.tobytes()
            got = layers.bn_sums(x, g, mean, inv_std)
            assert got[0].tobytes() == sg.tobytes() and got[1].tobytes() == sgx.tobytes()
            got = layers.bn_normalize(x, mean, inv_std, gamma, beta)
            assert got.tobytes() == y.tobytes()
            got = layers.bn_grad_input(x, g, mean, inv_std, k, sg32, sgx32)
            assert got.tobytes() == gx.tobytes()


@pytest.mark.parametrize("shape", [(4, 3, 3, 5), (6, 4)])
def test_batchnorm_training_finite_differences(shape):
    """The training gradients of x, gamma and beta (float64, the numpy
    path) against central differences; float32 (the native path, when
    it builds) agrees with them."""
    rng = np.random.default_rng(7)
    bn = BatchNorm(shape[1])
    bn.gamma.value = rng.standard_normal(shape[1])
    bn.beta.value = rng.standard_normal(shape[1])
    x = Slot(rng.standard_normal(shape) * 2 + 1)
    proj = rng.standard_normal(shape)

    def loss_fn():
        tape = Tape()
        h = bn.forward(tape, x, training=True)
        loss = Slot(np.array((h.value * proj).sum()))
        tape.record(loss, (h,), lambda g: (proj * float(g),))
        return tape, loss

    assert finite_difference_check([x, bn.gamma, bn.beta], loss_fn, eps=1e-5,
                                   samples=12) <= 1e-5
    grads = [x.grad, bn.gamma.grad, bn.beta.grad]
    got = bn_train_step(x.value.astype(np.float32), proj.astype(np.float32),
                        bn.gamma.value, bn.beta.value)
    for raw, want in zip(got[1:4], grads):
        np.testing.assert_allclose(np.frombuffer(raw, np.float32).reshape(want.shape),
                                   want, rtol=2e-3, atol=2e-3)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(Tape(), Slot(x))
        assert np.array_equal(out.value[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        tape = Tape()
        xs = Slot(x)
        out = MaxPool2d(2).forward(tape, xs)
        loss = Slot(np.array(out.value.sum(), dtype=np.float32))
        tape.record(loss, (out,), lambda g: (np.ones_like(out.value) * g,))
        tape.backward(loss)
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        assert np.array_equal(xs.grad[0, 0], expected)

    def test_maxpool_overlapping_stride(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
        out = MaxPool2d(3, 2).forward(Tape(), Slot(x))
        assert out.value.shape == (2, 3, 3, 3)
        assert out.value[0, 0, 0, 0] == x[0, 0, :3, :3].max()

    @staticmethod
    def _pool_grad(x, kernel=2, stride=None):
        """Input gradient of sum(MaxPool2d(x))."""
        tape = Tape()
        xs = Slot(x)
        out = MaxPool2d(kernel, stride).forward(tape, xs)
        loss = Slot(np.array(out.value.sum(), dtype=np.float32))
        tape.record(loss, (out,), lambda g: (np.ones_like(out.value) * g,))
        tape.backward(loss)
        return xs.grad[0, 0]

    def test_maxpool_ties_route_to_first_maximum(self):
        # constant window: all four tie, the first in row-major order wins
        x = np.full((1, 1, 2, 2), 2.0, dtype=np.float32)
        assert np.array_equal(self._pool_grad(x), [[1, 0], [0, 0]])
        # [[3, 3], [1, 3]]: three-way tie at 3 goes to the top-left one
        x = np.array([[[[3, 3], [1, 3]]]], dtype=np.float32)
        assert np.array_equal(self._pool_grad(x), [[1, 0], [0, 0]])

    @pytest.mark.parametrize("kernel,stride,h,w", [
        (2, 2, 8, 8), (3, 2, 9, 9), (2, 2, 7, 9), (3, 2, 8, 10), (2, 2, 5, 4),
    ])
    def test_maxpool_equals_window_max(self, kernel, stride, h, w):
        rng = np.random.default_rng(kernel * 100 + h * 10 + w)
        x = rng.standard_normal((2, 3, h, w)).astype(np.float32)
        out = MaxPool2d(kernel, stride).forward(Tape(), Slot(x)).value
        oh = (h - kernel) // stride + 1
        ow = (w - kernel) // stride + 1
        expected = np.empty((2, 3, oh, ow), dtype=np.float32)
        for i in range(oh):
            for j in range(ow):
                r, c = i * stride, j * stride
                expected[:, :, i, j] = x[:, :, r: r + kernel, c: c + kernel].max(axis=(2, 3))
        assert out.dtype == x.dtype
        assert np.array_equal(out, expected)

    @staticmethod
    def _argmax_routing(x, g_y, k, s):
        """Oracle: route each output gradient to its window's argmax (the
        first maximum in row-major order), summed with np.bincount."""
        n, c, h, w = x.shape
        oh, ow = g_y.shape[2:]
        sn, sc, sh, sw = x.strides
        view = np.lib.stride_tricks.as_strided(
            x, (n, c, oh, ow, k, k), (sn, sc, sh * s, sw * s, sh, sw)
        ).reshape(n, c, oh, ow, k * k)
        ki, kj = np.divmod(view.argmax(axis=-1), k)
        rows = np.arange(oh)[:, None] * s + ki
        cols = np.arange(ow)[None, :] * s + kj
        base = (np.arange(n)[:, None, None, None] * c
                + np.arange(c)[None, :, None, None]) * (h * w)
        acc = np.bincount((base + rows * w + cols).ravel(),
                          weights=g_y.astype(np.float64).ravel(),
                          minlength=n * c * h * w)
        return acc.reshape(x.shape).astype(g_y.dtype)

    @staticmethod
    def _pool_backward(x, g_y, k, s):
        tape = Tape()
        xs = Slot(x)
        out = MaxPool2d(k, s).forward(tape, xs)
        loss = Slot(np.array(0.0, dtype=np.float32))
        tape.record(loss, (out,), lambda g: (g_y,))
        tape.backward(loss)
        return xs.grad

    @pytest.mark.parametrize("k,s,h,w", [
        (2, 2, 8, 8), (2, 2, 7, 9), (3, 2, 9, 9), (3, 2, 8, 10), (3, 1, 6, 7),
        (2, 1, 5, 5), (3, 3, 9, 11),
    ])
    @pytest.mark.parametrize("values", ["normal", "few"])
    def test_maxpool_backward_matches_argmax_oracle(self, k, s, h, w, values):
        rng = np.random.default_rng(k * 1000 + s * 100 + h * 10 + w)
        x = rng.standard_normal((2, 3, h, w)).astype(np.float32)
        if values == "few":  # ties everywhere, including -0.0 against +0.0
            x = rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0]), size=x.shape)
        oh, ow = (h - k) // s + 1, (w - k) // s + 1
        g_y = rng.standard_normal((2, 3, oh, ow)).astype(np.float32)
        got = self._pool_backward(x, g_y, k, s)
        assert got.tobytes() == self._argmax_routing(x, g_y, k, s).tobytes()

    def test_maxpool_backward_shared_tied_maximum(self):
        # k3/s2 on 5x5: the centre (2, 2) lies in all four windows and holds
        # the maximum 5 of each; ties at (0, 0) and (2, 1) come first in the
        # windows (0, 0) and (1, 0), so only (0, 1) and (1, 1) route there
        x = np.zeros((1, 1, 5, 5), dtype=np.float32)
        x[0, 0, 0, 0] = x[0, 0, 2, 1] = x[0, 0, 2, 2] = 5.0
        g_y = np.float32([[[[1.0, 2.0], [4.0, 8.0]]]])
        got = self._pool_backward(x, g_y, 3, 2)
        expected = np.zeros((5, 5), dtype=np.float32)
        expected[0, 0], expected[2, 1], expected[2, 2] = 1.0, 4.0, 10.0
        assert got[0, 0].tobytes() == expected.tobytes()
        assert got.tobytes() == self._argmax_routing(x, g_y, 3, 2).tobytes()

    @pytest.mark.parametrize("first,second", [(-0.0, 0.0), (0.0, -0.0)])
    def test_maxpool_backward_signed_zero_tie(self, first, second):
        # -0.0 == +0.0, so the first of the two takes the gradient
        x = np.float32([[[[first, second], [-1.0, -2.0]]]])
        g_y = np.float32([[[[3.0]]]])
        got = self._pool_backward(x, g_y, 2, 2)
        assert got.tobytes() == np.float32([[[[3.0, 0.0], [0.0, 0.0]]]]).tobytes()
        assert got.tobytes() == self._argmax_routing(x, g_y, 2, 2).tobytes()

    @staticmethod
    def _grad_both_ways(x, g_y, k, s):
        """MaxPool2d(k, s)'s input gradient for the output gradient g_y with
        the native kernels and with the numpy code, and the names of the
        kernels the first called."""
        out = []
        for kernels in (kernel_calls, numpy_kernels):
            with kernels() as calls, np.errstate(invalid="ignore"):
                tape = Tape()
                MaxPool2d(k, s).forward(tape, Slot(x))
                (g_x,) = tape.nodes[-1].backward_fn(g_y)
                out.append(g_x)
                if calls is not None:
                    out.append(calls)
        return out

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.integers(1, 3), st.integers(1, 4),
           st.integers(3, 11), st.integers(3, 11), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_maxpool_grad_native_equals_numpy(self, k, n, c, h, w, ties, seed):
        """The native maxpool_grad gives the numpy code's bytes at k = s,
        cropped odd H and W, ties (+-0.0 among them), NaN in x and
        +-inf, NaN and -0.0 in g_y."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        if ties:
            x = rng.choice(np.float32([-1.0, -0.0, 0.0, 1.0]), size=x.shape)
        x[rng.random(x.shape) < 0.05] = np.nan
        g_y = rng.standard_normal((n, c, h // k, w // k)).astype(np.float32)
        odd = rng.random(g_y.shape) < 0.2
        g_y[odd] = rng.choice(np.float32([np.inf, -np.inf, np.nan, -0.0]), odd.sum())
        native, calls, twin = self._grad_both_ways(x, g_y, k, k)
        assert calls == ["maxpool_grad"]
        assert native.dtype == twin.dtype == np.float32
        assert native.tobytes() == twin.tobytes()

    @pytest.mark.parametrize("case", ["float64", "x-strided", "g-strided", "k>s"])
    def test_maxpool_grad_numpy_cases(self, case):
        """Non-float32 or non-contiguous operands and overlapping windows
        take the numpy code."""
        rng = np.random.default_rng(3)
        k, s = (3, 2) if case == "k>s" else (2, 2)
        x = rng.standard_normal((2, 3, 9, 8)).astype(np.float32)
        if case == "float64":
            x = x.astype(np.float64)
        elif case == "x-strided":
            x = x[:, ::-1]
        oh, ow = (9 - k) // s + 1, (8 - k) // s + 1
        g_y = rng.standard_normal((2, 3, oh, ow)).astype(x.dtype)
        if case == "g-strided":
            g_y = np.ascontiguousarray(g_y.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        native, calls, twin = self._grad_both_ways(x, g_y, k, s)
        assert calls == []
        assert native.tobytes() == twin.tobytes()

    def test_avgpool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = AvgPool2d(2).forward(Tape(), Slot(x))
        assert np.array_equal(out.value[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    @pytest.mark.parametrize("k,h,w", [(2, 8, 8), (2, 7, 9), (3, 9, 10), (1, 3, 4)])
    def test_avgpool_adds_window_rows_in_order(self, k, h, w):
        """Each window row added left to right, the rows top to bottom,
        then divided by k * k, for magnitudes from 2^-30 to 2^30."""
        rng = np.random.default_rng(k + h)
        x = (rng.standard_normal((2, 3, h, w))
             * 2.0 ** rng.integers(-30, 31, (2, 3, h, w))).astype(np.float32)
        out = AvgPool2d(k).forward(Tape(), Slot(x)).value
        oh, ow = h // k, w // k
        want = np.empty((2, 3, oh, ow), np.float32)
        for idx in np.ndindex(2, 3, oh, ow):
            b, c, i, j = idx
            win = x[b, c, i * k: i * k + k, j * k: j * k + k]
            total = None
            for r in range(k):
                row = win[r, 0]
                for col in range(1, k):
                    row = np.float32(row + win[r, col])
                total = row if total is None else np.float32(total + row)
            want[idx] = np.float32(total / np.float32(k * k))
        assert out.dtype == np.float32 and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k,h,w", [(2, 8, 8), (2, 7, 9), (3, 9, 10), (3, 11, 13)])
    def test_avgpool_backward_equals_the_repeat_expression(self, k, h, w):
        """The backward's one division and k^2 strided stores give the bytes
        of np.repeat twice, divided by k^2 and stored into zeros, the rows
        and columns past the last window of odd H and W included."""
        rng = np.random.default_rng(k + h + w)
        oh, ow = h // k, w // k
        g_y = (rng.standard_normal((2, 3, oh, ow))
               * 2.0 ** rng.integers(-30, 31, (2, 3, oh, ow))).astype(np.float32)
        want = np.zeros((2, 3, h, w), np.float32)
        want[:, :, : oh * k, : ow * k] = np.repeat(np.repeat(g_y, k, axis=2), k, axis=3) / (k * k)
        tape = Tape()
        AvgPool2d(k).forward(tape, Slot(np.zeros((2, 3, h, w), np.float32)))
        junk = np.full((2, 3, h, w), np.nan, np.float32)  # freed memory the backward may reuse
        del junk
        (g,) = tape.nodes[-1].backward_fn(g_y)
        assert g.dtype == np.float32 and g.tobytes() == want.tobytes()

    def test_avgpool_stride_must_equal_kernel(self):
        with pytest.raises(ShapeError):
            AvgPool2d(3, 1).forward(Tape(), Slot(np.ones((1, 1, 6, 6), dtype=np.float32)))

    def test_global_avgpool(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 5, 6)).astype(np.float32)
        out = GlobalAvgPool().forward(Tape(), Slot(x))
        np.testing.assert_allclose(out.value, x.mean(axis=(2, 3)), rtol=1e-6)

    def test_flatten_roundtrip_gradient(self):
        tape = Tape()
        x = Slot(np.ones((2, 3, 4, 4), dtype=np.float32))
        out = Flatten().forward(tape, x)
        assert out.value.shape == (2, 48)


class TestCombinators:
    def test_concat_forward_backward(self):
        tape = Tape()
        a = Slot(np.ones((2, 3, 4, 4), dtype=np.float32))
        b = Slot(np.full((2, 5, 4, 4), 2.0, dtype=np.float32))
        out = concat(tape, [a, b])
        assert out.value.shape == (2, 8, 4, 4)
        loss = Slot(np.array(0.0, dtype=np.float32))
        g = np.concatenate([
            np.full((2, 3, 4, 4), 10.0), np.full((2, 5, 4, 4), 20.0)
        ], axis=1).astype(np.float32)
        tape.record(loss, (out,), lambda gg: (g,))
        tape.backward(loss)
        assert np.all(a.grad == 10.0)
        assert np.all(b.grad == 20.0)

    def test_residual_add(self):
        tape = Tape()
        a = Slot(np.ones((2, 3), dtype=np.float32))
        b = Slot(np.full((2, 3), 4.0, dtype=np.float32))
        out = residual_add(tape, a, b)
        assert np.all(out.value == 5.0)
        loss = Slot(np.array(0.0, dtype=np.float32))
        tape.record(loss, (out,), lambda g: (np.full((2, 3), 2.0, dtype=np.float32),))
        tape.backward(loss)
        assert np.all(a.grad == 2.0)
        assert np.all(b.grad == 2.0)

    def test_residual_shape_mismatch(self):
        with pytest.raises(ShapeError):
            residual_add(Tape(), Slot(np.ones((2, 3))), Slot(np.ones((2, 4))))


def finite_difference_check(params, loss_fn, eps=1e-3, samples=6, seed=0):
    """Max relative error between tape gradients and central differences.

    loss_fn() must rebuild the forward pass from current parameter values
    and return (tape, loss_slot).
    """
    rng = np.random.default_rng(seed)
    tape, loss = loss_fn()
    tape.backward(loss)
    grads = [p.grad.copy() for p in params]
    worst = 0.0
    for p, g in zip(params, grads):
        flat = rng.choice(p.value.size, size=min(samples, p.value.size),
                          replace=False)
        for f in flat:
            idx = np.unravel_index(f, p.value.shape)
            orig = p.value[idx]
            p.value[idx] = orig + eps
            lp = float(loss_fn()[1].value)
            p.value[idx] = orig - eps
            lm = float(loss_fn()[1].value)
            p.value[idx] = orig
            fd = (lp - lm) / (2 * eps)
            rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-10)
            worst = max(worst, rel)
    return worst


def build_smooth_stack(seed=0):
    """conv -> bn -> avgpool -> flatten -> dense, all full precision,
    float64 parameters and inputs.  Average pooling keeps the stack
    smooth; max pooling has argmax kinks where central differences are
    invalid and gets its own margin-controlled check."""
    rng = np.random.default_rng(seed)
    conv = QConv2d(QLayerConfig(3, 8, (3, 3), 1, 1, binarize_input=False),
                   binary=False, rng=rng, name="c")
    bn = BatchNorm(8, name="b")
    pool = AvgPool2d(2, name="p")
    flat = Flatten(name="f")
    dense = QDense(8 * 4 * 4, 5, binary=False, binarize_input=False,
                   bias=True, rng=rng, name="d")
    params = conv.params() + bn.params() + dense.params()
    for p in params:
        p.value = p.value.astype(np.float64)
    x = rng.standard_normal((4, 3, 8, 8))
    proj = rng.standard_normal((4, 5))

    def loss_fn():
        tape = Tape()
        h = conv.forward(tape, Slot(x))
        h = bn.forward(tape, h, training=True)
        h = pool.forward(tape, h)
        h = dense.forward(tape, flat.forward(tape, h))
        loss = Slot(np.array((h.value * proj).sum()))
        tape.record(loss, (h,), lambda g: (proj * float(g),))
        return tape, loss

    return params, loss_fn


def test_finite_differences_smooth_stack():
    params, loss_fn = build_smooth_stack()
    assert finite_difference_check(params, loss_fn) <= 1e-4


def test_finite_differences_conv_only():
    rng = np.random.default_rng(1)
    conv = QConv2d(QLayerConfig(2, 4, (3, 3), 2, 1, binarize_input=False),
                   binary=False, rng=rng)
    conv.weight.value = conv.weight.value.astype(np.float64)
    x = rng.standard_normal((3, 2, 7, 7))
    proj = rng.standard_normal((3, 4, 4, 4))

    def loss_fn():
        tape = Tape()
        h = conv.forward(tape, Slot(x))
        loss = Slot(np.array((h.value * proj).sum()))
        tape.record(loss, (h,), lambda g: (proj * float(g),))
        return tape, loss

    assert finite_difference_check([conv.weight], loss_fn, seed=1) <= 1e-4


def test_finite_differences_maxpool_away_from_kinks():
    # max pooling is piecewise linear; central differences are only valid
    # when no pool window changes its argmax, so use inputs whose window
    # margins dwarf the perturbation
    rng = np.random.default_rng(2)
    vals = rng.permutation(64).astype(np.float64) * 0.1  # margins >= 0.1
    x = Slot(vals.reshape(1, 1, 8, 8))
    proj = rng.standard_normal((1, 1, 4, 4))
    pool = MaxPool2d(2)

    def loss_fn():
        tape = Tape()
        h = pool.forward(tape, x)
        loss = Slot(np.array((h.value * proj).sum()))
        tape.record(loss, (h,), lambda g: (proj * float(g),))
        return tape, loss

    assert finite_difference_check([x], loss_fn, samples=12, seed=2) <= 1e-4
