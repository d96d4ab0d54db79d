"""Bit-packing and XNOR/popcount kernel tests.

The float dot product of sign vectors is the oracle everywhere; the
packed kernel must agree exactly (integer arithmetic, no tolerance).
"""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnn import bittensor
from bnn.bittensor import (
    _ROW_BLOCK,
    WORD_BITS,
    BitTensor,
    binary_dot,
    binary_gemm,
    from_row_bytes,
    pack,
    pack_channels,
    pack_rows,
    popcount_words,
    popcount_words_portable,
    unpack,
)
from bnn.errors import ShapeError

from conftest import REPO_ROOT, numpy_kernels

# output columns per tile of the native xnor_gemm
with open(bittensor._KERNELS_C) as _f:
    _N_TILE = int(re.search(r"#define N_TILE (\d+)", _f.read()).group(1))


def all_sign_vectors(n):
    """(2**n, n) float32 matrix of every {-1,+1} vector of length n."""
    codes = np.arange(2 ** n, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n)) & 1
    return bits.astype(np.float32) * 2.0 - 1.0


def rows_of(packed):
    """Split a packed 2-D BitTensor into per-row 1-D BitTensors."""
    n = packed.logical_len
    return [
        BitTensor(shape=(n,), words=row.copy())
        for row in packed.row_words()
    ]


class TestBinaryDotExhaustive:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_pairs_small(self, n):
        vecs = all_sign_vectors(n)
        packed = rows_of(pack(vecs))
        oracle = vecs @ vecs.T
        for i, x in enumerate(packed):
            for j, w in enumerate(packed):
                assert binary_dot(x, w) == int(oracle[i, j])

    @pytest.mark.parametrize("n", range(9, 17))
    def test_all_vectors_vs_partners(self, n):
        vecs = all_sign_vectors(n)
        packed = rows_of(pack(vecs))
        rng = np.random.default_rng(n)
        partners = np.stack([
            np.ones(n, dtype=np.float32),
            -np.ones(n, dtype=np.float32),
            np.where(np.arange(n) % 2 == 0, 1.0, -1.0).astype(np.float32),
            np.where(rng.random(n) < 0.5, 1.0, -1.0).astype(np.float32),
        ])
        packed_partners = rows_of(pack(partners))
        oracle = vecs @ partners.T
        for i, x in enumerate(packed):
            for j, w in enumerate(packed_partners):
                assert binary_dot(x, w) == int(oracle[i, j])


def test_binary_dot_random_lengths():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        n = int(rng.integers(1, 513))
        x = rng.standard_normal(n).astype(np.float32)
        w = rng.standard_normal(n).astype(np.float32)
        xs = np.where(x >= 0, 1.0, -1.0)
        ws = np.where(w >= 0, 1.0, -1.0)
        assert binary_dot(pack(x), pack(w)) == int(xs @ ws)


def test_binary_dot_parity():
    # a +/-1 dot product always has the parity of its length
    rng = np.random.default_rng(1)
    for n in (1, 2, 63, 64, 65, 100, 511):
        for _ in range(20):
            d = binary_dot(
                pack(rng.standard_normal(n)), pack(rng.standard_normal(n))
            )
            assert (d - n) % 2 == 0
            assert -n <= d <= n


def test_sign_zero_is_positive():
    v = np.array([0.0, -0.0, 1.0, -1.0], dtype=np.float32)
    out = unpack(pack(v))
    # both zeros binarize to +1 (-0.0 >= 0 is true)
    assert np.array_equal(out, [1.0, 1.0, 1.0, -1.0])


def test_padding_bits_are_ones():
    t = pack(-np.ones(3, dtype=np.float32))
    # bits 0..2 clear (all -1), the WORD_BITS - 3 pad bits 3..63 set
    assert int(t.words[0]) == 0xFFFFFFFFFFFFFFF8
    assert bin(int(t.words[0])).count("1") == WORD_BITS - 3


def test_word_geometry():
    t = pack(-np.ones((4, 130), dtype=np.float32))
    assert t.words_per_row == 3
    # all -1, so the set bits of a row are its 3 * WORD_BITS - 130 pad bits
    assert [bin(int(w)).count("1") for w in t.row_words()[0]] == [0, 0, 3 * WORD_BITS - 130]
    assert t.outer_size == 4
    assert t.row_words().shape == (4, 3)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 200),
    st.integers(1, 6),
    st.integers(0, 2 ** 32 - 1),
)
def test_pack_unpack_roundtrip(n, rows, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((rows, n)).astype(np.float32)
    expected = np.where(v >= 0, 1.0, -1.0).astype(np.float32)
    assert np.array_equal(unpack(pack(v)), expected)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_popcount_portable_matches_fast_path(words):
    arr = np.array(words, dtype=np.uint64)
    expected = np.array([bin(w).count("1") for w in words], dtype=np.uint64)
    assert np.array_equal(popcount_words(arr), expected)
    assert np.array_equal(popcount_words_portable(arr), expected)


@pytest.mark.parametrize("m,k,n", [
    (1, 1, 1), (3, 5, 2), (8, 64, 8), (7, 65, 9), (16, 300, 11), (32, 512, 32),
])
def test_binary_gemm_matches_float(m, k, n):
    rng = np.random.default_rng(m * 1000 + k + n)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((n, k)).astype(np.float32)
    a_s = np.where(a >= 0, 1.0, -1.0)
    b_s = np.where(b >= 0, 1.0, -1.0)
    out = binary_gemm(pack(a), pack(b))
    assert out.dtype == np.float32
    assert np.array_equal(out, a_s @ b_s.T)


def sign_operand(rng, shape):
    """float32 operand of -1, 0 and +1 (0 binarizes to +1)."""
    return rng.integers(-1, 2, shape).astype(np.float32)


def sign_of(v):
    return np.where(v >= 0, 1.0, -1.0).astype(np.float32)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.integers(1, 64),
        st.sampled_from([_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1]),
    ),
    st.one_of(st.integers(1, 200), st.sampled_from([800, 3312])),
    st.one_of(
        st.integers(1, 200),
        st.sampled_from([_N_TILE - 1, _N_TILE, _N_TILE + 1]),
    ),
    st.integers(0, 2 ** 32 - 1),
)
def test_binary_gemm_property(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = sign_operand(rng, (m, k))
    b = sign_operand(rng, (n, k))
    expected = sign_of(a) @ sign_of(b).T
    out = binary_gemm(pack(a), pack(b))  # native kernel, when it builds
    with numpy_kernels():
        out_numpy = binary_gemm(pack(a), pack(b))
    for got in (out, out_numpy):
        assert got.dtype == np.float32
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("k", [1, 63, 64, 65, 800, 3312])
def test_kernels_with_portable_popcount(monkeypatch, k):
    monkeypatch.setattr(bittensor, "_HAVE_HW_POPCOUNT", False)
    monkeypatch.setattr(bittensor, "_native", False)  # the numpy word loop
    rng = np.random.default_rng(k)
    a = sign_operand(rng, (5, k))
    b = sign_operand(rng, (7, k))
    expected = sign_of(a) @ sign_of(b).T
    assert np.array_equal(binary_gemm(pack(a), pack(b)), expected)
    assert binary_dot(pack(a[0]), pack(b[0])) == int(expected[0, 0])


def test_kernel_source_ships_with_the_package():
    # native_kernels compiles the C file next to bittensor.py, so an
    # installed package must carry it
    here = os.path.dirname(os.path.abspath(bittensor.__file__))
    assert bittensor._KERNELS_C == os.path.join(here, "_kernels.c")
    assert os.path.isfile(bittensor._KERNELS_C)
    with open(os.path.join(REPO_ROOT, "pyproject.toml")) as f:
        assert '[tool.setuptools.package-data]\nbnn = ["*.c"]\n' in f.read()


class TestErrors:
    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            binary_dot(pack(np.ones(4)), pack(np.ones(5)))

    def test_binary_dot_needs_1d(self):
        with pytest.raises(ShapeError):
            binary_dot(pack(np.ones((2, 4))), pack(np.ones((2, 4))))

    def test_gemm_needs_2d(self):
        with pytest.raises(ShapeError):
            binary_gemm(pack(np.ones(4)), pack(np.ones(4)))

    def test_gemm_inner_mismatch(self):
        with pytest.raises(ShapeError):
            binary_gemm(pack(np.ones((2, 4))), pack(np.ones((2, 5))))

    def test_pack_empty(self):
        with pytest.raises(ValueError):
            pack(np.array([]))

    def test_pack_scalar(self):
        with pytest.raises(ValueError):
            pack(np.array(1.0))

    def test_bittensor_word_count_checked(self):
        with pytest.raises(ShapeError):
            BitTensor(shape=(2, 70), words=np.zeros(2, dtype=np.uint64))


@pytest.mark.parametrize("c", [8, 16, 64, 352])
def test_pack_channels_bytes_equal_pack_rows_of_nhwc_signs(c):
    rng = np.random.default_rng(c)
    x = rng.standard_normal((2, c, 5, 3)).astype(np.float32)
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    packed = pack_channels(x)
    assert packed.shape == (2, 5, 3, c // 8) and packed.dtype == np.uint8
    rows = pack_rows(x.transpose(0, 2, 3, 1).reshape(-1, c)).view(np.uint8)
    assert np.array_equal(packed.reshape(-1, c // 8), rows[:, : c // 8])


@pytest.mark.parametrize("c", [1, 3, 7, 9, 13, 65])
def test_pack_channels_pads_with_one_bits(c):
    rng = np.random.default_rng(c)
    x = rng.standard_normal((3, c, 2, 4))
    thr = rng.standard_normal(c)
    for packed, ref in ((pack_channels(x), x >= 0),
                        (pack_channels(x, thr), x >= thr[:, None, None])):
        cb = -(-c // 8)
        bits = np.unpackbits(packed, axis=-1, bitorder="little")
        assert bits.shape == (3, 2, 4, 8 * cb)
        assert np.array_equal(bits[..., :c], ref.transpose(0, 2, 3, 1))
        assert np.all(bits[..., c:] == 1)


@pytest.mark.parametrize("nbytes", [1, 7, 8, 9, 100, 104])
def test_from_row_bytes_pads_rows_to_words(nbytes):
    rng = np.random.default_rng(nbytes)
    a = rng.integers(0, 256, (5, nbytes), dtype=np.uint8)
    b = rng.integers(0, 256, (3, nbytes), dtype=np.uint8)
    ta, tb = from_row_bytes(a), from_row_bytes(b)
    assert ta.shape == (5, 8 * nbytes)
    assert np.all(ta.row_words().view(np.uint8)[:, nbytes:] == 0xFF)
    unpacked = [np.unpackbits(m, axis=1, bitorder="little").astype(np.float32) * 2 - 1
                for m in (a, b)]
    assert np.array_equal(unpack(ta), unpacked[0])
    assert np.array_equal(binary_gemm(ta, tb), unpacked[0] @ unpacked[1].T)
