"""Bit-packing and XNOR/popcount kernel tests.

The float dot product of sign vectors is the oracle everywhere; the
packed kernel must agree exactly (integer arithmetic, no tolerance).
"""

import contextlib
import itertools
import os
import re
import sys
import threading
import time
import weakref

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
    pack_signs,
    popcount_words,
    unpack,
)
from bnn.errors import NumericError, ShapeError

from conftest import (REPO_ROOT, kernel_calls, numpy_kernels, packed_both_ways, packed_signs,
                      split_in)

# the native xnor_gemm's rows per register block and output columns per
# column block (with a vector popcount), and its columns per tile without
with open(bittensor._KERNELS_C) as _f:
    _SOURCE = _f.read()
_R_BLOCK, _C_BLOCK, _N_TILE = (int(re.search(rf"#define {name} (\d+)", _SOURCE).group(1))
                               for name in ("R_BLOCK", "C_BLOCK", "N_TILE"))


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


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.integers(1, 64),
        st.sampled_from([1, _R_BLOCK - 1, _R_BLOCK, _R_BLOCK + 1,
                         _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1]),
    ),
    # 4160 bits are 65 words a row
    st.one_of(st.integers(1, 200), st.sampled_from([800, 3312, 4160])),
    st.one_of(
        st.integers(1, 200),
        st.sampled_from([7, 8, 9, _C_BLOCK - 1, _C_BLOCK, _C_BLOCK + 1, _C_BLOCK + 9,
                         _N_TILE - 1, _N_TILE, _N_TILE + 1]),
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


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(0, 40), st.sampled_from([_R_BLOCK + 1, 5 * _R_BLOCK - 1, 1031])),
    st.one_of(st.integers(1, 200), st.sampled_from([800, 4160])),
    st.one_of(st.integers(1, 80),
              st.sampled_from([7, 9, _C_BLOCK - 1, _C_BLOCK + 9, _N_TILE - 1, _N_TILE + 9])),
    st.integers(0, 2 ** 32 - 1),
)
def test_binary_gemm_with_thresholds_packs_the_compare(m, k, n, seed):
    """binary_gemm(thr=) gives the bytes of pack_signs on binary_gemm's sums
    with those thresholds, natively in 1 and 3 parts and in numpy, at
    N % 8 != 0 (pad bits 1), M % 6 != 0 (the kernel's last row block) and
    thresholds at a sum, one either side of it and beyond [-K, K]."""
    rng = np.random.default_rng(seed)
    a, b = sign_operand(rng, (m, k)), sign_operand(rng, (n, k))
    ap = pack(a) if m else BitTensor((0, k), np.empty(0, np.uint64))
    sums = binary_gemm(ap, pack(b))
    thr = rng.integers(-k - 2, k + 3, n)
    if m:
        near = rng.random(n) < 0.5
        thr[near] = sums[rng.integers(0, m), near] + rng.integers(-1, 2, near.sum())
    want = packed_signs(sums[:, :, None, None], thr=thr.astype(np.float32)).reshape(m, -(-n // 8))
    for kernels, parts in ((contextlib.nullcontext, 1), (contextlib.nullcontext, 3),
                           (numpy_kernels, 1)):
        with kernels(), split_in(parts, size_rules=False):
            got = binary_gemm(ap, pack(b), thr=thr)
        assert got.dtype == np.uint8 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 63, 64, 65, 800, 3312])
def test_kernels_with_portable_popcount(monkeypatch, k):
    """binary_gemm's numpy word loop and binary_dot, which popcount each
    word with np.bitwise_count."""
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

    def test_gemm_threshold_per_column(self):
        with pytest.raises(ShapeError):
            binary_gemm(pack(np.ones((2, 4))), pack(np.ones((3, 4))), thr=np.zeros(2))

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
    """pack_signs along channels gives the np.packbits rows of the
    channels-last signs."""
    rng = np.random.default_rng(c)
    x = rng.standard_normal((2, c, 5, 3)).astype(np.float32)
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    packed = pack_signs(x)
    assert packed.shape == (2, 5, 3, c // 8) and packed.dtype == np.uint8
    rows = np.packbits(x.transpose(0, 2, 3, 1).reshape(-1, c) >= 0, axis=1, bitorder="little")
    assert np.array_equal(packed.reshape(-1, c // 8), rows)


@pytest.mark.parametrize("c", [1, 3, 7, 9, 13, 65])
def test_pack_channels_pads_with_one_bits(c):
    rng = np.random.default_rng(c)
    x = rng.standard_normal((3, c, 2, 4))
    thr = rng.standard_normal(c)
    for packed, ref in ((pack_signs(x), x >= 0),
                        (pack_signs(x, thr), x >= thr[:, None, None])):
        cb = -(-c // 8)
        bits = np.unpackbits(packed, axis=-1, bitorder="little")
        assert bits.shape == (3, 2, 4, 8 * cb)
        assert np.array_equal(bits[..., :c], ref.transpose(0, 2, 3, 1))
        assert np.all(bits[..., c:] == 1)


def test_pack_raises_on_a_nan():
    """A NaN has no sign: pack refuses it, as sign_forward does."""
    with pytest.raises(NumericError):
        pack(np.array([[0.5, np.nan, -1.0]], np.float32))


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


# thresholds at the edges of the float32 compare: signed zeros, infinities
# (-inf: a constant channel) and subnormals
_EDGE = np.array([0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, 1e-39, -1e-39],
                 np.float32)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([1, 7, 8, 9, 44, 63, 64, 65, 384, 520, 1024]),
    st.one_of(st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5)),
              st.tuples(st.integers(1, 300), st.just(1), st.just(1)),
              st.tuples(st.integers(1, 2), st.integers(3, 9), st.integers(3, 9))),
    st.sampled_from([(1, 1), (2, 2), (3, 2), (3, 1)]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, np.nan, np.float32(3.5), -np.inf]),
    st.integers(0, 2 ** 32 - 1),
)
def test_pack_channels_native_equals_numpy(c, nhw, pool, with_thr, with_flip, bad, seed):
    """pack_signs with the native kernel and with its numpy twin give the
    bytes of the step-by-step oracle, or the same NumericError, with thr
    (x on its thresholds: ties), flip and a pool window, on +-0.0, NaN and
    infinite values, on planes of 1 to 81 pixels: the
    native kernel packs those of 32 or more, numpy's np.packbits all of
    them.  (n, c, h, w) also stands for an (O, C, kh, kw) weight."""
    n, h, w = nhw
    if pool[0] > min(h, w):
        pool = (1, 1)
    rng = np.random.default_rng(seed)
    x = np.clip(rng.standard_normal((n, c, h, w)), -3, 3).astype(np.float32)
    kwargs = dict(pool=pool)
    if with_thr:
        thr = rng.standard_normal(c).astype(np.float32)
        edge = rng.random(c) < 0.5
        thr[edge] = rng.choice(_EDGE, edge.sum())
        # ties: x equal to its channel's threshold, where that is finite
        tie = (rng.random(x.shape) < 0.2) & np.isfinite(thr)[:, None, None]
        x[tie] = np.broadcast_to(thr[:, None, None], x.shape)[tie]
        kwargs["thr"] = thr
    if with_flip:
        kwargs["flip"] = rng.integers(0, 256, -(-c // 8), dtype=np.uint8)
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    if bad is not None:  # may fall where no window reads it
        x.flat[rng.integers(x.size)] = bad
    ref = packed_signs(x, **kwargs)
    native, twin = packed_both_ways(x, **kwargs)
    if isinstance(ref, str):
        assert native == twin == ref
    else:
        assert native.dtype == twin.dtype == np.uint8 and native.shape == twin.shape == ref.shape
        assert native.tobytes() == twin.tobytes() == ref.tobytes()


def test_pack_channels_non_float32_runs_numpy():
    """float64 input or thresholds have no native kernel: numpy compares
    in float64, where +-1e-300 is not the float32 zero it rounds to."""
    tiny = np.array([-1e-300, 1e-300])
    x = np.broadcast_to(tiny.reshape(1, 2, 1, 1), (1, 2, 6, 6))
    assert pack_signs(x)[0, 0, 0].tolist() == [0xFE]
    zeros = np.zeros((1, 2, 6, 6), np.float32)
    assert pack_signs(zeros, -tiny)[0, 0, 0].tolist() == [0xFE]


@pytest.mark.parametrize("arg,value", [
    ("x", np.zeros((2, 10, 6, 6), np.float32)), ("thr", np.zeros(8, np.float32)),
    ("flip", np.zeros(1, np.uint8)), ("flip", np.zeros(2, np.int8))],
    ids=["x", "thr", "flip", "flip-int8"])
def test_pack_signs_checks_buffers_before_the_kernel_reads_them(arg, value):
    """A buffer that does not fit x's 9 channels, or that the kernel would
    read as the wrong dtype, raises ShapeError on both routes (the 36-pixel
    plane is the kernel's): x with more channels than thr, thr one
    channel short, flip one byte short, int8 flip."""
    good = dict(x=np.zeros((2, 9, 6, 6), np.float32), thr=np.zeros(9, np.float32),
                flip=np.zeros(2, np.uint8))
    args = dict(good, **{arg: value})
    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels(), pytest.raises(ShapeError):
            pack_signs(**args)


def recorded_parts(n, parts, fn=None):
    """The (lo, hi, thread) of each fn(lo, hi) that in_parts runs."""
    seen = []

    def part(lo, hi):
        seen.append((lo, hi, threading.get_ident()))
        if fn:
            fn(lo, hi)

    with split_in(parts):
        bittensor.in_parts(part, n)
    return sorted(seen)


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_in_parts_covers_the_range_in_contiguous_parts(n, parts):
    """min(parts, n) parts, contiguous and covering [0, n); the first runs
    in the calling thread; n = 0 runs nothing."""
    seen = recorded_parts(n, parts)
    assert len(seen) == min(parts, n)
    cuts = [0] + [hi for _, hi, _ in seen]
    assert [(lo, hi) for lo, hi, _ in seen] == list(zip(cuts, cuts[1:]))
    assert cuts[-1] == n and all(lo < hi for lo, hi, _ in seen)
    assert not seen or seen[0][2] == threading.get_ident()


def test_in_parts_nested_call_runs_whole_in_its_thread():
    inner = []

    def outer(lo, hi):
        inner.append((recorded_parts(4, 3), threading.get_ident()))

    recorded_parts(2, 2, outer)
    assert len(inner) == 2
    for seen, thread in inner:
        assert seen == [(0, 4, thread)]


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_in_parts_reraises_a_part_error_after_every_part_ends(failing):
    """A part's exception reaches the caller, from the calling thread or a
    worker, once every part has finished; the helper works again after."""
    ended = []

    def part(lo, hi):
        time.sleep(0.01 * (2 - lo))
        if lo == failing:
            raise KeyError(f"part {lo}")
        ended.append(lo)

    with split_in(3):
        with pytest.raises(KeyError, match=f"part {failing}"):
            bittensor.in_parts(part, 3)
        assert sorted(ended) == [i for i in range(3) if i != failing]
        assert len(recorded_parts(3, 3)) == 3


def test_in_parts_workers_keep_no_buffer_of_a_job():
    """Once in_parts returns, no thread holds the job's closure, its
    scratch or what they reference (a worker that kept them would keep
    their memory until its next job)."""
    big = np.zeros(1 << 16)
    refs = [weakref.ref(big)]

    def scratch():
        buf = np.empty(1 << 16)
        refs.append(weakref.ref(buf))
        return (buf,)

    def part(lo, hi, buf):
        buf[:] = big[lo]

    with split_in(2):
        bittensor.in_parts(part, 4, scratch)
    assert len(refs) == 3
    del part, big
    assert [r() for r in refs] == [None] * 3


def test_in_parts_under_thread_switches_from_two_callers():
    """More parts than cores, a switch interval of 1 us and two Python
    threads calling at once (one of them then runs whole): every element is
    written by exactly one part, on every call."""
    def caller(results):
        for _ in range(50):
            out = np.zeros(101, np.int64)

            def part(lo, hi):
                for i in range(lo, hi):
                    out[i] += 1

            bittensor.in_parts(part, len(out))
            results.append(bool((out == 1).all()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with split_in(8):
            results = [[], []]
            threads = [threading.Thread(target=caller, args=(r,)) for r in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [[True] * 50] * 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 2, 3, 5]), st.sampled_from([1, 9, 33]),
       st.sampled_from([(1, 1), (2, 2), (3, 2)]), st.sampled_from([None, np.nan, 5.0]),
       st.integers(0, 2 ** 32 - 1))
def test_pack_signs_bytes_do_not_depend_on_the_split(n, c, pool, bad, seed):
    """The native packer runs one call a part of the images, each with its
    own plane, and gives the oracle's bytes in 1, 2 and 3 parts.  A NaN in
    the last image alone, which only the last part reads, raises
    NumericError in every split."""
    rng = np.random.default_rng(seed)
    x = np.clip(rng.standard_normal((n, c, 7, 6)), -3, 3).astype(np.float32)
    kwargs = dict(thr=rng.standard_normal(c).astype(np.float32), pool=pool,
                  flip=rng.integers(0, 256, -(-c // 8), dtype=np.uint8))
    if bad is not None and n:
        x[-1, -1, 0, 0] = bad  # every pool window at the corner reads it
    want = packed_signs(x, **kwargs)
    want = want if isinstance(want, str) else want.tobytes()
    for parts in (1, 2, 3):
        with kernel_calls() as calls, split_in(parts):
            try:
                got = pack_signs(x, **kwargs).tobytes()
            except NumericError as e:
                got = str(e)
        assert got == want and calls == ["pack_signs"] * min(n, parts)


@pytest.mark.parametrize("m", [0, 1, 5, 7, 13, 1031])
def test_binary_gemm_bytes_do_not_depend_on_the_split(m):
    """The native GEMM runs one call a part of whole 6-row blocks, and gives
    the float GEMM of the signs in 1, 2 and 3 parts, at M % 6 != 0, M = 0
    and M = 1; the size rules on, 1031 rows split and fewer do not."""
    rng = np.random.default_rng(m)
    a, b = sign_operand(rng, (m, 130)), sign_operand(rng, (37, 130))
    ap = pack(a) if m else BitTensor((0, 130), np.empty(0, np.uint64))
    want = (sign_of(a) @ sign_of(b).T).astype(np.float32)
    for parts, rules in itertools.product((1, 2, 3), (True, False)):
        with kernel_calls() as calls, split_in(parts, size_rules=rules):
            got = binary_gemm(ap, pack(b))
        split = min(parts, -(-m // 6)) if m >= 1024 or not rules else 1
        assert got.tobytes() == want.tobytes() and calls.count("xnor_gemm") == split


def test_split_parts_is_one_without_a_blas_setter_or_a_second_cpu(monkeypatch):
    """The parts follow the CPUs only when numpy's OpenBLAS can be set to
    one thread, and a single CPU never asks for the setter."""
    monkeypatch.setattr(bittensor, "_parts", None)
    monkeypatch.setattr(bittensor, "openblas_threads", lambda verb: None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert bittensor.split_parts() == 1
    monkeypatch.setattr(bittensor, "_parts", None)
    set_to = []
    monkeypatch.setattr(bittensor, "openblas_threads", lambda verb: set_to.append)
    assert bittensor.split_parts() == 3 and set_to == [1]
    monkeypatch.setattr(bittensor, "_parts", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert bittensor.split_parts() == 1 and set_to == [1]
