"""Bit-packed binary tensors and the XOR/popcount dot-product kernels.

A real-valued tensor is binarized with sign (0 maps to +1) and stored as
packed bits: bit value 1 encodes +1, bit value 0 encodes -1.  Each
innermost row is padded up to a whole number of 64-bit words, and every
padding bit is set to 1.

Two {-1,+1} vectors of length n agree at n - d positions and disagree at
the d positions where their bits differ, so their dot product is

    n - 2 * popcount(x XOR w)

Both operands pad with 1-bits, so the padding XORs to 0 and adds nothing
to the popcount: no correction term is needed.  This is exact integer
arithmetic, so results match a float reference bit for bit.

pack_signs is the only code that turns floats into sign bits.  It packs
along channels, so the packed patches of the bytes (layers.patch_rows)
are rows ready for binary_gemm, and a row of n values is a one-pixel
(1, n, 1, 1) image: pack and the model file's rows are its bytes too.
It runs the native kernel on a float32 plane of 32 pixels or more, and
numpy below that or for other dtypes, with the same bytes.  When
C % 8 != 0 a patch row also holds the 1-pad bits of each of its kh*kw
pixels, in both operands; each adds +1 to the result, and
layers.binary_conv subtracts their count.

binary_gemm, pack_signs and the layers' heavy passes run the C kernels of
_kernels.c, compiled on first use (native_kernels), or else their numpy
twins, with the same bytes.  With a vector popcount (AVX-512 VPOPCNTDQ)
the native GEMM keeps a 6-row by 32-column block of counts in registers
across every word; without one, its row-at-a-time loop was faster.

in_parts runs the heavy passes in parts, one per CPU, on persistent
daemon threads: pack_signs by images and the native GEMM by 6-row blocks
here, and layers' gather, transpose, BatchNorm, float GEMMs and binary
conv backward.  Its first call, in the first forward (so in evaluation
and bnn eval too), sets numpy's bundled OpenBLAS to one thread,
process-wide, so BLAS does not spin on the core the parts need.  Without
such a setter, or on one CPU, it runs serially.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import queue
import shlex
import subprocess
import threading
from dataclasses import dataclass

import numpy as np

from .autodiff import NAN_INPUT
from .errors import NumericError, ShapeError

WORD_BITS = 64

_KERNELS_C = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
# no fused multiply-adds: the numpy twins round a * b + c twice; sqrtf
# vectorises only when it need not set errno
_CFLAGS = ["-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC"]
_native = None  # ctypes.CDLL of _kernels.c; False once it failed to build
kernel_status = "numpy (native kernels not loaded yet)"


def native_kernels():
    """The compiled _kernels.c, built on the first call; None (for good,
    in this process) when it cannot be built or loaded."""
    global _native, kernel_status
    if _native is None:
        try:
            path = _build_kernels()
            lib = ctypes.CDLL(path)
            ptr, i64, f32, i32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_float, ctypes.c_int32
            for name, args in (("xnor_gemm", [ptr] * 3 + [i64] * 4),
                               ("gather_patches", [ptr] * 2 + [i64] * 9),
                               ("unpack_patches", [ptr] * 3 + [i64] * 9),
                               ("transpose", [ptr] * 2 + [i64] * 3),
                               ("col2im_add", [ptr] * 2 + [i64] * 9),
                               ("col2im_store", [ptr] * 3 + [i64] * 5 + [ctypes.c_double]),
                               ("bn_sums", [ptr] * 6 + [i64] * 5),
                               ("bn_normalize", [ptr] * 6 + [i64] * 3),
                               ("bn_grad_input", [ptr] * 8 + [i64] * 4),
                               ("pack_signs", [ptr] * 7 + [i64] * 6),
                               ("maxpool_grad", [ptr] * 4 + [i64] * 4),
                               ("adam_step", [ptr] * 4 + [i64] + [f32] * 9 + [i32] * 2)):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = args, None
            lib.pack_signs.restype = ctypes.c_int  # 1: NaN or out of bounds
            _native, kernel_status = lib, f"native ({path})"
        except (OSError, AttributeError, ValueError) as e:
            _native, kernel_status = False, f"numpy ({e})"
    return _native or None


def native_float32(*arrays):
    """The native kernels, if they load and every array is C-contiguous
    float32; else None, for the numpy twin."""
    lib = native_kernels()
    ok = all(a.dtype == np.float32 and a.flags.c_contiguous for a in arrays)
    return lib if lib and ok else None


_parts = None  # parts per in_parts call, set on first use
_split = threading.Lock()  # held while parts run: a nested or concurrent split runs whole
_workers = []  # the job queue of each persistent worker thread
if hasattr(os, "register_at_fork"):  # a forked child has none of the threads
    os.register_at_fork(after_in_child=_workers.clear)


def openblas_threads(verb):
    """numpy's bundled OpenBLAS {verb}_num_threads, verb "get" or "set"; or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    names = [f"{pre}_{verb}_num_threads{end}" for pre, end in
             (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))]
    fn = next((getattr(lib, nm) for lib in map(ctypes.CDLL, libs) for nm in names
               if hasattr(lib, nm)), None)
    if fn is not None:
        fn.argtypes, fn.restype = ([], ctypes.c_int) if verb == "get" else ([ctypes.c_int], None)
    return fn


def split_parts():
    """Parts per in_parts call: one per CPU this process may run on, with numpy's
    OpenBLAS set to one thread, process-wide, on the first call; else 1."""
    global _parts
    if _parts is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        set_threads = openblas_threads("set") if cpus > 1 else None
        if set_threads:
            set_threads(1)
        _parts = cpus if set_threads else 1
    return _parts


def _work(jobs):
    while True:
        fn, args, done = jobs.get()
        try:
            fn(*args)
            fn = args = None  # hold nothing after a job: its buffers go with it
            done.put(None)
        except BaseException as e:
            fn = args = None
            done.put(e)


def in_parts(fn, n, scratch=tuple, split=True):
    """Run fn(lo, hi, *scratch()) over [0, n) in split_parts() contiguous
    parts, at most n (n = 0 runs nothing): this thread runs the first,
    persistent daemon threads the others, and it returns once all have
    finished, re-raising the first exception raised.  scratch() is called,
    and its buffers freed, in this thread: a worker's malloc arena would
    keep what it allocates, and frees in worker order would vary the heap.
    A call made while another runs (nested, or from a second thread) runs
    fn(0, n, *scratch()) here.  So does a call with split False, n = 0
    too: the caller's size rule for work too small to pay for a second
    part (a split costs 5-25 us more on a 2-vCPU VM).  fn must call no module-level bnn
    function: perfbench's tracer wraps them, with one span stack for all
    threads."""
    if not split:
        return fn(0, n, *scratch())
    parts = min(split_parts(), n)
    if parts <= 1 or not _split.acquire(blocking=False):
        return fn(0, n, *scratch()) if n > 0 else None
    try:
        while len(_workers) < parts - 1:
            _workers.append(queue.SimpleQueue())
            threading.Thread(target=_work, args=(_workers[-1],), daemon=True).start()
        cuts, done = [n * i // parts for i in range(parts + 1)], queue.SimpleQueue()
        bufs = [scratch() for _ in range(parts)]
        for jobs, lo, hi, buf in zip(_workers, cuts[1:], cuts[2:], bufs[1:]):
            jobs.put((fn, (lo, hi, *buf), done))
        try:
            fn(0, cuts[1], *bufs[0])
        finally:
            errors = [e for e in (done.get() for _ in range(parts - 1)) if e is not None]
        if errors:
            raise errors[0]
    finally:
        _split.release()


def _library_path(cc: str) -> str:
    """Where the library compiled from _kernels.c by the command cc is
    cached, keyed on the source, cc, _CFLAGS and the CPU's flags."""
    with open(_KERNELS_C, "rb") as f:
        key = hashlib.sha256(f.read() + " ".join([cc] + _CFLAGS).encode())
    if os.path.exists("/proc/cpuinfo"):  # -march=native: this CPU's flags
        with open("/proc/cpuinfo", "rb") as f:
            key.update(next((ln for ln in f if ln.startswith((b"flags", b"Features"))), b""))
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or
                         os.path.join(os.path.expanduser("~"), ".cache"), "bnnkit")
    os.makedirs(cache, mode=0o700, exist_ok=True)
    st = os.stat(cache)  # else another user could plant a library we load
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"{cache} is writable by other users")
    return os.path.join(cache, f"kernels-{key.hexdigest()[:32]}.so")


def _build_kernels() -> str:
    """Path of the cached shared library, compiled first if missing."""
    path = _library_path(os.environ.get("CC") or "cc")
    if not os.path.exists(path):
        cc, so = shlex.split(os.environ.get("CC") or "cc"), f"{path}.{os.getpid()}"
        done = subprocess.run(cc + _CFLAGS + ["-o", so, _KERNELS_C], capture_output=True)
        if done.returncode:
            err = " ".join(done.stderr.decode(errors="replace").split())[:200]
            raise OSError(f"{cc[0]} exited with status {done.returncode}. {err}".strip())
        os.replace(so, path)  # whole, so a concurrent build cannot tear it
    return path


# per-word popcount, uint8 counts that add into an int32 accumulator
popcount_words = np.bitwise_count


@dataclass(frozen=True)
class BitTensor:
    """Packed {0,1} representation of a {-1,+1} tensor, word-aligned rows.

    words has shape outer_dims + (words_per_row,); within a word bit i of
    the logical row occupies bit position i % 64 (LSB-first).
    """

    shape: tuple
    words: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))
        expected = self.outer_size * self.words_per_row
        if self.words.size != expected:
            raise ShapeError(
                f"words array has {self.words.size} words, expected {expected}"
            )

    @property
    def logical_len(self) -> int:
        return self.shape[-1]

    @property
    def outer_size(self) -> int:
        return int(np.prod(self.shape[:-1], dtype=np.int64)) if len(self.shape) > 1 else 1

    @property
    def words_per_row(self) -> int:
        return max(1, -(-self.logical_len // WORD_BITS))

    def row_words(self) -> np.ndarray:
        """words as a 2-D (rows, words_per_row) view."""
        return self.words.reshape(self.outer_size, self.words_per_row)


def pack_signs(x, thr=None, lo=None, hi=None, flip=None, pool=(1, 1)) -> np.ndarray:
    """Sign bits of (N, C, H, W) x packed along C, (N, OH, OW, ceil(C/8))
    uint8: bit c % 8 of byte c // 8 is x[:, c] >= thr[c] (>= 0 if thr is
    None), LSB-first, pad bits 1; ORed over the windows of a MaxPool
    (kernel, stride) = pool, then XORed with the (ceil(C/8),) uint8 bytes
    flip.  An (O, C, kh, kw) weight, or (rows, n, 1, 1) values, pack the
    same way.  Raises sign_forward's NumericError when a value some window
    covers is NaN or outside [lo[c], hi[c]] (float32 (C,)).  Each of thr,
    lo, hi and flip may be None.

    float32 x and thr on a plane of 32 pixels or more run the native
    pack_signs, which reads x once.  Otherwise numpy compares: under 32
    pixels (a dense layer's (N, F, 1, 1), a 4 x 4 map, a conv weight) over
    the channels-last view into one np.packbits, 3-50x faster than the
    kernel there; else it ORs the 8 channel planes of each byte, 12x faster
    than np.packbits at (8, 352, 32, 32).  Both give the kernel's bytes.
    The kernel runs in parts of the images, each with its own plane."""
    n, c, h, w = x.shape
    cb, (k, s) = -(-c // 8), pool
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    for a, shape, dtype in ((thr, (c,), None), (lo, (c,), np.float32),
                            (hi, (c,), np.float32), (flip, (cb,), np.uint8)):
        if a is not None and (a.shape != shape or dtype and a.dtype != dtype):
            raise ShapeError(f"pack_signs: {a.dtype} {a.shape}, expected "
                             f"{np.dtype(dtype or a.dtype)} {shape}")
    lib = native_kernels()
    if lib and h * w >= 32 and x.dtype == np.float32 and (
            thr is None or thr.dtype == np.float32):
        out, bad = np.empty((n, oh, ow, cb), np.uint8), np.zeros(n, bool)
        arrays = [None if a is None else np.ascontiguousarray(a) for a in (x, thr, lo, hi, flip)]
        x, args = arrays[0], [None if a is None else a.ctypes.data for a in arrays[1:]]

        def images(i, j, plane):  # a part's flag goes to its first image
            bad[i] = lib.pack_signs(x[i:].ctypes.data, *args, out[i:].ctypes.data,
                                    plane.ctypes.data, j - i, c, h, w, k, s)

        pixels = ((oh - 1) * s + k) * ((ow - 1) * s + k)
        in_parts(images, n, lambda: (np.empty(pixels, np.uint8),))
        if bad.any():
            raise NumericError(NAN_INPUT)
        return out
    x = x[:, :, : (oh - 1) * s + k, : (ow - 1) * s + k]  # what some window covers
    if np.isnan(np.max(x, initial=0)) or (lo is not None and (x < lo[:, None, None]).any()) or (
            hi is not None and (x > hi[:, None, None]).any()):
        raise NumericError(NAN_INPUT)
    t = 0 if thr is None else thr
    if h * w < 32:
        bits = np.ones((n,) + x.shape[2:] + (8 * cb,), dtype=bool)
        np.greater_equal(x.transpose(0, 2, 3, 1), t, out=bits[..., :c])
        b = np.packbits(bits, axis=-1, bitorder="little")
    else:
        bits = np.ones((n, 8 * cb) + x.shape[2:], dtype=bool)
        np.greater_equal(x, np.reshape(t, (-1, 1, 1)), out=bits[:, :c])
        planes = bits.view(np.uint8).reshape(n, cb, 8, *x.shape[2:])  # 8 channels a byte
        b = planes[:, :, 0].copy()
        for i in range(1, 8):
            b |= planes[:, :, i] << i
        b = b.transpose(0, 2, 3, 1)
    if k > 1 or s > 1:  # OR over each window
        b = np.bitwise_or.reduce([b[:, i: i + s * oh: s, j: j + s * ow: s]
                                  for i in range(k) for j in range(k)])
    return np.ascontiguousarray(b if flip is None else b ^ flip)


def from_row_bytes(row_bytes: np.ndarray) -> BitTensor:
    """(rows, nbytes) LSB-first packed bytes as a (rows, 8*nbytes)
    BitTensor, each row padded to whole words with 0xFF bytes."""
    rows, nbytes = row_bytes.shape
    words = np.full((rows, -(-nbytes // 8) * 8), 0xFF, dtype=np.uint8)
    words[:, :nbytes] = row_bytes
    return BitTensor(shape=(rows, 8 * nbytes), words=words.view("<u8").reshape(-1))


def unpack_signs(row_bytes: np.ndarray, n: int) -> np.ndarray:
    """Expand (..., nbytes) LSB-first packed bytes into float32 (..., n).

    Accepts the byte view of pack's words or any byte prefix of it that
    covers n bits.
    """
    bits = np.unpackbits(row_bytes, axis=-1, count=n, bitorder="little")
    return bits.astype(np.float32) * 2.0 - 1.0


def pack(src: np.ndarray) -> BitTensor:
    """Binarize a real tensor (sign, with sign(0) = +1) and pack it into
    word-padded rows; a NaN raises, as in sign_forward."""
    src = np.asarray(src)
    if src.size == 0:
        raise ValueError("cannot pack an empty tensor")
    if src.shape == ():
        raise ValueError("cannot pack a 0-d tensor")
    rows = pack_signs(src.reshape(-1, src.shape[-1], 1, 1))
    return BitTensor(shape=src.shape, words=from_row_bytes(rows.reshape(len(rows), -1)).words)


def unpack(src: BitTensor) -> np.ndarray:
    """Expand a BitTensor back to dense float32 values in {-1.0, +1.0}."""
    if src.logical_len == 0:
        raise ValueError("cannot unpack a BitTensor with logical_len 0")
    row_bytes = src.row_words().view(np.uint8)
    return unpack_signs(row_bytes, src.logical_len).reshape(src.shape)


def binary_dot(x: BitTensor, w: BitTensor) -> int:
    """Exact {-1,+1} dot product of two packed rows via XOR + popcount."""
    if len(x.shape) != 1 or len(w.shape) != 1:
        raise ShapeError("binary_dot expects 1-D BitTensors")
    n = x.logical_len
    if w.logical_len != n:
        raise ShapeError(
            f"length mismatch: {n} vs {w.logical_len}"
        )
    differ = int(popcount_words(np.bitwise_xor(x.words, w.words)).sum())
    return n - 2 * differ


# Output rows per block of binary_gemm.  The (rows, N) uint64 XOR tile and
# int32 accumulator are reused by every block; at the N of the conv layers
# (64 to 176) 1024 rows keep them within a cache-sized 0.5-2 MB.
_ROW_BLOCK = 1024


def binary_gemm(a: BitTensor, b: BitTensor) -> np.ndarray:
    """Multiply packed (M, K) a by the transpose of packed (N, K) b.

    Returns float32 (M, N) of exact integers K - 2 * popcount(a XOR b);
    numpy accumulates them one 64-bit word column at a time.  The native
    GEMM runs in parts of whole 6-row blocks from M = 1024 rows on: every
    part reads all of b, and a dense layer's GEMM over its batch (LeNet's
    100 x 1024 x 1024, ~50 us) ran 1.6x slower in two parts.
    """
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ShapeError("binary_gemm expects 2-D BitTensors")
    m, k = a.shape
    n_out, k_b = b.shape
    if k_b != k:
        raise ShapeError(f"inner dimension mismatch: {k} vs {k_b}")

    # word-major copies: row j holds word j of every operand row
    bw = np.ascontiguousarray(b.row_words().T, dtype=np.uint64)
    out = np.empty((m, n_out), dtype=np.float32)
    lib = native_kernels()
    if lib:
        aw = np.ascontiguousarray(a.row_words(), dtype=np.uint64)

        def rows(lo, hi):  # in parts of whole blocks of 6 rows, the kernel's
            lo, hi = 6 * lo, min(m, 6 * hi)
            lib.xnor_gemm(aw[lo:].ctypes.data, bw.ctypes.data, out[lo:].ctypes.data,
                          hi - lo, n_out, a.words_per_row, k)

        in_parts(rows, -(-m // 6), split=m >= 1024)
        return out
    aw = np.ascontiguousarray(a.row_words().T)
    block = max(1, min(m, _ROW_BLOCK))  # m = 0 for a batch of no images
    diff = np.empty((block, n_out), dtype=np.uint64)
    count = np.empty((block, n_out), dtype=np.int32)
    for start in range(0, m, block):
        stop = min(m, start + block)
        d, c = diff[: stop - start], count[: stop - start]
        c.fill(0)
        for j in range(a.words_per_row):
            np.bitwise_xor(aw[j, start:stop, None], bw[j], out=d)
            c += popcount_words(d)
        out[start:stop] = k - 2 * c
    return out
