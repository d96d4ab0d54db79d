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

Convolutions pack along channels instead (pack_channels), so im2col of
the bytes gives rows ready for binary_gemm.  When C % 8 != 0 a patch row
also holds the 1-pad bits of each of its kh*kw pixels, in both operands;
each adds +1 to the result, and the caller subtracts their count.

binary_gemm and layers.col2im run the C kernels of _kernels.c, compiled
on first use with $CC -O3 -march=native into $XDG_CACHE_HOME/bnnkit and
keyed on the CPU's flags too (see native_kernels); if that fails, their
numpy code runs, with the same results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

WORD_BITS = 64

_POPCOUNT_TABLE = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)

_HAVE_HW_POPCOUNT = hasattr(np, "bitwise_count")

_KERNELS_C = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
_CFLAGS = ["-O3", "-march=native", "-shared", "-fPIC"]
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
            lib.xnor_gemm.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 4
            lib.col2im_add.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 9
            lib.xnor_gemm.restype = lib.col2im_add.restype = None
            _native, kernel_status = lib, f"native ({path})"
        except (OSError, AttributeError, ValueError) as e:
            _native, kernel_status = False, f"numpy ({e})"
    return _native or None


def _build_kernels() -> str:
    """Path of the cached shared library, compiled first if missing."""
    with open(_KERNELS_C, "rb") as f:
        key = hashlib.sha256(f.read() + " ".join(_CFLAGS).encode())
    if os.path.exists("/proc/cpuinfo"):  # -march=native: this CPU's flags
        with open("/proc/cpuinfo", "rb") as f:
            key.update(next((ln for ln in f if ln.startswith((b"flags", b"Features"))), b""))
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or
                         os.path.join(os.path.expanduser("~"), ".cache"), "bnnkit")
    os.makedirs(cache, mode=0o700, exist_ok=True)
    st = os.stat(cache)  # else another user could plant a library we load
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"{cache} is writable by other users")
    path = os.path.join(cache, f"kernels-{key.hexdigest()[:32]}.so")
    if not os.path.exists(path):
        cc, so = shlex.split(os.environ.get("CC") or "cc"), f"{path}.{os.getpid()}"
        done = subprocess.run(cc + _CFLAGS + ["-o", so, _KERNELS_C], capture_output=True)
        if done.returncode:
            err = " ".join(done.stderr.decode(errors="replace").split())[:200]
            raise OSError(f"{cc[0]} exited with status {done.returncode}. {err}".strip())
        os.replace(so, path)  # whole, so a concurrent build cannot tear it
    return path


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word popcount using the hardware instruction when available."""
    if _HAVE_HW_POPCOUNT:
        return np.bitwise_count(words)
    return popcount_words_portable(words)


def popcount_words_portable(words: np.ndarray) -> np.ndarray:
    """Table-driven popcount fallback; bit-exact equal to the fast path."""
    as_bytes = words.view(np.uint8).reshape(words.shape + (8,))
    # uint8 like np.bitwise_count, so counts add into an int32 accumulator
    return _POPCOUNT_TABLE[as_bytes].sum(axis=-1, dtype=np.uint8)


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


def pack_rows(values: np.ndarray) -> np.ndarray:
    """Sign-binarize a (rows, n) array into (rows, wpr) uint64 words.

    Bit i of a row is bit i % 64 of word i // 64 (LSB-first, little-endian
    words), so the byte view of a word row is the BNN1 file row padded
    with 0xFF bytes.  Padding bits (to the next word boundary) are 1.
    """
    rows, n = values.shape
    bits = np.ones((rows, max(1, -(-n // WORD_BITS)) * WORD_BITS), dtype=bool)
    np.greater_equal(values, 0, out=bits[:, :n])
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def pack_channels(x: np.ndarray, thresholds=None) -> np.ndarray:
    """Sign bits of (N, C, H, W) x along C: (N, H, W, ceil(C/8)) uint8.

    Bit c % 8 of byte c // 8 is channel c (LSB-first, as in pack_rows),
    pad bits are 1.  An (O, C, kh, kw) weight packs the same way.  With
    per-channel thresholds (C,), bit c is x[:, c] >= thresholds[c]
    instead of x[:, c] >= 0.
    """
    n, c, h, w = x.shape
    bits = np.ones((n, -(-c // 8) * 8, h, w), dtype=bool)
    thr = 0 if thresholds is None else thresholds.reshape(-1, 1, 1)
    np.greater_equal(x, thr, out=bits[:, :c])
    planes = bits.view(np.uint8).reshape(n, -1, 8, h, w)  # 8 channels a byte
    out = planes[:, :, 0].copy()
    for i in range(1, 8):
        out |= planes[:, :, i] << i
    return np.ascontiguousarray(out.transpose(0, 2, 3, 1))


def from_row_bytes(row_bytes: np.ndarray) -> BitTensor:
    """(rows, nbytes) LSB-first packed bytes as a (rows, 8*nbytes)
    BitTensor, each row padded to whole words with 0xFF bytes."""
    rows, nbytes = row_bytes.shape
    words = np.full((rows, -(-nbytes // 8) * 8), 0xFF, dtype=np.uint8)
    words[:, :nbytes] = row_bytes
    return BitTensor(shape=(rows, 8 * nbytes), words=words.view("<u8").reshape(-1))


def unpack_rows(row_bytes: np.ndarray, n: int) -> np.ndarray:
    """Expand (rows, nbytes) LSB-first packed bytes into float32 (rows, n).

    Accepts the byte view of pack_rows words or any byte prefix of it
    that covers n bits.
    """
    bits = np.unpackbits(row_bytes, axis=1, count=n, bitorder="little")
    return bits.astype(np.float32) * 2.0 - 1.0


def pack(src: np.ndarray) -> BitTensor:
    """Binarize a real tensor (sign, with sign(0) = +1) and pack it."""
    src = np.asarray(src)
    if src.size == 0:
        raise ValueError("cannot pack an empty tensor")
    if src.shape == ():
        raise ValueError("cannot pack a 0-d tensor")
    words = pack_rows(src.reshape(-1, src.shape[-1]))
    return BitTensor(shape=src.shape, words=words.reshape(-1))


def unpack(src: BitTensor) -> np.ndarray:
    """Expand a BitTensor back to dense float32 values in {-1.0, +1.0}."""
    if src.logical_len == 0:
        raise ValueError("cannot unpack a BitTensor with logical_len 0")
    row_bytes = src.row_words().view(np.uint8)
    return unpack_rows(row_bytes, src.logical_len).reshape(src.shape)


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
    numpy accumulates them one 64-bit word column at a time.
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
        lib.xnor_gemm(aw.ctypes.data, bw.ctypes.data, out.ctypes.data,
                      m, n_out, a.words_per_row, k)
        return out
    aw = np.ascontiguousarray(a.row_words().T)
    block = min(m, _ROW_BLOCK)
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
