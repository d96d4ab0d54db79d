"""Shared fixtures: synthetic datasets and raw data-file writers."""

import contextlib
import json
import os
import struct

import numpy as np
import pytest

from bnn import bittensor
from bnn.autodiff import NAN_INPUT
from bnn.data import Dataset
from bnn.errors import NumericError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def mnist_dir():
    """Directory holding the real MNIST IDX files, if available."""
    d = os.environ.get("BNN_MNIST_DIR", os.path.join(REPO_ROOT, "data", "mnist"))
    return d if os.path.isdir(d) else None


def cifar_dir():
    d = os.environ.get("BNN_CIFAR_DIR", os.path.join(REPO_ROOT, "data", "cifar10"))
    return d if os.path.isdir(d) else None


@contextlib.contextmanager
def numpy_kernels():
    """Run the numpy code instead of the native kernels, as when they
    cannot be built."""
    saved, bittensor._native = bittensor._native, False
    try:
        yield
    finally:
        bittensor._native = saved


@contextlib.contextmanager
def kernel_calls():
    """Run the native kernels and yield the list of the names of those
    called, in order; the test is skipped where they cannot be built."""
    lib = bittensor.native_kernels()
    if lib is None:
        pytest.skip(bittensor.kernel_status)
    calls = []

    class Recorder:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(lib, name)

    saved, bittensor._native = bittensor._native, Recorder()
    try:
        yield calls
    finally:
        bittensor._native = saved


@contextlib.contextmanager
def split_in(parts, size_rules=True):
    """Run bittensor.in_parts with this many parts (split_parts() is one
    per CPU, or 1); without size_rules, work that a caller's size rule
    keeps whole (split=False) is split too, so that small shapes split."""
    saved, bittensor._parts = bittensor.split_parts(), parts
    in_parts = bittensor.in_parts
    if not size_rules:
        bittensor.in_parts = lambda fn, n, scratch=tuple, split=True: in_parts(fn, n, scratch)
    try:
        yield
    finally:
        bittensor._parts, bittensor.in_parts = saved, in_parts


def packed_signs(x, thr=None, flip=None, pool=(1, 1)):
    """bittensor.pack_signs step by step, its oracle: over the rows and
    columns some window covers, NAN_INPUT (returned) for a NaN; else the
    compare, np.packbits along channels with 1-pad bits, a strided OR over
    each window and the XOR with flip."""
    n, c, h, w = x.shape
    k, s = pool
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    x = x[:, :, : (oh - 1) * s + k, : (ow - 1) * s + k]
    if np.isnan(x).any():
        return NAN_INPUT
    bits = np.ones((n, -(-c // 8) * 8) + x.shape[2:], dtype=bool)
    bits[:, :c] = x >= (0 if thr is None else thr[:, None, None])
    b = np.packbits(bits, axis=1, bitorder="little").transpose(0, 2, 3, 1)
    out = np.zeros((n, oh, ow, b.shape[-1]), np.uint8)
    for i in range(k):
        for j in range(k):
            out |= b[:, i: i + s * oh: s, j: j + s * ow: s]
    return out if flip is None else out ^ flip


def packed_both_ways(x, **kwargs):
    """bittensor.pack_signs(x, **kwargs) with the native kernel (when it
    builds) and with its numpy twin: each the bytes, or the NumericError
    text it raised."""
    out = []
    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels():
            try:
                out.append(bittensor.pack_signs(x, **kwargs))
            except NumericError as e:
                out.append(str(e))
    return out


def edit_descriptor(path, edit):
    """Rewrite the JSON descriptor of a saved model file in place with
    edit(desc); the payload and its CRC are untouched."""
    blob = open(path, "rb").read()
    n = struct.unpack_from("<I", blob, 6)[0]
    desc = json.loads(blob[10:10 + n])
    edit(desc)
    new = json.dumps(desc, sort_keys=True, separators=(",", ":")).encode()
    open(path, "wb").write(blob[:6] + struct.pack("<I", len(new)) + new
                           + blob[10 + n:])


def make_synth_dataset(n, class_count=10, shape=(1, 28, 28), seed=0,
                       split="train"):
    """Linearly separable synthetic images: class l gets a bright patch."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, class_count, n).astype(np.int64)
    imgs = rng.standard_normal((n,) + shape).astype(np.float32) * 0.1
    for i, l in enumerate(labels):
        imgs[i, 0, l: l + 3, l: l + 3] += 2.0
    c = shape[0]
    return Dataset(
        images=imgs, labels=labels, split=split, class_count=class_count,
        norm_mean=np.zeros(c, dtype=np.float32),
        norm_std=np.ones(c, dtype=np.float32),
    )


@pytest.fixture
def synth_pair():
    return make_synth_dataset(240, seed=1), make_synth_dataset(80, seed=2,
                                                               split="test")


def write_idx_images(path, images):
    """images: uint8 (N, rows, cols)."""
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 2051, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 2049, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def write_mnist_dir(directory, n_train=64, n_test=32, seed=0):
    """A miniature but structurally valid MNIST directory."""
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)

    def make(n):
        labels = rng.integers(0, 10, n).astype(np.uint8)
        imgs = (rng.random((n, 28, 28)) * 40).astype(np.uint8)
        for i, l in enumerate(labels):
            imgs[i, l: l + 6, l: l + 6] = 250
        return imgs, labels

    tr_x, tr_y = make(n_train)
    te_x, te_y = make(n_test)
    write_idx_images(os.path.join(directory, "train-images-idx3-ubyte"), tr_x)
    write_idx_labels(os.path.join(directory, "train-labels-idx1-ubyte"), tr_y)
    write_idx_images(os.path.join(directory, "t10k-images-idx3-ubyte"), te_x)
    write_idx_labels(os.path.join(directory, "t10k-labels-idx1-ubyte"), te_y)
    return directory


def write_cifar_batch(path, n, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, (n, 1)).astype(np.uint8)
    pixels = rng.integers(0, 256, (n, 3 * 32 * 32)).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(np.concatenate([labels, pixels], axis=1).tobytes())


def write_cifar_dir(directory, per_batch=20, seed=0):
    os.makedirs(directory, exist_ok=True)
    for i in range(1, 6):
        write_cifar_batch(os.path.join(directory, f"data_batch_{i}.bin"),
                          per_batch, seed=seed + i)
    write_cifar_batch(os.path.join(directory, "test_batch.bin"),
                      per_batch, seed=seed + 6)
    return directory
