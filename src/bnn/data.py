"""Dataset ingestion: MNIST (IDX files) and CIFAR-10 (binary batches).

Images are scaled to [0, 1] and then normalized to zero mean / unit
variance per channel using statistics of the train split; the statistics
travel with the Dataset (and are stored in model files) so inference is
self-contained.  No downloads happen here; scripts/fetch_mnist.py and
scripts/fetch_cifar10.py retrieve and checksum the raw files.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

IMAGE_MAGIC = 2051  # 0x00000803: unsigned byte, 3 dimensions
LABEL_MAGIC = 2049  # 0x00000801: unsigned byte, 1 dimension

CIFAR_RECORD = 3073  # 1 label byte + 3*32*32 pixel bytes
NUM_CLASSES = 10  # MNIST digits and CIFAR-10 classes alike


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32, normalized
    labels: np.ndarray  # (N,) int64
    split: str  # "train" or "test"
    class_count: int
    norm_mean: np.ndarray  # per-channel, in [0,1] pixel units
    norm_std: np.ndarray

    def __len__(self):
        return self.images.shape[0]

    def denormalize_bytes(self) -> np.ndarray:
        """Invert normalization back to the raw uint8 pixel values."""
        c = self.images.shape[1]
        raw = (
            self.images * self.norm_std.reshape(1, c, 1, 1)
            + self.norm_mean.reshape(1, c, 1, 1)
        ) * 255.0
        return np.rint(raw).clip(0, 255).astype(np.uint8)


def _normalize_pair(train_raw, test_raw, train_labels, test_labels):
    """raw uint8 (N,C,H,W) -> normalized Dataset pair with train stats."""
    train01 = train_raw.astype(np.float32) / 255.0
    test01 = test_raw.astype(np.float32) / 255.0
    mean = train01.mean(axis=(0, 2, 3))
    std = train01.std(axis=(0, 2, 3))
    std = np.where(std < 1e-8, 1.0, std)
    c = train_raw.shape[1]

    def norm(x):
        return (x - mean.reshape(1, c, 1, 1)) / std.reshape(1, c, 1, 1)

    return (
        Dataset(norm(train01), train_labels.astype(np.int64), "train",
                NUM_CLASSES, mean, std),
        Dataset(norm(test01), test_labels.astype(np.int64), "test",
                NUM_CLASSES, mean, std),
    )


def _read_idx(path, magic, ndim):
    """The dimensions in the header of an IDX file of ndim dimensions,
    and its uint8 payload."""
    with open(path, "rb") as f:
        data = f.read()
    head = 4 + 4 * ndim
    if len(data) < head:
        raise DataFormatError(f"{path}: truncated IDX header", offset=len(data))
    found, *dims = struct.unpack_from(f">{1 + ndim}I", data, 0)
    if found != magic:
        raise DataFormatError(f"{path}: bad magic {found}, expected {magic}", offset=0)
    expected = head + math.prod(dims)
    if len(data) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {len(data)}",
                              offset=min(len(data), expected))
    return dims, np.frombuffer(data, dtype=np.uint8, offset=head)


def _read_idx_images(path) -> np.ndarray:
    (count, rows, cols), pixels = _read_idx(path, IMAGE_MAGIC, 3)
    if count == 0:
        raise DataFormatError(f"{path}: the file holds no images", offset=4)
    return pixels.reshape(count, 1, rows, cols)


def _check_labels(path, labels, start, stride):
    """DataFormatError at the first label >= NUM_CLASSES, label i at byte start + stride * i."""
    bad = np.flatnonzero(labels >= NUM_CLASSES)
    if len(bad):
        i = int(bad[0])
        raise DataFormatError(f"{path}: label {labels[i]} of record {i} is not below "
                              f"the class count {NUM_CLASSES}", offset=start + stride * i)


def _read_idx_labels(path) -> np.ndarray:
    _, labels = _read_idx(path, LABEL_MAGIC, 1)
    _check_labels(path, labels, 8, 1)
    return labels


MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def load_mnist(directory):
    """Load the four IDX files; returns (train, test) Datasets."""
    paths = {k: os.path.join(directory, v) for k, v in MNIST_FILES.items()}
    missing = [p for p in paths.values() if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(
            f"missing MNIST files: {missing} (run scripts/fetch_mnist.py)"
        )
    train_x = _read_idx_images(paths["train_images"])
    train_y = _read_idx_labels(paths["train_labels"])
    test_x = _read_idx_images(paths["test_images"])
    test_y = _read_idx_labels(paths["test_labels"])
    if len(train_x) != len(train_y) or len(test_x) != len(test_y):
        raise DataFormatError("image/label counts disagree")
    return _normalize_pair(train_x, test_x, train_y, test_y)


def _read_cifar_batch(path):
    with open(path, "rb") as f:
        data = f.read()
    if len(data) == 0 or len(data) % CIFAR_RECORD != 0:
        raise DataFormatError(
            f"{path}: size {len(data)} is not a multiple of {CIFAR_RECORD}",
            offset=len(data) - len(data) % CIFAR_RECORD,
        )
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = records[:, 0]
    _check_labels(path, labels, 0, CIFAR_RECORD)
    images = records[:, 1:].reshape(-1, 3, 32, 32)  # R, G, B planes
    return images, labels


def load_cifar10(directory):
    """Load the five train batches plus the test batch."""
    train_names = [f"data_batch_{i}.bin" for i in range(1, 6)]
    test_name = "test_batch.bin"
    paths = [os.path.join(directory, n) for n in train_names + [test_name]]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(
            f"missing CIFAR-10 files: {missing} "
            f"(run scripts/fetch_cifar10.py)"
        )
    xs, ys = [], []
    for p in paths[:-1]:
        x, y = _read_cifar_batch(p)
        xs.append(x)
        ys.append(y)
    train_x = np.concatenate(xs)
    train_y = np.concatenate(ys)
    test_x, test_y = _read_cifar_batch(paths[-1])
    return _normalize_pair(train_x, test_x, train_y, test_y)


def _augment(images, rng):
    """Random horizontal flip + 4-pixel pad-and-crop (CIFAR recipe)."""
    n, c, h, w = images.shape
    out = np.empty_like(images)
    flips = rng.random(n) < 0.5
    pad = 4
    padded = np.pad(
        images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
    )
    offsets = rng.integers(0, 2 * pad + 1, size=(n, 2))
    for i in range(n):
        dy, dx = offsets[i]
        crop = padded[i, :, dy:dy + h, dx:dx + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


def batches(ds: Dataset, batch_size: int, shuffle_seed=None, augment=False):
    """Yield (images, labels) batches; the final partial batch is included.

    A given seed produces a fixed uniform permutation; seed None keeps
    the stored order.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(ds)
    if shuffle_seed is None:
        order = np.arange(n)
        rng = np.random.default_rng(0)
    else:
        rng = np.random.default_rng(shuffle_seed)
        order = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        imgs = ds.images[idx]
        if augment:
            imgs = _augment(imgs, rng)
        yield imgs, ds.labels[idx]
