"""Synthetic MNIST IDX and CIFAR-10 binary-batch files made from a seed.

The benchmark writes these files into a temporary directory inside the
checkout and reads them back through ``data.load_mnist`` and
``data.load_cifar10``, so the data layer is measured and nothing is
downloaded.  Each class has a random prototype image; a sample is its
class prototype plus Gaussian pixel noise, so the labels carry signal and
training losses move, while the same seed always gives the same bytes.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from bnn import data

CIFAR_TRAIN_FILES = 5  # data_batch_1.bin .. data_batch_5.bin
NUM_CLASSES = 10


def _samples(rng, protos, n):
    labels = rng.integers(0, NUM_CLASSES, size=n).astype(np.uint8)
    noise = rng.normal(0.0, 48.0, size=(n,) + protos.shape[1:])
    images = np.clip(protos[labels] + noise, 0, 255).astype(np.uint8)
    return images, labels


def write_mnist(directory, seed, n_train, n_test):
    """Write the four MNIST IDX files (28x28, one channel)."""
    rng = np.random.default_rng(seed)
    protos = rng.integers(0, 256, size=(NUM_CLASSES, 28, 28)).astype(np.float64)
    for prefix, n in (("train", n_train), ("test", n_test)):
        images, labels = _samples(rng, protos, n)
        with open(os.path.join(directory, data.MNIST_FILES[prefix + "_images"]), "wb") as f:
            f.write(struct.pack(">IIII", data.IMAGE_MAGIC, n, 28, 28))
            f.write(images.tobytes())
        with open(os.path.join(directory, data.MNIST_FILES[prefix + "_labels"]), "wb") as f:
            f.write(struct.pack(">II", data.LABEL_MAGIC, n))
            f.write(labels.tobytes())


def _write_cifar_batch(path, images, labels):
    records = np.empty((len(labels), data.CIFAR_RECORD), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = images.reshape(len(labels), -1)
    with open(path, "wb") as f:
        f.write(records.tobytes())


def write_cifar10(directory, seed, n_train, n_test):
    """Write the five CIFAR-10 train batches and the test batch."""
    if n_train < CIFAR_TRAIN_FILES:
        raise ValueError(f"need at least {CIFAR_TRAIN_FILES} train images")
    rng = np.random.default_rng(seed)
    protos = rng.integers(0, 256, size=(NUM_CLASSES, 3, 32, 32)).astype(np.float64)
    images, labels = _samples(rng, protos, n_train)
    parts = np.array_split(np.arange(n_train), CIFAR_TRAIN_FILES)
    for i, idx in enumerate(parts, start=1):
        _write_cifar_batch(
            os.path.join(directory, f"data_batch_{i}.bin"), images[idx], labels[idx]
        )
    images, labels = _samples(rng, protos, n_test)
    _write_cifar_batch(os.path.join(directory, "test_batch.bin"), images, labels)


WRITERS = {"mnist": write_mnist, "cifar10": write_cifar10}
LOADERS = {"mnist": data.load_mnist, "cifar10": data.load_cifar10}
