"""Dataset loaders, normalization and batching."""

import os
import struct

import numpy as np
import pytest

from bnn import data
from bnn.errors import DataFormatError

from conftest import (
    make_synth_dataset,
    write_cifar_batch,
    write_cifar_dir,
    write_idx_images,
    write_idx_labels,
    write_mnist_dir,
)


class TestMnist:
    def test_load_roundtrip(self, tmp_path):
        d = write_mnist_dir(tmp_path / "mnist", n_train=40, n_test=16)
        train, test = data.load_mnist(d)
        assert train.images.shape == (40, 1, 28, 28)
        assert test.images.shape == (16, 1, 28, 28)
        assert train.images.dtype == np.float32
        assert train.labels.dtype == np.int64
        assert train.class_count == 10
        # normalization: zero mean / unit variance on the train split
        assert abs(train.images.mean()) < 1e-4
        assert abs(train.images.std() - 1.0) < 1e-3
        # test split uses the train statistics
        assert np.array_equal(train.norm_mean, test.norm_mean)

    def test_denormalize_is_lossless(self, tmp_path):
        d = write_mnist_dir(tmp_path / "mnist", n_train=16, n_test=8, seed=3)
        train, _ = data.load_mnist(d)
        raw = np.frombuffer(
            open(os.path.join(d, "train-images-idx3-ubyte"), "rb").read()[16:],
            dtype=np.uint8,
        ).reshape(16, 1, 28, 28)
        assert np.array_equal(train.denormalize_bytes(), raw)

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError) as exc:
            data.load_mnist(str(tmp_path))
        assert "fetch_mnist" in str(exc.value)

    def test_bad_image_magic(self, tmp_path):
        d = write_mnist_dir(tmp_path / "mnist")
        path = tmp_path / "mnist" / "train-images-idx3-ubyte"
        blob = bytearray(path.read_bytes())
        blob[3] = 0x99
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as exc:
            data.load_mnist(d)
        assert exc.value.offset == 0

    def test_truncated_images(self, tmp_path):
        d = write_mnist_dir(tmp_path / "mnist")
        path = tmp_path / "mnist" / "train-images-idx3-ubyte"
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataFormatError):
            data.load_mnist(d)

    def test_truncated_header(self, tmp_path):
        d = write_mnist_dir(tmp_path / "mnist")
        (tmp_path / "mnist" / "train-labels-idx1-ubyte").write_bytes(b"\x00\x01")
        with pytest.raises(DataFormatError):
            data.load_mnist(d)

    def test_count_mismatch(self, tmp_path):
        d = write_mnist_dir(tmp_path / "mnist", n_train=10)
        # rewrite labels with a different count
        write_idx_labels(str(tmp_path / "mnist" / "train-labels-idx1-ubyte"),
                         np.zeros(9, dtype=np.uint8))
        with pytest.raises(DataFormatError):
            data.load_mnist(d)


    def test_label_out_of_range(self, tmp_path):
        d = write_mnist_dir(tmp_path / "mnist", n_train=10)
        labels = np.zeros(10, dtype=np.uint8)
        labels[[4, 7]] = [10, 255]
        write_idx_labels(str(tmp_path / "mnist" / "train-labels-idx1-ubyte"), labels)
        with pytest.raises(DataFormatError, match="label 10 of record 4") as exc:
            data.load_mnist(d)
        assert exc.value.offset == 8 + 4

    def test_empty_split(self, tmp_path):
        d = write_mnist_dir(tmp_path / "mnist", n_train=0)
        with pytest.raises(DataFormatError, match="train-images-idx3-ubyte: the file holds no"):
            data.load_mnist(d)


class TestCifar:
    def test_load(self, tmp_path):
        d = write_cifar_dir(tmp_path / "cifar", per_batch=12)
        train, test = data.load_cifar10(d)
        assert train.images.shape == (60, 3, 32, 32)
        assert test.images.shape == (12, 3, 32, 32)
        assert train.norm_mean.shape == (3,)
        assert abs(train.images.mean()) < 1e-4

    def test_bad_record_size(self, tmp_path):
        d = write_cifar_dir(tmp_path / "cifar", per_batch=4)
        path = tmp_path / "cifar" / "data_batch_3.bin"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataFormatError):
            data.load_cifar10(d)

    def test_label_out_of_range(self, tmp_path):
        d = write_cifar_dir(tmp_path / "cifar", per_batch=4)
        path = tmp_path / "cifar" / "test_batch.bin"
        blob = bytearray(path.read_bytes())
        blob[2 * data.CIFAR_RECORD] = 10
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="test_batch.bin: label 10 of record 2") as exc:
            data.load_cifar10(d)
        assert exc.value.offset == 2 * data.CIFAR_RECORD

    def test_empty_batch(self, tmp_path):
        d = write_cifar_dir(tmp_path / "cifar", per_batch=4)
        (tmp_path / "cifar" / "test_batch.bin").write_bytes(b"")
        with pytest.raises(DataFormatError, match="test_batch.bin: size 0"):
            data.load_cifar10(d)

    def test_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError) as exc:
            data.load_cifar10(str(tmp_path))
        assert "fetch_cifar10" in str(exc.value)

    def test_channel_layout(self, tmp_path):
        # first 1024 pixel bytes are the red plane
        path = tmp_path / "one.bin"
        record = bytes([7]) + bytes([200] * 1024) + bytes([0] * 2048)
        path.write_bytes(record)
        images, labels = data._read_cifar_batch(str(path))
        assert labels[0] == 7
        assert np.all(images[0, 0] == 200)
        assert np.all(images[0, 1:] == 0)


class TestBatches:
    def test_partition_exact(self):
        ds = make_synth_dataset(53)
        seen = []
        for imgs, labels in data.batches(ds, 10, shuffle_seed=4):
            assert imgs.shape[0] == labels.shape[0]
            seen.extend(labels.tolist())
        assert len(seen) == 53
        assert sorted(seen) == sorted(ds.labels.tolist())

    def test_final_partial_batch(self):
        ds = make_synth_dataset(25)
        sizes = [len(l) for _, l in data.batches(ds, 10)]
        assert sizes == [10, 10, 5]

    def test_no_shuffle_keeps_order(self):
        ds = make_synth_dataset(12)
        _, labels = next(data.batches(ds, 12))
        assert np.array_equal(labels, ds.labels)

    def test_shuffle_deterministic(self):
        ds = make_synth_dataset(40)
        a = [l.copy() for _, l in data.batches(ds, 8, shuffle_seed=7)]
        b = [l.copy() for _, l in data.batches(ds, 8, shuffle_seed=7)]
        c = [l.copy() for _, l in data.batches(ds, 8, shuffle_seed=8)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_bad_batch_size(self):
        ds = make_synth_dataset(4)
        with pytest.raises(ValueError):
            next(data.batches(ds, 0))

    def test_augment_preserves_shape_and_determinism(self):
        ds = make_synth_dataset(30, shape=(3, 32, 32))
        a = [i.copy() for i, _ in data.batches(ds, 10, shuffle_seed=1,
                                               augment=True)]
        b = [i.copy() for i, _ in data.batches(ds, 10, shuffle_seed=1,
                                               augment=True)]
        for x, y in zip(a, b):
            assert x.shape == (10, 3, 32, 32)
            assert np.array_equal(x, y)

    def test_augment_changes_pixels(self):
        ds = make_synth_dataset(20, shape=(3, 32, 32))
        plain = next(data.batches(ds, 20, shuffle_seed=2))[0]
        aug = next(data.batches(ds, 20, shuffle_seed=2, augment=True))[0]
        assert not np.array_equal(plain, aug)


def test_idx_writer_readback_consistency(tmp_path):
    # the fixture writers produce files the loaders accept verbatim
    imgs = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
    p = tmp_path / "imgs"
    write_idx_images(str(p), imgs)
    magic, n, r, c = struct.unpack(">IIII", p.read_bytes()[:16])
    assert (magic, n, r, c) == (2051, 2, 28, 28)
    out = data._read_idx_images(str(p))
    assert np.array_equal(out[:, 0], imgs)


def test_cifar_writer_record_size(tmp_path):
    p = tmp_path / "b.bin"
    write_cifar_batch(str(p), 5)
    assert p.stat().st_size == 5 * data.CIFAR_RECORD
