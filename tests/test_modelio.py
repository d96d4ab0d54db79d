"""Model file format: round-trips, size prediction, corruption handling."""

import struct

import numpy as np
import pytest

from bnn import arch, modelio
from bnn.errors import ModelFormatError, NumericError
from bnn.plan import InferencePlan

from conftest import edit_descriptor


@pytest.fixture
def lenet():
    model = arch.build_lenet(seed=5)
    # nudge weights off their init so round-trips are non-trivial
    rng = np.random.default_rng(0)
    for p in model.params():
        p.value = p.value + rng.standard_normal(p.value.shape).astype(
            np.float32
        ) * 0.01
        if getattr(p, "binary", False):
            np.clip(p.value, -1.0, 1.0, out=p.value)
    return model


class TestRoundTrip:
    def test_logits_bit_exact(self, lenet, tmp_path):
        path = str(tmp_path / "m.bnn")
        modelio.save(lenet, path)
        loaded, _ = modelio.load(path)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((16, 1, 28, 28)).astype(np.float32)
        a = lenet.forward(x, training=False).value
        b = loaded.forward(x, training=False).value
        assert np.array_equal(a, b)

    def test_save_load_save_identical(self, lenet, tmp_path):
        p1, p2 = str(tmp_path / "a.bnn"), str(tmp_path / "b.bnn")
        modelio.save(lenet, p1)
        loaded, norm = modelio.load(p1)
        modelio.save(loaded, p2, normalization=norm)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_normalization_stats_roundtrip(self, lenet, tmp_path):
        path = str(tmp_path / "m.bnn")
        mean = np.array([0.1307], dtype=np.float32)
        std = np.array([0.3081], dtype=np.float32)
        modelio.save(lenet, path, normalization=(mean, std))
        _, (m, s) = modelio.load(path)
        assert np.array_equal(m, mean)
        assert np.array_equal(s, std)

    def test_default_normalization(self, lenet, tmp_path):
        path = str(tmp_path / "m.bnn")
        modelio.save(lenet, path)
        _, (m, s) = modelio.load(path)
        assert np.array_equal(m, [0.0])
        assert np.array_equal(s, [1.0])

    def test_buffers_roundtrip(self, lenet, tmp_path):
        # batch-norm running stats must survive serialization
        bn = [l for l in lenet.layers() if l.spec()["kind"] == "batchnorm"][0]
        bn.running_mean[:] = 2.5
        path = str(tmp_path / "m.bnn")
        modelio.save(lenet, path)
        loaded, _ = modelio.load(path)
        bn2 = [l for l in loaded.layers()
               if l.spec()["kind"] == "batchnorm"][0]
        assert np.all(bn2.running_mean == 2.5)

    def test_densenet_roundtrip(self, tmp_path):
        model = arch.build_densenet(
            arch.DenseNetSpec(k=8, b=1, num_classes=10), preset="cifar",
            seed=2,
        )
        path = str(tmp_path / "d.bnn")
        modelio.save(model, path)
        loaded, _ = modelio.load(path)
        x = np.random.default_rng(0).standard_normal(
            (4, 3, 32, 32)
        ).astype(np.float32)
        assert np.array_equal(
            model.forward(x, training=False).value,
            loaded.forward(x, training=False).value,
        )

    def test_resnet_roundtrip(self, tmp_path):
        """A CIFAR ResNet-18 (mode N) file rebuilds through build_resnet:
        save -> load -> save is byte-identical, and the loaded model's
        logits are the saved one's, from the graph and from the plan."""
        model = arch.build_resnet(18, num_classes=10, preset="cifar", seed=4)
        x = np.random.default_rng(4).standard_normal((3, 3, 32, 32)).astype(np.float32)
        model.forward(x, training=True)  # running statistics off their defaults
        p1, p2 = str(tmp_path / "a.bnn"), str(tmp_path / "b.bnn")
        modelio.save(model, p1)
        loaded, norm = modelio.load(p1)
        modelio.save(loaded, p2, normalization=norm)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        want = model.forward(x, training=False).value
        assert loaded.forward(x, training=False).value.tobytes() == want.tobytes()
        assert InferencePlan(loaded).run(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["N", "B", pytest.param("FB", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: the file keeps an FB weight's sign bits only, "
                            "so alpha = mean|w| comes out as 1 after load"))])
    @pytest.mark.parametrize("spec,preset", [("lenet", None), ("densenet:k=16,b=2", "cifar")])
    def test_logits_bit_exact_in_every_scaling_mode(self, tmp_path, spec, preset, mode):
        """After save -> load the graph and the plan give the saved model's
        logits, byte for byte."""
        model = arch.build_model(spec, num_classes=10, scaling_mode=mode, seed=1, preset=preset)
        path = str(tmp_path / "m.bnn")
        modelio.save(model, path)
        loaded, _ = modelio.load(path)
        x = np.random.default_rng(1).standard_normal((5,) + model.input_shape).astype(np.float32)
        for logits in (lambda g: g.forward(x, training=False).value,
                       lambda g: InferencePlan(g).run(x)):
            assert logits(loaded).tobytes() == logits(model).tobytes()


class TestSizePrediction:
    @pytest.mark.parametrize("binary_storage", [True, False])
    def test_file_size_exact(self, lenet, tmp_path, binary_storage):
        path = str(tmp_path / "m.bnn")
        if binary_storage:
            modelio.save(lenet, path)
        else:
            modelio.export_fp(lenet, path)
        import os
        assert os.path.getsize(path) == modelio.file_size(
            lenet, binary_storage=binary_storage
        )

    def test_packed_payload_is_one_bit_per_weight(self, lenet):
        # q-layer rows here are multiples of 8 bits: exactly 32x smaller
        for p in lenet.params():
            if getattr(p, "binary", False):
                shape = p.value.shape
                row_len = int(np.prod(shape[1:]))
                assert row_len % 8 == 0
                packed = modelio._payload_nbytes(shape, "packed_binary")
                fp = modelio._payload_nbytes(shape, "float32")
                assert fp == 32 * packed

    def test_size_independent_of_values(self, lenet, tmp_path):
        s0 = modelio.file_size(lenet)
        for p in lenet.params():
            p.value = p.value * 0 + 0.123
        assert modelio.file_size(lenet) == s0


class TestPackedRows:
    def test_golden_bytes(self):
        # row [+, -, +] -> bits 1,0,1; pad bits set -> 0b11111101
        vals = np.array([[0.5, -0.2, 0.0]], dtype=np.float32)
        assert modelio._pack_weight(vals) == bytes([0b11111101])

    def test_rows_padded_independently(self):
        vals = np.array([[1.0, -1.0, -1.0], [-1.0, -1.0, 1.0]],
                        dtype=np.float32)
        blob = modelio._pack_weight(vals)
        assert blob == bytes([0b11111001, 0b11111100])

    def test_unpack_inverse(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((5, 37)).astype(np.float32)
        blob = modelio._pack_weight(vals)
        out = modelio._unpack_weight(blob, (5, 37))
        assert np.array_equal(out, np.where(vals >= 0, 1.0, -1.0))

    def test_multibyte_lsb_first(self):
        vals = -np.ones((1, 9), dtype=np.float32)
        vals[0, 8] = 1.0  # only bit 8 set -> second byte LSB
        assert modelio._pack_weight(vals) == bytes([0x00, 0b11111111])

    def test_nan_binary_weight_is_refused(self, tmp_path):
        """A NaN latent weight has no sign to store: save raises, as every
        sign does, and writes no file."""
        model = arch.build_lenet(seed=1)
        next(p for p in model.params() if p.binary).value.flat[7] = np.nan
        path = tmp_path / "m.bnn"
        with pytest.raises(NumericError):
            modelio.save(model, str(path))
        assert not path.exists()


class TestCorruption:
    def _saved(self, tmp_path):
        model = arch.build_lenet(seed=1)
        path = str(tmp_path / "m.bnn")
        modelio.save(model, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"NOPE"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ModelFormatError, match="magic"):
            modelio.load(path)

    def test_bad_version(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[4:6] = struct.pack("<H", 99)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ModelFormatError, match="version"):
            modelio.load(path)

    def test_payload_corruption_fails_checksum(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[-100] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ModelFormatError, match="checksum"):
            modelio.load(path)

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:len(blob) // 2])
        with pytest.raises(ModelFormatError, match="truncated"):
            modelio.load(path)

    def test_tiny_file(self, tmp_path):
        path = str(tmp_path / "m.bnn")
        open(path, "wb").write(b"BN")
        with pytest.raises(ModelFormatError, match="truncated"):
            modelio.load(path)

    def test_garbage_descriptor(self, tmp_path):
        path = str(tmp_path / "m.bnn")
        desc = b"{not json"
        with open(path, "wb") as f:
            f.write(modelio.MAGIC)
            f.write(struct.pack("<H", modelio.VERSION))
            f.write(struct.pack("<I", len(desc)))
            f.write(desc)
            f.write(struct.pack("<I", 0))
        with pytest.raises(ModelFormatError, match="descriptor"):
            modelio.load(path)

    def test_fp_export_rejected_by_load(self, tmp_path):
        model = arch.build_lenet(seed=1)
        path = str(tmp_path / "fp.bnn")
        modelio.export_fp(model, path)
        with pytest.raises(ModelFormatError, match="storage-class"):
            modelio.load(path)

    def test_unknown_model_kind(self, tmp_path):
        path = self._saved(tmp_path)
        blob = open(path, "rb").read()
        desc_len = struct.unpack_from("<I", blob, 6)[0]
        desc = blob[10:10 + desc_len].replace(b'"lenet"', b'"vgg16"')
        new = (blob[:6] + struct.pack("<I", len(desc)) + desc
               + blob[10 + desc_len:])
        open(path, "wb").write(new)
        with pytest.raises(ModelFormatError, match="unknown model"):
            modelio.load(path)


def _set(*keys, value):
    def edit(desc):
        for k in keys[:-1]:
            desc = desc[k]
        desc[keys[-1]] = value
    return edit


class TestMalformedDescriptor:
    @pytest.mark.parametrize("edit,match", [
        (lambda d: d.pop("build_args"), "cannot rebuild.*KeyError: 'build_args'"),
        (_set("build_args", "dropout", value=0.1), "cannot rebuild.*TypeError"),
        (_set("build_args", "num_classes", value="10"), "cannot rebuild.*TypeError"),
        (lambda d: d["build_args"].pop("model"), "cannot rebuild.*KeyError"),
        (_set("build_args", "model", value=7), "unknown model kind"),
        (_set("build_args", value=[]), "cannot rebuild.*KeyError: 'model'"),
        # build_args are read only to build, after the payload is sized
        (lambda d: d.clear() or d.update(build_args=5),
         "corrupt descriptor: cannot size the payload: KeyError: 'layers'"),
        (_set("extra", value=1), "field 'extra'"),
        (lambda d: d.pop("name"), "field 'name'"),
        (_set("storage_mode", value="bits"), "does not match the graph"),
        (_set("norm_channels", value=3), "field 'norm_channels'"),
        (_set("layers", 0, "params", 0, "shape", value=[32, "1", 5, 5]), "field 'layers'"),
        (_set("layers", 3, "params", 0, "storage", value="float32"), "field 'layers'"),
        (_set("layers", 0, "params", value=[]), "field 'layers'"),
        (_set("layers", 2, "buffers", value=[]), "field 'layers'"),
        (lambda d: d["layers"].pop(), "field 'layers'"),
        (lambda d: d["layers"].append(d["layers"][-1]), "field 'layers'"),
    ], ids=["missing-build-args", "unknown-build-arg", "string-num-classes",
            "missing-model", "model-not-str", "build-args-list", "build-args-int",
            "extra-key", "missing-key", "bad-storage-mode", "norm-channels", "bad-shape",
            "storage-class", "params-dropped", "buffers-dropped",
            "layer-dropped", "layer-added"])
    def test_raises_model_format_error(self, tmp_path, edit, match):
        path = str(tmp_path / "m.bnn")
        modelio.save(arch.build_lenet(seed=1), path)
        edit_descriptor(path, edit)
        with pytest.raises(ModelFormatError, match=match):
            modelio.load(path)

    def test_unedited_file_loads(self, tmp_path):
        path = str(tmp_path / "m.bnn")
        modelio.save(arch.build_lenet(seed=1), path)
        edit_descriptor(path, lambda d: None)
        modelio.load(path)


def _packed_shape(value):
    """An edit setting the shape of the first sign-packed parameter."""
    def edit(desc):
        next(p for e in desc["layers"] for p in e["params"]
             if p["storage"] == "packed_binary")["shape"] = value
    return edit


class TestSizeCheckedBeforeBuild:
    """A small, CRC-valid file whose build_args ask for a huge DenseNet is
    refused from its own descriptor, before any graph is allocated."""

    @pytest.mark.parametrize("edit,match", [
        # the huge model's stem (2k = 8192 channels) over the small payload
        (_set("layers", 0, "params", 0, "shape", value=[8192, 3, 3, 3]),
         "payload is .* bytes, but descriptor field 'layers'"),
        (_set("layers", value=5), "cannot size the payload: TypeError"),
        (_set("layers", 0, "params", 0, "shape", value=[10 ** 30]),
         "cannot size the payload: OverflowError"),
        (lambda d: d["layers"][0].pop("buffers"), "cannot size the payload: KeyError"),
        (_set("norm_channels", value="3"), "cannot size the payload: TypeError"),
        (_packed_shape([]), "cannot size the payload: IndexError"),
    ], ids=["short-payload", "layers-not-a-list", "shape-overflow", "no-buffers",
            "norm-channels-str", "packed-shape-empty"])
    def test_refused_without_building(self, tmp_path, monkeypatch, edit, match):
        path = str(tmp_path / "d.bnn")
        small = arch.build_densenet(arch.DenseNetSpec(k=4, b=1, num_classes=10),
                                    preset="cifar")
        modelio.save(small, path)

        def huge(desc):
            desc["build_args"].update(k=4096, b=64)
            edit(desc)

        edit_descriptor(path, huge)

        def refuse(*args, **kwargs):
            raise AssertionError("build_densenet was called")

        monkeypatch.setattr(arch, "build_densenet", refuse)
        with pytest.raises(ModelFormatError, match=match):
            modelio.load(path)


def test_storage_class():
    model = arch.build_lenet()
    classes = [modelio.storage_class(l) for l in model.layers()]
    assert classes.count("packed_binary") == 2
    assert classes[0] == "float32"  # stem conv


def test_bad_normalization_shape(tmp_path):
    model = arch.build_lenet()
    with pytest.raises(ValueError):
        modelio.save(model, str(tmp_path / "m.bnn"),
                     normalization=(np.zeros(3), np.ones(3)))
