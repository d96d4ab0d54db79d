"""Training loop, optimizers, evaluation and sweep drivers."""

import importlib.util
import os
import threading

import numpy as np
import pytest

from bnn import arch
from bnn.autodiff import Slot, Tape
from bnn.data import batches
from bnn.errors import NumericError
from bnn.layers import Param
from bnn.train import (
    Adam,
    DEFAULT_TCLIP_GRID,
    SGDMomentum,
    TrainConfig,
    TrainReport,
    compare_scaling_modes,
    evaluate,
    set_scaling_mode,
    set_t_clip,
    softmax_cross_entropy,
    sweep_tclip,
    train,
    write_scaling_csv,
    write_tclip_csv,
)

from conftest import REPO_ROOT, kernel_calls, make_synth_dataset, numpy_kernels, split_in


def tiny_pair():
    return (make_synth_dataset(120, seed=1),
            make_synth_dataset(60, seed=2, split="test"))


def quick_cfg(**kw):
    base = dict(epochs=1, batch_size=30, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.optimizer == "adam"
        assert cfg.lr == pytest.approx(1e-3)
        assert cfg.epochs == 30
        assert cfg.t_clip == 0.5
        assert cfg.scaling_mode == "N"

    def test_decay_schedule_default(self):
        assert TrainConfig(epochs=30).decay_epochs() == (18, 27)
        assert TrainConfig(epochs=100).decay_epochs() == (60, 90)

    def test_decay_schedule_explicit(self):
        assert TrainConfig(lr_decay_at=(5, 9)).decay_epochs() == (5, 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=-1.0)
        with pytest.raises(ValueError, match="weight_decay must be >= 0"):
            TrainConfig(weight_decay=-5.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(t_clip=0.0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")
        # the layers test the mode case-sensitively: "fb" would train with no alpha
        with pytest.raises(ValueError, match="scaling_mode must be one of"):
            TrainConfig(scaling_mode="fb")
        TrainConfig(lr=0.0)  # degenerate but legal


class TestSoftmaxCrossEntropy:
    def test_matches_manual_oracle(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((6, 4)).astype(np.float32)
        labels = rng.integers(0, 4, 6)
        loss = softmax_cross_entropy(Tape(), Slot(z), labels)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        expected = -np.log(p[np.arange(6), labels]).mean()
        assert float(loss.value) == pytest.approx(expected, rel=1e-5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, 4)

        def loss_at(zv):
            return float(softmax_cross_entropy(Tape(), Slot(zv), labels).value)

        tape = Tape()
        slot = Slot(z)
        loss = softmax_cross_entropy(tape, slot, labels)
        tape.backward(loss)
        eps = 1e-5
        for idx in [(0, 0), (1, 3), (3, 4)]:
            zp = z.copy(); zp[idx] += eps
            zm = z.copy(); zm[idx] -= eps
            fd = (loss_at(zp) - loss_at(zm)) / (2 * eps)
            assert slot.grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_large_logits_stable(self):
        z = np.array([[1000.0, -1000.0]], dtype=np.float32)
        loss = softmax_cross_entropy(Tape(), Slot(z), np.array([0]))
        assert np.isfinite(loss.value)


class TestOptimizers:
    def _params(self):
        rng = np.random.default_rng(0)
        w = Param(np.clip(rng.standard_normal((4, 4)), -1, 1), "w",
                  binary=True)
        b = Param(rng.standard_normal(4), "b")
        w.grad = np.full((4, 4), 10.0, dtype=np.float32)
        b.grad = np.ones(4, dtype=np.float32)
        return w, b

    @pytest.mark.parametrize("opt_cls", [Adam, SGDMomentum])
    def test_binary_params_clipped(self, opt_cls):
        w, b = self._params()
        opt = opt_cls([w, b], TrainConfig(lr=1.0))
        for _ in range(5):
            opt.step(1.0)
        assert np.all(np.abs(w.value) <= 1.0)

    def test_weight_decay_skips_binary(self):
        w, b = self._params()
        w.grad = np.zeros((4, 4), dtype=np.float32)
        b.grad = np.zeros(4, dtype=np.float32)
        w0, b0 = w.value.copy(), b.value.copy()
        opt = SGDMomentum([w, b], TrainConfig(optimizer="sgd_momentum",
                                              lr=0.1, weight_decay=0.5))
        opt.step(0.1)
        assert np.array_equal(w.value, w0)  # decay not applied to binary
        assert not np.array_equal(b.value, b0)

    def test_none_grad_skipped(self):
        w, _ = self._params()
        w.grad = None
        w0 = w.value.copy()
        Adam([w], TrainConfig()).step(1e-3)
        assert np.array_equal(w.value, w0)


class TestTrainLoop:
    def test_loss_decreases(self):
        tr, te = tiny_pair()
        model = arch.build_lenet(seed=0)
        report = train(model, tr, te, quick_cfg(epochs=3))
        assert len(report.records) == 3
        assert report.records[-1].train_loss < report.records[0].train_loss

    def test_lr_zero_is_noop(self):
        tr, te = tiny_pair()
        model = arch.build_lenet(seed=0)
        before = [p.value.copy() for p in model.params()]
        train(model, tr, te, quick_cfg(lr=0.0))
        after = [p.value for p in model.params()]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_deterministic(self):
        tr, te = tiny_pair()

        def run():
            model = arch.build_lenet(seed=3)
            report = train(model, tr, te, quick_cfg(epochs=2))
            return report, [p.value.copy() for p in model.params()]

        r1, p1 = run()
        r2, p2 = run()
        assert [x.train_loss for x in r1.records] == [x.train_loss
                                                      for x in r2.records]
        assert all(np.array_equal(a, b) for a, b in zip(p1, p2))

    def test_applies_config_to_model(self):
        tr, te = tiny_pair()
        model = arch.build_lenet(seed=0)
        train(model, tr, te, quick_cfg(t_clip=0.75, scaling_mode="B"))
        assert model.build_args["t_clip"] == 0.75
        assert model.build_args["scaling_mode"] == "B"
        qconv = [l for l in model.layers() if getattr(l, "binary", False)][0]
        assert qconv.ste.t_clip == 0.75

    def test_binary_latents_stay_clipped(self):
        tr, te = tiny_pair()
        model = arch.build_lenet(seed=0)
        train(model, tr, te, quick_cfg(lr=0.1))
        for p in model.params():
            if getattr(p, "binary", False):
                assert np.all(np.abs(p.value) <= 1.0)


class TestEvaluate:
    def test_top5_bounds_top1(self):
        tr, te = tiny_pair()
        model = arch.build_lenet(seed=0)
        top1, top5, loss = evaluate(model, te)
        assert 0.0 <= top1 <= top5 <= 1.0
        assert loss > 0.0

    def test_random_model_near_chance(self):
        te = make_synth_dataset(400, seed=9, split="test")
        model = arch.build_lenet(seed=1)
        top1, _, _ = evaluate(model, te)
        assert top1 < 0.4  # untrained: near 0.1, generous band

    def test_empty_split_is_named(self):
        """A Dataset of no images raises ValueError naming its split,
        before any training step changes the model."""
        tr, te = tiny_pair()
        empty = make_synth_dataset(0, seed=3, split="test")
        model = arch.build_lenet(seed=0)
        before = [p.value.copy() for p in model.params()]
        with pytest.raises(ValueError, match="the test split holds no images"):
            evaluate(model, empty)
        with pytest.raises(ValueError, match="the test split holds no images"):
            train(model, tr, empty, quick_cfg())
        with pytest.raises(ValueError, match="the train split holds no images"):
            train(model, make_synth_dataset(0), te, quick_cfg())
        assert all(np.array_equal(a, p.value) for a, p in zip(before, model.params()))

    def test_top5_nan_below_five_classes(self):
        te = make_synth_dataset(40, class_count=3, seed=4, split="test")
        model = arch.build_lenet(num_classes=3, seed=0)
        _, top5, _ = evaluate(model, te)
        assert np.isnan(top5)


class TestSweeps:
    def test_tclip_rows(self):
        tr, te = tiny_pair()

        def build(t):
            return arch.build_lenet(t_clip=t, seed=0)

        rows = sweep_tclip(build, tr, te, [0.25, 0.5], quick_cfg())
        assert [r[0] for r in rows] == [0.25, 0.5]
        for _, final, best in rows:
            assert best >= final - 1e-12

    def test_tclip_validation(self):
        with pytest.raises(ValueError):
            sweep_tclip(lambda t: None, None, None, [], quick_cfg())
        with pytest.raises(ValueError):
            sweep_tclip(lambda t: None, None, None, [-0.5], quick_cfg())

    def test_default_grid_covers_optimal_band(self):
        assert 0.5 in DEFAULT_TCLIP_GRID
        assert 0.75 in DEFAULT_TCLIP_GRID

    def test_scaling_comparison(self):
        tr, te = tiny_pair()

        def build(mode):
            return arch.build_lenet(scaling_mode=mode, seed=0)

        modes, columns = compare_scaling_modes(build, tr, te, quick_cfg())
        assert modes == ("N", "B", "FB")
        assert all(len(columns[m]) == 1 for m in modes)

    def test_csv_writers(self, tmp_path):
        p1 = tmp_path / "t.csv"
        write_tclip_csv([(0.5, 0.9, 0.95)], str(p1))
        lines = p1.read_text().strip().splitlines()
        assert lines[0] == "t_clip,final_test_top1,best_test_top1"
        assert lines[1].startswith("0.5,")

        p2 = tmp_path / "s.csv"
        write_scaling_csv(("N", "B"), {"N": [0.5], "B": [0.6]}, str(p2))
        lines = p2.read_text().strip().splitlines()
        assert lines[0] == "epoch,N,B"


def test_report_csv_shape():
    from bnn.train import EpochRecord
    rep = TrainReport(records=[
        EpochRecord(0, 1.5, 0.4, 0.5, 0.9, 2.0),
        EpochRecord(1, 1.0, 0.6, 0.7, float("nan"), 2.0),
    ])
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "epoch,loss,train_acc,test_top1,test_top5,seconds"
    assert len(lines) == 3
    assert lines[2].split(",")[4] == ""  # nan top-5 serialized as empty


def test_set_helpers():
    model = arch.build_lenet(seed=0)
    set_t_clip(model, 1.25)
    set_scaling_mode(model, "FB")
    with pytest.raises(ValueError, match="scaling_mode must be one of"):
        set_scaling_mode(model, "fb")
    for layer in model.layers():
        if hasattr(layer, "ste"):
            assert layer.ste.t_clip == 1.25
            assert layer.cfg.scaling_mode == "FB"  # the convs and dense layers
    assert model.build_args["scaling_mode"] == "FB"


@pytest.mark.parametrize("where", ["input", "conv0", "bn0", "bn1"])
def test_find_nan_layer_keeps_model_state(where):
    """The first NaN node is named from the failed step's tape, also when
    the NaN stops the forward at the next binary layer's input (qconv0
    after bn0, qdense0 after bn1); no forward runs after the failed one,
    so the BatchNorm buffers are those one failing forward leaves."""
    tr, te = make_synth_dataset(40, seed=1), make_synth_dataset(10, seed=2, split="test")
    models = []
    for _ in range(2):
        model = arch.build_lenet(seed=0)
        model.forward(tr.images[:20], training=True)  # non-default running stats
        layer = {l.name: l for l in model.layers()}.get(where)
        if where == "conv0":
            layer.weight.value[0, 0, 0, 0] = np.nan
        elif where != "input":
            layer.gamma.value[1] = np.nan
        models.append(model)
    if where == "input":
        tr.images[3, 0, 5, 5] = np.nan
    model, once = models
    (images, _), = batches(tr, len(tr), shuffle_seed=0)  # the step train runs
    with pytest.raises(NumericError):
        once.forward(images, training=True)
    forwards = []

    def forward(*args, **kwargs):
        forwards.append(args)
        return arch.ModelGraph.forward(model, *args, **kwargs)

    model.forward = forward
    with pytest.raises(NumericError, match=rf"first NaN-producing layer: {where}$"):
        train(model, tr, te, quick_cfg(batch_size=len(tr)))
    assert len(forwards) == 1

    def snapshot(g):
        return [{k: v.tobytes() for k, v in layer.buffers().items()} for layer in g.layers()]

    assert snapshot(model) == snapshot(once)


@pytest.mark.parametrize("where", ["conv0", "head", "qconv0", "qdense0"])
def test_training_nan_names_its_layer(where):
    """A NaN in the stem's weight stops the forward at qconv0's sign, one
    in a binary layer's latent weights at that layer's weight signs, and
    one in the head's reaches the loss: training names the layer each way."""
    tr, te = tiny_pair()
    model = arch.build_lenet(seed=0)
    layer = {l.name: l for l in model.layers()}[where]
    layer.weight.value[(0,) * layer.weight.value.ndim] = np.nan
    with pytest.raises(NumericError, match=rf"^training diverged: NaN at epoch 0; "
                                           rf"first NaN-producing layer: {where}$"):
        train(model, tr, te, quick_cfg())


@pytest.mark.parametrize("spec,where", [("densenet:k=4,b=1", "qconv1"),
                                        ("densenet:k=4,b=1", "qtrans0"),
                                        ("resnet18", "qconv2"), ("resnet18", "qproj0")])
def test_training_nan_in_latent_weights_names_its_layer(spec, where):
    """A NaN in the latent weights of an inner binary conv, a DenseNet
    transition or a ResNet shortcut stops the forward at that layer."""
    tr = make_synth_dataset(4, shape=(3, 32, 32), seed=1)
    te = make_synth_dataset(2, shape=(3, 32, 32), seed=2, split="test")
    model = arch.build_model(spec, num_classes=10, preset="cifar")
    w = {l.name: l for l in model.layers()}[where].weight.value
    w[(0,) * w.ndim] = np.nan
    with pytest.raises(NumericError, match=rf"first NaN-producing layer: {where}$"):
        train(model, tr, te, quick_cfg(batch_size=4))


def _train_digest_module():
    spec = importlib.util.spec_from_file_location(
        "train_digest", os.path.join(REPO_ROOT, "scripts", "train_digest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("run", range(4))
def test_adam_steps_native_equal_numpy(run):
    """Three Adam steps of LeNet (N, FB, N with weight decay) and
    densenet:k=16,b=2 give the same losses, gradients, parameters and
    BatchNorm buffers, byte for byte, with the native kernels and with
    their numpy twins."""
    td = _train_digest_module()
    _, *args = td.RUNS[run]
    _, native = td.train_trace(*args)
    with numpy_kernels():
        _, twin = td.train_trace(*args)
    assert len(native) == len(twin)
    for a, b in zip(native, twin):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_adam_in_place_gives_the_out_of_place_bytes():
    """Adam.step updates m, v and the parameters in place with the float32
    operations, in the order, of the out-of-place expressions."""
    rng = np.random.default_rng(0)
    params = [Param(rng.uniform(-1, 1, (7, 5)), "w", binary=True),
              Param(rng.normal(0, 1, 11), "b")]
    cfg = TrainConfig(weight_decay=1e-4)
    opt = Adam(params, cfg)
    ref = [p.value.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    b1, b2 = cfg.beta1, cfg.beta2
    for t in range(1, 5):
        lr = 1e-2 / t
        for i, p in enumerate(params):
            p.grad = rng.normal(0, 1, p.value.shape).astype(np.float32)
            g = p.grad if p.binary else p.grad + cfg.weight_decay * ref[i]
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            ref[i] -= lr * (m[i] / (1 - b1 ** t)) / (np.sqrt(v[i] / (1 - b2 ** t)) + 1e-8)
            if p.binary:
                np.clip(ref[i], -1.0, 1.0, out=ref[i])
        opt.step(lr)
        for i, p in enumerate(params):
            assert p.value.tobytes() == ref[i].tobytes()
            assert opt.m[i].tobytes() == m[i].tobytes()
            assert opt.v[i].tobytes() == v[i].tobytes()


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
@pytest.mark.parametrize("lr_type", [float, np.float64])
def test_adam_native_step_equals_numpy(weight_decay, lr_type):
    """Five steps of the native adam_step give the numpy code's bytes for
    m, v and the parameters: a binary weight clipped to [-1, 1], a float32
    bias and, in numpy, a float64 parameter, with gradients holding -0.0.
    An lr that numpy does not treat as a Python float takes numpy too."""
    runs = []
    for kernels in (kernel_calls, numpy_kernels):
        rng = np.random.default_rng(5)
        params = [Param(rng.uniform(-1, 1, (7, 9)), "w", binary=True),
                  Param(rng.normal(0, 1, 13), "b"), Slot(rng.normal(0, 1, 5), "d")]
        opt = Adam(params, TrainConfig(weight_decay=weight_decay))
        with kernels() as calls:
            for t in range(5):
                for p in params:
                    g = rng.normal(0, 30, p.value.shape)
                    g[rng.random(g.shape) < 0.2] = -0.0
                    p.grad = g.astype(p.value.dtype)
                opt.step(lr_type(0.5 / (t + 1)))
        runs.append([a.tobytes() for a in [p.value for p in params] + opt.m + opt.v])
        if calls is not None:
            runs.append(calls)
            assert np.any(np.abs(params[0].value) == 1.0)
    native, calls, twin = runs
    assert calls == (["adam_step"] * 10 if lr_type is float else [])
    assert native == twin


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_adam_bytes_do_not_depend_on_the_split(weight_decay):
    """Adam.step runs the native adam_step in parts of each parameter's
    elements, one call a part, and gives the same m, v and parameters in 1,
    2 and 3 parts as the numpy code: a binary weight of an odd element count
    (1001, parts of unequal length), clipped to [-1, 1], and a bias."""
    runs = []
    for kernels in (kernel_calls, numpy_kernels):
        for parts in (1, 2, 3):
            rng = np.random.default_rng(11)
            params = [Param(rng.uniform(-1, 1, (7, 11, 13)), "w", binary=True),
                      Param(rng.normal(0, 1, 6), "b")]
            opt = Adam(params, TrainConfig(weight_decay=weight_decay))
            with kernels() as calls, split_in(parts, size_rules=False):
                for t in range(3):
                    for p in params:
                        g = rng.normal(0, 30, p.value.shape)
                        g[rng.random(g.shape) < 0.2] = -0.0
                        p.grad = g.astype(np.float32)
                    opt.step(0.5 / (t + 1))
            if calls is not None:
                assert calls == ["adam_step"] * 3 * (parts + min(parts, 6))
                assert np.any(np.abs(params[0].value) == 1.0)
            runs.append([a.tobytes() for a in [p.value for p in params] + opt.m + opt.v])
    assert all(run == runs[0] for run in runs)


def test_split_parts_keep_the_tracer_span_stack_in_order():
    """perfbench's Tracer keeps one span stack for all threads, so no part
    that bittensor.in_parts runs may call a module-level bnn function.  With
    every split stage in 2 parts (size rules off), a LeNet training step
    and Adam step, an evaluate and a densenet:k=12,b=1 training step open
    every span in the calling thread and close it in order, inside the span
    that was open when it began."""
    from bnn import train as bnn_train  # evaluate as the tracer wraps it

    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(REPO_ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer, threads = tracing.Tracer(), set()
    begin = tracer.begin
    tracer.begin = lambda *args: threads.add(threading.get_ident()) or begin(*args)
    tracer.install()
    try:
        with split_in(2, size_rules=False):
            for name, preset in (("lenet", None), ("densenet:k=12,b=1", "cifar")):
                model = arch.build_model(name, num_classes=10, seed=0, preset=preset)
                rng = np.random.default_rng(0)
                x = rng.standard_normal((4,) + model.input_shape).astype(np.float32)
                tape = Tape()
                logits = model.forward(x, tape=tape, training=True)
                tape.backward(softmax_cross_entropy(tape, logits, rng.integers(0, 10, 4)))
                if name == "lenet":
                    bnn_train.Adam(model.params(), TrainConfig()).step(1e-3)
                    bnn_train.evaluate(model, make_synth_dataset(8, seed=2, split="test"))
    finally:
        tracer.uninstall()
    assert tracer.spans and not tracer._stack and threads == {threading.get_ident()}
    names = {span[0] for span in tracer.spans}
    assert {"bittensor.binary_gemm", "autodiff.Tape.backward", "train.Adam.step",
            "train.evaluate"} <= names
    for i, (_, _, parent, t0, t1, _) in enumerate(tracer.spans):
        assert t0 <= t1 and parent < i
        assert parent < 0 or tracer.spans[parent][3] <= t0 <= t1 <= tracer.spans[parent][4]
