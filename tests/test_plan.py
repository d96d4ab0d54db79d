"""InferencePlan against ModelGraph.forward(training=False), its oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnn import arch, bittensor, layers, train
from bnn.autodiff import Slot, Tape
from bnn.data import Dataset
from bnn.errors import NumericError
from bnn.layers import BatchNorm
from bnn.plan import InferencePlan, bn_thresholds

MODELS = [
    ("lenet", dict(scaling_mode="N")),
    ("lenet", dict(scaling_mode="B")),
    ("lenet", dict(scaling_mode="FB")),
    ("lenet", dict(binary=False)),  # lenet-fp: no binary layer
    # C % 8 != 0 at its 44-channel transitions
    ("densenet:k=16,b=2", dict(preset="cifar", num_classes=10)),
    # its qproj shortcuts binarize an add output: no BatchNorm, threshold 0
    ("resnet18", dict(preset="cifar", num_classes=10)),
]


def _trained_like(spec, kw, seed=0):
    """A model whose BatchNorms look trained: running statistics away from
    (0, 1), a third of the gammas negative and one of them zero."""
    g = arch.build_model(spec, seed=seed, **kw)
    rng = np.random.default_rng(seed)
    for layer in g.layers():
        if isinstance(layer, BatchNorm):
            c = layer.num_features
            layer.running_mean[:] = rng.normal(0, 2, c)
            layer.running_var[:] = rng.uniform(0.05, 4, c)
            layer.gamma.value[:] = rng.uniform(0.2, 2, c)
            layer.gamma.value[: c // 3] *= -1
            layer.gamma.value[c // 2] = 0
            layer.beta.value[:] = rng.normal(0, 1, c)
    return g


def _binary_inputs(g):
    """Ids of the nodes whose sign bits a binary layer reads; a Flatten
    stands for its input, whose bits it passes on."""
    nodes = {n.id: n for n in g.nodes}
    ids = set()
    for n in g.nodes:
        if isinstance(n.op, (layers.QConv2d, layers.QDense)) and n.op.binary:
            src = nodes[n.inputs[0]]
            ids.add(src.inputs[0] if isinstance(src.op, layers.Flatten) else src.id)
    return ids


@pytest.mark.parametrize("spec,kw", MODELS)
def test_plan_matches_graph_bit_for_bit(spec, kw):
    g = _trained_like(spec, kw)
    # more images than the plan runs per chunk, with a short last chunk
    x = np.random.default_rng(1).normal(0, 1, (37,) + g.input_shape).astype(np.float32)
    collected = []
    ref = g.forward(x, collect=collected).value
    values = {n.id: v for n, (_, v) in zip(g.nodes, collected)}
    bits = {}
    got = InferencePlan(g).run(x, collect=bits)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert set(bits) == _binary_inputs(g)
    for nid, b in bits.items():
        v = values[nid]
        v = v.reshape(v.shape + (1, 1)) if v.ndim == 2 else v
        np.testing.assert_array_equal(b, bittensor.pack_channels(v))


def _graph_evaluate(model, ds, batch_size):
    """evaluate as it ran before the plan: the graph on every batch."""
    correct1 = correct5 = total = 0
    loss_sum = 0.0
    for images, labels in train.batches(ds, batch_size):
        tape = Tape()
        logits = model.forward(images, tape=tape, training=False)
        loss = train.softmax_cross_entropy(tape, logits, labels)
        z = logits.value
        loss_sum += float(loss.value) * len(labels)
        correct1 += int((z.argmax(axis=1) == labels).sum())
        top5 = np.argpartition(z, -5, axis=1)[:, -5:]
        correct5 += int((top5 == labels[:, None]).any(axis=1).sum())
        total += len(labels)
    return correct1 / total, correct5 / total, loss_sum / total


@pytest.mark.parametrize("mode", ["N", "FB"])
def test_evaluate_matches_graph_with_short_last_batch(mode):
    g = _trained_like("lenet", dict(scaling_mode=mode), seed=2)
    rng = np.random.default_rng(2)
    ds = Dataset(rng.normal(0, 1, (90, 1, 28, 28)).astype(np.float32),
                 rng.integers(0, 10, 90), "test", 10, 0.0, 1.0)
    # batches of 40, 40, 10; the first two run their stem in chunks
    assert train.evaluate(g, ds, batch_size=40) == _graph_evaluate(g, ds, 40)


def test_nan_image_raises_numeric_error():
    g = _trained_like("lenet", {})
    x = np.zeros((3, 1, 28, 28), np.float32)
    x[1, 0, 5, 7] = np.nan
    with pytest.raises(NumericError):
        g.forward(x)
    with pytest.raises(NumericError):
        InferencePlan(g).run(x)


def test_plan_sees_every_gemm_at_the_graphs_shapes(monkeypatch):
    """perfbench's exactness gate records the shapes by wrapping
    bittensor.binary_gemm; the plan must call it, as the graph does."""
    g = _trained_like("lenet", {})
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(0, 1, (80, 1, 28, 28)).astype(np.float32),
                 rng.integers(0, 10, 80), "test", 10, 0.0, 1.0)
    gemm, im2col = bittensor.binary_gemm, layers.im2col
    shapes, gathered = [], []

    def recording_gemm(a, b):
        shapes.append((a.shape[0], a.shape[1], b.shape[0]))
        return gemm(a, b)

    def recording_im2col(x, *args, **kwargs):
        gathered.append(x.dtype)
        return im2col(x, *args, **kwargs)

    monkeypatch.setattr(bittensor, "binary_gemm", recording_gemm)
    monkeypatch.setattr(layers, "im2col", recording_im2col)
    for images, _ in train.batches(ds, 16):
        g.forward(images)
    graph_shapes, graph_gathered = list(shapes), list(gathered)
    shapes.clear()
    gathered.clear()
    train.evaluate(g, ds, batch_size=16)
    assert len(shapes) == 10
    assert shapes == graph_shapes == [(16 * 64, 800, 64), (16, 1024, 1024)] * 5
    assert gathered == graph_gathered == [np.float32, np.uint8] * 5


HUGE = float(np.float32(3e38))
F32 = st.floats(width=32, allow_nan=False, allow_infinity=False, allow_subnormal=True)
SPECIAL = st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1e-38, -HUGE, HUGE])
CHANNEL = st.tuples(
    st.one_of(SPECIAL, F32),  # gamma: negative, zero, subnormal
    st.one_of(SPECIAL, F32),  # beta
    st.one_of(SPECIAL, F32),  # running mean
    st.one_of(st.sampled_from([0.0, 1e-45, 1e-30, HUGE]),  # var: tiny and huge
              st.floats(0, HUGE, width=32)),
)


def _oracle(bn, x):
    """bn in eval mode on a (m, C) float32 batch."""
    with np.errstate(all="ignore"):
        return bn.forward(Tape(), Slot(x), training=False).value


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.lists(CHANNEL, min_size=1, max_size=4), st.lists(F32, max_size=8))
@example([(0.0, 1.0, 0.0, 1.0), (-0.0, -1.0, 2.0, 0.0)], [])  # constant channels
@example([(1e-45, 0.0, 0.0, 1e-45), (-3e38, 3e38, -3e38, 3e38)], [1e36])
def test_thresholds_agree_with_batchnorm(channels, xs):
    gamma, beta, mean, var = (np.array(v, np.float32) for v in zip(*channels))
    bn = BatchNorm(len(channels))
    bn.gamma.value[:], bn.beta.value[:] = gamma, beta
    bn.running_mean[:], bn.running_var[:] = mean, var
    th = bn_thresholds(bn)  # any RuntimeWarning fails the test
    assert th is not None  # finite parameters, var >= 0
    for c in range(len(channels)):
        t = th.thr[c]
        probes = [0.0, -0.0, np.inf, -np.inf, mean[c], *xs]
        if np.isfinite(t):  # the predicate flips between t's neighbour and t
            with np.errstate(over="ignore"):  # below the least finite float
                below = np.nextafter(t, np.float32(-np.inf))
            probes += [t, below]
            if th.lo[c] <= below and t <= th.hi[c]:
                col = np.zeros((2, len(channels)), np.float32)
                col[:, c] = [below, t]
                y = _oracle(bn, col)[:, c]
                assert (y[0] >= 0) == th.flip[c] and (y[1] >= 0) != th.flip[c]
        col = np.zeros((len(probes), len(channels)), np.float32)
        col[:, c] = probes
        y = _oracle(bn, col)[:, c]
        x = col[:, c]
        inside = (x >= th.lo[c]) & (x <= th.hi[c])
        np.testing.assert_array_equal(np.isnan(y), ~inside)
        np.testing.assert_array_equal((y >= 0)[inside],
                                      ((x >= t) != th.flip[c])[inside])


def test_zero_gamma_is_a_constant_channel_with_nan_tails():
    bn = BatchNorm(2)
    bn.gamma.value[:] = [0.0, 0.0]
    bn.beta.value[:] = [0.5, -0.5]
    th = bn_thresholds(bn)
    assert np.all(th.thr == -np.inf) and list(th.flip) == [False, True]
    # 0 * inf: the graph would hand sign a NaN, so the plan raises there
    assert np.all(np.isfinite(th.lo)) and np.all(np.isfinite(th.hi))


def test_batchnorm_nan_at_its_mean_is_not_folded():
    g = _trained_like("lenet", {})
    bn = next(layer for layer in g.layers() if isinstance(layer, BatchNorm))
    bn.running_var[3] = -1.0  # var + eps < 0: BN is NaN everywhere
    assert bn_thresholds(bn) is None
    x = np.zeros((2, 1, 28, 28), np.float32)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        g.forward(x)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        InferencePlan(g).run(x)
