"""InferencePlan against ModelGraph.forward(training=False), its oracle."""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnn import arch, bittensor, layers, train
from bnn.autodiff import NAN_INPUT, Slot, Tape
from bnn.data import Dataset
from bnn.errors import NumericError
from bnn.layers import BatchNorm, Flatten, MaxPool2d, QConv2d, QLayerConfig
from bnn.plan import InferencePlan, Thresholds, bn_thresholds, count_thresholds

from conftest import numpy_kernels, packed_signs, split_in

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


def _trained_like(spec, kw, seed=0, fold_all=False):
    """A model whose BatchNorms look trained: running statistics away from
    (0, 1), a third of the gammas negative and, unless fold_all, in every
    other BatchNorm (bn1, bn3, ...) one of them zero, so that the plan
    folds the others into thresholds and runs these as float steps."""
    g = arch.build_model(spec, seed=seed, **kw)
    rng = np.random.default_rng(seed)
    bns = [layer for layer in g.layers() if isinstance(layer, BatchNorm)]
    for i, layer in enumerate(bns):
        c = layer.num_features
        layer.running_mean[:] = rng.normal(0, 2, c)
        layer.running_var[:] = rng.uniform(0.05, 4, c)
        layer.gamma.value[:] = rng.uniform(0.2, 2, c)
        layer.gamma.value[: c // 3] *= -1
        if i % 2 and not fold_all:
            layer.gamma.value[c // 2] = 0
        layer.beta.value[:] = rng.normal(0, 1, c)
    return g


def _binary_inputs(g):
    """Per binary layer, in graph order, the id of the node whose sign bits
    it reads; a Flatten of a BatchNorm the plan folds stands for that
    BatchNorm, whose channels-last bits it passes on."""
    nodes = {n.id: n for n in g.nodes}
    ids = []
    for n in g.nodes:
        if isinstance(n.op, (layers.QConv2d, layers.QDense)) and n.op.binary:
            src = nodes[n.inputs[0]]
            bn = nodes[src.inputs[0]].op if isinstance(src.op, Flatten) else None
            folded = isinstance(bn, BatchNorm) and bn_thresholds(bn) is not None
            ids.append(src.inputs[0] if folded else src.id)
    return ids


def _eval_values(g, x):
    """The eval output of every node of g on x, by node id, stepping
    through arch.apply_node as ModelGraph.forward does."""
    slots = {}
    for n in g.nodes:
        slots[n.id] = (Slot(x, "input", requires_grad=False) if n.op == "input" else
                       arch.apply_node(n, Tape(), [slots[i] for i in n.inputs]))
    return {k: v.value for k, v in slots.items()}


@pytest.mark.parametrize("spec,kw", MODELS)
def test_plan_matches_graph_bit_for_bit(spec, kw, monkeypatch):
    """The plan's logits are the graph's, and each binary layer's GEMM
    reads the sign bits of its input in the graph, folded or not."""
    g = _trained_like(spec, kw)
    x = np.random.default_rng(1).normal(0, 1, (37,) + g.input_shape).astype(np.float32)
    values = _eval_values(g, x)
    ref = g.forward(x).value
    assert values[g.output_id].tobytes() == ref.tobytes()
    binary_conv, bits = layers.binary_conv, []

    def recording(xb, *args, **kwargs):
        bits.append(xb)
        return binary_conv(xb, *args, **kwargs)

    monkeypatch.setattr(layers, "binary_conv", recording)
    got = InferencePlan(g).run(x)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    bns = [layer for layer in g.layers() if isinstance(layer, BatchNorm)]
    assert {bn_thresholds(bn) is None for bn in bns} == {False, True}
    want = _binary_inputs(g)
    assert len(bits) == len(want)
    for b, nid in zip(bits, want):
        v = values[nid]
        v = v.reshape(v.shape + (1, 1)) if v.ndim == 2 else v
        assert b.tobytes() == bittensor.pack_signs(v).tobytes()


def _node(g, name):
    return next(n for n in g.nodes if getattr(n.op, "name", None) == name)


@pytest.mark.parametrize("kernels", [contextlib.nullcontext, numpy_kernels])
@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("mode", ["N", "B", "FB"])
def test_fused_routes_match_graph_bit_for_bit(mode, parts, kernels, monkeypatch):
    """With every BatchNorm folded, LeNet's two convs write the bits of the
    BatchNorm after their MaxPool2d themselves: the stem packs its own
    images (conv0 -> pool0 -> bn0, one step from the images, whose
    layer forward runs only on the numpy route) and qconv0's GEMM compares
    its counts with integer thresholds (qconv0 -> pool1 -> bn1, one
    binary_conv call with thr).  Neither conv has a float output, and the
    logits are the graph's, at batches with a short last sub-block."""
    g = _trained_like("lenet", dict(scaling_mode=mode), fold_all=True)
    assert all(bn_thresholds(bn) is not None for bn in g.layers() if isinstance(bn, BatchNorm))
    conv0, qconv0 = _node(g, "conv0"), _node(g, "qconv0")
    bn0, bn1 = _node(g, "bn0"), _node(g, "bn1")
    binary_conv, forward, calls, forwards = layers.binary_conv, layers.QConv2d.forward, [], []

    def recording(xb, *args, **kwargs):
        calls.append(kwargs.get("thr") is not None)
        return binary_conv(xb, *args, **kwargs)

    def recording_forward(layer, *args, **kwargs):
        forwards.append(layer.name)
        return forward(layer, *args, **kwargs)

    monkeypatch.setattr(layers, "binary_conv", recording)
    monkeypatch.setattr(layers.QConv2d, "forward", recording_forward)
    rng = np.random.default_rng(parts)
    for n in (1, 37, 70):
        x = rng.normal(0, 1, (n,) + g.input_shape).astype(np.float32)
        ref = g.forward(x, training=False).value
        calls.clear()
        forwards.clear()
        with kernels(), split_in(parts):
            p = InferencePlan(g)
            got = p.run(x)
        assert got.tobytes() == ref.tobytes()
        steps = {key: reads for key, reads, _, _ in p._steps}
        assert steps[(bn0.id, True)] == [(0, False)]
        assert steps[(bn1.id, True)] == [(bn0.id, True)]
        assert (conv0.id, False) not in steps and (qconv0.id, False) not in steps
        assert calls == [True, False]  # qconv0 writes bits, qdense0 floats
        native = kernels is contextlib.nullcontext and bittensor.native_kernels()
        assert ("conv0" in forwards) != bool(native)


@pytest.mark.parametrize("weight", [0.0, 3e38])
def test_fb_scale_not_finite_and_positive_keeps_the_float_output(weight):
    """An FB alpha of 0 (all-zero weights) or inf (mean|w| overflows)
    keeps qconv0's float output, packed by the bits step: the plan gives
    the graph's logits, or its NumericError text."""
    g = _trained_like("lenet", dict(scaling_mode="FB"), fold_all=True)
    qconv0 = _node(g, "qconv0").op
    qconv0.weight.value[:] = weight
    x = np.random.default_rng(6).normal(0, 1, (20, 1, 28, 28)).astype(np.float32)
    with np.errstate(all="ignore"):
        assert qconv0.scaling()[0] in (0.0, np.inf)
        assert (_logits_or_error(InferencePlan(g).run, x) ==
                _logits_or_error(lambda v: g.forward(v).value, x))


@pytest.mark.parametrize("kernels", [contextlib.nullcontext, numpy_kernels])
@pytest.mark.parametrize("fold_bn0", [True, False])
def test_nan_image_raises_on_the_fused_routes(fold_bn0, kernels):
    """A NaN image raises the graph's NumericError from the plan, whether
    the stem packs its own images (bn0 folded) or bn0 runs as a float step
    and is packed before qconv0's thresholded GEMM, which reads only
    bytes."""
    g = _trained_like("lenet", {}, fold_all=True)
    bn0 = _node(g, "bn0").op
    if not fold_bn0:
        bn0.gamma.value[3] = 0
    assert (bn_thresholds(bn0) is not None) == fold_bn0
    x = np.random.default_rng(5).normal(0, 1, (40, 1, 28, 28)).astype(np.float32)
    x[33, 0, 20, 3] = np.nan
    with pytest.raises(NumericError) as ref:
        g.forward(x)
    with kernels(), pytest.raises(NumericError) as got:
        InferencePlan(g).run(x)
    assert str(got.value) == str(ref.value) == NAN_INPUT


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("spec,kw", [MODELS[0], MODELS[5]])  # ResNet: a padded stem
def test_plan_matches_graph_at_batches_around_32_images_a_part(spec, kw, parts):
    """Every step runs once over the whole batch and splits it over
    split_parts() parts, and LeNet's fused stem runs sub-blocks of 8
    images: batches one below, at and one above 32 images a part, and
    twice that and 5 more, give the graph's logits in 1, 2 and 3 parts."""
    g = _trained_like(spec, kw)
    rng = np.random.default_rng(parts)
    with split_in(parts):
        for n in (32 * parts - 1, 32 * parts, 32 * parts + 1, 64 * parts + 5):
            x = rng.normal(0, 1, (n,) + g.input_shape).astype(np.float32)
            ref = g.forward(x, training=False).value
            assert InferencePlan(g).run(x).tobytes() == ref.tobytes()


@pytest.mark.parametrize("parts", [1, 2])
def test_plan_with_no_head_hands_the_batch_to_its_first_step(parts):
    """The plan runs each step once over the whole batch, with no head of
    per-image steps run a slice at a time: a batch of 2 * 64 + 5 images
    reaches the first step as the caller's array, not a slice or a copy,
    in LeNet (whose first step is its fused stem) and in the CIFAR ResNet
    and DenseNet (whose first is the float stem conv), and the logits are
    the graph's."""
    for spec, kw in (MODELS[0], MODELS[5], MODELS[4]):
        g = _trained_like(spec, kw)
        p = InferencePlan(g)
        seen, (key, reads, step, done) = [], p._steps[0]
        p._steps[0] = (key, reads, lambda *v: seen.append(v) or step(*v), done)
        x = np.random.default_rng(parts).normal(0, 1, (2 * 64 + 5,) + g.input_shape)
        x = x.astype(np.float32)
        with split_in(parts):
            got = p.run(x)
        assert len(seen) == 1 and seen[0][0] is x
        assert got.tobytes() == g.forward(x, training=False).value.tobytes()


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
    # batches of 40, 40, 10, the stem packing 8 images a sub-block
    assert train.evaluate(g, ds, batch_size=40) == _graph_evaluate(g, ds, 40)


def test_nan_image_raises_numeric_error():
    g = _trained_like("lenet", {})
    x = np.zeros((3, 1, 28, 28), np.float32)
    x[1, 0, 5, 7] = np.nan
    with pytest.raises(NumericError):
        g.forward(x)
    with pytest.raises(NumericError):
        InferencePlan(g).run(x)


@pytest.mark.parametrize("kernels", [contextlib.nullcontext, numpy_kernels])
@pytest.mark.parametrize("spec,kw", [MODELS[0], MODELS[2], MODELS[4], MODELS[5]])
def test_batch_of_no_images_gives_no_logits(spec, kw, kernels):
    """A batch of zero images gives (0, classes) float32 logits from the
    graph and from the plan, on the native kernels and on numpy."""
    g = _trained_like(spec, kw)
    x = np.zeros((0,) + g.input_shape, np.float32)
    with kernels():
        ref = g.forward(x, training=False).value
        got = InferencePlan(g).run(x)
    assert ref.shape == got.shape == (0, 10)
    assert ref.dtype == got.dtype == np.float32


def test_plan_sees_every_gemm_at_the_graphs_shapes(monkeypatch):
    """perfbench's exactness gate records the shapes by wrapping
    bittensor.binary_gemm; the plan must call it, as the graph does."""
    g = _trained_like("lenet", {}, fold_all=True)  # qconv0's GEMM writes bn1's bits
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(0, 1, (80, 1, 28, 28)).astype(np.float32),
                 rng.integers(0, 10, 80), "test", 10, 0.0, 1.0)
    gemm, im2col = bittensor.binary_gemm, layers.im2col
    shapes, gathered = [], []

    def recording_gemm(a, b, **kwargs):
        shapes.append((a.shape[0], a.shape[1], b.shape[0]))
        return gemm(a, b, **kwargs)

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
    # the stem's float patches, the binary conv's and the dense layer's
    # bytes only where the native float_patches and gather_patches do not
    # replace im2col
    numpy_route = [] if bittensor.native_kernels() else [np.float32, np.uint8, np.uint8]
    assert gathered == graph_gathered == numpy_route * 5


HUGE = float(np.float32(3e38))
F32 = st.floats(width=32, allow_nan=False, allow_infinity=False, allow_subnormal=True)
SPECIAL = st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1e-38, -HUGE, HUGE])
CHANNEL = st.tuples(
    st.one_of(SPECIAL, F32).filter(bool),  # gamma: negative, subnormal, not zero
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
@example([(1.0, 0.5, 0.0, 1.0), (-1.0, -0.5, 2.0, 0.0)], [])
@example([(1e-45, 0.0, 0.0, 1e-45), (-3e38, 3e38, -3e38, 3e38)], [1e36])
def test_thresholds_agree_with_batchnorm(channels, xs):
    """With finite parameters, var >= 0 and gamma != 0 the BatchNorm is
    folded, and its thresholds give its sign at every input but NaN, each
    channel's sign changing between thr's neighbour below and thr."""
    gamma, beta, mean, var = (np.array(v, np.float32) for v in zip(*channels))
    bn = BatchNorm(len(channels))
    bn.gamma.value[:], bn.beta.value[:] = gamma, beta
    bn.running_mean[:], bn.running_var[:] = mean, var
    th = bn_thresholds(bn)  # any RuntimeWarning fails the test
    assert th is not None
    flip = np.unpackbits(th.flip, bitorder="little").astype(bool)
    for c in range(len(channels)):
        t = th.thr[c]
        assert t > -np.inf  # the sign at -inf is never the sign everywhere
        probes = [0.0, -0.0, np.inf, -np.inf, mean[c], *xs]
        if np.isfinite(t):  # the predicate flips between t's neighbour and t
            with np.errstate(over="ignore"):  # below the least finite float
                below = np.nextafter(t, np.float32(-np.inf))
            probes += [t, below]
            col = np.zeros((2, len(channels)), np.float32)
            col[:, c] = [below, t]
            y = _oracle(bn, col)[:, c]
            assert (y[0] >= 0) == flip[c] and (y[1] >= 0) != flip[c]
        col = np.zeros((len(probes), len(channels)), np.float32)
        col[:, c] = probes
        y = _oracle(bn, col)[:, c]
        x = col[:, c]
        assert not np.isnan(y).any()
        np.testing.assert_array_equal(y >= 0, (x >= t) != flip[c])


TINY = float(np.float32(1e-45))
ALPHA = st.one_of(st.none(), st.sampled_from([TINY, 1e-30, 1.0, 3e37, HUGE]),
                  st.floats(TINY, HUGE, width=32))  # an FB scale: > 0 and finite


@settings(max_examples=300, deadline=None)
@given(st.lists(CHANNEL, min_size=1, max_size=4), st.integers(1, 400), ALPHA)
@example([(1.0, -0.5, 3.0, 1.0), (-2.0, 0.0, -3.0, 1.0)], 9, None)  # thresholds at counts
@example([(1.0, 0.0, 2.5, 1.0), (-1.0, 0.0, 7.5, 1.0)], 9, 0.5)
def test_count_thresholds_give_the_float_routes_bit(channels, k, alpha):
    """At every count in [-k, k], so at each integer threshold and its
    neighbours, (count >= count_thresholds) XOR flip is the float route's
    bit, sign(BN(scale(float32(count)))), with no scale and FB scales
    from the least positive float32 to the greatest, and negative gammas."""
    gamma, beta, mean, var = (np.array(v, np.float32) for v in zip(*channels))
    bn = BatchNorm(len(channels))
    bn.gamma.value[:], bn.beta.value[:] = gamma, beta
    bn.running_mean[:], bn.running_var[:] = mean, var
    th = bn_thresholds(bn)
    scale = (lambda y: y) if alpha is None else (lambda y: y * alpha)
    thr = count_thresholds(th, scale, k)
    counts = np.arange(-k, k + 1)
    with np.errstate(over="ignore"):
        y = np.repeat(scale(counts.astype(np.float32))[:, None], len(channels), axis=1)
    flip = np.unpackbits(th.flip, bitorder="little")[: len(channels)].astype(bool)
    np.testing.assert_array_equal((counts[:, None] >= thr) != flip, _oracle(bn, y) >= 0)
    assert ((-k <= thr) & (thr <= k + 1)).all()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 13, 16]), st.sampled_from([(3, 1), (3, 0), (1, 0), (2, 1)]),
       st.sampled_from([None, (2, 2), (3, 2)]), st.sampled_from(["N", "FB"]),
       st.integers(0, 2 ** 32 - 1))
def test_thresholded_conv_equals_the_float_route(c, kp, pool, mode, seed):
    """A binary conv step given a folded BatchNorm's thresholds (and its
    MaxPool2d) gives the bytes of the float conv step, then the bits step,
    natively and in numpy: at C % 8 != 0 each patch row's 1-pad bits add to
    every count, and the GEMM's threshold adds them back; 11 output
    channels leave pad bits in the last byte."""
    rng = np.random.default_rng(seed)
    k, p = kp
    layer = QConv2d(QLayerConfig(c, 11, (k, k), 1, p, mode), rng=rng)
    xb = bittensor.pack_signs(rng.normal(0, 1, (5, c, 9, 8)).astype(np.float32))
    floats = InferencePlan._binary_step(layer, c)(xb)
    bn = BatchNorm(11)  # thresholds among the sums
    bn.running_mean[:] = np.quantile(floats, rng.uniform(0.1, 0.9, 11), axis=(0, 2, 3)).diagonal()
    bn.gamma.value[:] = rng.uniform(0.2, 2, 11) * rng.choice([-1, 1], 11)
    bn.beta.value[:] = rng.normal(0, 0.1, 11)
    th, pool_op = bn_thresholds(bn), pool and MaxPool2d(*pool)
    want = InferencePlan._bits_step(th, pool_op)(floats)
    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels():
            got = InferencePlan._binary_step(layer, c, th, pool_op)(xb)
        assert got.tobytes() == want.tobytes()


def _bn_graph(pool):
    """input (3, 8, 8), a MaxPool2d(2) if pool, bn0, a binary 3x3 conv of
    its signs, a Flatten and the float head."""
    b = arch._Builder("bn-graph", (3, 8, 8), 10, True, 0.5, "N", 0)
    x = b.add(MaxPool2d(2, name="pool0"), 0) if pool else 0
    x = b.add(Flatten(name="flatten"), b.conv(b.bn(x, 3), 3, 4, 3, padding=1))
    return b.done(b.head(x, 4 * (4 if pool else 8) ** 2), {})


def _logits_or_error(run, x):
    try:
        return run(x).tobytes()
    except NumericError as e:
        return str(e)


@pytest.mark.parametrize("pool", [False, True], ids=["no-pool", "pool"])
def test_batchnorm_nan_at_an_infinity_is_not_folded(pool):
    """gamma = 0, beta = +-inf or running_var = inf in one channel makes
    BN NaN at -inf or +inf, which no threshold can say: bn_thresholds
    gives None, and the plan runs the BatchNorm as a float step, with the
    graph's logits or NumericError text on NaN and +-inf inputs."""
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, (4, 3, 8, 8)).astype(np.float32)
    inputs = [x]
    for v in (np.nan, np.inf, -np.inf):
        for c in range(3):
            bad = x.copy()
            bad[1, c, 2, 5] = v
            inputs.append(bad)
    for field, value in (("gamma", 0.0), ("beta", np.inf), ("beta", -np.inf),
                         ("running_var", np.inf)):
        g = _bn_graph(pool)
        bn = g.nodes[2 if pool else 1].op
        bn.running_mean[:], bn.running_var[:] = [0.5, -1.0, 0.0], [2.0, 0.5, 1.0]
        bn.gamma.value[:], bn.beta.value[:] = [1.5, -0.5, 2.0], [0.1, 0.0, -0.3]
        assert bn_thresholds(bn) is not None
        (bn.running_var if field == "running_var" else getattr(bn, field).value)[1] = value
        assert bn_thresholds(bn) is None
        plan = InferencePlan(g)
        with np.errstate(invalid="ignore"):
            outcomes = [(_logits_or_error(lambda v: g.forward(v).value, v),
                         _logits_or_error(plan.run, v)) for v in inputs]
        assert all(ref == got for ref, got in outcomes)
        # some inputs give logits, the others sign's NumericError
        assert {ref for ref, _ in outcomes if isinstance(ref, str)} == {NAN_INPUT}
        assert any(isinstance(ref, bytes) for ref, _ in outcomes)


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


def _random_thresholds(rng, c):
    """Thresholds with flips, +inf on some channels (only +inf passes)."""
    thr = rng.normal(0, 1, c).astype(np.float32)
    thr[rng.random(c) < 0.2] = np.inf
    return Thresholds(thr=thr, flip=np.packbits(rng.random(c) < 0.4, bitorder="little"))


def _bits_both_ways(step, x):
    """step(x) with the native kernel (when it builds) and with numpy: each
    the bytes, or the NumericError text it raised."""
    out = []
    for kernels in (contextlib.nullcontext, numpy_kernels):
        with kernels():
            try:
                out.append(step(x))
            except NumericError as e:
                out.append(str(e))
    return out


@pytest.mark.parametrize("c", [5, 44])
@pytest.mark.parametrize("hw", [(7, 9), (8, 6)])
@pytest.mark.parametrize("k,s", [(2, 2), (3, 2), (3, 1)])
def test_fused_bits_step_equals_pack_pool_flip(k, s, hw, c):
    """The native bits step gives the bytes of its numpy fallback and of
    the unfused steps, on +-inf too, and both raise sign's NumericError for
    a NaN just where some pool window reads it."""
    rng = np.random.default_rng(k * 100 + s * 10 + c + hw[0])
    th = _random_thresholds(rng, c)
    step = InferencePlan._bits_step(th, MaxPool2d(k, s))
    h, w = hw
    x = rng.normal(0, 1, (3, c, h, w)).astype(np.float32)
    x[rng.random(x.shape) < 0.1] = -0.0
    x[rng.random(x.shape) < 0.05] = np.inf
    x[rng.random(x.shape) < 0.05] = -np.inf
    hc, wc = (h - k) // s * s + k, (w - k) // s * s + k
    if hc < h:  # the rows and columns no window covers are not read
        x[1, :, hc:] = np.nan
    if wc < w:
        x[2, 0, :, wc:] = np.nan
    ref = packed_signs(x, **vars(th), pool=(k, s))
    native, twin = _bits_both_ways(step, x)
    assert native.tobytes() == twin.tobytes() == ref.tobytes()
    assert native.shape == ((3, (h - k) // s + 1, (w - k) // s + 1, -(-c // 8)))

    for i, j in ((hc - 1, wc - 1), (hc - 1, 0), (0, wc - 1)):
        bad = x.copy()
        bad[2, 0, i, j] = np.nan
        assert _bits_both_ways(step, bad) == [NAN_INPUT] * 2


@pytest.mark.parametrize("c", [1, 9, 64, 1024])
def test_bits_step_without_pool_or_thresholds(c):
    """A flattened (N, F) input, and the sign of a BatchNorm-free input."""
    rng = np.random.default_rng(c)
    th = _random_thresholds(rng, c)
    x = rng.normal(0, 1, (4, c)).astype(np.float32)
    for t, ref in ((th, packed_signs(x[:, :, None, None], **vars(th))),
                   (None, packed_signs(x[:, :, None, None]))):
        native, twin = _bits_both_ways(InferencePlan._bits_step(t, None), x)
        assert native.tobytes() == twin.tobytes() == ref.tobytes()
    x[3, c - 1] = np.nan
    assert _bits_both_ways(InferencePlan._bits_step(None, None), x) == [NAN_INPUT] * 2
