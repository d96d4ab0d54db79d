"""Tape and straight-through estimator tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnn import arch, train
from bnn.autodiff import STEConfig, Slot, Tape, sign, sign_backward, sign_forward
from bnn.errors import NumericError, ShapeError


class TestSignForward:
    def test_values(self):
        r = np.array([-2.0, -0.5, 0.0, 0.5, 2.0], dtype=np.float32)
        assert np.array_equal(sign_forward(r), [-1, -1, 1, 1, 1])

    def test_zero_maps_to_plus_one(self):
        assert sign_forward(np.zeros(3))[0] == 1.0

    def test_output_is_binary(self):
        rng = np.random.default_rng(0)
        out = sign_forward(rng.standard_normal(1000))
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            sign_forward(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_where_form_bitwise(self, dtype):
        info = np.finfo(dtype)
        tiny = info.smallest_subnormal
        r = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny,
                      info.tiny, -info.tiny, np.inf, -np.inf, info.max,
                      -info.max, 1.0, -1.0], dtype=dtype)
        r = np.stack([r, r[::-1]])  # 2-D, both orders
        out = sign_forward(r)
        ref = np.where(r >= 0, 1.0, -1.0).astype(np.float32)
        assert out.dtype == np.float32 and out.shape == r.shape
        assert out.tobytes() == ref.tobytes()


class TestSignBackward:
    def test_indicator_formula(self):
        # grad passes iff |r_i| <= t_clip, boundary inclusive
        cfg = STEConfig(t_clip=0.5)
        r = np.array([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.50001, 1.0])
        up = np.full_like(r, 3.0)
        out = sign_backward(up, r, cfg)
        assert np.array_equal(out, [0, 3, 3, 3, 3, 3, 0, 0])

    def test_boundary_inclusive(self):
        for t in (0.1, 0.5, 0.75, 1.0, 2.0):
            cfg = STEConfig(t_clip=t)
            r = np.array([t, -t], dtype=np.float64)
            assert np.array_equal(sign_backward(np.ones(2), r, cfg), [1, 1])

    def test_upstream_scaled_not_thresholded(self):
        # the clip is on input magnitude; large upstream values pass intact
        cfg = STEConfig(t_clip=0.5)
        up = np.array([1e6, -1e6])
        r = np.array([0.1, 0.2])
        assert np.array_equal(sign_backward(up, r, cfg), up)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sign_backward(np.ones(3), np.ones(4), STEConfig())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.floats(0.01, 4.0, allow_nan=False))
    def test_matches_indicator_randomized(self, seed, t_clip):
        rng = np.random.default_rng(seed)
        cfg = STEConfig(t_clip=t_clip)
        r = rng.standard_normal(64)
        up = rng.standard_normal(64)
        expected = np.where(np.abs(r) <= t_clip, up, 0.0)
        assert np.array_equal(sign_backward(up, r, cfg), expected.astype(np.float32))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([np.float32, np.float64]),
           st.sampled_from([np.float32, np.float64]), st.booleans(),
           st.floats(0.01, 4.0, allow_nan=False))
    def test_matches_where_oracle_bytewise(self, seed, up_dtype, r_dtype, transpose,
                                           t_clip):
        """The masked bits are those of np.where(mask, upstream, 0.0) as
        float32, also for NaN, +-inf and -0.0 upstream, NaN r and
        non-contiguous operands."""
        rng = np.random.default_rng(seed)
        special = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, t_clip, -t_clip]
        up = rng.standard_normal((9, 7))
        r = rng.standard_normal((9, 7))
        up.flat[rng.integers(0, up.size, 12)] = rng.choice(special, 12)
        r.flat[rng.integers(0, r.size, 12)] = rng.choice(special, 12)
        up, r = up.astype(up_dtype), r.astype(r_dtype)
        if transpose:
            up, r = up.T, r.T
        cfg = STEConfig(t_clip=t_clip)
        got = sign_backward(up, r, cfg)
        want = np.where(np.abs(r) <= t_clip, up, 0.0).astype(np.float32)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_ste_config_validation():
    with pytest.raises(ValueError):
        STEConfig(t_clip=0.0)
    with pytest.raises(ValueError):
        STEConfig(t_clip=-1.0)
    assert STEConfig().t_clip == 0.5


class TestTape:
    def test_sign_op_end_to_end(self):
        tape = Tape()
        x = Slot(np.array([-0.3, 0.7, 0.0, -2.0], dtype=np.float32))
        y = sign(tape, x, STEConfig(t_clip=0.5))
        assert np.array_equal(y.value, [-1, 1, 1, -1])
        loss = Slot(np.array(0.0, dtype=np.float32))
        tape.record(loss, (y,), lambda g: (np.ones(4, dtype=np.float32) * g,))
        tape.backward(loss)
        assert np.array_equal(x.grad, [1, 0, 1, 0])

    def test_two_consumers_sum(self):
        tape = Tape()
        x = Slot(np.array([2.0], dtype=np.float32))
        y1 = Slot(x.value * 3)
        tape.record(y1, (x,), lambda g: (g * 3,))
        y2 = Slot(x.value * 5)
        tape.record(y2, (x,), lambda g: (g * 5,))
        out = Slot(y1.value + y2.value)
        tape.record(out, (y1, y2), lambda g: (g, g))
        tape.backward(out)
        assert x.grad[0] == 8.0

    def test_unused_input_gets_no_grad(self):
        tape = Tape()
        x = Slot(np.array([1.0], dtype=np.float32))
        dead = Slot(np.array([1.0], dtype=np.float32))
        y = Slot(x.value * 2)
        tape.record(y, (x,), lambda g: (g * 2,))
        dead_y = Slot(dead.value * 7)
        tape.record(dead_y, (dead,), lambda g: (g * 7,))
        tape.backward(y)
        assert x.grad is not None
        assert dead.grad is None

    def test_loss_must_be_scalar(self):
        tape = Tape()
        x = Slot(np.ones(3, dtype=np.float32))
        with pytest.raises(ValueError):
            tape.backward(x)

    def test_none_gradient_skipped(self):
        tape = Tape()
        x = Slot(np.array([1.0], dtype=np.float32))
        frozen = Slot(np.array([2.0], dtype=np.float32))
        y = Slot(x.value * frozen.value)
        tape.record(y, (x, frozen), lambda g: (g * frozen.value, None))
        tape.backward(y)
        assert x.grad[0] == 2.0
        assert frozen.grad is None

    def test_backward_resets_prior_grads(self):
        x = Slot(np.array([1.0], dtype=np.float32))
        for _ in range(2):  # a second tape over the same leaf
            tape = Tape()
            y = Slot(x.value * 2)
            tape.record(y, (x,), lambda g: (g * 2,))
            tape.backward(y)
        assert x.grad[0] == 2.0  # the second run did not accumulate over the first
        with pytest.raises(RuntimeError, match="already run"):
            tape.backward(y)  # a tape is single-use

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(42)
            tape = Tape()
            x = Slot(rng.standard_normal(16).astype(np.float32))
            y = sign(tape, x, STEConfig())
            z = Slot(np.array((y.value ** 2).sum(), dtype=np.float32))
            tape.record(z, (y,), lambda g: (2 * y.value * g,))
            tape.backward(z)
            return x.grad.copy()

        assert np.array_equal(run(), run())

    def test_add_grad_shape_check(self):
        s = Slot(np.ones(3, dtype=np.float32))
        with pytest.raises(ShapeError):
            s.add_grad(np.ones(4, dtype=np.float32))


def _model_step(spec, preset, n, keep_all=False):
    """One seeded training step: the model, its tape, its loss and what
    backward returned; with keep_all, keeping every slot's gradient."""
    model = arch.build_model(spec, num_classes=10, seed=0, preset=preset)
    x = np.random.default_rng(0).standard_normal((n,) + model.input_shape).astype(np.float32)
    tape = Tape()
    logits = model.forward(x, tape=tape, training=True)
    loss = train.softmax_cross_entropy(tape, logits, np.arange(n) % 10)
    keep = [s for node in tape.nodes for s in node.inputs + (node.output,)] if keep_all else ()
    return model, tape, loss, tape.backward(loss, keep=keep)


def _step_grads(spec, preset, n):
    """Every gradient of one seeded training step, in the tape's order."""
    return [g for _, g in _model_step(spec, preset, n, keep_all=True)[3].values()]


@pytest.mark.parametrize("spec,preset,n", [
    ("lenet", None, 4),
    ("densenet:k=16,b=1", "cifar", 2),
    ("resnet18", "cifar", 2),
])
def test_backward_frees_what_it_used(spec, preset, n):
    """backward drops every node's closure and intermediate gradient and
    returns the parameters' gradients, the bytes of a run that keeps every
    slot; kept slots keep theirs, and the used tape cannot run again."""
    model, tape, loss, table = _model_step(spec, preset, n)
    assert all(node.output.grad is None and node.backward_fn is None for node in tape.nodes)
    params = model.params()
    assert {id(p) for p in params} == set(table)  # the image batch needs no gradient
    assert all(table[id(p)][1] is p.grad for p in params)
    with pytest.raises(RuntimeError, match="already run"):
        tape.backward(loss)
    kept_model, kept_tape, _, kept = _model_step(spec, preset, n, keep_all=True)
    assert all(id(node.output) in kept and node.output.grad is not None
               for node in kept_tape.nodes)
    for p, q in zip(params, kept_model.params()):
        assert p.name == q.name and p.grad.tobytes() == q.grad.tobytes()


def test_wide_densenet_step_peak_memory():
    """A CIFAR densenet:k=64,b=1 training step at batch 8, after a warm-up
    step, peaks under 0.7 x the 183.4 MB tracemalloc read when backward
    kept every gradient and closure to its end and each 32x32 binary conv
    built its whole +-1 patch matrix (now ~107 MB on two CPUs)."""
    model = arch.build_model("densenet:k=64,b=1", num_classes=10, seed=0, preset="cifar")
    rng = np.random.default_rng(0)

    def step():
        tape = Tape()
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        logits = model.forward(x, tape=tape, training=True)
        tape.backward(train.softmax_cross_entropy(tape, logits, rng.integers(0, 10, 8)))

    step()
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.7 * 183.4e6


@pytest.mark.parametrize("spec,preset,n", [
    ("lenet", None, 4),
    ("densenet:k=16,b=2", "cifar", 1),  # concat's split pieces are views
    ("densenet:k=16,b=2", "cifar", 8),
    ("resnet18", "cifar", 2),  # residual_add passes its gradient on
])
def test_fresh_first_gradients_are_kept_without_a_copy(monkeypatch, spec, preset, n):
    """add_grad keeps a fresh first gradient as it is: the bytes of copying
    every one, and no two slots' gradients share memory."""
    grads = _step_grads(spec, preset, n)
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)
    add_grad = Slot.add_grad
    monkeypatch.setattr(Slot, "add_grad", lambda self, g, owned=False: add_grad(self, g))
    copied = _step_grads(spec, preset, n)
    assert len(grads) == len(copied)
    for a, b in zip(grads, copied):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
