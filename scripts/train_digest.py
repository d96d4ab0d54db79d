#!/usr/bin/env python3
"""Print a SHA-256 digest of a few seeded training steps per model.

Each digest covers STEPS (3) Adam steps: per step the loss and every
parameter gradient, then, after the step, every parameter and BatchNorm
buffer.  The models are LeNet (scaling modes N and FB, and N with weight
decay), a CIFAR-preset densenet:k=16,b=2, a CIFAR-preset resnet18 at
batch 2 and a CIFAR-preset densenet:k=12,b=1, whose binary convs see
channel counts that are not multiples of 8, trained on seeded synthetic
batches.  A second line per model, "<label> plan: <digest>", covers the
logits its plan.InferencePlan gives for PLAN_IMAGES seeded images.  After
those twelve lines, one "<label> file: <digest>" line per model covers
the bytes modelio.save writes for it after the steps, its packed sign
bits among them.  The line "builders: <digest>" covers the graphs the
builders make for BUILDS, untrained: each node's id, inputs and op (a
layer's spec, STE t_clip and scaling mode), the initial parameters and
buffers and the build_args.  The next line covers the training steps of
a CIFAR-preset densenet:k=64,b=1 at batch 8 (PER_OFFSET), whose 32x32
binary convs are large enough to take the per-offset weight gradient of
layers.bits_weight_grad.  The last line, "loaded plans: <digest>",
covers the plan logits of every RUNS model that modelio.load reads back
from its saved file, on the same PLAN_IMAGES images (the file keeps an
FB weight's sign bits only, so "lenet FB" loads with alpha = 1 and gives
other logits than its "plan" line covers).  The native kernels and their
numpy twins give the same bytes, so the five commands

    python scripts/train_digest.py
    CC=false XDG_CACHE_HOME="$(mktemp -d)" python scripts/train_digest.py
    MALLOC_PERTURB_=165 python scripts/train_digest.py
    taskset -c 0 python scripts/train_digest.py
    taskset -c 0,1 python scripts/train_digest.py

must print the same lines; the second runs the numpy code, because the
empty cache holds no compiled kernels and CC=false cannot build them, the
third fills fresh heap memory with a byte pattern, so a kernel that
leaves part of its output unwritten changes a digest, and the fourth and
fifth run every split pass (bittensor.in_parts) in one and in two parts
where the first runs one per CPU.

Usage: python scripts/train_digest.py
"""

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from bnn import arch, bittensor, modelio, train  # noqa: E402
from bnn.autodiff import Tape  # noqa: E402
from bnn.plan import InferencePlan  # noqa: E402

STEPS = 3
PLAN_IMAGES = 37  # an odd batch: uneven parts, and a short sub-block in the stem

# (label, model spec, scaling mode, preset, input shape, batch size, weight decay)
RUNS = [
    ("lenet N", "lenet", "N", None, (1, 28, 28), 16, 0.0),
    ("lenet FB", "lenet", "FB", None, (1, 28, 28), 16, 0.0),
    ("densenet:k=16,b=2", "densenet:k=16,b=2", "N", "cifar", (3, 32, 32), 8, 0.0),
    ("lenet N weight_decay=0.01", "lenet", "N", None, (1, 28, 28), 16, 0.01),
    # stride-2 binary convs, 1x1 qproj convs and residual_add
    ("resnet18", "resnet18", "N", "cifar", (3, 32, 32), 2, 0.0),
    # binary convs over 24, 33, 36, 45 and 57 channels: C % 8 != 0
    ("densenet:k=12,b=1", "densenet:k=12,b=1", "N", "cifar", (3, 32, 32), 4, 0.0),
]

# a model whose 32x32 binary convs take the per-offset weight gradient
# (layers.bits_weight_grad): its training line only, printed last
PER_OFFSET = ("densenet:k=64,b=1", "densenet:k=64,b=1", "N", "cifar", (3, 32, 32), 8, 0.0)

# (model spec, arch.build_model keywords): the three CIFAR models in FB at t_clip 0.3
CIFAR_FB = dict(num_classes=10, scaling_mode="FB", t_clip=0.3, preset="cifar")
BUILDS = [
    ("lenet", dict(binary=False)),
    ("resnet26", CIFAR_FB),
    ("resnet34:width=wide", CIFAR_FB),
    ("densenet:k=8,b=1,bottleneck=true", CIFAR_FB),
    ("resnet18", dict(num_classes=10)),
    ("densenet:k=8,b=1", dict(num_classes=10)),
]


def train_trace(spec, scaling_mode, preset, shape, batch, weight_decay, seed=0):
    """The trained model and the arrays of STEPS Adam steps, in order: per
    step the loss and every gradient, then every parameter and BatchNorm
    buffer."""
    model = arch.build_model(spec, num_classes=10, scaling_mode=scaling_mode,
                             seed=seed, preset=preset)
    params = model.params()
    opt = train.Adam(params, train.TrainConfig(scaling_mode=scaling_mode,
                                               weight_decay=weight_decay))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(STEPS):
        images = rng.standard_normal((batch,) + shape).astype(np.float32)
        labels = rng.integers(0, 10, batch)
        tape = Tape()
        loss = train.softmax_cross_entropy(
            tape, model.forward(images, tape=tape, training=True), labels)
        tape.backward(loss)
        out.append(loss.value)
        out.extend(p.grad for p in params)
        opt.step(1e-2)
        out.extend(p.value for p in params)
        out.extend(b for layer in model.layers() for b in layer.buffers().values())
    return model, out


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def save_and_load(model):
    """SHA-256 of the bytes modelio.save writes for model, and the model
    modelio.load reads back from them."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.bnn")
        modelio.save(model, path)
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest(), modelio.load(path)[0]


def graph_arrays(model):
    """What a builder decided for model, as arrays: its name, shapes, nodes
    and build_args as JSON text, then every parameter and buffer."""
    def op(o):
        if isinstance(o, str):
            return o
        ste, cfg = getattr(o, "ste", None), getattr(o, "cfg", None)
        return [o.spec(), ste and ste.t_clip, cfg and cfg.scaling_mode]

    text = json.dumps([model.name, model.input_shape, model.num_classes, model.output_id,
                       model.build_args, [[n.id, n.inputs, op(n.op)] for n in model.nodes]],
                      sort_keys=True)
    return [np.frombuffer(text.encode(), np.uint8)] + [
        a for layer in model.layers()
        for a in [p.value for p in layer.params()] + list(layer.buffers().values())]


def main():
    print(f"kernel: {bittensor.native_kernels() and 'native' or 'numpy'}", file=sys.stderr)
    files, loaded = [], []
    for label, *run in RUNS:
        model, arrays = train_trace(*run)
        print(f"{label}: {digest(arrays)}")
        images = np.random.default_rng(1).standard_normal(
            (PLAN_IMAGES,) + model.input_shape).astype(np.float32)
        print(f"{label} plan: {digest([InferencePlan(model).run(images)])}")
        file_sha, back = save_and_load(model)
        files.append(f"{label} file: {file_sha}")
        loaded.append(InferencePlan(back).run(images))
    print("\n".join(files))
    built = (arch.build_model(spec, **kw) for spec, kw in BUILDS)
    print(f"builders: {digest(a for model in built for a in graph_arrays(model))}")
    label, *run = PER_OFFSET
    print(f"{label}: {digest(train_trace(*run)[1])}")
    print(f"loaded plans: {digest(loaded)}")


if __name__ == "__main__":
    main()
