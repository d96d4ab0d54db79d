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
bits among them.  The native kernels and their numpy twins give the same
bytes, so the five commands

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
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from bnn import arch, bittensor, modelio, train  # noqa: E402
from bnn.autodiff import Tape  # noqa: E402
from bnn.plan import InferencePlan  # noqa: E402

STEPS = 3
PLAN_IMAGES = 37  # more than the plan runs per chunk, with a short last chunk

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


def file_digest(model):
    """SHA-256 of the bytes modelio.save writes for model."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.bnn")
        modelio.save(model, path)
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()


def main():
    print(f"kernel: {bittensor.native_kernels() and 'native' or 'numpy'}", file=sys.stderr)
    files = []
    for label, *run in RUNS:
        model, arrays = train_trace(*run)
        print(f"{label}: {digest(arrays)}")
        images = np.random.default_rng(1).standard_normal(
            (PLAN_IMAGES,) + model.input_shape).astype(np.float32)
        print(f"{label} plan: {digest([InferencePlan(model).run(images)])}")
        files.append(f"{label} file: {file_digest(model)}")
    print("\n".join(files))


if __name__ == "__main__":
    main()
