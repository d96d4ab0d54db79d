"""Optimizers and the training/evaluation loop.

Defaults follow the hyperparameters used throughout the experiments:
t_clip = 0.5 and no scaling factor.  Adam (lr 1e-3, step decay x0.1 at
60% and 90% of the epoch budget) is the default optimizer; SGD with
momentum is available for comparison.  Latent binary weights are clipped
to [-1, +1] after every step so they stay inside the STE band; weight
decay applies to full-precision parameters only.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .arch import ModelGraph
from .autodiff import Slot, Tape
from .errors import NumericError
from .data import Dataset, batches
from .plan import InferencePlan


@dataclass
class TrainConfig:
    optimizer: str = "adam"  # "adam" or "sgd_momentum"
    lr: float = 1e-3
    lr_decay_factor: float = 0.1
    lr_decay_at: tuple = ()  # epoch indices; empty = 60%/90% of epochs
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    epochs: int = 30
    batch_size: int = 100
    t_clip: float = 0.5
    scaling_mode: str = "N"
    seed: int = 0
    augment: bool = False

    def __post_init__(self):
        if self.lr <= 0:
            # lr = 0 is allowed as a degenerate no-op (tested); negative is not
            if self.lr < 0:
                raise ValueError("lr must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.t_clip <= 0:
            raise ValueError("t_clip must be positive")
        if self.optimizer not in ("adam", "sgd_momentum"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def decay_epochs(self):
        if self.lr_decay_at:
            return tuple(self.lr_decay_at)
        return (int(self.epochs * 0.6), int(self.epochs * 0.9))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    test_top1: float
    test_top5: float  # nan when undefined (class_count < 5)
    seconds: float


@dataclass
class TrainReport:
    records: list = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["epoch", "loss", "train_acc", "test_top1", "test_top5",
                    "seconds"])
        for r in self.records:
            w.writerow([
                r.epoch, f"{r.train_loss:.6f}", f"{r.train_acc:.6f}",
                f"{r.test_top1:.6f}",
                "" if np.isnan(r.test_top5) else f"{r.test_top5:.6f}",
                f"{r.seconds:.3f}",
            ])
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            f.write(self.to_csv())


class Adam:
    def __init__(self, params, cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0

    def step(self, lr):
        cfg = self.cfg
        self.t += 1
        b1, b2 = cfg.beta1, cfg.beta2
        bias1 = 1 - b1 ** self.t
        bias2 = 1 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if cfg.weight_decay and not getattr(p, "binary", False):
                g = g + cfg.weight_decay * p.value
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / bias1
            vhat = self.v[i] / bias2
            p.value -= lr * mhat / (np.sqrt(vhat) + 1e-8)
            if getattr(p, "binary", False):
                np.clip(p.value, -1.0, 1.0, out=p.value)


class SGDMomentum:
    def __init__(self, params, cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.vel = [np.zeros_like(p.value) for p in params]

    def step(self, lr):
        cfg = self.cfg
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if cfg.weight_decay and not getattr(p, "binary", False):
                g = g + cfg.weight_decay * p.value
            self.vel[i] = cfg.momentum * self.vel[i] - lr * g
            p.value += self.vel[i]
            if getattr(p, "binary", False):
                np.clip(p.value, -1.0, 1.0, out=p.value)


def softmax_cross_entropy(tape: Tape, logits: Slot, labels: np.ndarray) -> Slot:
    """Mean cross-entropy over the batch, recorded on the tape."""
    z = logits.value
    zmax = z.max(axis=1, keepdims=True)
    logsumexp = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    n = z.shape[0]
    nll = logsumexp[:, 0] - z[np.arange(n), labels]
    loss = Slot(np.asarray(nll.mean()), name="loss")
    probs = np.exp(z - logsumexp)

    def backward_fn(g_out):
        g = probs.copy()
        g[np.arange(n), labels] -= 1.0
        return (g * (float(g_out) / n),)

    return tape.record(loss, (logits,), backward_fn)


def set_t_clip(model: ModelGraph, t_clip: float):
    """Point every STE in the model at the given clipping threshold."""
    for layer in model.layers():
        if hasattr(layer, "ste"):
            layer.ste.t_clip = t_clip
    model.build_args["t_clip"] = t_clip


def set_scaling_mode(model: ModelGraph, mode: str):
    for layer in model.layers():
        if hasattr(layer, "cfg") and hasattr(layer.cfg, "scaling_mode"):
            layer.cfg.scaling_mode = mode
        elif hasattr(layer, "scaling_mode"):
            layer.scaling_mode = mode
    model.build_args["scaling_mode"] = mode


def _find_nan_layer(model, images):
    """Name of the first node whose training-mode output holds a NaN; the
    BatchNorm running statistics this forward updates are restored."""
    saved = [(buf, buf.copy()) for layer in model.layers()
             for buf in layer.buffers().values()]
    collected = []
    try:
        model.forward(images, training=True, collect=collected)
    except NumericError:
        pass
    finally:
        for buf, copy in saved:
            buf[...] = copy
    for name, value in collected:
        if np.isnan(value).any():
            return name
    return "<loss>"


def evaluate(model: ModelGraph, ds: Dataset, batch_size=256):
    """Top-1/top-5 accuracy and mean loss on a dataset.

    Every batch runs through an InferencePlan built once per call from
    the model's current weights: binary layers read packed sign bits, and
    BatchNorm then sign is a per-channel threshold, as at deployment.  The
    logits equal model.forward(training=False) bit for bit.
    """
    plan = InferencePlan(model)
    correct1 = 0
    correct5 = 0
    total = 0
    loss_sum = 0.0
    want_top5 = ds.class_count >= 5
    for images, labels in batches(ds, batch_size):
        z = plan.run(images)
        loss = softmax_cross_entropy(Tape(), Slot(z, "logits"), labels)
        n = len(labels)
        loss_sum += float(loss.value) * n
        correct1 += int((z.argmax(axis=1) == labels).sum())
        if want_top5:
            top5 = np.argpartition(z, -5, axis=1)[:, -5:]
            correct5 += int((top5 == labels[:, None]).any(axis=1).sum())
        total += n
    top1 = correct1 / total
    top5 = correct5 / total if want_top5 else float("nan")
    return top1, top5, loss_sum / total


def train(model: ModelGraph, train_ds: Dataset, test_ds: Dataset,
          cfg: TrainConfig, log=None):
    """Train in place; returns a TrainReport.

    Fully deterministic for a given (model, data, config) triple: the
    batch order is seeded and parameter updates are single-threaded.
    """
    set_t_clip(model, cfg.t_clip)
    set_scaling_mode(model, cfg.scaling_mode)
    params = model.params()
    opt_cls = Adam if cfg.optimizer == "adam" else SGDMomentum
    opt = opt_cls(params, cfg)
    decay_at = cfg.decay_epochs()
    report = TrainReport()
    lr = cfg.lr
    for epoch in range(cfg.epochs):
        if epoch in decay_at and epoch > 0:
            lr *= cfg.lr_decay_factor
        t0 = time.perf_counter()
        loss_sum = 0.0
        correct = 0
        total = 0
        for images, labels in batches(
            train_ds, cfg.batch_size, shuffle_seed=cfg.seed * 100003 + epoch,
            augment=cfg.augment,
        ):
            tape = Tape()
            logits = model.forward(images, tape=tape, training=True)
            loss = softmax_cross_entropy(tape, logits, labels)
            if np.isnan(loss.value):
                bad = _find_nan_layer(model, images)
                raise NumericError(
                    f"training diverged: NaN loss at epoch {epoch}; first "
                    f"NaN-producing layer: {bad}"
                )
            tape.backward(loss)
            if cfg.lr > 0:
                opt.step(lr)
            n = len(labels)
            loss_sum += float(loss.value) * n
            correct += int((logits.value.argmax(axis=1) == labels).sum())
            total += n
        top1, top5, _ = evaluate(model, test_ds)
        rec = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / total,
            train_acc=correct / total,
            test_top1=top1,
            test_top5=top5,
            seconds=time.perf_counter() - t0,
        )
        report.records.append(rec)
        if log:
            log(
                f"epoch {epoch:3d}  loss {rec.train_loss:.4f}  "
                f"train {rec.train_acc:.4f}  test {rec.test_top1:.4f}  "
                f"({rec.seconds:.1f}s)"
            )
    return report


def sweep_tclip(build_model, train_ds, test_ds, thresholds, cfg: TrainConfig,
                log=None):
    """Train one model per threshold (same seed/schedule otherwise).

    build_model(t_clip) must return a freshly initialized graph.
    Returns rows of (threshold, final test top-1, best test top-1).
    """
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    if any(t <= 0 for t in thresholds):
        raise ValueError("thresholds must be positive")
    rows = []
    for t in thresholds:
        model = build_model(t)
        run_cfg = replace(cfg, t_clip=t)
        report = train(model, train_ds, test_ds, run_cfg, log=log)
        accs = [r.test_top1 for r in report.records]
        rows.append((t, accs[-1], max(accs)))
    return rows


DEFAULT_TCLIP_GRID = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def compare_scaling_modes(build_model, train_ds, test_ds, cfg: TrainConfig,
                          log=None):
    """Train N/B/FB variants with identical seeds.

    Returns (modes, per-epoch accuracy columns) suitable for CSV export.
    """
    modes = ("N", "B", "FB")
    columns = {}
    for mode in modes:
        model = build_model(mode)
        run_cfg = replace(cfg, scaling_mode=mode)
        report = train(model, train_ds, test_ds, run_cfg, log=log)
        columns[mode] = [r.test_top1 for r in report.records]
    return modes, columns


def write_tclip_csv(rows, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t_clip", "final_test_top1", "best_test_top1"])
        for t, final, best in rows:
            w.writerow([t, f"{final:.6f}", f"{best:.6f}"])


def write_scaling_csv(modes, columns, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch"] + list(modes))
        for i in range(len(columns[modes[0]])):
            w.writerow([i] + [f"{columns[m][i]:.6f}" for m in modes])
