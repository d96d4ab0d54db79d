"""The benchmark's workloads, their correctness gates and their metrics.

One run is: set up several times (synthetic data written and loaded,
model built or saved and loaded, one warm-up batch), check the exactness
gates, then repeat the workload's unit of work (a "rep") until the time
budget is spent.  A train rep is one ``train.train`` epoch from a freshly
built model (which ends with ``train.evaluate`` on the small test split,
as ``bnn train`` does every epoch); an eval rep is one ``train.evaluate``
pass over the test split with the loaded model.  Timings are medians over
reps; ``setup_s`` is the median over set-ups.

With tracing on, reps alternate between untraced and traced; the traced
ones give the per-layer metrics (per rep) and the ratio of the two
medians is ``trace.overhead``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import synth
import tracing
from bnn import arch, bittensor, data, modelio, train
from bnn.autodiff import Tape

T_CLIP = 0.5
SCALING_MODE = "N"  # the default and the paper's recommended mode; see NOTES.md


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # "mnist" or "cifar10"
    model: str  # arch.build_model spec
    batch_size: int
    n_train: int
    n_test: int
    train: bool
    setups: int  # set-ups per run; setup_s is their median
    augment: bool = False

    @property
    def images_per_rep(self):
        return self.n_train if self.train else self.n_test


# A train workload's test split is exactly one batch, so the warm-up step
# calls binary_gemm at every shape the timed reps use and the exactness
# gate covers them all.  LeNet set-ups are cheap, so more of them steady
# the median; a DenseNet set-up (one ~3.5 s warm-up step) is not.
WORKLOADS = {w.name: w for w in (
    Workload("lenet-train", "mnist", "lenet", 100, 1000, 100, train=True, setups=5),
    Workload("lenet-eval", "mnist", "lenet", 256, 256, 1280, train=False, setups=5),
    Workload("densenet-train", "cifar10", "densenet:k=64,b=2", 8, 16, 8,
             train=True, setups=3, augment=True),
)}

LAYER_KIND_NAMES = [cls.__name__ for cls in tracing.LAYER_KINDS] + list(tracing.GRAPH_OPS)
# Binary layers of LeNet (qconv0, qdense0) and of densenet:k=64,b=2.
BINARY_LAYERS = (
    [f"qconv{i}" for i in range(16)] + ["qdense0"] + [f"qtrans{i}" for i in range(3)]
)
SHARE_OF = ("bittensor.binary_gemm", "bittensor.pack", "layers.im2col", "layers.col2im")


class GateFailure(Exception):
    """A correctness check failed before timing; nothing is timed."""


class Run:
    def __init__(self, wl: Workload, seed: int, seconds: float, traced: bool, workdir):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.workdir = workdir
        self.cfg = train.TrainConfig(
            epochs=1, batch_size=wl.batch_size, t_clip=T_CLIP,
            scaling_mode=SCALING_MODE, seed=seed, augment=wl.augment,
        )
        self.attempted = 0
        self.failed = 0
        self.setup_s = []
        self.io_s = {"data.load": [], "modelio.save": [], "modelio.load": []}
        self.gemm_shapes = set()
        self.gemm_times = {}  # shape -> (packed_s, blas_s), traced runs only
        self.losses = []
        self.first_result = None
        self.rates = {False: [], True: []}  # traced? -> img/s per rep
        self.tracer = tracing.Tracer()
        self.model_file_bytes = None

    # -- bookkeeping -------------------------------------------------------
    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)

    def _timed_io(self, key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.io_s[key].append(time.perf_counter() - t0)
        return out

    def build(self):
        return arch.build_model(
            self.wl.model, num_classes=synth.NUM_CLASSES, t_clip=T_CLIP,
            scaling_mode=SCALING_MODE, seed=self.seed,
            preset="cifar" if self.wl.dataset == "cifar10" else None,
        )

    # -- set-up ------------------------------------------------------------
    def setup(self):
        wl = self.wl
        t0 = time.perf_counter()
        data_dir = os.path.join(self.workdir, "data")
        os.makedirs(data_dir)
        synth.WRITERS[wl.dataset](data_dir, self.seed, wl.n_train, wl.n_test)
        self.train_ds, self.test_ds = self._timed_io(
            "data.load", synth.LOADERS[wl.dataset], data_dir)
        shutil.rmtree(data_dir)
        self.model = self.build()
        orig_gemm = bittensor.binary_gemm

        def recording_gemm(a, b, *args, **kwargs):
            self.gemm_shapes.add((a.shape[0], a.shape[1], b.shape[0]))
            return orig_gemm(a, b, *args, **kwargs)

        bittensor.binary_gemm = recording_gemm
        try:
            if wl.train:
                self._warm_up_train()
            else:
                self._warm_up_eval()
        finally:
            bittensor.binary_gemm = orig_gemm
        self.setup_s.append(time.perf_counter() - t0)

    def _warm_up_train(self):
        opt = train.Adam(self.model.params(), self.cfg)
        images, labels = next(data.batches(
            self.train_ds, self.wl.batch_size, shuffle_seed=self.cfg.seed * 100003,
            augment=self.wl.augment,
        ))
        tape = Tape()
        logits = self.model.forward(images, tape=tape, training=True)
        tape.backward(train.softmax_cross_entropy(tape, logits, labels))
        opt.step(self.cfg.lr)

    def _warm_up_eval(self):
        self.model_path = os.path.join(self.workdir, "model.bnn")
        self.norm = (self.train_ds.norm_mean, self.train_ds.norm_std)
        self._timed_io("modelio.save", modelio.save, self.model, self.model_path,
                       normalization=self.norm)
        self.loaded, _ = self._timed_io("modelio.load", modelio.load, self.model_path)
        n = self.wl.batch_size
        ds = self.test_ds
        first = data.Dataset(ds.images[:n], ds.labels[:n], ds.split,
                             ds.class_count, ds.norm_mean, ds.norm_std)
        train.evaluate(self.loaded, first, batch_size=n)

    # -- gates -------------------------------------------------------------
    def gate_gemm(self):
        """Packed GEMM == float32 GEMM of the sign operands, exactly, at
        every (M, K, N) the workload calls binary_gemm with.  Operands hold
        -1, 0 and +1 so that sign(0) = +1 is exercised."""
        rng = np.random.default_rng([self.seed, 1])
        for m, k, n in sorted(self.gemm_shapes):
            a = rng.integers(-1, 2, size=(m, k), dtype=np.int8).astype(np.float32)
            b = rng.integers(-1, 2, size=(n, k), dtype=np.int8).astype(np.float32)
            ap, bp = bittensor.pack(a), bittensor.pack(b)
            a_sign = _sign(a)
            b_sign = _sign(b)
            packed = bittensor.binary_gemm(ap, bp)
            blas = a_sign @ b_sign.T
            if not self.check(np.array_equal(packed, blas),
                              f"binary_gemm != float32 GEMM at M,K,N={m},{k},{n}"):
                continue
            if self.traced:
                self.gemm_times[(m, k, n)] = (
                    _median_time(lambda: bittensor.binary_gemm(ap, bp)),
                    _median_time(lambda: a_sign @ b_sign.T),
                )

    def gate_round_trip(self):
        """lenet-eval: logits survive save -> load bit for bit, and
        save -> load -> save is byte-identical."""
        x = self.test_ds.images[: self.wl.batch_size]
        self.check(
            np.array_equal(self.model.forward(x).value, self.loaded.forward(x).value),
            "logits after modelio.load differ from the saved model's",
        )
        again = os.path.join(self.workdir, "model-again.bnn")
        modelio.save(self.loaded, again, normalization=self.norm)
        with open(self.model_path, "rb") as f1, open(again, "rb") as f2:
            self.check(f1.read() == f2.read(), "save -> load -> save is not byte-identical")
        self.model_file_bytes = self._check_file_size(self.model_path, self.model)

    def _check_file_size(self, path, model):
        size = os.path.getsize(path)
        self.check(size == arch.model_size_bytes(model),
                   f"file size {size} != arch.model_size_bytes")
        return size

    # -- timed reps --------------------------------------------------------
    def record_losses(self):
        orig = train.softmax_cross_entropy

        def softmax_cross_entropy(tape, logits, labels):
            loss = orig(tape, logits, labels)
            self.losses.append(float(loss.value))
            return loss

        train.softmax_cross_entropy = softmax_cross_entropy
        return orig

    def rep(self, traced):
        if self.wl.train:
            model = self.build()
            self.losses.clear()
        if traced:
            self.tracer.install()
            sid = self.tracer.begin("rep")
        t0 = time.perf_counter()
        try:
            if self.wl.train:
                train.train(model, self.train_ds, self.test_ds, self.cfg)
            else:
                result = train.evaluate(self.loaded, self.test_ds,
                                        batch_size=self.wl.batch_size)
        finally:
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.end(sid)
                self.tracer.uninstall()
        self.attempted += 1  # the rep itself; it raised if it failed
        if self.wl.train:
            self.trained = model
            result = list(self.losses)
            self.check(np.all(np.isfinite(result)), "non-finite training loss")
        if self.first_result is None:
            self.first_result = result
        else:
            self.check(result == self.first_result,
                       "a repetition from the same seed gave different losses or accuracy")
        self.rates[traced].append(self.wl.images_per_rep / dt)

    def timed(self):
        deadline = time.perf_counter() + self.seconds
        while True:
            n = len(self.rates[False]) + len(self.rates[True])
            self.rep(traced=self.traced and n % 2 == 1)
            done = time.perf_counter() >= deadline
            if self.traced:
                if done and self.rates[True] and len(self.rates[False]) == len(self.rates[True]):
                    break
            elif done and len(self.rates[False]) >= 2:
                break

    def run(self):
        for _ in range(self.wl.setups):
            self.setup()
        self.gate_gemm()
        if not self.wl.train:
            self.gate_round_trip()
        if self.failed:
            raise GateFailure("a gate failed before timing; refusing to time")
        if self.wl.train:
            orig = self.record_losses()
            try:
                self.timed()
            finally:
                train.softmax_cross_entropy = orig
            path = os.path.join(self.workdir, "trained.bnn")
            self._timed_io("modelio.save", modelio.save, self.trained, path,
                           normalization=(self.train_ds.norm_mean, self.train_ds.norm_std))
            self.model_file_bytes = self._check_file_size(path, self.trained)
        else:
            self.timed()

    # -- metrics -----------------------------------------------------------
    def end_to_end(self):
        return {
            "img_per_s": (statistics.median(self.rates[False]), "img/s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "model_file_bytes": (self.model_file_bytes, "bytes"),
            "pass_rate": (1 - self.failed / self.attempted, "ratio"),
        }

    def per_layer(self):
        reps = len(self.rates[True])
        tot = tracing.summarize(self.tracer.spans)
        wall = tot["rep"]["s"]

        def get(key, field="s"):
            return tot.get(key, {}).get(field, 0)

        def per_rep(key, field="s"):
            return get(key, field) / reps

        m = {}
        gemm = "bittensor.binary_gemm"
        m[gemm + ".calls"] = (per_rep(gemm, "calls"), "count/rep")
        m[gemm + ".self_s"] = (per_rep(gemm, "self_s"), "s/rep")
        m[gemm + ".binops"] = (per_rep(gemm, "binops"), "binop/rep")
        m[gemm + ".bytes"] = (per_rep(gemm, "bytes"), "B-computed/rep")
        m[gemm + ".binops_per_byte"] = (get(gemm, "binops") / get(gemm, "bytes"), "binop/B")
        m[gemm + ".blas_ratio"] = (self._blas_ratio(), "ratio")
        m["bittensor.pack.calls"] = (per_rep("bittensor.pack", "calls"), "count/rep")
        m["bittensor.pack.self_s"] = (per_rep("bittensor.pack", "self_s"), "s/rep")
        m["bittensor.pack.bytes_in"] = (per_rep("bittensor.pack", "bytes_in"), "B/rep")
        m["layers.im2col.self_s"] = (per_rep("layers.im2col", "self_s"), "s/rep")
        m["layers.im2col.bytes_out"] = (per_rep("layers.im2col", "bytes_out"), "B/rep")
        m["layers.col2im.self_s"] = (per_rep("layers.col2im", "self_s"), "s/rep")
        for key in SHARE_OF:
            m[key + ".share"] = (get(key, "self_s") / wall, "ratio")
        for kind in LAYER_KIND_NAMES:
            m[f"layers.{kind}.fwd_s"] = (per_rep("fwd:" + kind), "s/rep")
            m[f"layers.{kind}.bwd_s"] = (per_rep("bwd:" + kind), "s/rep")
        for name in BINARY_LAYERS:
            m[f"layer.{name}.fwd_s"] = (per_rep("fwd@" + name), "s/rep")
            m[f"layer.{name}.bwd_s"] = (per_rep("bwd@" + name), "s/rep")
        backward = "autodiff.Tape.backward"
        m[backward + ".s"] = (per_rep(backward), "s/rep")
        m[backward + ".self_s"] = (per_rep(backward, "self_s"), "s/rep")
        m["autodiff.tape.nodes"] = (get(backward, "nodes") / max(1, get(backward, "calls")), "count/step")
        m["autodiff.sign.calls"] = (per_rep("autodiff.sign", "calls"), "count/rep")
        m["autodiff.sign.self_s"] = (per_rep("autodiff.sign", "self_s"), "s/rep")
        m["autodiff.sign.bwd_s"] = (per_rep("bwd:sign"), "s/rep")
        m["arch.ModelGraph.forward.self_s"] = (per_rep("arch.ModelGraph.forward", "self_s"), "s/rep")
        m["train.Adam.step.s"] = (per_rep("train.Adam.step"), "s/rep")
        m["train.softmax_cross_entropy.s"] = (
            (get("train.softmax_cross_entropy") + get("bwd:softmax_cross_entropy")) / reps, "s/rep")
        m["train.evaluate.s"] = (per_rep("train.evaluate"), "s/rep")
        m["data.batches.wait_s"] = (per_rep("data.batches.wait"), "s/rep")
        for key in ("data.load", "modelio.save", "modelio.load"):
            m[key + ".s"] = (statistics.median(self.io_s[key]) if self.io_s[key] else 0.0, "s")
        m["trace.overhead"] = (
            statistics.median(self.rates[True]) / statistics.median(self.rates[False]), "ratio")
        return m

    def _blas_ratio(self):
        counts = {}
        for name, _d, _p, _t0, _t1, info in self.tracer.spans:
            if name == "bittensor.binary_gemm":
                counts[info["shape"]] = counts.get(info["shape"], 0) + 1
        ungated = set(counts) - set(self.gemm_times)
        self.check(not ungated, f"binary_gemm shapes not covered by the gate: {sorted(ungated)}")
        packed = sum(c * self.gemm_times[s][0] for s, c in counts.items() if s in self.gemm_times)
        blas = sum(c * self.gemm_times[s][1] for s, c in counts.items() if s in self.gemm_times)
        return blas / packed

    def write_spans(self, path, env):
        with open(path, "w") as f:
            json.dump({"workload": self.wl.name, "seed": self.seed, "environment": env,
                       "span_fields": ["name", "detail", "parent", "t0", "t1", "info"],
                       "spans": self.tracer.spans}, f)


def _sign(x):
    """Reference sign (0 maps to +1) in float32, kept apart from the program's."""
    out = (x >= 0).astype(np.float32)
    out *= 2
    out -= 1
    return out


def _median_time(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
