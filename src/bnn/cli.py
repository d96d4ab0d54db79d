"""Command-line entry point.

Exit codes: 0 success, 2 usage error, 3 data error, 4 runtime/numeric
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import arch, bench, bittensor, data, modelio, train as train_mod
from .errors import DataFormatError, ModelFormatError, NumericError

DATASETS = ("mnist", "cifar10")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _load_dataset(name, data_dir):
    """name is one of DATASETS: argparse's choices reject any other."""
    return data.load_mnist(data_dir) if name == "mnist" else data.load_cifar10(data_dir)


def _build_for_dataset(spec, dataset, num_classes, cfg):
    preset = "cifar" if dataset == "cifar10" else None
    return arch.build_model(
        spec, num_classes=num_classes, t_clip=cfg.t_clip,
        scaling_mode=cfg.scaling_mode, seed=cfg.seed, preset=preset,
    )


def _train_config(args):
    return train_mod.TrainConfig(
        optimizer=args.optimizer,
        lr=args.lr,
        weight_decay=args.weight_decay,
        epochs=args.epochs,
        batch_size=args.batch_size,
        t_clip=args.t_clip,
        scaling_mode=args.scaling_mode,
        seed=args.seed,
        augment=args.augment,
    )


def cmd_train(args):
    train_ds, test_ds = _load_dataset(args.dataset, args.data_dir)
    cfg = _train_config(args)
    model = _build_for_dataset(args.model, args.dataset,
                               train_ds.class_count, cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    report = train_mod.train(model, train_ds, test_ds, cfg, log=print)
    model_path = os.path.join(args.out_dir, "model.bnn")
    modelio.save(model, model_path,
                 normalization=(train_ds.norm_mean, train_ds.norm_std))
    report.write_csv(os.path.join(args.out_dir, "report.csv"))
    final = report.records[-1]
    print(f"final test top-1: {final.test_top1:.4f}")
    print(f"model written to {model_path}")
    return EXIT_OK


def cmd_eval(args):
    model, _norm = modelio.load(args.model_file)
    _train_ds, test_ds = _load_dataset(args.dataset, args.data_dir)
    top1, top5, loss = train_mod.evaluate(model, test_ds)
    print(f"test top-1: {top1:.4f}")
    if not np.isnan(top5):
        print(f"test top-5: {top5:.4f}")
    print(f"test loss:  {loss:.4f}")
    return EXIT_OK


def cmd_bench(args):
    rows = bench.run_bench(sizes=tuple(args.sizes), seed=args.seed)
    print(f"kernel: {bittensor.kernel_status}")
    print("equality check passed: packed kernel == float reference, exact")
    print(bench.format_table(rows))
    blas = bittensor.openblas_threads("get")
    print(f"parts: {bittensor.split_parts()}, BLAS threads: {blas() if blas else 'unknown'}")
    return EXIT_OK


def cmd_size(args):
    model = arch.build_model(args.model, num_classes=args.classes)
    params = arch.count_params(model)
    bin_size = arch.model_size_bytes(model, binary_storage=True)
    fp_size = arch.model_size_bytes(model, binary_storage=False)
    print(arch.summary(model))
    print()
    print(f"parameters:  {params:,}")
    print(f"binary file: {bin_size / 1024:.1f} KB")
    print(f"fp file:     {fp_size / 1024 / 1024:.2f} MB")
    print(f"ratio:       {fp_size / bin_size:.1f}x")
    return EXIT_OK


def cmd_export(args):
    model, norm = modelio.load(args.model_file)
    modelio.export_fp(model, args.out, normalization=norm)
    print(f"full-precision export written to {args.out} "
          f"({os.path.getsize(args.out):,} bytes)")
    return EXIT_OK


def cmd_sweep(args):
    if args.kind != "tclip" and args.grid is not None:
        raise ValueError(f"--grid sets the t_clip values of a tclip sweep; "
                         f"--kind {args.kind} takes none")
    train_ds, test_ds = _load_dataset(args.dataset, args.data_dir)
    cfg = _train_config(args)
    os.makedirs(args.out_dir, exist_ok=True)

    def build(**change):
        return _build_for_dataset(args.model, args.dataset, train_ds.class_count,
                                  replace(cfg, **change))

    if args.kind == "tclip":
        grid = args.grid or list(train_mod.DEFAULT_TCLIP_GRID)
        rows = train_mod.sweep_tclip(lambda t: build(t_clip=t), train_ds, test_ds, grid,
                                     cfg, log=print)
        out = os.path.join(args.out_dir, "sweep_tclip.csv")
        train_mod.write_tclip_csv(rows, out)
        best = max(rows, key=lambda r: r[2])
        print(f"wrote {out}; best threshold {best[0]} "
              f"(top-1 {best[2]:.4f})")
    else:  # scaling
        modes, columns = train_mod.compare_scaling_modes(
            lambda mode: build(scaling_mode=mode), train_ds, test_ds, cfg, log=print
        )
        out = os.path.join(args.out_dir, "sweep_scaling.csv")
        train_mod.write_scaling_csv(modes, columns, out)
        print(f"wrote {out}")
    return EXIT_OK


def _add_train_flags(p):
    p.add_argument("--model", required=True,
                   help=f"model spec: {arch.MODEL_SPEC_HELP}")
    p.add_argument("--dataset", required=True, choices=DATASETS)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", default="out")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--optimizer", choices=("adam", "sgd_momentum"),
                   default="adam")
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--t-clip", type=float, default=0.5)
    p.add_argument("--scaling-mode", choices=("N", "B", "FB"), default="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--augment", action="store_true",
                   help="random flip + pad-and-crop (CIFAR-10 recipe)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bnn",
        description="Train and deploy binary neural networks with "
                    "bit-packed XNOR/popcount inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model, write model.bnn + CSV")
    _add_train_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model")
    p.add_argument("--model-file", required=True)
    p.add_argument("--dataset", required=True, choices=DATASETS)
    p.add_argument("--data-dir", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="time the packed GEMM kernel")
    p.add_argument("--sizes", type=int, nargs="+",
                   default=list(bench.DEFAULT_SIZES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("size", help="report parameters and file sizes")
    p.add_argument("--model", required=True,
                   help=f"model spec: {arch.MODEL_SPEC_HELP}")
    p.add_argument("--classes", type=int, default=None,
                   help="class count (default: 10 for lenet, 1000 otherwise)")
    p.set_defaults(fn=cmd_size)

    p = sub.add_parser("export", help="re-export a model with fp32 storage")
    p.add_argument("--model-file", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("sweep", help="t_clip grid or scaling-mode comparison")
    p.add_argument("--kind", required=True, choices=("tclip", "scaling"))
    p.add_argument("--grid", type=float, nargs="+", default=None,
                   help="t_clip values (tclip sweeps only)")
    _add_train_flags(p)
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        if isinstance(exc, (DataFormatError, ModelFormatError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # a model too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
