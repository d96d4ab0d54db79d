"""CLI subcommands and exit codes, driven in-process."""

import os
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

from bnn import arch, bittensor, cli, modelio

from conftest import REPO_ROOT, edit_descriptor, write_cifar_dir, write_mnist_dir


@pytest.fixture(scope="module")
def mnist_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "mnist"
    return write_mnist_dir(str(d), n_train=60, n_test=30)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, mnist_data):
    out = str(tmp_path_factory.mktemp("run"))
    rc = cli.main([
        "train", "--model", "lenet", "--dataset", "mnist",
        "--data-dir", mnist_data, "--out-dir", out,
        "--epochs", "1", "--batch-size", "30",
    ])
    assert rc == cli.EXIT_OK
    return out


def train_with_nan(monkeypatch, capsys, where, flags):
    """The error lines of one epoch of bnn train with flags on a model with
    a NaN in the first weight of its layer named where; exit 4 asserted."""
    build = cli._build_for_dataset

    def poisoned(*args):
        model = build(*args)
        w = {l.name: l for l in model.layers()}[where].weight.value
        w[(0,) * w.ndim] = np.nan
        return model

    monkeypatch.setattr(cli, "_build_for_dataset", poisoned)
    assert cli.main(["train", "--epochs", "1", *flags]) == cli.EXIT_RUNTIME
    return capsys.readouterr().err.splitlines()


class TestTrain:
    def test_artifacts_written(self, trained):
        assert os.path.exists(os.path.join(trained, "model.bnn"))
        report = os.path.join(trained, "report.csv")
        lines = open(report).read().strip().splitlines()
        assert lines[0].startswith("epoch,loss,")
        assert len(lines) == 2  # header + 1 epoch

    def test_missing_data_dir(self, tmp_path, capsys):
        rc = cli.main([
            "train", "--model", "lenet", "--dataset", "mnist",
            "--data-dir", str(tmp_path / "nope"), "--epochs", "1",
        ])
        assert rc == cli.EXIT_DATA

    def test_bad_model_spec_lists_options(self, mnist_data, capsys):
        rc = cli.main([
            "train", "--model", "vgg", "--dataset", "mnist",
            "--data-dir", mnist_data, "--epochs", "1",
        ])
        assert rc == cli.EXIT_USAGE
        assert "lenet" in capsys.readouterr().err

    def test_bad_hyperparameter(self, mnist_data):
        rc = cli.main([
            "train", "--model", "lenet", "--dataset", "mnist",
            "--data-dir", mnist_data, "--epochs", "0",
        ])
        assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--lr=nan", "--lr=inf", "--weight-decay=inf",
                                      "--t-clip=-inf"])
    def test_non_finite_float_flag(self, mnist_data, tmp_path, capsys, flag):
        # --lr nan once trained nothing and saved the model
        out = tmp_path / "run"
        rc = cli.main([
            "train", "--model", "lenet", "--dataset", "mnist", "--data-dir", mnist_data,
            "--out-dir", str(out), "--epochs", "1", flag,
        ])
        assert rc == cli.EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_weight_decay_exits_2(self, mnist_data, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main([
            "train", "--model", "lenet", "--dataset", "mnist", "--data-dir", mnist_data,
            "--out-dir", str(out), "--epochs", "1", "--weight-decay", "-5",
        ])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == ["error: weight_decay must be >= 0"]
        assert not out.exists()

    def test_label_out_of_range(self, tmp_path, capsys):
        d = write_mnist_dir(str(tmp_path / "m"), n_train=10, n_test=5)
        path = os.path.join(d, "train-labels-idx1-ubyte")
        blob = bytearray(open(path, "rb").read())
        blob[8 + 3] = 200
        open(path, "wb").write(bytes(blob))
        rc = cli.main([
            "train", "--model", "lenet", "--dataset", "mnist",
            "--data-dir", d, "--epochs", "1",
        ])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err and "offset 11" in err

    def test_empty_split(self, tmp_path, capsys):
        d = write_mnist_dir(str(tmp_path / "m"), n_train=10, n_test=0)
        rc = cli.main([
            "train", "--model", "lenet", "--dataset", "mnist",
            "--data-dir", d, "--epochs", "1",
        ])
        assert rc == cli.EXIT_DATA
        assert "t10k-images-idx3-ubyte: the file holds no images" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["conv0", "head", "qconv0", "qdense0"])
    def test_training_nan_exits_4(self, mnist_data, tmp_path, capsys, monkeypatch, where):
        """A NaN that stops the forward at a binary layer's sign (conv0's
        weight), at a binary layer's weight signs (qconv0's, qdense0's) or
        reaches the loss (the head's) is one error line, exit 4."""
        assert train_with_nan(monkeypatch, capsys, where, [
            "--model", "lenet", "--dataset", "mnist", "--data-dir", mnist_data,
            "--out-dir", str(tmp_path / "run"), "--batch-size", "30"]) == [
            f"error: training diverged: NaN at epoch 0; first NaN-producing layer: {where}"]

    def test_training_nan_in_a_transition_exits_4(self, tmp_path, capsys, monkeypatch):
        """A NaN in a DenseNet transition's latent weights names it, exit 4."""
        assert train_with_nan(monkeypatch, capsys, "qtrans0", [
            "--model", "densenet:k=4,b=1", "--dataset", "cifar10",
            "--data-dir", write_cifar_dir(str(tmp_path / "cifar")),
            "--out-dir", str(tmp_path / "run"), "--batch-size", "10"]) == [
            "error: training diverged: NaN at epoch 0; first NaN-producing layer: qtrans0"]

    def test_corrupt_data_file(self, tmp_path):
        d = write_mnist_dir(str(tmp_path / "m"), n_train=10, n_test=5)
        path = os.path.join(d, "train-images-idx3-ubyte")
        open(path, "wb").write(b"\x00" * 40)
        rc = cli.main([
            "train", "--model", "lenet", "--dataset", "mnist",
            "--data-dir", d, "--epochs", "1",
        ])
        assert rc == cli.EXIT_DATA


class TestEval:
    def test_eval_saved_model(self, trained, mnist_data, capsys):
        rc = cli.main([
            "eval", "--model-file", os.path.join(trained, "model.bnn"),
            "--dataset", "mnist", "--data-dir", mnist_data,
        ])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "test top-1" in out

    def test_eval_corrupt_model(self, tmp_path, mnist_data):
        bad = str(tmp_path / "bad.bnn")
        open(bad, "wb").write(b"garbage file contents")
        rc = cli.main([
            "eval", "--model-file", bad,
            "--dataset", "mnist", "--data-dir", mnist_data,
        ])
        assert rc == cli.EXIT_DATA

    def test_eval_missing_model(self, mnist_data):
        rc = cli.main([
            "eval", "--model-file", "/does/not/exist.bnn",
            "--dataset", "mnist", "--data-dir", mnist_data,
        ])
        assert rc == cli.EXIT_DATA


class TestExport:
    def test_export_fp(self, trained, tmp_path, capsys):
        out = str(tmp_path / "fp.bnn")
        rc = cli.main([
            "export", "--model-file", os.path.join(trained, "model.bnn"),
            "--out", out,
        ])
        assert rc == cli.EXIT_OK
        # fp export is much larger than the packed file
        assert os.path.getsize(out) > 10 * os.path.getsize(
            os.path.join(trained, "model.bnn")
        )

    def test_zero_width_transition_in_a_file_exits_3(self, tmp_path, capsys):
        """A saved densenet:k=4,b=1 whose build_args ask for reduction 0.01,
        a transition of int(5.5 * 4 * 0.01) = 0 channels, is a bad model
        file: load raises ModelFormatError and export exits 3 with one
        line naming k and reduction."""
        path = str(tmp_path / "d.bnn")
        modelio.save(arch.build_densenet(arch.DenseNetSpec(k=4, b=1, num_classes=10),
                                         preset="cifar"), path)
        edit_descriptor(path, lambda d: d["build_args"].update(reduction=0.01))
        with pytest.raises(modelio.ModelFormatError, match="k=4 and reduction=0.01"):
            modelio.load(path)
        capsys.readouterr()
        assert cli.main(["export", "--model-file", path,
                         "--out", str(tmp_path / "fp.bnn")]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "k=4 and reduction=0.01" in err and "Traceback" not in err


class TestSize:
    def test_lenet(self, capsys):
        rc = cli.main(["size", "--model", "lenet"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "parameters:" in out
        assert "1,113,066" in out

    def test_densenet(self, capsys):
        rc = cli.main(["size", "--model", "densenet:k=128,b=2"])
        assert rc == cli.EXIT_OK
        assert "11,389,224" in capsys.readouterr().out

    def test_bad_spec(self, capsys):
        rc = cli.main(["size", "--model", "resnet7"])
        assert rc == cli.EXIT_USAGE

    def test_out_of_memory_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        """A model too large for memory, asked for by --model or by a model
        file's build_args, exits 4 with one line; the builders are patched
        to raise as numpy does, so nothing large is allocated."""
        path = str(tmp_path / "m.bnn")
        modelio.save(arch.build_lenet(), path)

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.00 TiB for an array")

        monkeypatch.setattr(arch, "build_densenet", too_large)
        monkeypatch.setattr(arch, "build_lenet", too_large)
        capsys.readouterr()
        for argv in (["size", "--model", "densenet:k=100000,b=1"],
                     ["export", "--model-file", path, "--out", str(tmp_path / "fp.bnn")]):
            assert cli.main(argv) == cli.EXIT_RUNTIME
            assert capsys.readouterr().err == (
                "error: out of memory: Unable to allocate 4.00 TiB for an array\n")

    @pytest.mark.parametrize("spec, option", [
        ("lenet:width=wide", "width"), ("densenet:k=4,b=1,bottleneck=yes", "bottleneck"),
        ("densenet:k=4,b=1,k=8", "'k'"),
        ("densenet:k=x,b=1", "model option k must be an integer, got 'x'"),
        ("densenet:k=4,b=1,reduction=abc", "model option reduction must be a number, got 'abc'"),
        # transitions of int(5.5 * 4 * 0.01) = 0 channels
        ("densenet:k=4,b=1,reduction=0.01", "k=4 and reduction=0.01"),
        ("foo", f"unknown model 'foo'; valid: {arch.MODEL_SPEC_HELP}")])
    def test_malformed_option_exits_2_naming_it(self, spec, option, capsys):
        assert cli.main(["size", "--model", spec]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and option in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("model", ["lenet", "densenet:k=16,b=2", "resnet18"])
    @pytest.mark.parametrize("classes", ["0", "1", "-3"])
    def test_too_few_classes(self, model, classes, capsys):
        rc = cli.main(["size", "--model", model, "--classes", classes])
        assert rc == cli.EXIT_USAGE
        assert "num_classes must be >= 2" in capsys.readouterr().err


class TestBench:
    def test_small_sizes(self, capsys):
        rc = cli.main(["bench", "--sizes", "64", "128"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "equality check passed" in out
        assert "vs naive" in out

    def test_reports_which_kernel_ran(self, capsys):
        assert cli.main(["bench", "--sizes", "64"]) == cli.EXIT_OK
        line = capsys.readouterr().out.splitlines()[0]
        assert line == f"kernel: {bittensor.kernel_status}"
        assert line.startswith(("kernel: native (", "kernel: numpy ("))


class TestSweep:
    def test_tclip_sweep(self, mnist_data, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        rc = cli.main([
            "sweep", "--kind", "tclip", "--grid", "0.5", "1.0",
            "--model", "lenet", "--dataset", "mnist",
            "--data-dir", mnist_data, "--out-dir", out,
            "--epochs", "1", "--batch-size", "30",
        ])
        assert rc == cli.EXIT_OK
        csv_path = os.path.join(out, "sweep_tclip.csv")
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "t_clip,final_test_top1,best_test_top1"
        assert len(lines) == 3

    def test_scaling_sweep(self, mnist_data, tmp_path):
        out = str(tmp_path / "sweep")
        rc = cli.main([
            "sweep", "--kind", "scaling",
            "--model", "lenet", "--dataset", "mnist",
            "--data-dir", mnist_data, "--out-dir", out,
            "--epochs", "1", "--batch-size", "30",
        ])
        assert rc == cli.EXIT_OK
        lines = open(os.path.join(out, "sweep_scaling.csv")).read().strip(
        ).splitlines()
        assert lines[0] == "epoch,N,B,FB"
        assert len(lines) == 2

    def test_grid_in_a_scaling_sweep_exits_2(self, mnist_data, tmp_path, capsys):
        """--grid sets a tclip sweep's values: a scaling sweep refuses it
        before it loads the data or writes anything."""
        out = tmp_path / "sweep"
        rc = cli.main([
            "sweep", "--kind", "scaling", "--grid", "0.5", "1.0",
            "--model", "lenet", "--dataset", "mnist",
            "--data-dir", mnist_data, "--out-dir", str(out),
            "--epochs", "1", "--batch-size", "30",
        ])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--grid" in err[0]
        assert not out.exists()


def test_cifar10_train_eval_and_sweep(tmp_path, monkeypatch):
    """--dataset cifar10 through the CLI: training a DenseNet for an epoch,
    evaluating its file and a t_clip sweep each exit 0, and every model
    they build or load is CIFAR-preset."""
    data_dir = write_cifar_dir(str(tmp_path / "cifar"))
    built = []
    build_model = arch.build_model
    monkeypatch.setattr(arch, "build_model",
                        lambda *a, **kw: built.append(build_model(*a, **kw)) or built[-1])
    flags = ["--model", "densenet:k=4,b=1", "--dataset", "cifar10", "--data-dir", data_dir,
             "--epochs", "1", "--batch-size", "20"]
    run = str(tmp_path / "run")
    assert cli.main(["train", *flags, "--out-dir", run]) == cli.EXIT_OK
    path = os.path.join(run, "model.bnn")
    assert cli.main(["eval", "--model-file", path, "--dataset", "cifar10",
                     "--data-dir", data_dir]) == cli.EXIT_OK
    assert cli.main(["sweep", "--kind", "tclip", "--grid", "0.5", *flags,
                     "--out-dir", str(tmp_path / "sweep")]) == cli.EXIT_OK
    models = built + [modelio.load(path)[0]]
    assert len(models) == 3
    for g in models:
        assert g.input_shape == (3, 32, 32) and g.build_args["preset"] == "cifar"
    assert built[1].build_args["t_clip"] == 0.5


def test_usage_error_on_no_command():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_unknown_dataset_is_a_usage_error(command, tmp_path, capsys):
    """argparse's choices reject a dataset other than mnist and cifar10
    before any command runs: exit 2, naming the choices."""
    flags = {"train": ["--model", "lenet"], "eval": ["--model-file", "m.bnn"],
             "sweep": ["--kind", "tclip", "--model", "lenet"]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *flags, "--dataset", "svhn", "--data-dir", str(tmp_path)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "invalid choice: 'svhn' (choose from" in capsys.readouterr().err


def _run_module(*args, env_changes=()):
    """Run ``python -m bnn`` with src importable, as an installed bnn is;
    env_changes maps variables to new values, or to None to unset them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")]))
    for name, value in dict(env_changes).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, "-m", "bnn", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_bnn_help():
    proc = _run_module("--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: bnn" in proc.stdout


@pytest.mark.parametrize("command", ["eval", "export"])
def test_malformed_descriptor_exits_3_without_traceback(tmp_path, mnist_data,
                                                         command):
    # a CRC-valid file whose descriptor has no build_args
    path = str(tmp_path / "m.bnn")
    modelio.save(arch.build_lenet(seed=1), path)
    edit_descriptor(path, lambda desc: desc.pop("build_args"))
    extra = (["--dataset", "mnist", "--data-dir", mnist_data]
             if command == "eval" else ["--out", str(tmp_path / "fp.bnn")])
    proc = _run_module(command, "--model-file", path, *extra)
    assert proc.returncode == cli.EXIT_DATA
    assert "Traceback" not in proc.stderr
    assert "build_args" in proc.stderr


def test_entry_point_installed():
    exe = shutil.which("bnn")
    assert exe is not None


def _bench_in_subprocess(cache, cc):
    """bnn bench in a fresh process with its kernel cache under cache;
    it must succeed, check exactness and print no traceback."""
    proc = _run_module("bench", "--sizes", "64",
                       env_changes={"XDG_CACHE_HOME": str(cache), "CC": cc})
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "equality check passed" in proc.stdout
    return proc.stdout.splitlines()[0]


def test_no_compiler_falls_back_to_numpy(tmp_path):
    line = _bench_in_subprocess(tmp_path, "false")
    assert line == "kernel: numpy (false exited with status 1.)"


def test_unwritable_cache_falls_back_to_numpy(tmp_path):
    # a file where the cache directory should be: no user can create it
    (tmp_path / "bnnkit").write_text("")
    line = _bench_in_subprocess(tmp_path, None)
    assert line.startswith("kernel: numpy (")


def test_read_only_cache_directory(tmp_path):
    cache = tmp_path / "bnnkit"
    cache.mkdir(mode=0o500)
    try:  # numpy, except for root, whom the mode does not stop
        line = _bench_in_subprocess(tmp_path, None)
    finally:
        cache.chmod(0o700)
    assert line.startswith("kernel: numpy (") or os.geteuid() == 0


def test_shared_cache_directory_is_not_used(tmp_path):
    # another user could plant a library there, which bnn would run
    cache = tmp_path / "bnnkit"
    cache.mkdir()
    cache.chmod(0o777)
    line = _bench_in_subprocess(tmp_path, None)
    assert line == f"kernel: numpy ({cache} is writable by other users)"
    assert list(cache.iterdir()) == []


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_cached_kernel_loads_without_compiler(tmp_path):
    # the cache is keyed on $CC, so the same command builds, then fails
    cc = tmp_path / "cc"
    cc.write_text(f'#!/bin/sh\nexec {shlex.quote(shutil.which("cc"))} "$@"\n')
    cc.chmod(0o700)
    built = _bench_in_subprocess(tmp_path, shlex.quote(str(cc)))
    assert built.startswith(f"kernel: native ({tmp_path / 'bnnkit'}{os.sep}")
    cc.write_text("#!/bin/sh\nexit 1\n")
    assert _bench_in_subprocess(tmp_path, shlex.quote(str(cc))) == built


def test_kernel_cache_is_keyed_on_the_compiler_command(tmp_path, monkeypatch):
    # a library built without a vector popcount must not serve plain cc
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    paths = {bittensor._library_path(cc) for cc in ("cc", "cc -mno-avx512vpopcntdq")}
    assert len(paths) == 2
    assert all(os.path.dirname(p) == str(tmp_path / "bnnkit") for p in paths)
