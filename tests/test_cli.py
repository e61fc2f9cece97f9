import argparse
import ast
import csv
import importlib
import json
import re
import shutil
import struct
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from affectline import cli
from affectline.audio_io import read_wav, scan_corpus
from affectline.checkpoint import RETIRED_KEYS, FeatureSettings, load_checkpoint, save_checkpoint
from affectline.cli import main
from affectline.config import RunConfig
from affectline.nn import ModelSpec
from affectline.session import load_manifest, synthesize_session
from affectline.train_eval import (TrainConfig, _to_batch_array, extract_all, predict_logits,
                                   split_dataset)
from conftest import (UNPARSABLE_HEADERS, build_synthetic_corpus, edit_header, header_section,
                      make_wav_bytes, sine, write_test_wav)

TINY_OVERRIDES = [
    "--set", "conv_channels=8,8,12,12,16,16",
    "--set", "t_fixed=100",
]


RETIRED_LINES = ["delta_window = 2", "eps = 1e-08",
                 "filter_emotions = neutral,calm,happy,sad,angry,fearful", "filter_sex = female",
                 "fmax_hz = 0.0", "fmin_hz = 0.0", "frame_len_samples = 400", "hop_samples = 160",
                 "jobs = 1", "kernel = 3", "log_floor = 1e-10", "n_coeffs = 13", "n_fft = 512",
                 "n_mels = 26", "pad = 1", "patience = 0", "pool_stride = 0", "pool_width = 0",
                 "resample_method = sinc", "rho = 0.9", "sample_rate_hz = 16000",
                 "shuffle_each_epoch = true", "split_ratio = 0.8", "stratified = true",
                 "stride = 1", "vocal_channels = speech,song", "window = hamming"]

# a train run written before the feature-chain, RMSProp, kernel, pad, corpus,
# split and patience keys were retired; data/legacy_run/README.md says how
LEGACY_RUN = Path(__file__).parent / "data" / "legacy_run"
README = Path(__file__).parent.parent / "README.md"


def count_calls(monkeypatch, name):
    """The argument tuples of every call to ``cli.<name>``, which still runs."""
    calls, original = [], getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def seven_class_checkpoint(run, path):
    """``run``'s checkpoint with a 7-row FC head and a header that says so."""
    ckpt = load_checkpoint(run / "checkpoint.afl")
    rng = np.random.default_rng(7)
    ckpt.params["fc.w"] = rng.standard_normal((7, ckpt.params["fc.w"].shape[1]), np.float32)
    ckpt.params["fc.b"] = np.zeros(7, np.float32)
    ckpt.opt_acc = {}
    save_checkpoint(path, ckpt)
    edit_header(path, lambda header: header["model_spec"].update(n_classes=7))
    return path


def writes_fail_halfway(monkeypatch, fails):
    """Make each ``Path.write_bytes`` or ``Path.write_text`` of a file whose name
    ``fails(name)`` holds, as its temporary file's name also does, write half its
    data, then fail as on a full disk."""
    for name in ("write_bytes", "write_text"):
        def write_half(self, data, *args, _write=getattr(Path, name), **kwargs):
            if not fails(self.name):
                return _write(self, data, *args, **kwargs)
            _write(self, data[:len(data) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, name, write_half)


def with_retired_keys(config_txt, out_path):
    """``config_txt`` as echoed before the retired keys were removed."""
    lines = config_txt.read_text().splitlines() + RETIRED_LINES
    out_path.write_text("\n".join(sorted(lines)) + "\n")
    return out_path


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    build_synthetic_corpus(root, per_class=5)
    return root


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, corpus_root):
    out = tmp_path_factory.mktemp("run")
    cache = tmp_path_factory.mktemp("cache")
    code = main(["train", "--corpus", str(corpus_root), "--out", str(out),
                 "--epochs", "3", "--seed", "5", "--cache-dir", str(cache),
                 *TINY_OVERRIDES])
    assert code == 0
    return out, cache


class TestTrainCommand:
    def test_artifacts_written(self, trained_run):
        out, _ = trained_run
        for name in ("checkpoint.afl", "metrics.csv", "confusion.csv",
                     "accuracy.svg", "confusion.svg", "config.txt"):
            assert (out / name).exists(), name
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,train_acc,test_acc,train_loss"
        assert len(lines) == 4  # three epochs

    def test_out_is_a_file_exits_3_before_training(self, tmp_path, corpus_root, capsys,
                                                    monkeypatch):
        out = tmp_path / "taken"
        out.write_text("x")
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("training ran"))
        assert main(["train", "--corpus", str(corpus_root), "--out", str(out)]) == 3
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "x"

    def test_directory_at_checkpoint_path_exits_3(self, tmp_path, corpus_root, capsys):
        out = tmp_path / "o"
        (out / "checkpoint.afl").mkdir(parents=True)
        assert main(["train", "--corpus", str(corpus_root), "--out", str(out), "--epochs", "0",
                     "--cache-dir", str(tmp_path / "c"), *TINY_OVERRIDES]) == 3
        assert str(out / "checkpoint.afl") in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint.afl", "config.txt"]

    def test_undecodable_out_exits_2_before_training(self, tmp_path, corpus_root, capsys,
                                                     monkeypatch):
        # config.txt is UTF-8; a non-UTF-8 argv byte arrives as a lone surrogate
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("training ran"))
        assert main(["train", "--corpus", str(corpus_root),
                     "--out", str(tmp_path / "run\udcff")]) == 2
        assert "'out' must be UTF-8 text" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_corpus_exits_3_naming_path(self, tmp_path, capsys):
        code = main(["train", "--corpus", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "absent" in capsys.readouterr().err

    def test_epochs_zero_initialization_run(self, tmp_path, corpus_root):
        out = tmp_path / "zero"
        code = main(["train", "--corpus", str(corpus_root), "--out", str(out),
                     "--epochs", "0", "--cache-dir", str(tmp_path / "c"),
                     *TINY_OVERRIDES])
        assert code == 0
        assert (out / "checkpoint.afl").exists()
        assert (out / "metrics.csv").read_text() == "epoch,train_acc,test_acc,train_loss\n"

    def test_unknown_config_key_exits_2(self, tmp_path, corpus_root, capsys):
        code = main(["train", "--corpus", str(corpus_root),
                     "--out", str(tmp_path / "o"), "--set", "bogus_key=1"])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_bad_value_exits_2(self, tmp_path, corpus_root):
        assert main(["train", "--corpus", str(corpus_root),
                     "--out", str(tmp_path / "o"), "--set", "epochs=soon"]) == 2

    def test_non_utf8_config_exits_2_naming_file(self, tmp_path, corpus_root, capsys,
                                                 monkeypatch):
        config = tmp_path / "latin1.txt"
        config.write_bytes(b"epochs = 3\n# caf\xe9 \xff\n")
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("training ran"))
        assert main(["train", "--config", str(config), "--corpus", str(corpus_root),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {config}: not UTF-8 text" in err
        assert not (tmp_path / "o").exists()

    def test_nul_in_config_out_exits_2_naming_key(self, tmp_path, corpus_root, capsys,
                                                  monkeypatch):
        # argv cannot carry a NUL, a --config file can
        config = tmp_path / "nul.txt"
        config.write_bytes(b"out = " + str(tmp_path / "o").encode() + b"\x00x\n")
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("training ran"))
        assert main(["train", "--config", str(config), "--corpus", str(corpus_root)]) == 2
        assert "config error: 'out' must be UTF-8 text" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    # (command, override); the id is the override, prefixed by any command but train
    OUT_OF_RANGE = [("train", o) for o in (
        "stride=0", "kernel=0", "pad=-1", "pool_width=-1", "pool_stride=-1", "t_fixed=0",
        "sample_rate_hz=999", "resample_method=foo", "kernel=500", "conv_channels=0",
        "pool_width=999", "resample_method=linear", "resample_method=cubic", "window=hann",
        "n_coeffs=13.0", "stratified=false", "shuffle_each_epoch=no",
        "frame_len_samples=401", "hop_samples=160.0", "n_fft=1024", "n_mels=40",
        "fmin_hz=20", "fmax_hz=8000", "log_floor=0", "delta_window=3", "rho=0.95", "eps=1e-7",
        "conv_channels=4,100000000000", "kernel=3.0", "pad=0", "n_classes=7",
        "filter_sex=male", "filter_emotions=angry", "vocal_channels=speech", "split_ratio=0.5",
        "seed=-1", "jobs=-1", "jobs=two", "lr=nan", "lr=-1e-4", "patience=-1", "patience=3",
        "early_stop_train_acc=nan", "early_stop_train_acc=1.5",
    )] + [("features", "n_coeffs=12"), ("features", "n_mels=24"),
          ("features", "t_fixed=10000000000"), ("features", f"t_fixed={2 ** 70}"),
          ("gradcheck", "seed=-1"), ("eval", "jobs=-3")]

    @pytest.mark.parametrize("command,override", OUT_OF_RANGE,
                             ids=[o if c == "train" else f"{c} {o}" for c, o in OUT_OF_RANGE])
    def test_out_of_range_value_exits_2(self, tmp_path, corpus_root, capsys, command,
                                        override):
        # eval's checkpoint does not exist: reading it first would exit 3
        args = {"train": ["--corpus", str(corpus_root), "--out", str(tmp_path / "o")],
                "eval": ["--corpus", str(corpus_root), "--checkpoint",
                         str(tmp_path / "missing.afl"), "--out", str(tmp_path / "o")],
                "features": ["--wav", str(next(corpus_root.glob("*.wav")))],
                "gradcheck": []}[command]
        code = main([command, *args, "--set", override])
        assert code == 2
        assert override.partition("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_decode_failures_named(self, tmp_path, corpus_root, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        broken = sorted(corpus.glob("*.wav"))[0]
        broken.write_bytes(b"garbage")
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                     "--epochs", "0", "--cache-dir", str(tmp_path / "c"),
                     *TINY_OVERRIDES]) == 0
        err = capsys.readouterr().err
        assert f"decode failure: {broken}: not a RIFF/WAVE file" in err
        assert "decode failures: 1" in err

    def test_two_clips_per_class_test_one_each(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        build_synthetic_corpus(corpus, per_class=2)
        out = tmp_path / "o"
        assert main(["train", "--corpus", str(corpus), "--out", str(out), "--epochs", "2",
                     "--cache-dir", str(tmp_path / "c"), *TINY_OVERRIDES]) == 0
        test_acc = capsys.readouterr().out.split("test_acc: ")[1].split()[0]
        assert np.isfinite(float(test_acc))
        with (out / "confusion.csv").open() as fh:
            rows = [[int(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]]
        assert [sum(row) for row in rows] == [1] * 6

    def test_undecodable_test_split_exits_3(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        build_synthetic_corpus(corpus, per_class=2)
        records = [(path, meta.emotion) for path, meta in scan_corpus(corpus)]
        _, test_recs = split_dataset(records, TrainConfig(seed=7))
        for path, _ in test_recs:
            path.write_bytes(b"garbage")
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                     "--seed", "7", "--cache-dir", str(tmp_path / "c"), *TINY_OVERRIDES]) == 3
        err = capsys.readouterr().err
        assert f"test split is empty after decode failures ({len(test_recs)}):" in err
        for path, _ in test_recs:
            assert f"\n  {path}: not a RIFF/WAVE file" in err

    def test_unreadable_paths_named_with_a_cache(self, tmp_path, corpus_root, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        folder = corpus / "03-01-01-01-02-01-02.wav"  # a directory named like a clip
        folder.mkdir()
        dangling = corpus / "03-01-02-01-02-01-02.wav"
        dangling.symlink_to(tmp_path / "gone.wav")
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                     "--epochs", "0", "--cache-dir", str(tmp_path / "c"),
                     *TINY_OVERRIDES]) == 0
        err = capsys.readouterr().err
        assert f"decode failure: {folder}: " in err
        assert f"decode failure: {dangling}: " in err
        assert "decode failures: 2" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_4(self, tmp_path, corpus_root):
        code = main(["train", "--corpus", str(corpus_root),
                     "--out", str(tmp_path / "d"), "--epochs", "5",
                     "--lr", "1e30", "--cache-dir", str(tmp_path / "c"),
                     *TINY_OVERRIDES])
        assert code == 4

    def test_rerun_reproduces_bit_for_bit(self, tmp_path, corpus_root, trained_run):
        first, cache = trained_run
        again = tmp_path / "again"
        code = main(["train", "--corpus", str(corpus_root), "--out", str(again),
                     "--epochs", "3", "--seed", "5", "--cache-dir", str(cache),
                     *TINY_OVERRIDES])
        assert code == 0
        for name in ("metrics.csv", "confusion.csv", "checkpoint.afl",
                     "accuracy.svg", "confusion.svg"):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_rerun_from_echoed_config(self, tmp_path, trained_run):
        first, _ = trained_run
        out = tmp_path / "fromcfg"
        code = main(["train", "--config", str(first / "config.txt"),
                     "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()

    def test_rerun_from_config_with_retired_keys(self, tmp_path, trained_run):
        first, _ = trained_run
        old = with_retired_keys(first / "config.txt", tmp_path / "old.txt")
        out = tmp_path / "fromold"
        assert main(["train", "--config", str(old), "--out", str(out)]) == 0
        assert (out / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()
        assert (out / "checkpoint.afl").read_bytes() == (first / "checkpoint.afl").read_bytes()
        echoed = {line.partition(" ")[0] for line in (out / "config.txt").read_text().splitlines()}
        assert not echoed & {line.partition(" ")[0] for line in RETIRED_LINES}

    @pytest.mark.parametrize("jobs", ["--set jobs=0", "--set jobs=4", "jobs = 0",
                                      "--set early_stop_train_acc=0"])
    def test_any_retired_jobs_count_is_dropped(self, tmp_path, trained_run, jobs):
        # jobs = 0 was the echo before extraction's process count defaulted to 1;
        # early_stop_train_acc, retired at 0, is dropped the same way
        first, _ = trained_run
        lines = (first / "config.txt").read_text().splitlines()
        flags = jobs.split() if jobs.startswith("--") else []
        if not flags:
            lines = sorted(lines + [jobs])
        config = tmp_path / "old.txt"
        config.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(config), "--out", str(out), *flags]) == 0
        for name in ("metrics.csv", "confusion.csv", "checkpoint.afl",
                     "accuracy.svg", "confusion.svg"):
            assert (out / name).read_bytes() == (first / name).read_bytes(), name
        echoed = (out / "config.txt").read_text()
        assert echoed == (first / "config.txt").read_text().replace(str(first), str(out))


class TestEvalCommand:
    def test_eval_artifacts(self, tmp_path, corpus_root, trained_run):
        run, cache = trained_run
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(run / "checkpoint.afl"),
                     "--corpus", str(corpus_root), "--out", str(out),
                     "--cache-dir", str(cache), *TINY_OVERRIDES])
        assert code == 0
        header, row = (out / "eval.csv").read_text().strip().split("\n")
        assert header == "accuracy,n_records"
        acc, n = row.split(",")
        assert 0.0 <= float(acc) <= 1.0 and int(n) == 30

    def test_bad_checkpoint_exits_3(self, tmp_path, corpus_root):
        bad = tmp_path / "bad.afl"
        bad.write_bytes(b"not a checkpoint")
        assert main(["eval", "--checkpoint", str(bad), "--corpus",
                     str(corpus_root), "--out", str(tmp_path / "o")]) == 3

    def test_missing_checkpoint_exits_3_naming_path(self, tmp_path, corpus_root, capsys):
        missing = tmp_path / "absent.afl"
        assert main(["eval", "--checkpoint", str(missing), "--corpus",
                     str(corpus_root), "--out", str(tmp_path / "o")]) == 3
        assert str(missing) in capsys.readouterr().err

    def test_checkpoint_header_missing_keys_exits_3(self, tmp_path, corpus_root, capsys):
        bad = tmp_path / "keys.afl"
        head = b'{"version":1}'
        bad.write_bytes(b"AFL1" + struct.pack("<I", len(head)) + head)
        assert main(["eval", "--checkpoint", str(bad), "--corpus",
                     str(corpus_root), "--out", str(tmp_path / "o")]) == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("head", list(UNPARSABLE_HEADERS.values()),
                             ids=list(UNPARSABLE_HEADERS))
    def test_unparsable_header_exits_3_naming_file(self, tmp_path, corpus_root, capsys, head):
        bad = tmp_path / "header.afl"
        bad.write_bytes(b"AFL1" + struct.pack("<I", len(head)) + head)
        assert main(["eval", "--checkpoint", str(bad), "--corpus",
                     str(corpus_root), "--out", str(tmp_path / "o")]) == 3
        assert f"error: {bad}: unreadable header" in capsys.readouterr().err

    # the features.frame and features.mfcc sections are those of older headers,
    # whose retired keys must hold their fixed value
    @pytest.mark.parametrize("section,key,message", [
        ("features", "t_fixed", "t_fixed=True"),
        ("features.frame", "hop_samples", "hop_samples is fixed at 160, got True"),
        ("features.mfcc", "delta_window", "delta_window is fixed at 2, got True"),
        ("model_spec", "kernel", "kernel is fixed at 3, got True")],
        ids=["features-t_fixed", "features.frame-hop_samples", "features.mfcc-delta_window",
             "model_spec-kernel"])
    def test_bool_size_in_header_exits_3(self, tmp_path, corpus_root, trained_run, capsys,
                                         section, key, message):
        # JSON true loads as a Python bool, which is an int: it must not pass as a size
        run, _ = trained_run
        bad = tmp_path / "bool.afl"
        shutil.copy(run / "checkpoint.afl", bad)
        edit_header(bad, lambda header: header_section(header, section).update({key: True}))
        assert main(["eval", "--checkpoint", str(bad), "--corpus",
                     str(corpus_root), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    def test_out_is_a_file_exits_3_before_evaluating(self, tmp_path, corpus_root, trained_run,
                                                     capsys, monkeypatch):
        run, cache = trained_run
        out = tmp_path / "taken"
        out.write_text("x")
        calls = count_calls(monkeypatch, "evaluate")
        assert main(["eval", "--checkpoint", str(run / "checkpoint.afl"), "--corpus",
                     str(corpus_root), "--out", str(out), "--cache-dir", str(cache)]) == 3
        assert len(calls) == 0
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "x"

    def test_tensors_that_do_not_fit_exit_3_naming_file(self, tmp_path, corpus_root,
                                                        trained_run, capsys, monkeypatch):
        run, cache = trained_run
        bad = tmp_path / "wider.afl"
        shutil.copy(run / "checkpoint.afl", bad)
        edit_header(bad, lambda header: header["model_spec"].update(
            conv_channels=[8, 8, 12, 12, 16, 17]))
        calls = count_calls(monkeypatch, "evaluate")
        assert main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus_root),
                     "--out", str(tmp_path / "o"), "--cache-dir", str(cache)]) == 3
        assert len(calls) == 0
        err = capsys.readouterr().err
        assert str(bad) in err and "do not fit conv_channels [8, 8, 12, 12, 16, 17]" in err

    def test_normalization_beyond_float32_exits_3_naming_file(self, tmp_path, corpus_root,
                                                              trained_run, capsys, monkeypatch):
        # finite, but the float32 model input cannot hold it: logits would be inf or NaN
        run, cache = trained_run
        bad = tmp_path / "huge.afl"
        shutil.copy(run / "checkpoint.afl", bad)
        edit_header(bad, lambda header: header["normalization"].update(mean=[1e300] * 41))
        calls = count_calls(monkeypatch, "evaluate")
        assert main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus_root),
                     "--out", str(tmp_path / "o"), "--cache-dir", str(cache)]) == 3
        assert len(calls) == 0
        err = capsys.readouterr().err
        assert str(bad) in err and "within float32's range" in err

    @pytest.mark.parametrize("command", ["eval", "classify"])
    def test_null_normalization_exits_3_naming_file(self, tmp_path, corpus_root, trained_run,
                                                    capsys, command):
        # every checkpoint carries its normalization: a header without one is malformed
        run, cache = trained_run
        bad = tmp_path / "null.afl"
        shutil.copy(run / "checkpoint.afl", bad)
        edit_header(bad, lambda header: header.update(normalization=None))
        if command == "eval":
            args = ["--corpus", str(corpus_root), "--cache-dir", str(cache)]
        else:
            items = [(read_wav(path), meta.emotion) for path, meta in scan_corpus(corpus_root)]
            args = ["--manifest", str(synthesize_session(items[:2], tmp_path / "s",
                                                         session_id="synthetic").manifest_path)]
        assert main([command, "--checkpoint", str(bad), "--out", str(tmp_path / "o"),
                     *args]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "malformed header" in err and "normalization" in err
        assert not (tmp_path / "o").exists()

    def test_tiny_normalization_std_exits_3(self, tmp_path, corpus_root, trained_run, capsys):
        run, cache = trained_run
        bad = tmp_path / "tiny.afl"
        shutil.copy(run / "checkpoint.afl", bad)
        edit_header(bad, lambda header: header["normalization"].update(std=[1e-300] * 41))
        assert main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus_root),
                     "--out", str(tmp_path / "o"), "--cache-dir", str(cache)]) == 3
        assert "normalized features overflow float32" in capsys.readouterr().err
        assert not (tmp_path / "o" / "eval.csv").exists()

    def test_seven_class_checkpoint_exits_3(self, tmp_path, corpus_root, trained_run, capsys):
        run, cache = trained_run
        bad = seven_class_checkpoint(run, tmp_path / "seven.afl")
        assert main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus_root),
                     "--out", str(tmp_path / "o"), "--cache-dir", str(cache)]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "n_classes is fixed at 6, got 7" in err

    def test_decode_failures_reported(self, tmp_path, corpus_root, trained_run, capsys):
        run, cache = trained_run
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        next(corpus.glob("*.wav")).write_bytes(b"garbage")
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.afl"),
                     "--corpus", str(corpus), "--out", str(out),
                     "--cache-dir", str(cache)]) == 0
        assert "decode failures: 1" in capsys.readouterr().err
        assert (out / "eval.csv").read_text().strip().endswith(",29")

    def test_each_decode_failure_named(self, tmp_path, corpus_root, trained_run, capsys):
        run, cache = trained_run
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        garbage, three_channel = sorted(corpus.glob("*.wav"))[:2]
        garbage.write_bytes(b"garbage")
        three_channel.write_bytes(make_wav_bytes(np.zeros(30), channels=3))
        assert main(["eval", "--checkpoint", str(run / "checkpoint.afl"),
                     "--corpus", str(corpus), "--out", str(tmp_path / "eval"),
                     "--cache-dir", str(cache)]) == 0
        err = capsys.readouterr().err
        assert f"decode failure: {garbage}: not a RIFF/WAVE file" in err
        assert f"decode failure: {three_channel}: 3 channels" in err
        assert "decode failures: 2" in err

    def test_every_record_undecodable_exits_3_naming_each(self, tmp_path, corpus_root,
                                                           trained_run, capsys):
        run, cache = trained_run
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        clips = sorted(corpus.glob("*.wav"))
        for clip in clips:
            clip.write_bytes(b"garbage")
        assert main(["eval", "--checkpoint", str(run / "checkpoint.afl"),
                     "--corpus", str(corpus), "--out", str(tmp_path / "eval"),
                     "--cache-dir", str(cache)]) == 3
        err = capsys.readouterr().err
        assert f"error: all records failed to decode ({len(clips)}):" in err
        for clip in clips:
            assert f"\n  {clip}: not a RIFF/WAVE file" in err
        assert not (tmp_path / "eval" / "eval.csv").exists()


class TestClassifyCommand:
    def test_two_sessions_two_reports(self, tmp_path, corpus_root, trained_run):
        run, _ = trained_run
        # build a 2-session manifest from two synthesized bundles
        items = [(read_wav(path), meta.emotion) for path, meta in scan_corpus(corpus_root)]
        rows = ["session_id,segment_id,source_label,audio_path,start_s,end_s"]
        for sid, chunk in (("p1", items[:4]), ("p2", items[4:8])):
            bundle = synthesize_session(chunk, tmp_path / sid, session_id=sid, seed=1)
            for record in load_manifest(bundle.manifest_path).records:
                rows.append(f"{record.session_id},{record.segment_id},FAN,"
                            f"{record.audio_path},{record.start_s},{record.end_s}")
        manifest = tmp_path / "both.csv"
        manifest.write_text("\n".join(rows) + "\n")

        out = tmp_path / "reports"
        code = main(["classify", "--checkpoint", str(run / "checkpoint.afl"),
                     "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        for sid in ("p1", "p2"):
            assert (out / f"{sid}.csv").exists()
            assert (out / f"{sid}.svg").exists()
        with (out / "p1.csv").open() as fh:
            counts = {r["emotion"]: int(r["count"]) for r in csv.DictReader(fh)}
        assert sum(counts.values()) == 4

    def test_nul_in_config_checkpoint_exits_2_naming_key(self, tmp_path, capsys):
        config = tmp_path / "nul.txt"
        config.write_bytes(b"checkpoint = x\x00y\n")
        assert main(["classify", "--config", str(config), "--manifest", str(tmp_path / "m.csv"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error: 'checkpoint' must be UTF-8 text" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_unreadable_segment_named(self, tmp_path, corpus_root, trained_run, capsys):
        run, _ = trained_run
        items = [(read_wav(path), meta.emotion) for path, meta in scan_corpus(corpus_root)]
        bundle = synthesize_session(items[:3], tmp_path / "s", session_id="s", seed=1)
        broken = bundle.segment_paths[1]
        broken.write_bytes(b"garbage")
        code = main(["classify", "--checkpoint", str(run / "checkpoint.afl"),
                     "--manifest", str(bundle.manifest_path), "--out", str(tmp_path / "o")])
        assert code == 0
        captured = capsys.readouterr()
        assert f"decode failure: {broken}: not a RIFF/WAVE file" in captured.err
        assert "decode failures: 1" in captured.err
        assert "s: 2 segments classified, 1 unreadable" in captured.out

    def test_seven_class_checkpoint_exits_3(self, tmp_path, corpus_root, trained_run, capsys):
        run, _ = trained_run
        items = [(read_wav(path), meta.emotion) for path, meta in scan_corpus(corpus_root)]
        bundle = synthesize_session(items[:2], tmp_path / "s", session_id="s", seed=1)
        bad = seven_class_checkpoint(run, tmp_path / "seven.afl")
        assert main(["classify", "--checkpoint", str(bad), "--manifest",
                     str(bundle.manifest_path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "n_classes is fixed at 6, got 7" in err
        assert not (tmp_path / "o").exists()

    def test_normalization_beyond_float32_exits_3_before_decoding(self, tmp_path, corpus_root,
                                                                  trained_run, capsys,
                                                                  monkeypatch):
        run, _ = trained_run
        items = [(read_wav(path), meta.emotion) for path, meta in scan_corpus(corpus_root)]
        bundle = synthesize_session(items[:2], tmp_path / "s", session_id="s", seed=1)
        bad = tmp_path / "huge.afl"
        shutil.copy(run / "checkpoint.afl", bad)
        edit_header(bad, lambda header: header["normalization"].update(std=[-1e300] * 41))
        decoded = []
        monkeypatch.setattr("affectline.session.read_wav", decoded.append)
        assert main(["classify", "--checkpoint", str(bad), "--manifest",
                     str(bundle.manifest_path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "within float32's range" in err
        assert decoded == [] and not (tmp_path / "o").exists()

    def test_missing_manifest_exits_3(self, tmp_path, trained_run):
        run, _ = trained_run
        assert main(["classify", "--checkpoint", str(run / "checkpoint.afl"),
                     "--manifest", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_non_utf8_manifest_exits_3_naming_path(self, tmp_path, trained_run, capsys):
        run, _ = trained_run
        manifest = tmp_path / "latin1.csv"
        manifest.write_bytes("session_id,segment_id,source_label,audio_path,start_s,end_s\n"
                             "s\xe9,1,FAN,a.wav,0,1\n".encode("latin-1"))
        assert main(["classify", "--checkpoint", str(run / "checkpoint.afl"),
                     "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 3
        assert str(manifest) in capsys.readouterr().err


    def test_path_session_id_writes_nothing_outside_out(self, tmp_path, corpus_root,
                                                        trained_run, capsys):
        run, _ = trained_run
        items = [(read_wav(path), meta.emotion) for path, meta in scan_corpus(corpus_root)]
        bundle = synthesize_session(items[:2], tmp_path / "s", session_id="s", seed=1)
        manifest = bundle.manifest_path
        lines = manifest.read_text().splitlines()
        lines.append(lines[-1].replace("s,", "../escaped,", 1))
        manifest.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s" / "o"
        assert main(["classify", "--checkpoint", str(run / "checkpoint.afl"),
                     "--manifest", str(manifest), "--out", str(out)]) == 0
        assert "manifest line 4: session_id '../escaped' is not a plain file name" \
            in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "s.csv", "s.svg"]
        assert not list((tmp_path / "s").glob("escaped.*"))


class TestEvalReproducesTrain:
    @pytest.fixture(scope="class")
    def split_corpus(self, tmp_path_factory):
        """A corpus whose test split of 18 clips is forwarded as a chunk of 16 and one of 2."""
        root = tmp_path_factory.mktemp("split_corpus")
        build_synthetic_corpus(root, per_class=15, duration_s=0.5)
        return root

    @pytest.mark.parametrize("t_fixed,channels", [(50, "4,6"), (12, "4,6"),
                                                  (30, "8,8,16,16,32,32")])
    def test_eval_of_the_test_split_reproduces_confusion_csv(self, tmp_path, split_corpus,
                                                              t_fixed, channels):
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(split_corpus), "--out", str(run),
                     "--epochs", "2", "--seed", "5", "--t-fixed", str(t_fixed),
                     "--set", f"conv_channels={channels}",
                     "--cache-dir", str(tmp_path / "train_cache")]) == 0
        records = [(path, meta.emotion) for path, meta in scan_corpus(split_corpus)]
        _, test = split_dataset(records, TrainConfig(seed=5))
        assert len(test) == 18
        test_corpus = tmp_path / "test_split"
        test_corpus.mkdir()
        for path, _ in test:
            shutil.copy(path, test_corpus)
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.afl"),
                     "--corpus", str(test_corpus), "--out", str(out),
                     "--cache-dir", str(tmp_path / "eval_cache")]) == 0
        assert (out / "confusion.csv").read_bytes() == (run / "confusion.csv").read_bytes()


def files_under(root):
    """{relative path: bytes} of every file under ``root``."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def file_writes(tree):
    """Line of each call in ``tree`` outside a ``write_replacing`` definition that
    writes a file: ``write_text``, ``write_bytes``, or an ``open`` whose mode is
    not a constant read mode."""
    inside = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "write_replacing"
              for node in ast.walk(f)}
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call) or id(call) in inside:
            continue
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            yield call.lineno
        elif name == "open":  # open(path, mode) or path.open(mode)
            mode = ([k.value for k in call.keywords if k.arg == "mode"]
                    or call.args[isinstance(func, ast.Name):][:1])
            text = getattr(mode[0], "value", None) if mode else "r"
            if not isinstance(text, str) or set(text) & set("wax+"):
                yield call.lineno


class TestFailedRewrite:
    def rerun_fails_halfway(self, argv, out, fails, monkeypatch, capsys):
        """Run ``argv`` into ``out``, then again with the writes of each file whose
        name ``fails`` failing halfway: exit 3, ``out`` as the first run left it."""
        assert main(argv) == 0
        first = files_under(out)
        writes_fail_halfway(monkeypatch, fails)
        assert main(argv) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert not list(out.rglob("*.tmp"))
        assert files_under(out) == first

    @pytest.mark.parametrize("command", ["train", "eval", "classify"])
    def test_failed_rewrite_leaves_the_previous_outputs(self, tmp_path, corpus_root,
                                                        trained_run, capsys, monkeypatch,
                                                        command):
        run, cache = trained_run
        checkpoint = str(run / "checkpoint.afl")
        if command == "classify":
            assert main(["synth", "--corpus", str(corpus_root), "--out", str(tmp_path / "synth"),
                         "--n-segments", "3"]) == 0
        argv = {"train": ["train", "--corpus", str(corpus_root), "--epochs", "1",
                          "--cache-dir", str(cache), *TINY_OVERRIDES],
                "eval": ["eval", "--checkpoint", checkpoint, "--corpus", str(corpus_root),
                         "--cache-dir", str(cache)],
                "classify": ["classify", "--checkpoint", checkpoint,
                             "--manifest", str(tmp_path / "synth" / "manifest.csv")],
                }[command] + ["--out", str(tmp_path / "out")]
        self.rerun_fails_halfway(argv, tmp_path / "out",
                                 lambda name: {".csv", ".svg"} & set(Path(name).suffixes),
                                 monkeypatch, capsys)

    # the file whose writes fail, by the start of its name
    @pytest.mark.parametrize("command, fails", [
        ("features", "features.csv"), ("synth", "synthetic-00001.wav"),
        ("synth", "truth.csv"), ("synth", "manifest.csv")],
        ids=["features", "synth-segment", "synth-truth", "synth-manifest"])
    def test_failed_rewrite_leaves_the_previous_files(self, tmp_path, corpus_root, capsys,
                                                      monkeypatch, command, fails):
        out = tmp_path / "out"
        out.mkdir()
        argv = {"features": ["features", "--wav", str(next(corpus_root.glob("*.wav"))),
                             "--out", str(out / "features.csv")],
                "synth": ["synth", "--corpus", str(corpus_root), "--n-segments", "3",
                          "--out", str(out)]}[command]
        self.rerun_fails_halfway(argv, out, lambda name: name.startswith(fails),
                                 monkeypatch, capsys)

    def test_only_write_replacing_writes_files(self):
        sites = [f"{path.name}:{line}" for path in sorted(Path(cli.__file__).parent.glob("*.py"))
                 for line in file_writes(ast.parse(path.read_text(encoding="utf-8")))]
        assert sites == []


def caught_names(tree):
    """Names of the classes each ``except`` clause or ``isinstance`` call in ``tree`` tests."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            tested = node.type
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            tested = node.args[1]
        else:
            continue
        for name in (tested.elts if isinstance(tested, ast.Tuple) else [tested]):
            yield name.attr if isinstance(name, ast.Attribute) else getattr(name, "id", None)


def test_every_error_class_is_caught_apart():
    # a subclass exists only where a caller tells it apart; the kind of failure lives in the
    # message. The roots map onto exit codes in main; ShapeError marks a broken call contract.
    exempt = {"AffectlineError", "ConfigError", "DataError", "DivergenceError", "ShapeError"}
    defined, caught = set(), set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = importlib.import_module(f"affectline.{path.stem}")
        defined |= {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                    and issubclass(getattr(module, node.name), BaseException)}
        caught.update(caught_names(tree))
    assert sorted(defined - exempt - caught) == []


class TestDedicatedFlags:
    @pytest.mark.parametrize("argv", [
        ["classify", "--jobs", "2"],
        ["train", "--jobs", "2"],
        ["eval", "--jobs", "2"],
        ["classify", "--cache-dir", "x"],
        ["classify", "--t-fixed", "200"],
        ["eval", "--t-fixed", "200"],
        ["eval", "--resample-method", "linear"],
        ["train", "--resample-method", "sinc"],
        ["features", "--resample-method", "sinc"],
        ["synth", "--resample-method", "sinc"],
        ["eval", "--epochs", "3"],
        ["synth", "--jobs", "2"],
        ["synth", "--checkpoint", "m.afl"],
        ["train", "--manifest", "m.csv"],
        ["train", "--checkpoint", "m.afl"],
        ["train", "--patience", "0"],
        ["train", "--early-stop-train-acc", "0.5"],
    ], ids=" ".join)
    def test_flag_the_command_ignores_is_an_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_names_every_retired_key_at_its_value(self):
        text = " ".join(README.read_text(encoding="utf-8").split())
        listed = re.search(r"(\S+) keys that older `config.txt` .*? A retired key", text)
        header = re.search(r"in `model_spec` as (.*?), two more retired keys \((\d+) in all", text)
        named = re.findall(r"`(\w+ = [^`]*)`", listed.group(0))
        named_in_header = re.findall(r"`(\w+ = [^`]*)`", header.group(1))
        # each key at its fixed value, as config.txt would echo it
        retired = SimpleNamespace(field_names=lambda: RETIRED_KEYS, **RETIRED_KEYS)
        assert sorted(named + named_in_header) == RunConfig.to_text(retired).splitlines()
        ones = ["", "-one", "-two", "-three", "-four", "-five", "-six", "-seven", "-eight",
                "-nine"]
        tens = {2: "Twenty", 3: "Thirty"}[len(named) // 10]
        assert listed.group(1) == tens + ones[len(named) % 10]
        assert int(header.group(2)) == len(RETIRED_KEYS)

    def test_readme_table_lists_each_commands_flags(self):
        # (dedicated key flags, other flags) of each command, in parser order
        table = {}
        for line in README.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 3:
                table[cells[0].strip("`")] = ([f.strip() for f in cells[1].split(",")],
                                               re.findall(r"`(--[\w-]+)`", cells[2]))
        [sub] = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        parsed = {}
        for name, parser in sub.choices.items():
            options = [a for a in parser._actions if a.dest not in ("help", "config", "set")]
            parsed[name] = ([a.option_strings[0][2:] for a in options
                             if a.dest.startswith("key_")],
                            [a.option_strings[0] for a in options
                             if not a.dest.startswith("key_")])
        assert table == parsed

    def test_echoed_config_loads_under_classify(self, tmp_path, corpus_root, trained_run):
        run, _ = trained_run
        bundle = tmp_path / "synth"
        assert main(["synth", "--corpus", str(corpus_root), "--out", str(bundle),
                     "--n-segments", "2"]) == 0
        out = tmp_path / "o"
        # keys classify has no flag for still load from --config and --set; the
        # retired jobs is dropped
        assert main(["classify", "--config", str(run / "config.txt"), "--set", "jobs=2",
                     "--checkpoint", str(run / "checkpoint.afl"),
                     "--manifest", str(bundle / "manifest.csv"), "--out", str(out)]) == 0
        echoed = (out / "config.txt").read_text().splitlines()
        assert "t_fixed = 100" in echoed
        assert not [line for line in echoed if line.startswith("jobs")]

    def test_config_with_retired_keys_loads_under_classify(self, tmp_path, corpus_root,
                                                           trained_run):
        run, _ = trained_run
        bundle = tmp_path / "synth"
        assert main(["synth", "--corpus", str(corpus_root), "--out", str(bundle),
                     "--n-segments", "2"]) == 0
        old = with_retired_keys(run / "config.txt", tmp_path / "old.txt")
        assert main(["classify", "--config", str(old),
                     "--checkpoint", str(run / "checkpoint.afl"),
                     "--manifest", str(bundle / "manifest.csv"),
                     "--out", str(tmp_path / "o")]) == 0


class TestFeaturesCommand:
    def test_sine_zcr_row(self, tmp_path):
        wav = write_test_wav(tmp_path / "sine440.wav", sine(440, 1.0, amp=0.9))
        out = tmp_path / "features.csv"
        code = main(["features", "--wav", str(wav), "--out", str(out)])
        assert code == 0
        rows = {line.split(",")[0]: line.split(",")[1:]
                for line in out.read_text().strip().split("\n")}
        assert len(rows) == 42  # header + 41 feature rows
        zcr_first = float(rows["zcr"][0])
        assert abs(zcr_first - 22 / 399) <= (1 / 399) * (1 + 1e-9)

    def test_stdout_mode(self, tmp_path, capsys):
        wav = write_test_wav(tmp_path / "s.wav", sine(200, 0.3))
        assert main(["features", "--wav", str(wav)]) == 0
        output = capsys.readouterr().out
        assert output.startswith("feature,frame_000")

    def test_missing_wav_flag_exits_2(self):
        assert main(["features"]) == 2

    def test_out_in_missing_directory_exits_3(self, tmp_path, capsys):
        wav = write_test_wav(tmp_path / "s.wav", sine(200, 0.3))
        out = tmp_path / "missing" / "dir" / "f.csv"
        assert main(["features", "--wav", str(wav), "--out", str(out)]) == 3
        assert str(out) in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_and_prints_table(self, capsys):
        code = main(["gradcheck", "--seed", "7", "--n-seeds", "2"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("conv1d", "pooled_conv", "relu", "maxpool1d", "fully_connected",
                     "softmax_xent", "full_model"):
            assert name in out
        assert "FAIL" not in out


class TestSynthCommand:
    def test_path_session_id_exits_2_before_writing(self, tmp_path, corpus_root, capsys):
        assert main(["synth", "--corpus", str(corpus_root), "--out", str(tmp_path / "b"),
                     "--n-segments", "2", "--session-id", "../x"]) == 2
        assert "'../x' is not a plain file name" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_undecodable_session_id_exits_2_before_writing(self, tmp_path, corpus_root,
                                                           capsys):
        # a non-UTF-8 argv byte arrives as a lone surrogate
        assert main(["synth", "--corpus", str(corpus_root), "--out", str(tmp_path / "b"),
                     "--n-segments", "2", "--session-id", "a\udcffb"]) == 2
        assert "is not UTF-8 text" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_is_a_file_exits_3_before_decoding(self, tmp_path, corpus_root, capsys,
                                                   monkeypatch):
        out = tmp_path / "taken"
        out.write_text("x")
        calls = count_calls(monkeypatch, "read_wav")
        assert main(["synth", "--corpus", str(corpus_root), "--out", str(out),
                     "--n-segments", "2"]) == 3
        assert len(calls) == 0
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "x"

    def test_bundle_written(self, tmp_path, corpus_root):
        out = tmp_path / "synth"
        code = main(["synth", "--corpus", str(corpus_root), "--out", str(out),
                     "--n-segments", "6", "--seed", "3"])
        assert code == 0
        result = load_manifest(out / "manifest.csv")
        assert len(result.records) == 6
        assert (out / "truth.csv").exists()
        assert len(list((out / "segments").iterdir())) == 6

    def test_unknown_resample_method_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        # a 44.1 kHz clip would be resampled, but the key is refused first
        write_test_wav(corpus / "03-01-01-01-01-01-02.wav", sine(440, 0.2, 44100),
                       sample_rate=44100)
        code = main(["synth", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                     "--set", "resample_method=foo"])
        assert code == 2
        assert "resample_method" in capsys.readouterr().err

    def test_peak_memory_does_not_grow_with_the_corpus(self, tmp_path):
        # a decoded 1 s clip holds 128 KB: only the chosen clips' samples are kept
        for clips in (12, 48):
            build_synthetic_corpus(tmp_path / f"c{clips}", per_class=clips // 6)

        def synth(clips):
            return main(["synth", "--corpus", str(tmp_path / f"c{clips}"),
                         "--out", str(tmp_path / f"o{clips}"), "--n-segments", "2"])
        assert synth(12) == 0
        peaks = {}
        for clips in (12, 48):
            tracemalloc.start()
            try:
                assert synth(clips) == 0
                peaks[clips] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[48] < peaks[12] + 1e6, peaks

    def test_deterministic_given_seed(self, tmp_path, corpus_root):
        a, b = tmp_path / "a", tmp_path / "b"
        for dest in (a, b):
            assert main(["synth", "--corpus", str(corpus_root), "--out",
                         str(dest), "--n-segments", "4", "--seed", "11",
                         "--snr-db", "15"]) == 0
        assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
        for pa, pb in zip(sorted((a / "segments").iterdir()),
                          sorted((b / "segments").iterdir())):
            assert pa.read_bytes() == pb.read_bytes()


class TestAuditCommand:
    def test_prints_sample(self, tmp_path, corpus_root, capsys):
        out = tmp_path / "synth"
        main(["synth", "--corpus", str(corpus_root), "--out", str(out),
              "--n-segments", "8", "--seed", "2"])
        capsys.readouterr()
        code = main(["audit-manifest", "--manifest", str(out / "manifest.csv"),
                     "--n", "3", "--seed", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "segment_id,source_label,audio_path"
        assert len(lines) == 4


class TestCountAndLevelFlags:
    @pytest.mark.parametrize("command, flag, value", [
        ("synth", "--n-segments", "-1"),
        ("synth", "--n-segments", "0"),
        ("synth", "--snr-db", "nan"),
        ("synth", "--snr-db", "inf"),
        ("audit-manifest", "--n", "-1"),
        ("audit-manifest", "--n", "0"),
        ("gradcheck", "--n-seeds", "0"),
    ])
    def test_bad_value_exits_2(self, command, flag, value, tmp_path, corpus_root, capsys):
        manifest = tmp_path / "synth" / "manifest.csv"
        if command == "audit-manifest":
            assert main(["synth", "--corpus", str(corpus_root), "--out", str(manifest.parent),
                         "--n-segments", "4", "--seed", "2"]) == 0
        argv = {"synth": ["--corpus", str(corpus_root), "--out", str(tmp_path / "o")],
                "audit-manifest": ["--manifest", str(manifest)],
                "gradcheck": []}[command]
        capsys.readouterr()
        code = main([command, *argv, flag, value])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def checkpoint_parts(path):
    """(header, tensor bytes) of a checkpoint."""
    raw = path.read_bytes()
    (head_len,) = struct.unpack_from("<I", raw, 4)
    return json.loads(raw[8:8 + head_len]), raw[8 + head_len:]


class TestLegacyRun:
    """What does not depend on float rounding is checked against the legacy
    files' bytes. Logits and training are checked against a reference
    computed here: another BLAS or CPU rounds float32 GEMMs differently, so
    outputs written on one machine are not bit-exact on every other."""

    def test_checkpoint_loads_as_written(self):
        ckpt = load_checkpoint(LEGACY_RUN / "checkpoint.afl")
        header, body = checkpoint_parts(LEGACY_RUN / "checkpoint.afl")
        assert ckpt.features == FeatureSettings(t_fixed=50)
        assert ckpt.model_spec == ModelSpec(conv_channels=(4, 6))
        assert ckpt.normalization.mean.tolist() == header["normalization"]["mean"]
        assert ckpt.normalization.std.tolist() == header["normalization"]["std"]
        tensors = {**ckpt.params, **{f"rmsprop.{k}": v for k, v in ckpt.opt_acc.items()}}
        assert list(tensors) == [t["name"] for t in header["tensors"]]
        assert b"".join(v.astype("<f4").tobytes() for v in tensors.values()) == body

    def test_checkpoint_logits_equal_the_new_format(self, tmp_path):
        records = build_synthetic_corpus(tmp_path / "corpus", per_class=3)
        legacy = load_checkpoint(LEGACY_RUN / "checkpoint.afl")
        save_checkpoint(tmp_path / "current.afl", legacy)
        current = load_checkpoint(tmp_path / "current.afl")
        assert "frame" not in checkpoint_parts(tmp_path / "current.afl")[0]["features"]
        _, matrices, failures = extract_all(records, current.features)
        assert failures == []
        legacy_logits, current_logits = (
            predict_logits(c.model, _to_batch_array(matrices, c.normalization))
            for c in (legacy, current))
        assert legacy_logits.tobytes() == current_logits.tobytes()
        # the logits the legacy code computed, up to float32 rounding
        np.testing.assert_allclose(legacy_logits, np.load(LEGACY_RUN / "logits.npy"),
                                   rtol=1e-4, atol=1e-4)

    def test_config_reruns_like_its_copy_without_retired_keys(self, tmp_path, monkeypatch):
        build_synthetic_corpus(tmp_path / "corpus", per_class=3)
        monkeypatch.chdir(tmp_path)  # the config's corpus, out and cache_dir are relative
        legacy_config = (LEGACY_RUN / "config.txt").read_text().splitlines()
        current_config = [line for line in legacy_config if line not in RETIRED_LINES]
        assert len(legacy_config) - len(current_config) == 19
        (tmp_path / "current.txt").write_text("\n".join(current_config) + "\n")
        assert main(["train", "--config", str(LEGACY_RUN / "config.txt")]) == 0
        assert main(["train", "--config", "current.txt", "--out", "current"]) == 0
        legacy, current = tmp_path / "run", tmp_path / "current"
        for name in ("metrics.csv", "confusion.csv"):
            assert (legacy / name).read_bytes() == (current / name).read_bytes(), name
        assert checkpoint_parts(legacy / "checkpoint.afl") == \
            checkpoint_parts(current / "checkpoint.afl")
