import csv
import shutil
import struct

import numpy as np
import pytest

from affectline.audio_io import read_wav, scan_corpus
from affectline.cli import main
from affectline.session import load_manifest, synthesize_session
from conftest import (build_synthetic_corpus, edit_header, header_section, make_wav_bytes,
                      sine, write_test_wav)

TINY_OVERRIDES = [
    "--set", "conv_channels=8,8,12,12,16,16",
    "--set", "t_fixed=100",
    "--set", "jobs=1",
]


RETIRED_LINES = ["n_coeffs = 13", "pool_stride = 0", "pool_width = 0",
                 "resample_method = sinc", "shuffle_each_epoch = true", "stratified = true",
                 "stride = 1", "window = hamming"]


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

    # (command, override); the id is the override, prefixed by any command but train
    OUT_OF_RANGE = [("train", o) for o in (
        "stride=0", "kernel=0", "pad=-1", "pool_width=-1", "pool_stride=-1", "t_fixed=0",
        "sample_rate_hz=999", "resample_method=foo", "kernel=500", "conv_channels=0",
        "pool_width=999", "resample_method=linear", "resample_method=cubic", "window=hann",
        "n_coeffs=13.0", "stratified=false", "shuffle_each_epoch=no",
    )] + [("features", "n_coeffs=12")]

    @pytest.mark.parametrize("command,override", OUT_OF_RANGE,
                             ids=[o if c == "train" else f"{c} {o}" for c, o in OUT_OF_RANGE])
    def test_out_of_range_value_exits_2(self, tmp_path, corpus_root, capsys, command,
                                        override):
        args = {"train": ["--corpus", str(corpus_root), "--out", str(tmp_path / "o")],
                "features": ["--wav", str(next(corpus_root.glob("*.wav")))]}[command]
        code = main([command, *args, "--set", override])
        assert code == 2
        assert override.partition("=")[0] in capsys.readouterr().err

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

    @pytest.mark.parametrize("section,key", [
        ("features", "t_fixed"), ("features.frame", "hop_samples"),
        ("features.mfcc", "delta_window"), ("model_spec", "kernel")])
    def test_bool_size_in_header_exits_3(self, tmp_path, corpus_root, trained_run, capsys,
                                         section, key):
        # JSON true loads as a Python bool, which is an int: it must not pass as a size
        run, _ = trained_run
        bad = tmp_path / "bool.afl"
        shutil.copy(run / "checkpoint.afl", bad)
        edit_header(bad, lambda header: header_section(header, section).update({key: True}))
        assert main(["eval", "--checkpoint", str(bad), "--corpus",
                     str(corpus_root), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and f"{key}=True" in err

    def test_decode_failures_reported(self, tmp_path, corpus_root, trained_run, capsys):
        run, cache = trained_run
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        next(corpus.glob("*.wav")).write_bytes(b"garbage")
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.afl"),
                     "--corpus", str(corpus), "--out", str(out),
                     "--cache-dir", str(cache), "--jobs", "1"]) == 0
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
                     "--cache-dir", str(cache), "--jobs", "1"]) == 0
        err = capsys.readouterr().err
        assert f"decode failure: {garbage}: not a RIFF/WAVE file" in err
        assert f"decode failure: {three_channel}: 3 channels" in err
        assert "decode failures: 2" in err


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


class TestDedicatedFlags:
    @pytest.mark.parametrize("argv", [
        ["classify", "--jobs", "2"],
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
    ], ids=" ".join)
    def test_flag_the_command_ignores_is_an_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_echoed_config_loads_under_classify(self, tmp_path, corpus_root, trained_run):
        run, _ = trained_run
        bundle = tmp_path / "synth"
        assert main(["synth", "--corpus", str(corpus_root), "--out", str(bundle),
                     "--n-segments", "2"]) == 0
        out = tmp_path / "o"
        # keys classify has no flag for still load from --config and --set
        assert main(["classify", "--config", str(run / "config.txt"), "--set", "jobs=2",
                     "--checkpoint", str(run / "checkpoint.afl"),
                     "--manifest", str(bundle / "manifest.csv"), "--out", str(out)]) == 0
        echoed = (out / "config.txt").read_text().splitlines()
        assert "jobs = 2" in echoed and "t_fixed = 100" in echoed

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


class TestGradcheckCommand:
    def test_passes_and_prints_table(self, capsys):
        code = main(["gradcheck", "--seed", "7", "--n-seeds", "2"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("conv1d", "relu", "maxpool1d", "fully_connected",
                     "softmax_xent", "full_model"):
            assert name in out
        assert "FAIL" not in out


class TestSynthCommand:
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
