"""Command-line entry point.

Subcommands: train, eval, classify, features, gradcheck, synth,
audit-manifest. Configuration precedence is defaults < --config file <
--set overrides < dedicated flags. Exit codes: 0 success, 2 config
error, 3 data error or an unwritable output path, 4 training divergence
(gradcheck returns 1 when a check fails).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import session as session_mod
from .audio_io import EMOTIONS, AudioDecodeError, read_wav, scan_corpus
from .checkpoint import load_checkpoint, save_checkpoint, write_outputs, write_replacing
from .config import RunConfig
from .errors import AffectlineError, ConfigError, DataError, DivergenceError
from .features import FEATURE_ROW_LABELS
from .gradcheck import TOLERANCE, run_gradcheck
from .svg import heatmap, line_chart
from .train_eval import confusion_to_csv, evaluate, extract_features, metrics_to_csv, train


def _add_common(parser: argparse.ArgumentParser, keys) -> None:
    """--config, --set, and one dedicated flag per config key the command reads.

    Dedicated flags win over the file and --set; any key can still be set
    with --set, so an echoed config.txt loads under every command.
    """
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any configuration key (repeatable)")
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=f"key_{key}",
                            default=None, help=f"override config key {key}")


def _effective_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    cfg = cfg.with_overrides(overrides)
    flags = {name[len("key_"):]: value for name, value in vars(args).items()
             if name.startswith("key_") and value is not None}
    return cfg.with_overrides(flags)


def _require(cfg: RunConfig, key: str) -> str:
    value = getattr(cfg, key)
    if not value:
        raise ConfigError(f"--{key.replace('_', '-')} (or config key {key!r}) is required")
    return value


def _positive_count(flag: str, value: int) -> int:
    if value < 1:
        raise ConfigError(f"{flag} must be >= 1, got {value}")
    return value


def _echo_config(cfg: RunConfig, out_dir: Path) -> None:
    write_outputs(out_dir, {"config.txt": cfg.to_text()})


def _confusion_outputs(metrics) -> dict:
    """``confusion.csv`` and ``confusion.svg`` of ``train``'s or ``eval``'s metrics."""
    return {"confusion.csv": confusion_to_csv(metrics.confusion),
            "confusion.svg": heatmap(metrics.confusion, EMOTIONS, EMOTIONS,
                                     "Confusion matrix (rows: true)")}


def _corpus_records(cfg: RunConfig):
    root = _require(cfg, "corpus")
    records = [(path, meta.emotion) for path, meta in scan_corpus(root)]
    if not records:
        raise DataError(f"no records under {root}: no file is named for a female actor "
                        "in one of the six emotions")
    return records


def _report_decode_failures(failures) -> None:
    """Name each (path, reason) record that failed to decode on stderr, then count them."""
    for _, reason in failures:
        print(f"decode failure: {reason}", file=sys.stderr)
    if failures:
        print(f"decode failures: {len(failures)}", file=sys.stderr)


def _load_manifest(cfg: RunConfig):
    """``cfg``'s manifest, once each row it drops is named on stderr and the
    rows whose labels map to OTHER are counted there."""
    result = session_mod.load_manifest(_require(cfg, "manifest"))
    for line, message in result.row_errors:
        print(f"manifest line {line}: {message}", file=sys.stderr)
    if result.unknown_label_count:
        print(f"{result.unknown_label_count} rows with unknown source labels "
              "mapped to OTHER", file=sys.stderr)
    return result


def cmd_train(args, cfg: RunConfig) -> int:
    out_dir = Path(_require(cfg, "out"))
    spec, config, settings = cfg.model_spec(), cfg.train_config(), cfg.feature_settings()
    records = _corpus_records(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before training
    print(f"corpus: {len(records)} records", flush=True)
    ckpt, metrics = train(records, spec, config, settings, cache_dir=cfg.resolve_cache_dir())
    _echo_config(cfg, out_dir)
    save_checkpoint(out_dir / "checkpoint.afl", ckpt)
    accuracy = line_chart([("train", [e.train_acc for e in metrics.epochs]),
                           ("test", [e.test_acc for e in metrics.epochs])],
                          "Training and testing accuracy", "epoch", "accuracy")
    write_outputs(out_dir, {"metrics.csv": metrics_to_csv(metrics), "accuracy.svg": accuracy,
                            **_confusion_outputs(metrics)})
    _report_decode_failures(metrics.failures)
    if metrics.epochs:
        last = metrics.epochs[-1]
        print(f"epochs run: {last.epoch}  train_acc: {last.train_acc:.4f}  "
              f"test_acc: {last.test_acc:.4f}")
    else:
        print("epochs run: 0 (initialization checkpoint)")
    print(f"artifacts written to {out_dir}")
    return 0


def cmd_eval(args, cfg: RunConfig) -> int:
    out_dir = Path(_require(cfg, "out"))
    ckpt = load_checkpoint(_require(cfg, "checkpoint"))
    records = _corpus_records(cfg)
    _echo_config(cfg, out_dir)  # an unusable --out fails before evaluating
    metrics = evaluate(ckpt, records, cache_dir=cfg.resolve_cache_dir())
    _report_decode_failures(metrics.failures)
    write_outputs(out_dir, {"eval.csv": f"accuracy,n_records\n{metrics.accuracy:.6f},"
                                        f"{metrics.n_test}\n", **_confusion_outputs(metrics)})
    print(f"accuracy: {metrics.accuracy:.4f} over {metrics.n_test} records")
    return 0


def cmd_classify(args, cfg: RunConfig) -> int:
    out_dir = Path(_require(cfg, "out"))
    ckpt = load_checkpoint(_require(cfg, "checkpoint"))
    result = _load_manifest(cfg)
    sessions: dict[str, list] = {}
    for record in result.records:
        sessions.setdefault(record.session_id, []).append(record)
    if not sessions:
        raise DataError("manifest contains no usable rows")
    _echo_config(cfg, out_dir)
    for session_id, records in sessions.items():
        report = session_mod.classify_session(ckpt, records, chunk_vote=cfg.chunk_vote)
        _report_decode_failures(report.failures)
        session_mod.render_report(report, out_dir)
        top = EMOTIONS[int(np.argmax(report.counts))]
        print(f"{session_id}: {int(report.counts.sum())} segments classified, "
              f"{report.n_failed} unreadable, dominant: {top}")
    return 0


def cmd_features(args, cfg: RunConfig) -> int:
    if not args.wav:
        raise ConfigError("--wav is required")
    settings = cfg.feature_settings()
    fm = extract_features(args.wav, settings)
    lines = ["feature," + ",".join(f"frame_{i:03d}" for i in range(settings.t_fixed))]
    for label, row in zip(FEATURE_ROW_LABELS, fm.values):
        lines.append(label + "," + ",".join(f"{v:.8g}" for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        write_replacing(Path(args.out), text.encode("utf-8"))
        print(f"wrote {args.out} ({fm.n_valid_frames} valid frames)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_gradcheck(args, cfg: RunConfig) -> int:
    rows = run_gradcheck(seed=cfg.train_config().seed,
                         n_seeds=_positive_count("--n-seeds", args.n_seeds))
    width = max(len(r.name) for r in rows)
    failed = False
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        failed = failed or not row.passed
        print(f"{row.name:<{width}}  max_rel_err={row.max_rel_error:.3e}  "
              f"tol={TOLERANCE:.0e}  {status}")
    return 1 if failed else 0


def cmd_synth(args, cfg: RunConfig) -> int:
    out_dir = Path(_require(cfg, "out"))
    seed = cfg.train_config().seed
    n = _positive_count("--n-segments", args.n_segments)
    if args.snr_db is not None and not abs(args.snr_db) <= session_mod.MAX_SNR_DB:
        raise ConfigError(f"--snr-db must be within ±{session_mod.MAX_SNR_DB:g} dB, "
                          f"got {args.snr_db}")
    session_mod.check_session_id(args.session_id)
    records = _corpus_records(cfg)
    _echo_config(cfg, out_dir)  # an unusable --out fails before decoding
    decoded, failures = [], []  # (path, label) of each clip that decodes, read again if chosen
    for path, label in records:
        try:
            read_wav(path)
        except AudioDecodeError as exc:
            failures.append((path, str(exc)))
            continue
        decoded.append((path, label))
    _report_decode_failures(failures)
    if not decoded:
        raise DataError(f"every matching file under {cfg.corpus} failed to decode")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(decoded), size=n, replace=n > len(decoded))
    chosen = [(read_wav(decoded[i][0]), decoded[i][1]) for i in map(int, idx)]
    bundle = session_mod.synthesize_session(chosen, out_dir,
                                            session_id=args.session_id,
                                            snr_db=args.snr_db, seed=seed)
    print(f"wrote {len(bundle.segment_paths)} segments, manifest "
          f"{bundle.manifest_path}, truth {bundle.truth_path}")
    return 0


def cmd_audit_manifest(args, cfg: RunConfig) -> int:
    n = _positive_count("--n", args.n)
    seed = cfg.train_config().seed
    result = _load_manifest(cfg)
    fan = session_mod.filter_fan(result.records)
    if not fan:
        raise DataError("manifest has no FAN segments to audit")
    sample = session_mod.sample_for_audit(fan, n, seed=seed)
    print("segment_id,source_label,audio_path")
    for record in sample:
        print(f"{record.segment_id},{record.source_label},{record.audio_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affectline",
        description="Speech-emotion pipeline: train, evaluate, and apply a "
                    "from-scratch CNN over MFCC-family features.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a labeled corpus")
    _add_common(p, ("corpus", "out", "seed", "epochs", "batch_size", "lr", "cache_dir",
                    "t_fixed"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    _add_common(p, ("corpus", "checkpoint", "out", "cache_dir"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="classify manifest sessions")
    _add_common(p, ("checkpoint", "manifest", "out"))
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("features", help="dump the feature matrix of one WAV as CSV")
    _add_common(p, ("t_fixed",))
    p.add_argument("--wav", help="input WAV file")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    _add_common(p, ("seed",))
    p.add_argument("--n-seeds", type=int, default=10)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="build a synthetic FAN session from a corpus")
    _add_common(p, ("corpus", "out", "seed"))
    p.add_argument("--n-segments", type=int, default=10)
    p.add_argument("--snr-db", type=float, default=None,
                   help="mix white noise at this SNR (omit for clean segments)")
    p.add_argument("--session-id", default="synthetic")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("audit-manifest", help="sample FAN segments for manual listening")
    _add_common(p, ("manifest", "seed"))
    p.add_argument("--n", type=int, default=10)
    p.set_defaults(func=cmd_audit_manifest)

    return parser


# argparse reads a token that starts with "-" as an option unless it is a plain
# negative number (-7000, -0.5), so a value in exponent form is joined to its flag
_EXPONENT_NEGATIVE = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def _join_negative_values(argv) -> list:
    """``argv`` with each "--flag -1e3" pair written as "--flag=-1e3"."""
    out = []
    for token in argv:
        if out and re.fullmatch("--[^=]+", out[-1]) and _EXPONENT_NEGATIVE.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _effective_config(args)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    except (AffectlineError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
