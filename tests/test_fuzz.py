"""Fuzzing of the three external-input decoders: WAV, manifest, checkpoint;
and of the two text files the program writes to read back: config.txt and
a synthetic session bundle.

Each decoder either returns a well-formed value or raises a DataError
subclass (exit code 3 at the CLI); any other exception fails the test.
A value written to a file either reads back as it was or is refused up
front with a ConfigError (exit code 2). Examples are derandomized so the
suite stays deterministic, and sizes are bounded so no example allocates
much memory.
"""

import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectline import audio_io
from affectline.audio_io import (EMOTIONS, AudioDecodeError, EmptyAudioError,
                                 UnreadableFileError, UnsupportedEncodingError, read_wav)
from affectline.checkpoint import Checkpoint, FeatureSettings, load_checkpoint, save_checkpoint
from affectline.config import RunConfig, parse_config_text
from affectline.errors import AffectlineError, ConfigError, DataError
from affectline.features import matrix_samples
from affectline.nn import Model, ModelSpec
from affectline.session import (MANIFEST_COLUMNS, SegmentRecord, classify_session,
                                load_manifest, synthesize_session)
from affectline.train_eval import evaluate, extract_features
from conftest import (IDENTITY_PROFILE, UNPARSABLE_HEADERS, load_truth, make_wav_bytes, sine,
                      write_test_wav)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

VALID_WAV = make_wav_bytes(sine(440, 0.004) * 0.5)  # 64 samples, 44-byte header


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ_BOUND = 24  # output samples of the bounded read: a few input frames at most rates


def decode_wav(path, data: bytes, max_samples: int = FUZZ_BOUND):
    """Read ``data`` whole and bounded; (whole, bounded) decodes or AudioDecodeErrors.

    A fault the bounded read sees lies within the bound, so the whole read
    raises the same class. Only a non-finite float sample past the bound
    fails the whole read alone. When both decode, the bounded samples are
    bit-equal to the first ``max_samples`` of the whole decode.
    """
    path.write_bytes(data)
    outcomes = []
    for bound in (None, max_samples):
        try:
            samples = read_wav(path, bound)
        except AudioDecodeError as exc:
            outcomes.append(exc)
            continue
        assert samples.ndim == 1 and len(samples) > 0
        assert np.isfinite(samples).all()
        assert np.abs(samples).max() <= 1.0
        outcomes.append(samples)
    whole, bounded = outcomes
    if isinstance(bounded, AudioDecodeError):
        assert type(whole) is type(bounded)
    elif isinstance(whole, AudioDecodeError):
        assert isinstance(whole, UnsupportedEncodingError) and "NaN or infinite" in str(whole)
    else:
        assert bounded.tobytes() == whole[:max_samples].tobytes()
    return outcomes


def mutate(base: bytes, edits) -> bytes:
    out = bytearray(base)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out)


@FUZZ
@given(st.one_of(st.binary(max_size=512),
                 st.binary(max_size=512).map(lambda b: b"RIFF" + b[:4] + b"WAVE" + b[4:])))
def test_read_wav_random_bytes(scratch, data):
    decode_wav(scratch / "random.wav", data)


@FUZZ
@given(st.lists(st.tuples(st.integers(0, 43), st.integers(0, 255)), min_size=1, max_size=6),
       st.integers(0, len(VALID_WAV)))
def test_read_wav_mutated_header(scratch, edits, keep):
    decode_wav(scratch / "mutated.wav", mutate(VALID_WAV, edits)[:keep or None])


@FUZZ
@given(fmt_code=st.sampled_from([0, 1, 2, 3, 0xFFFE]),
       channels=st.integers(0, 3),
       rate=st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(1000, 384000)),
       bits=st.sampled_from([0, 8, 12, 16, 24, 32, 64]),
       data=st.binary(max_size=256))
def test_read_wav_header_fields(scratch, fmt_code, channels, rate, bits, data):
    fmt = struct.pack("<HHIIHH", fmt_code, channels, rate, 0, 0, bits)
    raw = (b"RIFF" + struct.pack("<I", 28 + len(fmt) + len(data)) + b"WAVE"
           + b"fmt " + struct.pack("<I", len(fmt)) + fmt
           + b"data" + struct.pack("<I", len(data)) + data)
    decode_wav(scratch / "fields.wav", raw)


def chunk(cid: bytes, body: bytes, size: int | None = None) -> bytes:
    """One RIFF chunk: id, size (``len(body)`` unless given), body, pad byte if odd."""
    return cid + struct.pack("<I", len(body) if size is None else size) + body \
        + b"\0" * (len(body) % 2)


def riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


FMT = VALID_WAV[20:36]  # 16 kHz 16-bit mono
SAMPLES = VALID_WAV[44:]  # 64 samples
# larger than any first read of the file: the reader must seek past it
BIG_LIST = chunk(b"LIST", bytes(1 << 17))

LAYOUTS = {
    "canonical": riff(chunk(b"fmt ", FMT), chunk(b"data", SAMPLES)),
    "fmt after data": riff(chunk(b"data", SAMPLES), chunk(b"fmt ", FMT)),
    "big LIST before data": riff(chunk(b"fmt ", FMT), BIG_LIST, chunk(b"data", SAMPLES)),
    "big LIST before fmt": riff(BIG_LIST, chunk(b"data", SAMPLES), chunk(b"fmt ", FMT)),
    "odd chunk with a pad byte": riff(chunk(b"junk", b"abc"), chunk(b"fmt ", FMT),
                                      chunk(b"odd ", b"x"), chunk(b"data", SAMPLES)),
    "second data chunk": riff(chunk(b"fmt ", FMT), chunk(b"data", SAMPLES),
                              chunk(b"data", bytes(64))),
    "data size past EOF": riff(chunk(b"fmt ", FMT), chunk(b"data", SAMPLES, 1 << 30)),
    "18-byte fmt": riff(chunk(b"fmt ", FMT + b"\0\0"), chunk(b"data", SAMPLES)),
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("max_samples", [1, 10, 63, 64, 65, 1000])
def test_chunk_layouts_decode_the_first_fmt_and_data(scratch, layout, max_samples):
    whole, bounded = decode_wav(scratch / "layout.wav", LAYOUTS[layout], max_samples)
    canonical = np.frombuffer(SAMPLES, "<i2") / 32768.0
    assert whole.tobytes() == canonical.tobytes()
    assert bounded.tobytes() == canonical[:max_samples].tobytes()


@pytest.mark.parametrize("layout,error", [
    ("no data", UnreadableFileError), ("no fmt", UnreadableFileError),
    ("data past EOF skips fmt", UnreadableFileError),
    ("short fmt", UnreadableFileError), ("empty data", EmptyAudioError),
    ("12-bit", UnsupportedEncodingError)])
def test_chunk_layout_faults_raise_the_same_class_bounded_or_whole(scratch, layout, error):
    data = {
        "no data": riff(chunk(b"fmt ", FMT), BIG_LIST),
        "no fmt": riff(BIG_LIST, chunk(b"data", SAMPLES)),
        "data past EOF skips fmt": riff(chunk(b"data", SAMPLES, 1 << 30), chunk(b"fmt ", FMT)),
        "short fmt": riff(chunk(b"fmt ", FMT[:14]), chunk(b"data", SAMPLES)),
        "empty data": riff(chunk(b"fmt ", FMT), chunk(b"data", b""), chunk(b"data", SAMPLES)),
        "12-bit": riff(chunk(b"fmt ", FMT[:14] + struct.pack("<H", 12)),
                       chunk(b"data", SAMPLES)),
    }[layout]
    whole, bounded = decode_wav(scratch / "fault.wav", data)
    assert type(whole) is type(bounded) is error


LAYOUT_CHUNKS = st.sampled_from([
    chunk(b"fmt ", FMT), chunk(b"fmt ", FMT + b"\0\0"),
    chunk(b"fmt ", struct.pack("<HHIIHH", 3, 2, 48000, 0, 8, 32)),
    chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 44100, 0, 3, 24)),
    chunk(b"data", SAMPLES), chunk(b"data", SAMPLES[:77]),
    chunk(b"data", np.full(40, np.nan, "<f4").tobytes()),
    chunk(b"data", SAMPLES[:10], 1 << 20),
    BIG_LIST, chunk(b"LIST", b"odd"), b"\0" * 3])


@FUZZ
@given(st.lists(LAYOUT_CHUNKS, max_size=5), st.integers(1, 200),
       st.sampled_from([None, 0, 9, 1 << 31]))
def test_read_wav_chunk_layouts(scratch, chunks, max_samples, riff_size):
    """Chunks in any order, repeated, odd-sized, cut short or running past EOF."""
    data = riff(*chunks)
    if riff_size is not None:
        data = data[:4] + struct.pack("<I", riff_size) + data[8:]
    decode_wav(scratch / "chunks.wav", data, max_samples)


def nan_rule_clips(tmp_path, rate, bound):
    """float32 clips of 2 * bound frames at ``rate``: NaN at frame ``bound``
    (the first one a bounded read leaves), NaN at frame ``bound - 1`` (the
    last one it reads), no NaN, and the clip without NaN cut at the bound."""
    x = 0.3 * sine(440, 2 * bound / rate, rate)
    past, inside = x.copy(), x.copy()
    past[bound], inside[bound - 1] = np.nan, np.nan
    return [write_test_wav(tmp_path / f"{name}.wav", samples, sample_rate=rate, fmt_code=3)
            for name, samples in (("past", past), ("inside", inside), ("clean", x),
                                  ("cut", x[:bound]))]


@pytest.mark.parametrize("rate", [16000, 48000])
def test_nan_past_the_bound_is_not_read(tiny_checkpoint, tmp_path, rate):
    """Samples past the bound are not read, so they are not checked: eval and
    leading-window classify accept a NaN there; chunk_vote reads every sample."""
    path = tmp_path / "tiny.afl"
    path.write_bytes(tiny_checkpoint)
    ckpt = load_checkpoint(path)
    bound = audio_io._input_frames(matrix_samples(ckpt.features.t_fixed), rate)
    past, inside, clean, cut = nan_rule_clips(tmp_path, rate, bound)

    metrics = evaluate(ckpt, [(p, "calm") for p in (past, inside, clean)])
    assert metrics.n_test == 2 and [p for p, _ in metrics.failures] == [inside]
    assert "NaN or infinite" in metrics.failures[0][1]
    for cache_dir in (None, tmp_path / "cache"):
        fm = extract_features(past, ckpt.features, cache_dir)
        assert fm.values.tobytes() == extract_features(cut, ckpt.features).values.tobytes()

    records = [SegmentRecord("s", p.stem, "FAN", str(p), 0.0, 1.0)
               for p in (past, inside, clean)]
    leading = classify_session(ckpt, records)
    assert [p for p, _ in leading.failures] == [str(inside)]
    assert [s for s, _ in leading.predictions] == ["past", "clean"]
    voted = classify_session(ckpt, records, chunk_vote=True)
    assert [p for p, _ in voted.failures] == [str(past), str(inside)]
    with pytest.raises(UnsupportedEncodingError, match="NaN or infinite"):
        read_wav(past)


def parse_manifest(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        result = load_manifest(path)
    except DataError:
        return
    for record in result.records:
        assert record.end_s > record.start_s
        assert isinstance(record.audio_path, str) and record.audio_path


@FUZZ
@given(st.one_of(st.binary(max_size=300),
                 st.text(max_size=300).map(lambda t: t.encode("utf-8", "surrogatepass"))))
def test_load_manifest_random_input(scratch, data):
    parse_manifest(scratch / "random.csv", data)


VALID_ROW = {"session_id": "s1", "segment_id": "seg", "source_label": "FAN",
             "audio_path": "a.wav", "start_s": "0", "end_s": "1.5"}
FIELD_VALUES = st.sampled_from(["", "s1", "FAN", "faf", "a.wav", "/", "0", "1.5", "-2", "nan",
                                "inf", '"x,y"', '"', "\x00", "\r", "é"])


@FUZZ
@given(st.permutations(MANIFEST_COLUMNS),
       st.lists(st.tuples(st.integers(0, 8),
                          st.lists(st.tuples(st.integers(0, 7), FIELD_VALUES), max_size=3)),
                max_size=6))
def test_load_manifest_rows(scratch, columns, rows):
    """Valid rows with cut-off tails, extra fields and replaced values."""
    lines = [",".join(columns)]
    for keep, edits in rows:
        fields = [VALID_ROW[c] for c in columns] + ["extra", "x"]
        for pos, value in edits:
            fields[pos] = value
        lines.append(",".join(fields[:keep]))
    parse_manifest(scratch / "rows.csv", ("\n".join(lines) + "\n").encode("utf-8"))


@pytest.fixture(scope="module")
def tiny_checkpoint(scratch):
    spec = ModelSpec(conv_channels=(2,))
    model = Model(spec, seed=3)
    ckpt = Checkpoint(model_spec=spec, params=dict(model.parameters()), opt_acc={},
                      features=FeatureSettings(t_fixed=8),
                      normalization=IDENTITY_PROFILE,
                      metadata={"seed": 3})
    path = scratch / "tiny.afl"
    save_checkpoint(path, ckpt)
    return path.read_bytes()


SHORT_CLIP = sine(440, 0.05) * 0.5
PREDICT_MAX_T_FIXED = 1000  # a larger window only costs memory; its bound has its own test


def open_checkpoint(path, data: bytes) -> None:
    """Load ``data`` and classify SHORT_CLIP, written as a WAV segment, with
    whatever loads."""
    path.write_bytes(data)
    clip = path.with_suffix(".wav")
    clip.write_bytes(audio_io.wav_bytes(SHORT_CLIP))
    try:
        ckpt = load_checkpoint(path)
    except DataError:
        return
    if ckpt.features.t_fixed > PREDICT_MAX_T_FIXED:
        return
    try:
        report = classify_session(ckpt, [SegmentRecord("s", "short", "FAN", str(clip),
                                                       0.0, 0.05)])
    except AffectlineError:
        return
    assert [label in EMOTIONS for _, label in report.predictions] == [True]


def test_tiny_checkpoint_loads(scratch, tiny_checkpoint):
    path = scratch / "intact.afl"
    path.write_bytes(tiny_checkpoint)
    assert load_checkpoint(path).model_spec.conv_channels == (2,)


@FUZZ
@given(st.data())
def test_load_checkpoint_truncated_or_mutated(scratch, tiny_checkpoint, data):
    raw = tiny_checkpoint[:data.draw(st.integers(0, len(tiny_checkpoint)), label="keep")]
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(tiny_checkpoint) - 1),
                                         st.integers(0, 255)), max_size=4), label="edits")
    open_checkpoint(scratch / "mutated.afl", mutate(raw, edits) if raw else raw)


@pytest.mark.parametrize("head", list(UNPARSABLE_HEADERS.values()), ids=list(UNPARSABLE_HEADERS))
def test_load_checkpoint_unparsable_header(scratch, tiny_checkpoint, head):
    (head_len,) = struct.unpack_from("<I", tiny_checkpoint, 4)
    raw = b"AFL1" + struct.pack("<I", len(head)) + head + tiny_checkpoint[8 + head_len:]
    open_checkpoint(scratch / "unparsable.afl", raw)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)


@FUZZ
@given(st.data())
def test_load_checkpoint_mutated_header_fields(scratch, tiny_checkpoint, data):
    (head_len,) = struct.unpack_from("<I", tiny_checkpoint, 4)
    header = json.loads(tiny_checkpoint[8:8 + head_len])
    node = header
    while isinstance(node, (dict, list)) and node:
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys), label="key")
        if data.draw(st.booleans(), label="replace here"):
            if isinstance(node, dict) and data.draw(st.booleans(), label="delete"):
                del node[key]
            else:
                node[key] = data.draw(JSON_VALUES, label="value")
            break
        node = node[key]
    head = json.dumps(header).encode()
    raw = b"AFL1" + struct.pack("<I", len(head)) + head + tiny_checkpoint[8 + head_len:]
    open_checkpoint(scratch / "fields.afl", raw)


STR_KEYS = [k for k in RunConfig.field_names() if isinstance(getattr(RunConfig(), k), str)]


# any code point, with lone surrogates drawn often: an undecodable argv
# byte arrives as one
ANY_TEXT = st.characters(blacklist_categories=()) | st.characters(whitelist_categories=("Cs",))


@FUZZ
@given(st.sampled_from(STR_KEYS), st.text(ANY_TEXT))
def test_config_text_reads_back_what_was_set(key, value):
    try:
        cfg = RunConfig().with_overrides({key: value})
    except ConfigError:
        return
    assert getattr(cfg, key) == value
    echoed = cfg.to_text().encode("utf-8").decode("utf-8")  # as config.txt holds it
    assert RunConfig().with_overrides(parse_config_text(echoed)) == cfg


BUNDLE_CLIPS = [(sine(440, 0.01) * 0.5, "calm"), (sine(660, 0.01) * 0.5, "sad")]
_bundle_dirs = itertools.count()


@FUZZ
@given(st.text(ANY_TEXT, max_size=40))
def test_synth_bundle_reads_back(scratch, session_id):
    out = scratch / f"bundle{next(_bundle_dirs)}"
    try:
        bundle = synthesize_session(BUNDLE_CLIPS, out, session_id=session_id)
    except ConfigError:
        assert not out.exists()
        return
    result = load_manifest(bundle.manifest_path)
    assert result.row_errors == []
    assert [r.session_id for r in result.records] == [session_id] * len(BUNDLE_CLIPS)
    truth = load_truth(bundle.truth_path)
    assert [truth[r.segment_id] for r in result.records] == [l for _, l in BUNDLE_CLIPS]
    assert [r.audio_path for r in result.records] == [str(p) for p in bundle.segment_paths]
