"""Flat run configuration: one serializable source of truth.

Every pipeline knob is a key in RunConfig. Values load from a plain
``key = value`` text file and any key can be overridden on the command
line; the effective configuration is echoed into each output directory
so a run can be reproduced exactly from its artifacts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .checkpoint import RETIRED_KEYS, FeatureSettings, drop_retired
from .errors import ConfigError
from .nn import ModelSpec
from .train_eval import TrainConfig, default_cache_dir


def _component_keys():
    """(name, type, field) of each component key, defaulting to its class default."""
    keys = []
    for cls in (FeatureSettings, ModelSpec, TrainConfig):
        defaults = cls()
        for f in dataclasses.fields(cls):
            value = getattr(defaults, f.name)
            if isinstance(value, tuple):  # conv_channels, as "64,64,..."
                value = ",".join(str(v) for v in value)
            keys.append((f.name, type(value), dataclasses.field(default=value)))
    return keys


_ComponentKeys = dataclasses.make_dataclass("_ComponentKeys", _component_keys())


@dataclass
class RunConfig(_ComponentKeys):
    """Every key of a run.

    The keys inherited from ``_ComponentKeys`` are the fields of
    FeatureSettings, ModelSpec and TrainConfig, under the same names and
    with the same defaults; ``conv_channels`` is a comma-separated list.
    The keys below belong to the pipeline itself. The choices the paper
    fixes (sinc resampling to 16 kHz, the feature front end in
    ``features``, RMSProp's rho and eps, stride-1 convolutions of kernel 3
    and padding 1, one global max pool, the training corpus of
    ``audio_io.scan_corpus``, a stratified 80/20 split, shuffled batches,
    a test split that never chooses the stopping epoch, extraction in the
    calling process) have no key;
    ``with_overrides`` drops a retired key at its fixed value.
    """

    # execution
    cache_dir: str = ""  # "" = env var or default location
    chunk_vote: bool = False
    # paths ("" = must come from a flag)
    corpus: str = ""
    manifest: str = ""
    checkpoint: str = ""
    out: str = ""

    # -- serialization ----------------------------------------------------

    @classmethod
    def field_names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    def to_text(self) -> str:
        lines = []
        for name in sorted(self.field_names()):
            value = getattr(self, name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{name} = {value}")
        return "\n".join(lines) + "\n"

    def with_overrides(self, overrides: dict) -> "RunConfig":
        """New config with string values coerced onto the field types; a
        retired key (``checkpoint.RETIRED_KEYS``) is coerced onto the type
        of its fixed value, checked and dropped."""
        fields = {f.name for f in dataclasses.fields(self)}
        updates = {}
        for key, raw in overrides.items():
            if key in RETIRED_KEYS:
                target = type(RETIRED_KEYS[key])
            elif key in fields:
                target = type(getattr(self, key))
            else:
                raise ConfigError(f"unknown config key {key!r}")
            updates[key] = _coerce(key, raw, target)
        return dataclasses.replace(self, **drop_retired(updates))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls().with_overrides(parse_config_text(Path(path).read_text(encoding="utf-8")))

    # -- derived views -----------------------------------------------------

    def _view(self, cls):
        """A ``cls`` from the keys named like its fields."""
        return cls(**{f.name: getattr(self, f.name) for f in dataclasses.fields(cls)})

    def feature_settings(self) -> FeatureSettings:
        return self._view(FeatureSettings)

    def model_spec(self) -> ModelSpec:
        try:
            channels = tuple(int(c) for c in self.conv_channels.split(",") if c.strip())
        except ValueError as exc:
            raise ConfigError(f"bad conv_channels {self.conv_channels!r}") from exc
        return ModelSpec(conv_channels=channels)

    def train_config(self) -> TrainConfig:
        return self._view(TrainConfig)

    def resolve_cache_dir(self) -> Path:
        return Path(self.cache_dir) if self.cache_dir else default_cache_dir()


def is_utf8(text: str) -> bool:
    """False for text holding a lone surrogate, which UTF-8 cannot encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _coerce(key: str, raw, target_type):
    if target_type is str:
        # config.txt holds one "key = value" line per key, read back stripped,
        # in UTF-8 (an undecodable argv byte arrives as a lone surrogate)
        text = str(raw)
        if text != text.strip() or "".join(text.splitlines()) != text or not is_utf8(text):
            raise ConfigError(f"{key!r} must be UTF-8 text without surrounding whitespace "
                              f"or a line break, got {raw!r}")
        return text
    if isinstance(raw, target_type) and not (target_type is int and isinstance(raw, bool)):
        return raw
    text = str(raw).strip()
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if target_type is int:
            return int(text)
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment line."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out
