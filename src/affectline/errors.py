"""Shared exception roots.

Subcommands map these onto the documented exit codes: ConfigError -> 2,
DataError -> 3, DivergenceError -> 4. A subclass exists only where a caller
catches it apart (``AudioDecodeError``, ``MalformedNameError``; ``nn.ShapeError``
marks a broken call contract, not bad input); otherwise the kind of failure
lives in the message, which is what the CLI prints.
"""


class AffectlineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AffectlineError):
    """Invalid configuration: unknown keys, bad values, mismatched settings."""


class DataError(AffectlineError):
    """Problems with input data: files, corpora, manifests, checkpoints."""


class DivergenceError(AffectlineError):
    """Training produced a non-finite loss."""
