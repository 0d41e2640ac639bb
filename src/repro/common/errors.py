"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """Raised when a sketch, task, or pipeline is misconfigured."""


class DecodeError(ReproError):
    """Raised when a reversible sketch cannot decode its contents.

    FlowRadar, for example, can only single-decode when the number of
    distinct flows stays below its design capacity; exceeding it leaves
    undecodable cells.
    """


class MergeError(ReproError):
    """Raised when two incompatible structures are merged.

    Sketches can only be merged (matrix-added) when they share shape,
    hash seeds, and type; hash tables only when they track the same key
    kind.
    """


class TransportError(ConfigError):
    """Base class for host → controller wire failures.

    Subclasses :class:`ConfigError` so existing callers that treat any
    malformed frame as a configuration problem keep working, while the
    report receiver can tell a *retriable* corrupt frame from hard
    misconfiguration.
    """


class CorruptFrameError(TransportError):
    """A frame failed validation: bad magic/version, a length field
    that disagrees with the actual buffer, a CRC32 mismatch, or a
    payload whose array section or pickled envelope does not parse."""


class QuorumError(MergeError):
    """Fewer hosts reported than the configured quorum; the epoch
    cannot be recovered even in degraded mode."""


class SnapshotError(ReproError):
    """Base class for durability (checkpoint/restore) failures."""


class CorruptSnapshotError(SnapshotError):
    """A checkpoint file failed validation: bad magic/version, a length
    field that disagrees with the buffer, a CRC32 mismatch, or a
    payload whose array section or pickled envelope does not parse.
    The restore path treats this as "walk back to the previous
    checkpoint", never as a fatal error."""
