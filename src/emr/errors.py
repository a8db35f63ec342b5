"""Exception types shared across the emr package.

Every operational failure raises a subclass of :class:`EmrError`.  A value
type checks its own fields at construction, and functions taking it do not
check them again; a violation raises the module's class below (e.g.
``GmmParams`` -> :class:`InvalidParams`) or plain ``ValueError``.
"""


class EmrError(Exception):
    """Base class for all errors raised by this package."""


# --- raster ---------------------------------------------------------------

class InvalidChannels(EmrError):
    """Operation requires a different channel count."""


class DimensionMismatch(EmrError):
    """Dimensions do not agree or are not divisible as required."""


class InvalidFactor(EmrError):
    """Resampling factor out of range."""


class InvalidStep(EmrError):
    """Quantization step out of range."""


class MalformedImage(EmrError):
    """Image bytes do not decode as a valid PPM/PGM file."""


# --- scene layering -------------------------------------------------------

class InvalidParams(EmrError):
    """Mixture-model parameters violate their preconditions."""


class InvalidMask(EmrError):
    """Mask is not a single-channel binary (0/255) frame."""


# --- matting ---------------------------------------------------------------

class InvalidRadii(EmrError):
    """Trimap radii must satisfy r_bg >= r_fg >= 0."""


class InsufficientLabels(EmrError):
    """Unknown pixels present but no foreground or no background labels."""


# --- scene fusion ----------------------------------------------------------

class InvalidTransform(EmrError):
    """Layer transform is not applicable (e.g. non-positive scale)."""


class NoViews(EmrError):
    """View selection over an empty view list."""


# --- qoe-qos ----------------------------------------------------------------

class InvalidModel(EmrError):
    """Experience-score model parameters out of range."""


class InvalidChannel(EmrError):
    """Channel capacity must be positive."""


class InvalidBounds(EmrError):
    """Latency normalization bounds must satisfy L_max > L_min >= 0."""


class NoLevels(EmrError):
    """Encoding selection over an empty level set."""


# --- secure tunnel -----------------------------------------------------------

class GroupTooSmall(EmrError):
    """Key-agreement group modulus too small to be usable."""


class InvalidKey(EmrError):
    """Public key outside the valid range [1, p-1]."""


class ReseedRequired(EmrError):
    """Chaotic keystream state collapsed to a fixed point."""


class SecurityAlarm(EmrError):
    """Base class for the anomaly-detection signals."""


class UnauthorizedAgent(SecurityAlarm):
    """Fingerprint not present in the trusted registry."""


class TamperAlarm(SecurityAlarm):
    """Envelope digest does not verify."""


class ReplayAlarm(SecurityAlarm):
    """Envelope sequence number not strictly increasing."""


# --- netsim ------------------------------------------------------------------

class InvalidPayload(EmrError):
    """Negative payload size."""


# --- knowledge store ---------------------------------------------------------

class DegenerateTemplate(EmrError):
    """Feature region has zero variance; no template can be extracted."""


class ShardUnavailable(EmrError):
    """Target shard node is offline."""


class InvalidShardCount(EmrError):
    """Shard count must be at least 1."""


# --- pipeline config ---------------------------------------------------------

class ConfigError(EmrError):
    """Base class for configuration parsing/validation failures."""


class UnknownKey(ConfigError):
    def __init__(self, key: str):
        super().__init__(f"unknown config key: {key}")
        self.key = key


class InvalidValue(ConfigError):
    def __init__(self, key: str, reason: str):
        super().__init__(f"invalid value for {key}: {reason}")
        self.key = key
        self.reason = reason


class MissingKey(ConfigError):
    def __init__(self, key: str):
        super().__init__(f"missing required config key: {key}")
        self.key = key
