"""Exception types shared across the emr package.

One rule decides which failures get a class here.  A class exists only if
code in this package catches it by class, or if a frame of ``run_pipeline``
can raise it under a configuration that ``parse_config`` accepts (the run
then contains it: the frame is logged and counted, and the next frame runs).
Every other precondition -- an argument or field that a caller got wrong --
raises plain ``ValueError``.  A value type checks its own fields at
construction, and functions taking it do not check them again.
"""


class EmrError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(EmrError):
    """Dimensions do not agree or are not divisible as required."""


class MalformedImage(EmrError):
    """Image bytes do not decode as a valid PPM/PGM file."""


class InsufficientLabels(EmrError):
    """Unknown pixels present but no foreground or no background labels."""


class NoLevels(EmrError):
    """Encoding selection where no candidate level divides the source."""


class SecurityAlarm(EmrError):
    """Base class for the anomaly-detection signals."""


class UnauthorizedAgent(SecurityAlarm):
    """Fingerprint not present in the trusted registry."""


class TamperAlarm(SecurityAlarm):
    """Envelope digest does not verify."""


class ReplayAlarm(SecurityAlarm):
    """Envelope sequence number is not the one its slot expects."""


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
