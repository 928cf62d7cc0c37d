"""Exception types shared across the package."""


class SwarmportError(Exception):
    """Base class for all errors raised by this package."""


# -- grid ---------------------------------------------------------------

class NonPositiveDimension(SwarmportError):
    pass


class SpacingTooLarge(SwarmportError):
    pass


class NodeOutOfRange(SwarmportError):
    pass


# -- planning -----------------------------------------------------------

class NoPath(SwarmportError):
    pass


class GridTooLarge(SwarmportError):
    pass


class BadInterval(SwarmportError):
    pass


# -- radar --------------------------------------------------------------

class AngleOutOfRange(SwarmportError):
    pass


# -- radio --------------------------------------------------------------

class VehicleLimitExceeded(SwarmportError):
    pass


class PayloadTooLarge(SwarmportError):
    pass


class DecodeError(SwarmportError):
    """Base class for frame decoding failures."""


class BadSync(DecodeError):
    pass


class BadVersion(DecodeError):
    pass


class BadLength(DecodeError):
    pass


class CrcMismatch(DecodeError):
    pass


class UnknownKind(DecodeError):
    pass


# -- vehicle ------------------------------------------------------------

class IllegalTransition(SwarmportError):
    pass


class TimestepTooLarge(SwarmportError):
    pass


# -- hub ----------------------------------------------------------------

class UnknownVehicle(SwarmportError):
    pass


class EmptyLog(SwarmportError):
    pass


# -- scenario / io ------------------------------------------------------

class ScenarioInvalid(SwarmportError):
    pass


class IoFailure(SwarmportError):
    pass
