"""Exception and warning types, and the argument rules, shared across the simulator."""

import numpy as np


class RRSimError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(RRSimError):
    """Invalid geometry, profile, key or operating-point parameters."""


class BoundsError(RRSimError):
    """Address or address range outside the chip."""


class WearOutError(RRSimError):
    """A cell was driven past its endurance limit and is no longer reliable."""

    def __init__(self, msg, addresses=None):
        super().__init__(msg)
        self.addresses = list(addresses) if addresses is not None else []


class EncodeError(WearOutError):
    """Hiding failed; carries the addresses that wore out mid-encode."""


class FormatError(RRSimError):
    """Corrupt, truncated or wrong-version persisted state."""


class FitError(RRSimError):
    """Characterization data unusable for curve fitting."""


class NotSeparableError(RRSimError):
    """No stress level below the endurance limit separates fresh from stressed."""


class UsedCellsWarning(UserWarning):
    """Hiding onto cells that already carry wear; recovery margins shrink."""


class AmbiguousDecodeWarning(UserWarning):
    """Cluster separation under the noise floor; decoded bits are a best guess."""


class TruncatedRunWarning(UserWarning):
    """Characterization stopped early because cells reached the endurance limit."""


def whole(name, value, least=0, most=None):
    """`value` itself if it is an int or NumPy integer, never a bool, within
    [least, most] (a bound of None is open); else ConfigurationError."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or least is not None and value < least
            or most is not None and value > most):
        rules = [f"{op} {bound}" for op, bound in ((">=", least), ("<=", most))
                 if bound is not None]
        raise ConfigurationError(
            f"{name} must be {' and '.join(rules + ['a whole number'])}, not {value!r}")
    return value


def amount(name, value):
    """`value` itself if it is a finite real number >= 0, never a bool, or an
    array of them (checked by one min and one max); else ConfigurationError."""
    v = np.asarray(value)
    if v.dtype.kind not in "iuf" or v.size and not 0 <= v.min() <= v.max() < np.inf:
        raise ConfigurationError(f"{name} must be a finite number >= 0, not {value!r}")
    return value
