"""Exception and warning types shared across the simulator."""


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
