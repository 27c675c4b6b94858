"""Errors, warnings, argument rules and text files shared across the simulator."""

import csv
import io
import json

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


def real(name, value, least=None, array=False):
    """`value` if it is one finite real number >= `least` (if given), or with
    `array` an array of them; else ConfigurationError, by dtype, so a bool,
    str, Fraction or huge int is refused."""
    try:
        v = np.asarray(value)
    except ValueError:  # a ragged nest of lists
        v = np.asarray(None)
    if v.dtype.kind not in "iuf" or v.ndim and not array or v.size and not (
            v.max() < np.inf and (v.min() > -np.inf if least is None else v.min() >= least)):
        bound = "" if least is None else f" >= {least}"
        raise ConfigurationError(f"{name} must be a finite number{bound}, not {value!r}")
    return value


def read_text(path, what, error):
    """The UTF-8 text at `path`, every line end read as a newline: the one
    reader of rrsim's text files; `error` naming `what` if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what}: {exc}") from exc


def write_text(path, text: str) -> None:
    """The one writer of rrsim's text files: `text` as UTF-8, line ends as given."""
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def dump_document(kind: str, version: int, fields: dict) -> str:
    """An `rrsim-<kind>` JSON document: `fields`, format and version, keys sorted."""
    return json.dumps(dict(fields, format=f"rrsim-{kind}", version=version),
                      indent=2, sort_keys=True)


def load_document(text: str, kind: str, version: int, error) -> dict:
    """The fields of an `rrsim-<kind>` JSON document of `version`, less its
    format and version; `error` if `text` is not one."""
    try:
        fields = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int of over 4,300 digits
        raise error(f"{kind} file is not valid JSON: {exc}") from exc
    if not isinstance(fields, dict) or fields.pop("format", None) != f"rrsim-{kind}":
        raise error(f"not an rrsim {kind} file")
    found = fields.pop("version", None)
    if type(found) is not int or found != version:  # true and 1.0 are not 1
        raise error(f"unsupported {kind} file version {found!r}")
    return fields


def write_csv(path, title: str, seed: int, columns, rows) -> None:
    """`columns`, then `rows`, as CSV after the line `# rrsim <title> seed=<seed>`;
    csv writes str(value), the shortest repr for a float."""
    fh = io.StringIO()
    csv.writer(fh).writerows([columns, *rows])
    write_text(path, f"# rrsim {title} seed={seed}\n" + fh.getvalue())
