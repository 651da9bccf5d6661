"""Domain types and the pointwise energy model for validator networks.

The model prices a network's consensus layer as validator count times
per-validator power draw; dividing that by throughput gives the energy
attributable to a single transaction. Every domain type is a frozen
:class:`Record`.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from operator import attrgetter
from typing import Any

JOULES_PER_KWH = 3.6e6
WATTS_PER_KW = 1_000.0
SECONDS_PER_HOUR = 3_600
SECONDS_PER_DAY = 86_400
SECONDS_PER_YEAR = 31_536_000  # 365-day year

_NETWORK_ID_RE = re.compile(r"[a-z0-9][a-z0-9_-]*")


def validate_network_id(name: str) -> str:
    """Validate a short lowercase network identifier and return it."""
    if not isinstance(name, str) or not _NETWORK_ID_RE.fullmatch(name):
        raise ValueError(f"invalid network id {name!r} (want lowercase ASCII, e.g. 'hedera')")
    return name


def parse_date(value: dt.date | str) -> dt.date:
    """Coerce an ISO-8601 string (or date) to a date."""
    if isinstance(value, dt.datetime):
        return value.date()
    if isinstance(value, dt.date):
        return value
    if isinstance(value, str):
        try:
            return dt.date.fromisoformat(value)
        except ValueError as exc:
            raise ValueError(f"invalid date {value!r} (want ISO-8601, e.g. 2022-12-11)") from exc
    raise ValueError(f"invalid date {value!r} (want ISO-8601)")


def _check_finite(name: str, value: float, sign: str = "", owner: str = "") -> float:
    """``value`` as a float, if finite and of ``sign``: "positive", "non-negative" or "" (any).

    The one check of a real-valued field. A refusal reads ``<name> must be finite
    and <sign> for '<owner>', got <value>``, with no ``for`` clause without an owner.
    An int too large for a float is not finite as one; it is not printed, since
    Python refuses to print an int of more than 4,300 digits.
    """
    try:
        number = shown = float(value)
    except OverflowError:
        number, shown = math.inf, "a number beyond float range"
    if not math.isfinite(number) or (sign and (number <= 0 if sign == "positive" else number < 0)):
        rule = f"finite and {sign}" if sign else "finite"
        where = f" for {owner!r}" if owner else ""
        raise ValueError(f"{name} must be {rule}{where}, got {shown}")
    return number


def _check_count(name: str, value: int) -> int:
    """``value`` as an int, refused unless it is a whole number in [0, 2**53]."""
    # the model computes in floats, which hold every count up to 2**53 exactly;
    # comparing first keeps NaN and infinities away from int()
    if 0 <= value <= 2**53:
        count = int(value)
        if count == value:
            return count
    raise ValueError(f"{name} must be a count in [0, 2**53], got {value!r}")


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of a :class:`Record`."""


class Record:
    """Frozen value base whose fields are the class annotations, in order.

    The default ``__init__`` takes each field by position, by keyword or from
    a class-level default. Equality, hashing and ``repr`` go by the tuple of
    fields, and the ``repr`` is the one a frozen dataclass prints. A subclass
    that validates its arguments defines its own ``__init__`` and sets each
    field once with ``object.__setattr__`` (writing ``self.__dict__`` instead
    would slow every later attribute read). Unlike ``dataclasses``, nothing is
    compiled per class, so defining a record costs no ``exec`` at import.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}
    _astuple: Any = staticmethod(lambda record: ())

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__annotations__ if name not in cls._fields]
        fields = cls._fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        if len(fields) > 1:
            cls._astuple = staticmethod(attrgetter(*fields))
        else:  # attrgetter of one name returns the bare value, not a 1-tuple
            cls._astuple = staticmethod(lambda record: tuple(getattr(record, n) for n in fields))

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls = type(self)
        name = cls.__name__
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} fields, got {len(args)} positional")
        for field, value in zip(cls._fields, args):
            if field in kwargs:
                raise TypeError(f"{name}() got multiple values for field {field!r}")
            kwargs[field] = value
        unknown = kwargs.keys() - cls._fields
        if unknown:
            raise TypeError(f"{name}() got unknown fields {sorted(unknown)}")
        for field in cls._fields:
            if field in kwargs:
                value = kwargs[field]
            elif field in cls._defaults:
                value = cls._defaults[field]
            else:
                raise TypeError(f"{name}() missing field {field!r}")
            object.__setattr__(self, field, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        cells = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({cells})"


class NetworkObservation(Record):
    """One dated measurement of validator count and throughput for a network."""

    network: str
    date: dt.date
    validators: int
    tps: float
    provenance: str

    def __init__(
        self, network: str, date: dt.date | str, validators: int, tps: float, provenance: str = ""
    ) -> None:
        object.__setattr__(self, "network", validate_network_id(network))
        object.__setattr__(self, "date", parse_date(date))
        object.__setattr__(self, "validators", _check_count("validators", validators))
        object.__setattr__(self, "tps", _check_finite("tps", tps, "non-negative", network))
        object.__setattr__(self, "provenance", provenance)


class ValidatorPowerBounds(Record):
    """Optimistic and pessimistic per-validator power draw, in watts."""

    network: str
    lower_w: float
    upper_w: float
    source_note: str

    def __init__(self, network: str, lower_w: float, upper_w: float, source_note: str = "") -> None:
        object.__setattr__(self, "network", validate_network_id(network))
        lower = _check_finite("lower_w", lower_w, "positive", network)
        upper = _check_finite("upper_w", upper_w, "positive", network)
        if lower > upper:
            raise ValueError(f"lower_w {lower!r} is above upper_w {upper!r} for {network!r}")
        object.__setattr__(self, "lower_w", lower)
        object.__setattr__(self, "upper_w", upper)
        object.__setattr__(self, "source_note", source_note)

    @property
    def mid_w(self) -> float:
        """Arithmetic mean of the two bounds, used for mid estimates."""
        return (self.lower_w + self.upper_w) / 2.0


class NetworkProfile(Record):
    """Power bounds plus the throughput domain a network can be extrapolated over."""

    network: str
    bounds: ValidatorPowerBounds
    max_tps: float

    def __init__(self, network: str, bounds: ValidatorPowerBounds, max_tps: float) -> None:
        object.__setattr__(self, "network", validate_network_id(network))
        if bounds.network != network:
            raise ValueError(f"profile for {network!r} carries bounds for {bounds.network!r}")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "max_tps", _check_finite("max_tps", max_tps, "positive", network))


def global_power(n_validators: float, watts_per_validator: float) -> float:
    """Whole-network power draw in kW for ``n_validators`` at the given draw each.

    ``n_validators`` may be fractional (predictions from a fitted model are).
    """
    n = _check_finite("n_validators", n_validators, "non-negative")
    watts = _check_finite("watts_per_validator", watts_per_validator, "positive")
    return n * watts / WATTS_PER_KW


def energy_per_tx(n_validators: float, watts_per_validator: float, tps: float) -> float:
    """Energy per transaction, in kWh, at a given throughput.

    Network watts divided by transactions per second is joules per
    transaction; the result is expressed in kWh. Undefined at zero
    throughput, where the quotient diverges.
    """
    n = _check_finite("n_validators", n_validators, "non-negative")
    watts = _check_finite("watts_per_validator", watts_per_validator, "positive")
    rate = _check_finite("tps", tps, "non-negative")
    if rate == 0:
        raise ValueError("tps must be positive: per-transaction energy is undefined at zero "
                         "throughput")
    return (n * watts) / (rate * JOULES_PER_KWH)
