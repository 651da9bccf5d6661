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

    With :func:`_check_count`, the one check of a field. A refusal reads ``<name>
    must be finite and <sign> for '<owner>', got <value>``, with no ``for`` clause
    without an owner. An int too large for a float is not finite as one; it is not
    printed, since Python refuses to print an int of more than 4,300 digits. A
    zero of either sign is returned as ``0.0``, so equal values print alike.
    """
    try:
        number = shown = float(value)
    except OverflowError:
        number, shown = math.inf, "a number beyond float range"
    if not math.isfinite(number) or (sign and (number <= 0 if sign == "positive" else number < 0)):
        rule = f"finite and {sign}" if sign else "finite"
        where = f" for {owner!r}" if owner else ""
        raise ValueError(f"{name} must be {rule}{where}, got {shown}")
    return number or 0.0


def _check_count(name: str, value: int, low: int = 0, high: int = 2**53, owner: str = "") -> int:
    """``value`` as an int, if a whole number in [``low``, ``high``].

    A refusal reads ``<name> must be a count in [<low>, <high>] for '<owner>',
    got <value>``, worded as by :func:`_check_finite`. Like it, this shows an
    int too long for Python to print as ``a number beyond float range``.
    """
    # the model computes in floats, which hold every count up to 2**53 exactly;
    # comparing first keeps NaN and infinities away from int()
    if low <= value <= high:
        count = int(value)
        if count == value:
            return count
    where = f" for {owner!r}" if owner else ""
    top = "2**53" if high == 2**53 else high
    try:
        shown = repr(value)
    except ValueError:  # an int of more than 4,300 digits
        shown = "a number beyond float range"
    raise ValueError(f"{name} must be a count in [{low}, {top}]{where}, got {shown}")


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of a :class:`Record`."""


class Record:
    """Frozen value base whose fields are the class annotations, in order.

    A subclass of a record has its parents' fields first, then the ones it
    annotates itself.

    The default ``__init__`` takes each field by position or by keyword; a
    field has no class-level default. Equality, hashing and ``repr`` go by the
    tuple of fields, of any length, and the ``repr`` is the one a frozen
    dataclass prints. A subclass that validates its arguments defines its
    own ``__init__`` and sets each field once with ``object.__setattr__``
    (writing ``self.__dict__`` instead would slow every later attribute
    read). Unlike ``dataclasses``, nothing is compiled per class, so
    defining a record costs no ``exec`` at import.
    """

    _fields: tuple[str, ...] = ()
    _astuple: Any

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        fields: dict[str, None] = {}
        for klass in reversed(cls.__mro__):  # parents first, each field where it first appears
            if issubclass(klass, Record) and klass is not Record:
                fields.update(dict.fromkeys(klass.__annotations__))
        cls._fields = tuple(fields)
        cls._astuple = staticmethod(_tuple_getter(cls._fields))

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
            if field not in kwargs:
                raise TypeError(f"{name}() missing field {field!r}")
            object.__setattr__(self, field, kwargs[field])

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


def _tuple_getter(fields: tuple[str, ...]) -> Any:
    """A function from a record to the tuple of its ``fields``.

    ``attrgetter`` of two or more names returns that tuple directly, so it
    serves every record of two or more fields; of one name it returns the
    bare value, and of none it cannot be built.
    """
    if len(fields) >= 2:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(fields[0])
        return lambda record: (get(record),)
    return lambda record: ()


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
        count = _check_count("validators", validators, owner=network)
        object.__setattr__(self, "validators", count)
        object.__setattr__(self, "tps", _check_finite("tps", tps, "non-negative", network))
        if not isinstance(provenance, str):
            raise ValueError(f"provenance must be text for {network!r}, got {provenance!r}")
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
    The draw is converted to kW before it is multiplied, so the result
    overflows only where the exact kW leaves float range.
    """
    n = _check_finite("n_validators", n_validators, "non-negative")
    watts = _check_finite("watts_per_validator", watts_per_validator, "positive")
    return n * (watts / WATTS_PER_KW)


def energy_per_tx(n_validators: float, watts_per_validator: float, tps: float) -> float:
    """Energy per transaction, in kWh, at a given throughput.

    The product of a structure factor, validators per unit of throughput
    (``n / tps``), and a hardware factor, the kWh one validator draws per
    second (``watts / 3.6e6``). The result overflows or underflows only where
    the exact kWh/tx, or one factor alone, leaves float range. ``tps`` must
    be positive: at zero throughput the quotient diverges.
    """
    n = _check_finite("n_validators", n_validators, "non-negative")
    watts = _check_finite("watts_per_validator", watts_per_validator, "positive")
    rate = _check_finite("tps", tps, "positive")
    return (n / rate) * (watts / JOULES_PER_KWH)
