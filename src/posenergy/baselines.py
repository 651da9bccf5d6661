"""Reference systems (Bitcoin bounds, VisaNet) as annual energy plus throughput."""

from __future__ import annotations

import configparser
import datetime as dt
import os

from .core import (
    JOULES_PER_KWH,
    SECONDS_PER_HOUR,
    SECONDS_PER_YEAR,
    Record,
    _check_count,
    _check_finite,
    validate_network_id,
)

# The energy units a baselines cfg may give an amount in, each with its size in joules.
_JOULES_PER_UNIT = {"J": 1.0, "kWh": JOULES_PER_KWH, "GJ": 1e9, "TWh": 1e9 * JOULES_PER_KWH}


class BaselineBand(Record):
    """A non-PoS reference system: lower and upper annual energy at a sustained throughput.

    A system with one published figure has equal bounds. The other figures
    are derived: kWh per second over a 365-day year, then times 3,600 s/h
    for kW or over ``tps`` for kWh per transaction.
    """

    name: str
    period_year: int
    tps: float
    annual_kwh_lower: float
    annual_kwh_upper: float

    def __init__(
        self,
        name: str,
        period_year: int,
        tps: float,
        annual_kwh_lower: float,
        annual_kwh_upper: float,
    ) -> None:
        # the name is printed where network ids are: CSV cells, SVG legend text
        object.__setattr__(self, "name", validate_network_id(name))
        if not dt.MINYEAR <= period_year <= dt.MAXYEAR:
            raise ValueError(
                f"year must be in [{dt.MINYEAR}, {dt.MAXYEAR}] for {name!r}, got {period_year!r}"
            )
        object.__setattr__(self, "period_year", _check_count("year", period_year))
        lower = _check_finite("annual_kwh", annual_kwh_lower, "positive", name)
        upper = _check_finite("annual_kwh", annual_kwh_upper, "positive", name)
        if lower > upper:
            raise ValueError(
                f"baseline {name!r} has annual_kwh_lower {lower!r} above annual_kwh_upper {upper!r}"
            )
        object.__setattr__(self, "annual_kwh_lower", lower)
        object.__setattr__(self, "annual_kwh_upper", upper)
        object.__setattr__(self, "tps", _check_finite("tps", tps, "positive", name))

    @property
    def kwh_per_second_lower(self) -> float:
        return self.annual_kwh_lower / SECONDS_PER_YEAR

    @property
    def kwh_per_second_upper(self) -> float:
        return self.annual_kwh_upper / SECONDS_PER_YEAR

    @property
    def kw_lower(self) -> float:
        return self.kwh_per_second_lower * SECONDS_PER_HOUR

    @property
    def kw_mid(self) -> float:
        return (self.kw_lower + self.kw_upper) / 2.0

    @property
    def kw_upper(self) -> float:
        return self.kwh_per_second_upper * SECONDS_PER_HOUR

    @property
    def kwh_per_tx_lower(self) -> float:
        return self.kwh_per_second_lower / self.tps

    @property
    def kwh_per_tx_mid(self) -> float:
        return (self.kwh_per_tx_lower + self.kwh_per_tx_upper) / 2.0

    @property
    def kwh_per_tx_upper(self) -> float:
        return self.kwh_per_second_upper / self.tps


def load_baselines(path: str | os.PathLike[str]) -> list[BaselineBand]:
    """Read reference systems from a key-value config file, sorted by name.

    Each section has keys ``year``, ``amount``, ``unit`` and ``tps``; extra
    keys (such as a free-text note) are ignored. The unit is one of J, kWh,
    GJ and TWh. Sections ``<name>-lower`` and ``<name>-upper`` are the bounds
    of one band ``<name>`` and must agree on year and tps; any other section
    is a band with equal bounds. Section names must be network ids. An error
    in a section names the path and the section; a bad pair names the path.
    """
    where = os.fspath(path)
    parser = configparser.ConfigParser()
    bands: dict[str, BaselineBand] = {}
    halves: dict[str, dict[str, BaselineBand]] = {}
    section = None
    try:
        if not parser.read(where, encoding="utf-8"):
            raise FileNotFoundError(f"no baseline config at {where!r}")
        for section in parser.sections():
            sec = parser[section]
            year, amount, unit = int(sec["year"]), float(sec["amount"]), sec["unit"]
            if unit not in _JOULES_PER_UNIT:
                raise ValueError(f"unit {unit!r} is not one of {', '.join(_JOULES_PER_UNIT)}")
            kwh = amount * (_JOULES_PER_UNIT[unit] / JOULES_PER_KWH)
            band = BaselineBand(section, year, float(sec["tps"]), kwh, kwh)
            stem, _, suffix = section.rpartition("-")
            if stem and suffix in ("lower", "upper"):
                halves.setdefault(stem, {})[suffix] = band
            else:
                bands[section] = band
        section = None
        for stem in sorted(halves):
            pair = halves[stem]
            if len(pair) < 2:
                raise ValueError(f"baseline {stem!r} has an incomplete lower/upper pair")
            if stem in bands:
                raise ValueError(f"baseline {stem!r} is given both alone and as a lower/upper pair")
            lo, hi = pair["lower"], pair["upper"]
            if lo.tps != hi.tps or lo.period_year != hi.period_year:
                raise ValueError(f"baseline pair {stem!r} disagrees on tps or year")
            bands[stem] = BaselineBand(
                stem, lo.period_year, lo.tps, lo.annual_kwh_lower, hi.annual_kwh_upper
            )
    except KeyError as exc:
        raise ValueError(f"{where} [{section}]: missing key {exc.args[0]!r}") from exc
    except (configparser.Error, ValueError) as exc:
        place = where if section is None else f"{where} [{section}]"
        raise ValueError(f"{place}: {' '.join(str(exc).split())}") from exc
    return [bands[name] for name in sorted(bands)]
