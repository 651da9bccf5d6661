"""Reference systems (Bitcoin bounds, VisaNet) as annual energy plus throughput."""

from __future__ import annotations

import configparser
import datetime as dt
import math
import os
from typing import Iterable

from .core import (
    JOULES_PER_KWH,
    SECONDS_PER_HOUR,
    SECONDS_PER_YEAR,
    Record,
    validate_network_id,
)

# The energy units a baselines cfg may give an amount in, each with its size in joules.
_JOULES_PER_UNIT = {"J": 1.0, "kWh": JOULES_PER_KWH, "GJ": 1e9, "TWh": 1e9 * JOULES_PER_KWH}


class BaselineRecord(Record):
    """Annual energy and sustained throughput for a non-PoS reference system."""

    name: str
    period_year: int
    annual_kwh: float
    tps: float

    def __init__(self, name: str, period_year: int, annual_kwh: float, tps: float) -> None:
        # the name is printed where network ids are: CSV cells, SVG legend text
        object.__setattr__(self, "name", validate_network_id(name))
        if not dt.MINYEAR <= period_year <= dt.MAXYEAR:
            raise ValueError(
                f"year must be in [{dt.MINYEAR}, {dt.MAXYEAR}] for {name!r}, got {period_year!r}"
            )
        object.__setattr__(self, "period_year", period_year)
        for field, value in (("annual_kwh", annual_kwh), ("tps", tps)):
            value = float(value)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{field} must be finite and positive for {name!r}, got {value!r}")
            object.__setattr__(self, field, value)


def per_second_energy(record: BaselineRecord) -> float:
    """kWh drawn per second, over a 365-day year."""
    return record.annual_kwh / SECONDS_PER_YEAR


def baseline_per_tx(record: BaselineRecord) -> float:
    """kWh per transaction at the record's sustained throughput."""
    return per_second_energy(record) / record.tps


def load_baselines(path: str | os.PathLike[str]) -> list[BaselineRecord]:
    """Read baseline records from a key-value config file.

    Each section is one record with keys ``year``, ``amount``, ``unit`` and
    ``tps``; extra keys (such as a free-text note) are ignored. The unit is
    one of J, kWh, GJ and TWh. The section name is the record's name, which
    must be a network id. An error in a section names the path and the
    section; records that :func:`summarize` cannot pair name the path.
    """
    where = os.fspath(path)
    parser = configparser.ConfigParser()
    records = []
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
            records.append(BaselineRecord(section, year, kwh, float(sec["tps"])))
        section = None
        summarize(records)
    except KeyError as exc:
        raise ValueError(f"{where} [{section}]: missing key {exc.args[0]!r}") from exc
    except (configparser.Error, ValueError) as exc:
        place = where if section is None else f"{where} [{section}]"
        raise ValueError(f"{place}: {' '.join(str(exc).split())}") from exc
    return records


class BaselineBand(Record):
    """A baseline, or a lower/upper pair of them, reduced to comparable figures."""

    name: str
    period_year: int
    tps: float
    kwh_per_second_lower: float
    kwh_per_second_upper: float
    kwh_per_tx_lower: float
    kwh_per_tx_upper: float

    @property
    def kw_lower(self) -> float:
        return self.kwh_per_second_lower * SECONDS_PER_HOUR

    @property
    def kw_upper(self) -> float:
        return self.kwh_per_second_upper * SECONDS_PER_HOUR

    @property
    def kwh_per_tx_mid(self) -> float:
        return (self.kwh_per_tx_lower + self.kwh_per_tx_upper) / 2.0


def summarize(records: Iterable[BaselineRecord]) -> list[BaselineBand]:
    """Pair ``<name>-lower``/``<name>-upper`` records into bands.

    Records without those suffixes become degenerate bands (lower equals
    upper). Paired records must agree on throughput and year.
    """
    singles: dict[str, dict[str, BaselineRecord]] = {}
    for record in records:
        stem, _, suffix = record.name.rpartition("-")
        if suffix in ("lower", "upper") and stem:
            singles.setdefault(stem, {})[suffix] = record
        else:
            singles.setdefault(record.name, {})["only"] = record

    bands = []
    for stem in sorted(singles):
        variants = singles[stem]
        if "only" in variants and len(variants) == 1:
            rec = variants["only"]
            lo = hi = rec
        elif set(variants) == {"lower", "upper"}:
            lo, hi = variants["lower"], variants["upper"]
            if lo.tps != hi.tps or lo.period_year != hi.period_year:
                raise ValueError(f"baseline pair {stem!r} disagrees on tps or year")
        else:
            raise ValueError(f"baseline {stem!r} has an incomplete lower/upper pair")
        bands.append(
            BaselineBand(
                name=stem,
                period_year=lo.period_year,
                tps=lo.tps,
                kwh_per_second_lower=per_second_energy(lo),
                kwh_per_second_upper=per_second_energy(hi),
                kwh_per_tx_lower=baseline_per_tx(lo),
                kwh_per_tx_upper=baseline_per_tx(hi),
            )
        )
    return bands
