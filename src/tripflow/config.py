"""Pipeline configuration: defaults, config-file parsing, environment overrides.

The config file is INI-style with three sections. ``[paths]`` holds tracts,
trips, and output_dir; ``[pipeline]`` holds the numeric knobs (named exactly
as the PipelineConfig fields); ``[catalog]`` optionally overrides the
hypothesis catalog (named exactly as the CatalogConfig fields). The sigma
grid lives in CatalogConfig but may be set in either section. Every
default reproduces the values baked into the library: r=7 components, top-10
selection, k grid {0,1,5,10,50,100}, the seven-value sigma grid, seed 42.

Path entries can also come from the environment: TRIPFLOW_TRACTS,
TRIPFLOW_TRIPS, and TRIPFLOW_OUTPUT_DIR override the file when set.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, get_type_hints

from .evidence import DEFAULT_K_GRID
from .geo import GeoPoint
from .hypotheses import CatalogConfig
from .tensor import NtfOptions


class ConfigError(ValueError):
    """Raised for unreadable config files, unknown keys, or bad values."""


@dataclass(frozen=True)
class PipelineConfig:
    tracts: Optional[Path] = None
    trips: Optional[Path] = None
    output_dir: Optional[Path] = None
    r: int = 7
    n: int = 10
    k_grid: tuple[float, ...] = DEFAULT_K_GRID
    seed: int = NtfOptions.seed
    max_iters: int = NtfOptions.max_iters
    rel_tol: float = NtfOptions.rel_tol
    epsilon: float = NtfOptions.epsilon
    exclude_self_loops: bool = True
    catalog: CatalogConfig = field(default_factory=CatalogConfig)

    @property
    def sigma_grid(self) -> tuple[float, ...]:
        return self.catalog.sigma_grid

    def ntf_options(self) -> NtfOptions:
        return NtfOptions(**{f.name: getattr(self, f.name) for f in fields(NtfOptions)})

    def catalog_config(self) -> CatalogConfig:
        return self.catalog


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _names(text: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


def _landmarks(text: str) -> tuple[tuple[str, GeoPoint], ...]:
    landmarks = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        if len(parts) != 3:
            raise ConfigError(f"landmark {chunk!r} must be 'name lat lon'")
        landmarks.append((parts[0], GeoPoint(float(parts[1]), float(parts[2]))))
    if not landmarks:
        raise ConfigError("landmarks entry is empty")
    return tuple(landmarks)


_PARSERS = {Optional[Path]: Path, int: int, float: float, bool: _bool, str: str.strip,
            tuple[float, ...]: _floats, tuple[str, ...]: _names,
            tuple[tuple[str, GeoPoint], ...]: _landmarks}


def _field_parsers(cls) -> dict:
    """Map each field of ``cls`` that a config file can set to its value parser."""
    return {name: _PARSERS[t] for name, t in get_type_hints(cls).items() if t in _PARSERS}


_PIPELINE_FIELDS = _field_parsers(PipelineConfig)
_SECTIONS = {"paths": {k: p for k, p in _PIPELINE_FIELDS.items() if p is Path},
             "pipeline": {k: p for k, p in _PIPELINE_FIELDS.items() if p is not Path}
                         | {"sigma_grid": _floats},
             "catalog": _field_parsers(CatalogConfig)}


def _check_keys(where: str, seen, allowed) -> None:
    unknown = sorted(set(seen) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _parse_section(parser: configparser.ConfigParser, name: str) -> dict:
    if not parser.has_section(name):
        return {}
    section, parsers = parser[name], _SECTIONS[name]
    _check_keys(f"[{name}]", section.keys(), parsers)
    try:
        return {key: parse(section[key]) for key, parse in parsers.items() if key in section}
    except ConfigError:
        raise
    except (ValueError, configparser.Error) as exc:  # a bad value or a bad %-interpolation
        raise ConfigError(f"bad value in [{name}]: {exc}") from exc


def load_config(path: Optional[Path] = None, **overrides) -> PipelineConfig:
    """Build a PipelineConfig from an optional file plus keyword overrides.

    Precedence, lowest to highest: built-in defaults, config file,
    environment path variables, explicit overrides (CLI flags). A
    ``sigma_grid`` in ``[pipeline]`` beats one in ``[catalog]``.
    """
    values: dict = {}
    catalog: dict = {}

    if path is not None:
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        _check_keys("the config file", parser.sections(), _SECTIONS)
        values.update(_parse_section(parser, "paths"))
        values.update(_parse_section(parser, "pipeline"))
        catalog = _parse_section(parser, "catalog")

    for key in _SECTIONS["paths"]:  # TRIPFLOW_TRACTS, TRIPFLOW_TRIPS, TRIPFLOW_OUTPUT_DIR
        if os.environ.get(f"TRIPFLOW_{key.upper()}"):
            values[key] = Path(os.environ[f"TRIPFLOW_{key.upper()}"])

    known = {f.name for f in fields(PipelineConfig)} | {"sigma_grid"}
    for key, value in overrides.items():
        if key not in known:
            raise ConfigError(f"unknown config override {key!r}")
        if value is not None:
            values[key] = value

    # sigma_grid from [pipeline] or an override beats [catalog] and a catalog override
    moved = {key: values.pop(key) for key in list(values) if key in _SECTIONS["catalog"]}
    values["catalog"] = replace(values.get("catalog") or CatalogConfig(**catalog), **moved)
    config = PipelineConfig(**values)
    for key, ok, rule in (("r", config.r >= 1, ">= 1"), ("n", config.n >= 1, ">= 1"),
                          ("seed", config.seed >= 0, ">= 0"),
                          ("max_iters", config.max_iters >= 1, ">= 1"),
                          ("rel_tol", 0 <= config.rel_tol < math.inf, "finite and >= 0"),
                          ("epsilon", 0 < config.epsilon < math.inf, "finite and > 0"),
                          ("io_eps", 0 <= config.catalog.io_eps < math.inf, "finite and >= 0")):
        if not ok:  # each rule is written so that NaN fails it
            value = getattr(config.catalog if key == "io_eps" else config, key)
            raise ConfigError(f"{key} must be {rule}, got {value!r}")
    if not config.k_grid:
        raise ConfigError("k_grid must list at least one value")
    if any(not 0 <= k < math.inf for k in config.k_grid):
        raise ConfigError("k values must be finite and >= 0")
    if any(not 0 < s < math.inf for s in config.sigma_grid):
        raise ConfigError("sigma values must be finite and > 0")
    # a sigma's {:g} label and a landmark's name are parts of hypothesis names, which must differ
    for key, what, items in (("k_grid", "value", config.k_grid),
                             ("sigma_grid", "label", [f"{s:g}" for s in config.sigma_grid]),
                             ("landmarks", "name", [name for name, _ in config.catalog.landmarks])):
        repeated = sorted({str(v) for i, v in enumerate(items) if v in items[:i]})
        if repeated:
            raise ConfigError(f"{key} repeats the {what}(s) {' '.join(repeated)}")
    return config
