"""Experiment configuration: flat ``key = value`` text with one section per module.

Each key is a field of its section's dataclass, parsed by the field's
declared type: plain fields of :class:`ExperimentConfig` form ``[harness]``
and each of its dataclass-valued fields is a section of its own. An empty
file yields the full desk-scale defaults. Unknown sections or keys are
rejected with their line number so typos never silently fall back to a
default; the effective configuration can be dumped back out and reparses to
an identical object, which is how runs are made reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable, get_type_hints

from d2dgames.coalition import ContentScenario, check_hotspot_radius
from d2dgames.radio import RadioParams

EXPERIMENTS = (
    "sumrate-vs-pairs",
    "content-distribution",
    "power-control",
    "stackelberg",
    "oracle-check",
)

# each experiment's full scheme set: its default, and all that validate() admits
_DEFAULT_SCHEMES = {
    "sumrate-vs-pairs": ("rica", "random", "all_cellular"),
    "content-distribution": ("coalition", "noncooperative"),
}

_DEFAULT_DROPS = {"content-distribution": 50}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class AuctionConfig:
    c0: float = 0.05
    epsilon: float | None = None  # None: 1% of mean standalone item value
    p0: float = 0.0
    exact_cap: int = 12
    max_rounds: int = 1_000_000


@dataclass(frozen=True)
class PowerConfig:
    players: int = 4
    sinr_target_db: float = 10.0
    tol_w: float = 1e-9
    max_iters: int = 1000


@dataclass(frozen=True)
class StackelbergConfig:
    lambda_points: int = 2000
    pair: int = 0
    rb: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "sumrate-vs-pairs"
    sweep: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 14, 16)
    drops: int = 200
    master_seed: int = 1
    schemes: tuple[str, ...] = ("rica", "random", "all_cellular")
    output_path: str = ""
    m_cue: int = 10
    radio: RadioParams = field(default_factory=RadioParams)
    auction: AuctionConfig = field(default_factory=AuctionConfig)
    content: ContentScenario = field(default_factory=ContentScenario)
    power: PowerConfig = field(default_factory=PowerConfig)
    stackelberg: StackelbergConfig = field(default_factory=StackelbergConfig)

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {', '.join(EXPERIMENTS)}, got {self.experiment!r}"
            )
        if self.drops < 1:
            raise ConfigError(f"drops must be >= 1 (invariant: drops >= 1), got {self.drops}")
        allowed = _DEFAULT_SCHEMES.get(self.experiment)
        if allowed and not (
            self.schemes
            and len(set(self.schemes)) == len(self.schemes)
            and set(self.schemes) <= set(allowed)
        ):
            raise ConfigError(
                f"schemes of {self.experiment} must be distinct, non-empty and among "
                f"{', '.join(allowed)}, got {','.join(self.schemes)!r}"
            )
        if self.experiment == "sumrate-vs-pairs" and not self.sweep:
            raise ConfigError("sweep must not be empty for sumrate-vs-pairs")
        if any(v < 0 for v in self.sweep):
            raise ConfigError(f"sweep values must be >= 0, got {self.sweep}")
        if self.m_cue < 1:
            raise ConfigError(f"m_cue must be >= 1, got {self.m_cue}")
        try:
            self.radio.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        c0, epsilon, p0 = self.auction.c0, self.auction.epsilon, self.auction.p0
        if not (math.isfinite(c0) and c0 >= 0):
            raise ConfigError(f"c0 must be finite and >= 0, got {c0}")
        if epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
            raise ConfigError(f"epsilon must be finite and > 0, or auto, got {epsilon}")
        if not (math.isfinite(p0) and p0 >= 0):
            raise ConfigError(f"p0 must be finite and >= 0, got {p0}")
        if self.auction.exact_cap < 0:
            raise ConfigError(f"exact_cap must be >= 0, got {self.auction.exact_cap}")
        if self.auction.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.auction.max_rounds}")
        try:
            self.content.validate()
            check_hotspot_radius(self.content.hotspot_radius_m, self.radio)
        except ValueError as exc:
            raise ConfigError(f"[content] {exc}") from exc
        if self.power.players < 0:
            raise ConfigError(f"power players must be >= 0, got {self.power.players}")
        if self.stackelberg.lambda_points < 2:
            raise ConfigError(
                f"lambda_points must be >= 2, got {self.stackelberg.lambda_points}"
            )
        if self.stackelberg.pair < 0:
            raise ConfigError(f"stackelberg pair must be >= 0, got {self.stackelberg.pair}")
        if not 0 <= self.stackelberg.rb < self.m_cue:
            raise ConfigError(
                f"stackelberg rb must satisfy 0 <= rb < m_cue = {self.m_cue}, "
                f"got {self.stackelberg.rb}"
            )
        return self


def _parse_list(item):
    def parse(text: str) -> tuple:
        if not text.strip():
            return ()
        return tuple(item(t.strip()) for t in text.split(","))

    return parse


def _parse_auto_float(text: str) -> float | None:
    return None if text.strip().lower() == "auto" else float(text)


# declared field type -> parser of its config text
_PARSERS = {
    int: int,
    float: float,
    str: str,
    tuple[int, ...]: _parse_list(int),
    tuple[str, ...]: _parse_list(str),
    float | None: _parse_auto_float,
}


def _parser(cls, name: str, hint) -> Callable[[str], object]:
    parser = _PARSERS.get(hint)
    if parser is None:
        raise TypeError(f"{cls.__name__}.{name}: no config parser for type {hint!r}")
    return parser


def _schema(cls) -> dict[str, dict[str, Callable[[str], object]]]:
    """Section -> key -> parser, read off the fields of ``cls``.

    Plain fields form ``[harness]``; each dataclass-valued field is a section
    named after the field, holding that dataclass's fields in field order.
    A field of a type without a parser raises :class:`TypeError`.
    """
    schema: dict[str, dict] = {"harness": {}}
    hints = get_type_hints(cls)
    for f in fields(cls):
        hint = hints[f.name]
        if is_dataclass(hint):
            sub = get_type_hints(hint)
            schema[f.name] = {g.name: _parser(hint, g.name, sub[g.name]) for g in fields(hint)}
        else:
            schema["harness"][f.name] = _parser(cls, f.name, hint)
    return schema


_SECTIONS = _schema(ExperimentConfig)


def loads_config(text: str) -> ExperimentConfig:
    """Parse configuration text; unknown keys and sections are hard errors."""
    values: dict[str, dict[str, object]] = {}
    section = "harness"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SECTIONS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        given = values.setdefault(section, {})
        if key in given:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{section}]")
        try:
            given[key] = _SECTIONS[section][key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    config = ExperimentConfig()
    top = values.pop("harness", {})
    experiment = top.get("experiment", config.experiment)
    # experiment-dependent defaults, applied only when the key is absent
    if "drops" not in top and experiment in _DEFAULT_DROPS:
        top["drops"] = _DEFAULT_DROPS[experiment]
    if "schemes" not in top and experiment in _DEFAULT_SCHEMES:
        top["schemes"] = _DEFAULT_SCHEMES[experiment]
    for section, kwargs in values.items():
        top[section] = replace(getattr(config, section), **kwargs)
    return replace(config, **top).validate()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return loads_config(text)


def _fmt(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(config: ExperimentConfig) -> str:
    """Render every effective value; the result reparses to an equal config."""
    lines = []
    for section, keys in _SECTIONS.items():
        values = config if section == "harness" else getattr(config, section)
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_fmt(getattr(values, key))}" for key in keys)
        lines.append("")
    return "\n".join(lines)
