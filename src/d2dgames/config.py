"""Experiment configuration: flat ``key = value`` text with one section per module.

Each key is a field of its section's dataclass, parsed by the field's
declared type: plain fields of :class:`ExperimentConfig` form ``[harness]``
and each of its dataclass-valued fields is a section of its own. Each
section checks itself when built, and so does the config, so an invalid
one is never made. An empty file yields the full desk-scale defaults. Each
experiment reads only some keys (:data:`EXPERIMENTS`); unknown sections or
keys, and keys the file's experiment does not read, are rejected with their
line number, so no line silently falls back to a default or does nothing.
The keys a run read can be dumped back out and reparse to an identical
object, which is how runs are made reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable, get_type_hints

from d2dgames.auction import AuctionConfig
from d2dgames.coalition import ContentScenario, check_hotspot_radius
from d2dgames.power_control import PowerConfig
from d2dgames.radio import RadioParams
from d2dgames.stackelberg import StackelbergConfig


@dataclass(frozen=True)
class Reads:
    """What one experiment reads: ``fields`` names the fields of
    :class:`ExperimentConfig` it reads, each a ``[harness]`` key or a section
    read whole; a file may set only these, and only the ``[harness]`` keys
    among them are checked by the config. ``drops`` and ``schemes`` are its
    defaults, None where it reads neither; ``schemes`` is also every scheme it
    runs.
    """

    fields: tuple[str, ...]
    drops: int | None = None
    schemes: tuple[str, ...] | None = None

    def has(self, section: str, key: str) -> bool:
        return (key if section == "harness" else section) in self.fields


_EVERY_RUN = ("experiment", "master_seed", "output_path", "radio")

# experiment -> what it reads; a file that sets any other key is rejected
EXPERIMENTS = {
    "sumrate-vs-pairs": Reads(
        _EVERY_RUN + ("sweep", "drops", "schemes", "m_cue", "auction"),
        drops=200,
        schemes=("rica", "random", "all_cellular"),
    ),
    "content-distribution": Reads(
        _EVERY_RUN + ("drops", "schemes", "content"),
        drops=50,
        schemes=("coalition", "noncooperative"),
    ),
    "power-control": Reads(_EVERY_RUN + ("m_cue", "power")),
    "stackelberg": Reads(_EVERY_RUN + ("m_cue", "stackelberg")),
    "oracle-check": Reads(_EVERY_RUN),
}


class ConfigError(Exception):
    pass


def _reads(experiment: str) -> Reads:
    try:
        return EXPERIMENTS[experiment]
    except KeyError:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}, got {experiment!r}"
        ) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One run, checked by :meth:`validate` when built; ``drops`` and
    ``schemes`` left at ``None`` take the experiment's defaults first, and
    stay ``None`` where it reads neither. ``dataclasses.replace`` of
    ``experiment`` keeps them as resolved, so it must also pass
    ``drops=None, schemes=None``; without them it fails at once with
    :class:`ConfigError` when the kept schemes are not the new experiment's.
    """

    experiment: str = "sumrate-vs-pairs"
    sweep: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 14, 16)
    drops: int | None = None  # None: the experiment's default
    master_seed: int = 1
    schemes: tuple[str, ...] | None = None  # None: the experiment's default
    output_path: str = ""
    m_cue: int = 10
    radio: RadioParams = field(default_factory=RadioParams)
    auction: AuctionConfig = field(default_factory=AuctionConfig)
    content: ContentScenario = field(default_factory=ContentScenario)
    power: PowerConfig = field(default_factory=PowerConfig)
    stackelberg: StackelbergConfig = field(default_factory=StackelbergConfig)

    def __post_init__(self):
        reads = _reads(self.experiment)
        if self.drops is None:
            object.__setattr__(self, "drops", reads.drops)
        if self.schemes is None:
            object.__setattr__(self, "schemes", reads.schemes)
        self.validate()

    def validate(self) -> "ExperimentConfig":
        """Check the ``[harness]`` keys the experiment reads, and the checks that
        span sections; each section has checked itself when built."""
        reads = _reads(self.experiment)
        read = reads.fields
        if "drops" in read and self.drops < 1:
            raise ConfigError(f"drops must be >= 1 (invariant: drops >= 1), got {self.drops}")
        allowed = reads.schemes
        if allowed and not (
            self.schemes
            and len(set(self.schemes)) == len(self.schemes)
            and set(self.schemes) <= set(allowed)
        ):
            raise ConfigError(
                f"schemes of {self.experiment} must be distinct, non-empty and among "
                f"{', '.join(allowed)}, got {','.join(self.schemes)!r}"
            )
        if "sweep" in read:
            if not self.sweep:
                raise ConfigError(f"sweep must not be empty for {self.experiment}")
            if any(v < 0 for v in self.sweep):
                raise ConfigError(f"sweep values must be >= 0, got {self.sweep}")
        if "m_cue" in read and self.m_cue < 1:
            raise ConfigError(f"m_cue must be >= 1, got {self.m_cue}")
        # the two checks that span sections
        if "content" in read:
            try:
                check_hotspot_radius(self.content.hotspot_radius_m, self.radio)
            except ValueError as exc:
                raise ConfigError(f"[content] {exc}") from exc
        if "stackelberg" in read and not 0 <= self.stackelberg.rb < self.m_cue:
            raise ConfigError(
                f"[stackelberg] rb must satisfy 0 <= rb < m_cue = {self.m_cue}, "
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


# declared field type -> parser of its config text; a None default of
# drops and schemes is resolved by ExperimentConfig, never read from a file
_PARSERS = {
    int: int,
    float: float,
    str: str,
    tuple[int, ...]: _parse_list(int),
    float | None: _parse_auto_float,
    int | None: int,
    tuple[str, ...] | None: _parse_list(str),
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
    """Parse configuration text; unknown sections and keys, and keys the
    file's experiment does not read, are hard errors."""
    given: dict[tuple[str, str], tuple[int, str]] = {}  # (section, key) -> (line, text)
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
        if key not in _SECTIONS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if (section, key) in given:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{section}]")
        given[section, key] = lineno, value.strip()

    _, experiment = given.get(("harness", "experiment"), (0, ExperimentConfig.experiment))
    reads = _reads(experiment)
    values: dict[str, dict[str, object]] = {}
    for (section, key), (lineno, value) in given.items():
        if not reads.has(section, key):
            raise ConfigError(
                f"line {lineno}: {experiment} does not read key {key!r} in section [{section}]"
            )
        try:
            values.setdefault(section, {})[key] = _SECTIONS[section][key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    top = values.pop("harness", {})
    defaults = ExperimentConfig()
    for section, kwargs in values.items():
        try:
            top[section] = replace(getattr(defaults, section), **kwargs)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    return ExperimentConfig(**top)


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
    """Render every value the experiment reads; the result reparses to a config
    equal to ``config`` on those keys, and equal outright for a loaded config."""
    reads = EXPERIMENTS[config.experiment]
    lines = []
    for section, keys in _SECTIONS.items():
        keys = [key for key in keys if reads.has(section, key)]
        if not keys:
            continue
        values = config if section == "harness" else getattr(config, section)
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_fmt(getattr(values, key))}" for key in keys)
        lines.append("")
    return "\n".join(lines)
