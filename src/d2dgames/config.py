"""Experiment configuration: flat ``key = value`` text with one section per module.

An empty file yields the full desk-scale defaults. Unknown sections or keys
are rejected with their line number so typos never silently fall back to a
default; the effective configuration can be dumped back out and reparses to
an identical object, which is how runs are made reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from d2dgames.coalition import ContentScenario, check_hotspot_radius
from d2dgames.radio import RadioParams

EXPERIMENTS = (
    "sumrate-vs-pairs",
    "content-distribution",
    "power-control",
    "stackelberg",
    "oracle-check",
)

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
class ContentConfig:
    n_d2d: int = 20
    k_seeds: int = 4
    m_cue: int = 6
    file_packets: int = 500
    packets_per_rate_unit: float = 10.0
    rounds: int = 50
    hotspot_radius_m: float = 15.0

    def scenario(self) -> ContentScenario:
        return ContentScenario(
            n_d2d=self.n_d2d,
            k_seeds=self.k_seeds,
            m_cue=self.m_cue,
            file_packets=self.file_packets,
            packets_per_rate_unit=self.packets_per_rate_unit,
        )


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
    content: ContentConfig = field(default_factory=ContentConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    stackelberg: StackelbergConfig = field(default_factory=StackelbergConfig)

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {', '.join(EXPERIMENTS)}, got {self.experiment!r}"
            )
        if self.drops < 1:
            raise ConfigError(f"drops must be >= 1 (invariant: drops >= 1), got {self.drops}")
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
            self.content.scenario().validate()
            check_hotspot_radius(self.content.hotspot_radius_m, self.radio)
        except ValueError as exc:
            raise ConfigError(f"[content] {exc}") from exc
        if self.content.rounds < 1:
            raise ConfigError(f"content rounds must be >= 1, got {self.content.rounds}")
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


def _parse_int(text: str) -> int:
    return int(text)


def _parse_float(text: str) -> float:
    return float(text)


def _parse_str(text: str) -> str:
    return text


def _parse_int_list(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(t.strip()) for t in text.split(","))


def _parse_str_list(text: str) -> tuple[str, ...]:
    if not text.strip():
        return ()
    return tuple(t.strip() for t in text.split(","))


def _parse_epsilon(text: str):
    return None if text.strip().lower() == "auto" else float(text)


# section -> key -> (target attribute path, parser)
_SCHEMA = {
    "harness": {
        "experiment": ("experiment", _parse_str),
        "sweep": ("sweep", _parse_int_list),
        "drops": ("drops", _parse_int),
        "master_seed": ("master_seed", _parse_int),
        "schemes": ("schemes", _parse_str_list),
        "output_path": ("output_path", _parse_str),
        "m_cue": ("m_cue", _parse_int),
    },
    "radio": {
        "cell_radius_m": ("radio.cell_radius_m", _parse_float),
        "max_d2d_distance_m": ("radio.max_d2d_distance_m", _parse_float),
        "p_cue_dbm": ("radio.p_cue_dbm", _parse_float),
        "p_d2d_dbm": ("radio.p_d2d_dbm", _parse_float),
        "p_enb_dbm": ("radio.p_enb_dbm", _parse_float),
        "noise_dbm": ("radio.noise_dbm", _parse_float),
        "noise_figure_db": ("radio.noise_figure_db", _parse_float),
        "carrier_ghz": ("radio.carrier_ghz", _parse_float),
        "link_direction": ("radio.link_direction", _parse_str),
    },
    "auction": {
        "c0": ("auction.c0", _parse_float),
        "epsilon": ("auction.epsilon", _parse_epsilon),
        "p0": ("auction.p0", _parse_float),
        "exact_cap": ("auction.exact_cap", _parse_int),
        "max_rounds": ("auction.max_rounds", _parse_int),
    },
    "content": {
        "n_d2d": ("content.n_d2d", _parse_int),
        "k_seeds": ("content.k_seeds", _parse_int),
        "m_cue": ("content.m_cue", _parse_int),
        "file_packets": ("content.file_packets", _parse_int),
        "packets_per_rate_unit": ("content.packets_per_rate_unit", _parse_float),
        "rounds": ("content.rounds", _parse_int),
        "hotspot_radius_m": ("content.hotspot_radius_m", _parse_float),
    },
    "power": {
        "players": ("power.players", _parse_int),
        "sinr_target_db": ("power.sinr_target_db", _parse_float),
        "tol_w": ("power.tol_w", _parse_float),
        "max_iters": ("power.max_iters", _parse_int),
    },
    "stackelberg": {
        "lambda_points": ("stackelberg.lambda_points", _parse_int),
        "pair": ("stackelberg.pair", _parse_int),
        "rb": ("stackelberg.rb", _parse_int),
    },
}


def loads_config(text: str) -> ExperimentConfig:
    """Parse configuration text; unknown keys and sections are hard errors."""
    values: dict[str, object] = {}
    seen_keys: set[tuple[str, str]] = set()
    section = "harness"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if (section, key) in seen_keys:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{section}]")
        seen_keys.add((section, key))
        path, parser = _SCHEMA[section][key]
        try:
            values[path] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    config = ExperimentConfig()
    experiment = values.get("experiment", config.experiment)
    # experiment-dependent defaults, applied only when the key is absent
    if "drops" not in values and experiment in _DEFAULT_DROPS:
        values["drops"] = _DEFAULT_DROPS[experiment]
    if "schemes" not in values and experiment in _DEFAULT_SCHEMES:
        values["schemes"] = _DEFAULT_SCHEMES[experiment]

    top: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {}
    for path, value in values.items():
        if "." in path:
            group, attr = path.split(".", 1)
            nested.setdefault(group, {})[attr] = value
        else:
            top[path] = value
    for group, kwargs in nested.items():
        top[group] = replace(getattr(config, group), **kwargs)
    config = replace(config, **top)
    return config.validate()


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
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (path, _) in keys.items():
            obj = config
            for part in path.split("."):
                obj = getattr(obj, part)
            lines.append(f"{key} = {_fmt(obj)}")
        lines.append("")
    return "\n".join(lines)
