import inspect
import math
import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import pytest

from d2dgames.auction import auction_instance_from_radio, run_auction
from d2dgames.coalition import ContentScenario
from d2dgames.config import (
    EXPERIMENTS,
    AuctionConfig,
    ConfigError,
    ExperimentConfig,
    PowerConfig,
    StackelbergConfig,
    _PARSERS,
    _SECTIONS,
    _fmt,
    _schema,
    dump_config,
    load_config,
    loads_config,
)
from d2dgames.harness import run_experiment
from d2dgames.oracle import OracleBudget
from d2dgames.power_control import power_game_from_radio, run_power_game
from d2dgames.radio import RadioParams
from d2dgames.stackelberg import stackelberg_from_radio

README = Path(__file__).resolve().parent.parent / "README.md"

CONTENT_RUN = "experiment = content-distribution\n"

# `d2dgames print-defaults`, byte for byte
DEFAULTS_TEXT = """\
[harness]
experiment = sumrate-vs-pairs
sweep = 2,4,6,8,10,12,14,16
drops = 200
master_seed = 1
schemes = rica,random,all_cellular
output_path = 
m_cue = 10

[radio]
cell_radius_m = 500.0
max_d2d_distance_m = 20.0
p_cue_dbm = 23.0
p_d2d_dbm = 23.0
p_enb_dbm = 30.0
noise_dbm = -104.0
noise_figure_db = 7.0
carrier_ghz = 2.0
link_direction = downlink

[auction]
c0 = 0.05
epsilon = auto
p0 = 0.0
exact_cap = 12
max_rounds = 1000000
"""


@dataclass(frozen=True)
class _ListSection:
    values: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class _ListRoot:
    drops: int = 1
    extra: _ListSection = field(default_factory=_ListSection)


@dataclass(frozen=True)
class _ComplexRoot:
    z: complex = 0j


class TestDefaults:
    def test_empty_file_gives_full_defaults(self):
        config = loads_config("")
        assert config.radio.cell_radius_m == 500.0
        assert config.radio.max_d2d_distance_m == 20.0
        assert config.radio.p_cue_dbm == 23.0
        assert config.radio.p_d2d_dbm == 23.0
        assert config.radio.noise_dbm == -104.0
        assert config.radio.noise_figure_db == 7.0
        assert config.m_cue == 10
        assert config.drops == 200
        assert config.sweep == (2, 4, 6, 8, 10, 12, 14, 16)
        assert config.schemes == ("rica", "random", "all_cellular")

    def test_content_experiment_defaults(self):
        config = loads_config("experiment = content-distribution\n")
        assert config.drops == 50
        assert config.schemes == ("coalition", "noncooperative")
        assert config.content.n_d2d == 20
        assert config.content.k_seeds == 4
        assert config.content.m_cue == 6
        assert config.content.file_packets == 500
        assert config.content.rounds == 50

    def test_content_experiment_defaults_in_code(self):
        config = ExperimentConfig(experiment="content-distribution")
        assert config.drops == 50
        assert config.schemes == ("coalition", "noncooperative")
        assert config.validate() is config
        given = ExperimentConfig(experiment="content-distribution", drops=3)
        assert (given.drops, given.schemes) == (3, ("coalition", "noncooperative"))

    def test_replace_of_experiment_resolves_defaults_only_when_reset(self):
        # the kept sum-rate schemes are not content's, so the replace fails at once
        with pytest.raises(ConfigError, match="schemes of content-distribution must be"):
            replace(ExperimentConfig(), experiment="content-distribution")
        config = replace(
            ExperimentConfig(), experiment="content-distribution", drops=None, schemes=None
        )
        assert config.drops == 50
        assert ",".join(config.schemes) == "coalition,noncooperative"
        assert config.validate() == ExperimentConfig(experiment="content-distribution")

    def test_drops_and_schemes_only_where_read(self):
        config = ExperimentConfig(experiment="sumrate-vs-pairs")
        assert config.drops == 200
        assert config.schemes == ("rica", "random", "all_cellular")
        for experiment in ("power-control", "stackelberg", "oracle-check"):
            config = ExperimentConfig(experiment=experiment)
            assert (config.drops, config.schemes) == (None, None)
            assert loads_config(f"experiment = {experiment}\n") == config
        assert ExperimentConfig() == loads_config("")

    def test_drops_and_schemes_from_a_file_are_kept(self):
        config = loads_config(
            "experiment = content-distribution\ndrops = 3\nschemes = noncooperative\n"
        )
        assert (config.drops, config.schemes) == (3, ("noncooperative",))
        config = loads_config("drops = 7\nschemes = rica\n")
        assert (config.drops, config.schemes) == (7, ("rica",))


class TestParsing:
    def test_sections_and_overrides(self):
        text = """
        [harness]
        experiment = sumrate-vs-pairs
        sweep = 2,4
        drops = 3
        master_seed = 9

        [radio]
        p_enb_dbm = 46
        link_direction = uplink

        [auction]
        epsilon = 0.25
        """
        config = loads_config(text)
        assert config.sweep == (2, 4)
        assert config.drops == 3
        assert config.master_seed == 9
        assert config.radio.p_enb_dbm == 46.0
        assert config.radio.link_direction == "uplink"
        assert config.auction.epsilon == 0.25

    def test_auto_epsilon(self):
        config = loads_config("[auction]\nepsilon = auto\n")
        assert config.auction.epsilon is None

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'frequency'"):
            loads_config("[radio]\nfrequency = 2\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section"):
            loads_config("[nonsense]\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            loads_config("drops = 1\ndrops = 2\n")

    def test_parse_error_has_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            loads_config("this is not a key value line\n")

    def test_invalid_value_reports_invariant(self):
        with pytest.raises(ConfigError, match="cell_radius"):
            loads_config("[radio]\ncell_radius_m = -1\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("m_cue = 0", "m_cue"),
            ("file_packets = 0", "file_packets"),
            ("packets_per_rate_unit = -1", "packets_per_rate_unit"),
            ("k_seeds = 21", "k_seeds"),
        ],
    )
    def test_invalid_content_scenario_rejected(self, line, message):
        with pytest.raises(ConfigError, match=rf"^\[content\] .*{message}"):
            loads_config(f"{CONTENT_RUN}[content]\n{line}\n")

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_packet_pacing_rejected(self, bad, tmp_path, capsys):
        from d2dgames.cli import main

        message = f"packets_per_rate_unit must be finite and >= 0, got {bad}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            loads_config(f"{CONTENT_RUN}[content]\npackets_per_rate_unit = {bad}\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            f"experiment = content-distribution\ndrops = 1\n"
            f"[content]\npackets_per_rate_unit = {bad}\n"
        )
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: [content] {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("pacing", ["1e18", "1e300"])
    def test_huge_packet_pacing_caps_at_the_file(self, pacing, tmp_path):
        from d2dgames.cli import main

        cfg = tmp_path / "huge.cfg"
        cfg.write_text(
            "experiment = content-distribution\ndrops = 2\n[content]\n"
            f"n_d2d = 6\nk_seeds = 2\nm_cue = 2\nfile_packets = 100\nrounds = 3\n"
            f"packets_per_rate_unit = {pacing}\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "content.csv").read_text().splitlines()[1:]
        cumulative = [int(row.split(",")[3]) for row in rows]
        assert len(cumulative) == 2 * 2 * 4
        # one round of any positive rate fills a UE's file, and never more
        assert max(cumulative) == 6 * 100
        assert all(200 <= c <= 6 * 100 for c in cumulative)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_rounds = 0", "max_rounds must be >= 1, got 0"),
            ("max_rounds = -7", "max_rounds must be >= 1, got -7"),
            ("exact_cap = -3", "exact_cap must be >= 0, got -3"),
        ],
    )
    def test_invalid_auction_limits_rejected(self, line, message, tmp_path):
        from d2dgames.cli import main

        with pytest.raises(ConfigError, match=message):
            loads_config(f"[auction]\n{line}\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"sweep = 2\ndrops = 1\nm_cue = 2\n[auction]\n{line}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            (f"{key} = {bad}", f"{key} must be finite")
            for key in ("epsilon", "c0", "p0")
            for bad in ("nan", "inf")
        ],
    )
    def test_non_finite_auction_values_rejected(self, line, message, tmp_path):
        from d2dgames.cli import main

        with pytest.raises(ConfigError, match=message):
            loads_config(f"[auction]\n{line}\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"sweep = 8\ndrops = 1\nm_cue = 4\nschemes = rica\n[auction]\n{line}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("key", ["cell_radius_m", "carrier_ghz"])
    def test_infinite_radio_geometry_rejected(self, key, tmp_path):
        from d2dgames.cli import main

        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            loads_config(f"[radio]\n{key} = inf\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"sweep = 2\ndrops = 1\nm_cue = 2\n[radio]\n{key} = inf\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("radius", ["nan", "inf", "0", "-5", "1000"])
    def test_invalid_hotspot_radius_rejected(self, radius):
        # the default cell radius is 500 m, so 1000 is twice the cell
        with pytest.raises(ConfigError, match=re.escape("[content] hotspot_radius_m")):
            loads_config(f"{CONTENT_RUN}[content]\nhotspot_radius_m = {radius}\n")

    def test_hotspot_radius_up_to_cell_radius_accepted(self):
        config = loads_config(
            f"{CONTENT_RUN}[radio]\ncell_radius_m = 300\n[content]\nhotspot_radius_m = 300\n"
        )
        assert config.content.hotspot_radius_m == 300.0

    @pytest.mark.parametrize(
        "line, message",
        [
            ("rb = 10", "rb must satisfy 0 <= rb < m_cue = 10, got 10"),
            ("rb = -1", "rb must satisfy 0 <= rb < m_cue = 10, got -1"),
            ("pair = -1", "pair must be >= 0, got -1"),
        ],
    )
    def test_invalid_stackelberg_indices_rejected(self, line, message, tmp_path):
        from d2dgames.cli import main

        with pytest.raises(ConfigError, match=message):
            loads_config(f"experiment = stackelberg\n[stackelberg]\n{line}\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = stackelberg\n[stackelberg]\nlambda_points = 8\n{line}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("sinr_target_db = nan", "sinr_target_db must be finite, got nan"),
            ("sinr_target_db = inf", "sinr_target_db must be finite, got inf"),
            ("max_iters = 0", "max_iters must be >= 1, got 0"),
            ("max_iters = -5", "max_iters must be >= 1, got -5"),
            ("tol_w = -1", "tol_w must be finite and > 0, got -1.0"),
            ("tol_w = 0", "tol_w must be finite and > 0, got 0.0"),
            ("tol_w = nan", "tol_w must be finite and > 0, got nan"),
        ],
    )
    def test_invalid_power_values_rejected(self, line, message, tmp_path):
        from d2dgames.cli import main

        with pytest.raises(ConfigError, match=re.escape(f"[power] {message}")):
            loads_config(f"experiment = power-control\n[power]\n{line}\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = power-control\n[power]\n{line}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_zero_exact_cap_accepted(self):
        assert loads_config("[auction]\nexact_cap = 0\n").auction.exact_cap == 0

    def test_workers_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown key 'workers'"):
            loads_config("workers = 2\n")

    def test_bad_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            loads_config("experiment = tennis\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.cfg")


class TestRoundTrip:
    def test_dump_reparses_identically(self):
        config = loads_config(
            "experiment = content-distribution\n[content]\nrounds = 7\n[radio]\ncarrier_ghz = 3.5\n"
        )
        assert loads_config(dump_config(config)) == config

    def test_default_round_trip(self):
        config = ExperimentConfig().validate()
        assert loads_config(dump_config(config)) == config


class TestDerivedSchema:
    def test_print_defaults_text_pinned(self, capsys):
        from d2dgames.cli import main

        assert dump_config(ExperimentConfig()) == DEFAULTS_TEXT
        assert main(["print-defaults"]) == 0
        assert capsys.readouterr().out == DEFAULTS_TEXT
        assert loads_config(DEFAULTS_TEXT) == ExperimentConfig()

    @pytest.mark.parametrize(
        "cls, where", [(_ListRoot, "_ListSection.values"), (_ComplexRoot, "_ComplexRoot.z")]
    )
    def test_field_without_parser_is_an_error(self, cls, where):
        with pytest.raises(TypeError, match=rf"{where}: no config parser"):
            _schema(cls)

    def test_every_parser_reads_a_declared_field(self):
        # a parser keyed by a type no field declares parses nothing
        declared = set()
        for hint in get_type_hints(ExperimentConfig).values():
            declared |= set(get_type_hints(hint).values()) if is_dataclass(hint) else {hint}
        assert set(_PARSERS) <= declared, set(_PARSERS) - declared

    def test_content_section_is_the_content_scenario(self):
        config = loads_config(f"{CONTENT_RUN}[content]\nrounds = 7\nhotspot_radius_m = 20\n")
        assert config.content == ContentScenario(rounds=7, hotspot_radius_m=20.0)

    def test_zero_rounds_rejected(self, tmp_path):
        from d2dgames.cli import main

        with pytest.raises(ValueError, match="rounds must be >= 1, got 0"):
            ContentScenario(rounds=0)
        with pytest.raises(ConfigError, match="rounds must be >= 1, got 0"):
            loads_config(f"{CONTENT_RUN}[content]\nrounds = 0\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = content-distribution\ndrops = 1\n[content]\nrounds = 0\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


SUMRATE, CONTENT, STACKELBERG, POWER = (
    "sumrate-vs-pairs", "content-distribution", "stackelberg", "power-control"
)

# finite values that passed validation, then raised a traceback (exit 1) or
# wrote error rows (exit 4) in the experiments listed
EXTREME_VALUES = [
    ("radio", "p_d2d_dbm = 1e300", (SUMRATE, CONTENT, STACKELBERG, POWER)),
    ("radio", "noise_dbm = 1e300", (SUMRATE, CONTENT, STACKELBERG, POWER)),
    ("radio", "noise_figure_db = 4000", (SUMRATE, CONTENT, STACKELBERG, POWER)),
    ("radio", "noise_dbm = -1e300", (SUMRATE, CONTENT, STACKELBERG)),
    ("radio", "p_d2d_dbm = -1e300", (POWER,)),
    ("power", "sinr_target_db = 4000", (POWER,)),
    ("power", "sinr_target_db = -4000", (POWER,)),
    ("radio", "cell_radius_m = 1e300", (SUMRATE, CONTENT, STACKELBERG, POWER)),
    ("radio", "carrier_ghz = 1e300", (SUMRATE, CONTENT, STACKELBERG, POWER)),
    ("radio", "carrier_ghz = 1e-300", (SUMRATE, CONTENT, STACKELBERG, POWER)),
]


class TestExtremeValues:
    """Each value whose watts, path gain or linear target is 0 or overflows is a config error."""

    @pytest.mark.parametrize(
        "section, line, experiment",
        [(sec, line, exp) for sec, line, exps in EXTREME_VALUES for exp in exps],
    )
    def test_rejected_before_the_run(self, section, line, experiment, tmp_path, capsys):
        from d2dgames.cli import main

        # each experiment's own size keys, so a run that got past the check stays small
        sizes = {
            SUMRATE: "drops = 1\nsweep = 2\n",
            CONTENT: "drops = 1\n[content]\nrounds = 2\n",
        }.get(experiment, "")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = {experiment}\n{sizes}[{section}]\n{line}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: [{section}] ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("p_cue_dbm = 4000", "p_cue_dbm must give a positive, finite power"),
            ("p_enb_dbm = -4000", "p_enb_dbm must give a positive, finite power"),
            ("noise_dbm = -4000", "noise_dbm + noise_figure_db must give"),
            ("noise_figure_db = 1e308\nnoise_dbm = 1e308", "noise_dbm + noise_figure_db must"),
            ("cell_radius_m = 1e308", "cell_radius_m and carrier_ghz must give a positive"),
        ],
    )
    def test_radio_limits_named(self, line, message):
        with pytest.raises(ConfigError, match=re.escape(f"[radio] {message}")):
            loads_config(f"[radio]\n{line}\n")

    @pytest.mark.parametrize(
        "line", ["p_d2d_dbm = 3000", "noise_dbm = -3000", "carrier_ghz = 1e-3"]
    )
    def test_large_but_representable_values_load(self, line):
        loads_config(f"[radio]\n{line}\n")


# one out-of-range value per check of each section: (section in a config
# file, or None for OracleBudget, which no file sets; class; key; value;
# the whole message)
BAD_SECTION_VALUES = [
    ("radio", RadioParams, "cell_radius_m", -1.0,
     "cell_radius_m must be finite and > 0 (invariant: cell_radius > 0), got -1.0"),
    ("radio", RadioParams, "max_d2d_distance_m", 600.0,
     "max_d2d_distance_m must satisfy 0 < max_d2d_distance < cell_radius, got 600.0"),
    ("radio", RadioParams, "p_cue_dbm", math.nan, "p_cue_dbm must be finite, got nan"),
    ("radio", RadioParams, "p_d2d_dbm", 1e6,
     "p_d2d_dbm must give a positive, finite power in watts, got 1000000.0"),
    ("radio", RadioParams, "p_enb_dbm", -1e6,
     "p_enb_dbm must give a positive, finite power in watts, got -1000000.0"),
    ("radio", RadioParams, "noise_dbm", -1e6,
     "noise_dbm + noise_figure_db must give a positive, finite noise power in watts, "
     "got -1000000.0 + 7.0"),
    ("radio", RadioParams, "noise_figure_db", math.inf, "noise_figure_db must be finite, got inf"),
    ("radio", RadioParams, "carrier_ghz", 0.0, "carrier_ghz must be finite and > 0, got 0.0"),
    ("radio", RadioParams, "carrier_ghz", 1e300,
     "cell_radius_m and carrier_ghz must give a positive, finite path gain from 10 m to "
     "2 * cell_radius_m, got cell_radius_m = 500.0, carrier_ghz = 1e+300"),
    ("radio", RadioParams, "link_direction", "sideways",
     "link_direction must be 'uplink' or 'downlink', got 'sideways'"),
    ("auction", AuctionConfig, "c0", -1.0, "c0 must be finite and >= 0, got -1.0"),
    ("auction", AuctionConfig, "epsilon", 0.0,
     "epsilon must be finite and > 0, or auto, got 0.0"),
    ("auction", AuctionConfig, "p0", math.nan, "p0 must be finite and >= 0, got nan"),
    ("auction", AuctionConfig, "exact_cap", -1, "exact_cap must be >= 0, got -1"),
    ("auction", AuctionConfig, "max_rounds", 0, "max_rounds must be >= 1, got 0"),
    ("content", ContentScenario, "n_d2d", 3, "need 0 < k_seeds <= n_d2d, got K=4, N=3"),
    ("content", ContentScenario, "k_seeds", 0, "need 0 < k_seeds <= n_d2d, got K=0, N=20"),
    ("content", ContentScenario, "m_cue", 0, "m_cue must be >= 1, got 0"),
    ("content", ContentScenario, "file_packets", 0, "file_packets must be >= 1, got 0"),
    ("content", ContentScenario, "packets_per_rate_unit", -1.0,
     "packets_per_rate_unit must be finite and >= 0, got -1.0"),
    ("content", ContentScenario, "rounds", 0, "rounds must be >= 1, got 0"),
    ("power", PowerConfig, "players", -1, "power players must be >= 0, got -1"),
    ("power", PowerConfig, "sinr_target_db", math.inf, "sinr_target_db must be finite, got inf"),
    ("power", PowerConfig, "sinr_target_db", 1e6,
     "sinr_target_db must give a positive, finite linear target, got 1000000.0"),
    ("power", PowerConfig, "tol_w", 0.0, "tol_w must be finite and > 0, got 0.0"),
    ("power", PowerConfig, "max_iters", 0, "max_iters must be >= 1, got 0"),
    ("stackelberg", StackelbergConfig, "lambda_points", 1, "lambda_points must be >= 2, got 1"),
    ("stackelberg", StackelbergConfig, "pair", -1, "stackelberg pair must be >= 0, got -1"),
    (None, OracleBudget, "max_assignments", 0, "oracle budget max_assignments must be >= 1"),
]


class TestSectionsCheckThemselves:
    """A section cannot be built with a value out of range, so no engine re-checks one."""

    @pytest.mark.parametrize(
        "section, cls, key, value, message",
        BAD_SECTION_VALUES,
        ids=[f"{row[1].__name__}-{row[2]}-{row[3]}" for row in BAD_SECTION_VALUES],
    )
    def test_bad_value_rejected_when_built(
        self, section, cls, key, value, message, tmp_path, capsys
    ):
        from d2dgames.cli import main

        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(cls(), **{key: value})
        if section is None:
            return
        experiment = next(e for e, reads in EXPERIMENTS.items() if section in reads.fields)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = {experiment}\n[{section}]\n{key} = {_fmt(value)}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: [{section}] {message}\n"
        assert not (tmp_path / "out").exists()


class TestSchemesAndSweep:
    SUMRATE = "sweep = 2\ndrops = 1\nm_cue = 2\n"
    CONTENT = (
        "experiment = content-distribution\ndrops = 1\n"
        "[content]\nn_d2d = 4\nk_seeds = 2\nm_cue = 2\nrounds = 1\n"
    )

    @pytest.mark.parametrize(
        "text, message",
        [
            (SUMRATE + "schemes = rica,bogus\n", "sumrate-vs-pairs .* got 'rica,bogus'"),
            ("schemes = coalition,rica\n" + CONTENT, "content-distribution .* 'coalition,rica'"),
            (SUMRATE + "schemes =\n", "sumrate-vs-pairs .* got ''"),
            (SUMRATE + "schemes = rica,rica\n", "sumrate-vs-pairs .* got 'rica,rica'"),
            ("sweep =\ndrops = 1\nm_cue = 2\n", "sweep must not be empty"),
        ],
        ids=["unknown", "other-experiment", "empty", "repeated", "empty-sweep"],
    )
    def test_rejected_at_load(self, text, message, tmp_path):
        from d2dgames.cli import main

        with pytest.raises(ConfigError, match=message):
            loads_config(text)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_subsets_in_any_order_accepted(self):
        assert loads_config("schemes = all_cellular,rica\n").schemes == ("all_cellular", "rica")
        text = "experiment = content-distribution\nschemes = noncooperative\n"
        assert loads_config(text).schemes == ("noncooperative",)


_ALL_KEYS = [(section, key) for section, keys in _SECTIONS.items() for key in keys]
UNREAD = [
    (experiment, section, key)
    for experiment in EXPERIMENTS
    for section, key in _ALL_KEYS
    if not EXPERIMENTS[experiment].has(section, key)
]

# a small run of each experiment, in keys it reads
SMALL_RUNS = {
    "sumrate-vs-pairs": "sweep = 2\ndrops = 1\nm_cue = 2\n",
    "content-distribution": (
        "drops = 1\n[content]\nn_d2d = 4\nk_seeds = 2\nm_cue = 2\nrounds = 1\n"
    ),
    "power-control": "[power]\nmax_iters = 20\n",
    "stackelberg": "[stackelberg]\nlambda_points = 8\n",
    "oracle-check": "",
}


class _Recorder:
    """Hands a config's fields through and records the name of each one read."""

    def __init__(self, config):
        self._config = config
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._config, name)


class TestReadKeys:
    """Each experiment accepts exactly the keys its run reads."""

    def test_settable_keys_per_experiment(self):
        counts = {
            experiment: sum(reads.has(*key) for key in _ALL_KEYS)
            for experiment, reads in EXPERIMENTS.items()
        }
        assert counts == {
            "sumrate-vs-pairs": 21,
            "content-distribution": 21,
            "power-control": 17,
            "stackelberg": 16,
            "oracle-check": 12,
        }
        assert len(_ALL_KEYS) == 35 and len(UNREAD) == 88

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_table_is_what_the_run_reads(self, experiment):
        config = loads_config(f"experiment = {experiment}\n{SMALL_RUNS[experiment]}")
        recorder = _Recorder(config)
        run_experiment(recorder)
        names = {f.name for f in fields(ExperimentConfig)}
        assert recorder.read & names == set(EXPERIMENTS[experiment].fields)

    @pytest.mark.parametrize(
        "experiment, section, key", UNREAD, ids=["-".join(case) for case in UNREAD]
    )
    def test_unread_key_is_rejected(self, experiment, section, key, tmp_path, capsys):
        from d2dgames.cli import main

        defaults = ExperimentConfig()
        value = getattr(defaults if section == "harness" else getattr(defaults, section), key)
        text = (
            f"experiment = {experiment}\n{SMALL_RUNS[experiment]}"
            f"[{section}]\n{key} = {_fmt(value)}\n"
        )
        lineno = text.count("\n")  # the key is the last line
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(text)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: line {lineno}: {experiment} does not read key "
            f"{key!r} in section [{section}]\n"
        )
        assert not (tmp_path / "out").exists()

    def test_unread_key_is_named_before_a_bad_value(self):
        with pytest.raises(ConfigError, match=r"line 2: stackelberg does not read key 'drops'"):
            loads_config("experiment = stackelberg\ndrops = many\n")

    def test_experiment_may_follow_its_keys(self):
        config = loads_config("[power]\nplayers = 2\n[harness]\nexperiment = power-control\n")
        assert config.power.players == 2
        with pytest.raises(ConfigError, match="line 2: power-control does not read key 'rb'"):
            loads_config("[stackelberg]\nrb = 1\n[harness]\nexperiment = power-control\n")

    def test_validate_checks_only_read_keys(self):
        config = ExperimentConfig(experiment="stackelberg", drops=0, sweep=(-1,), schemes=("bogus",))
        assert config.validate() is config

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_effective_config_holds_the_read_keys(self, experiment, tmp_path):
        from d2dgames.cli import main

        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"experiment = {experiment}\n{SMALL_RUNS[experiment]}")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "effective_config.txt").read_text(encoding="utf-8")
        written, section = set(), None
        for line in text.splitlines():
            if line.startswith("["):
                section = line[1:-1]
            elif line:
                written.add((section, line.partition(" = ")[0]))
        assert written == {key for key in _ALL_KEYS if EXPERIMENTS[experiment].has(*key)}
        assert loads_config(text) == replace(load_config(str(cfg)), output_path=str(out))

    def test_small_cell_sumrate_ignores_the_content_hotspot(self, tmp_path):
        from d2dgames.cli import main

        # [content] hotspot_radius_m = 15 is wider than this cell, and a
        # sum-rate run never places a hotspot
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            f"{SMALL_RUNS['sumrate-vs-pairs']}[radio]\ncell_radius_m = 12\nmax_d2d_distance_m = 5\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "sumrate.csv").exists()
        with pytest.raises(ConfigError, match=r"\[content\] hotspot_radius_m"):
            loads_config(f"{CONTENT_RUN}[radio]\ncell_radius_m = 12\nmax_d2d_distance_m = 5\n")


class TestOneHome:
    """Each engine parameter is declared once, in its engine's section dataclass."""

    @pytest.mark.parametrize(
        "section, module", [
            (AuctionConfig, "d2dgames.auction"),
            (PowerConfig, "d2dgames.power_control"),
            (StackelbergConfig, "d2dgames.stackelberg"),
        ],
    )
    def test_section_lives_in_its_engine(self, section, module):
        assert section.__module__ == module
        assert section() == section()

    @pytest.mark.parametrize(
        "entry, section",
        [
            (auction_instance_from_radio, AuctionConfig),
            (run_auction, AuctionConfig),
            (power_game_from_radio, PowerConfig),
            (run_power_game, PowerConfig),
            (stackelberg_from_radio, StackelbergConfig),
        ],
        ids=lambda x: getattr(x, "__name__", None),
    )
    def test_entry_points_repeat_no_section_field(self, entry, section):
        shared = set(inspect.signature(entry).parameters) & {f.name for f in fields(section)}
        assert not shared, f"{entry.__name__} repeats {sorted(shared)} of {section.__name__}"


class TestReadme:
    def test_config_block_loads_to_the_defaults(self):
        blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        configs = [loads_config(block) for block in blocks]
        assert [config.experiment for config in configs] == list(EXPERIMENTS)
        for config in configs:
            expected = ExperimentConfig(experiment=config.experiment)
            assert replace(config, output_path="") == expected

    def test_quick_start_runs(self, capsys):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], str(README), "exec"), {})
        assert capsys.readouterr().out.count("\n") == 2
