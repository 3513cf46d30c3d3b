import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest

from d2dgames.coalition import ContentScenario
from d2dgames.config import (
    ConfigError,
    ExperimentConfig,
    _schema,
    dump_config,
    load_config,
    loads_config,
)

README = Path(__file__).resolve().parent.parent / "README.md"

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

[content]
n_d2d = 20
k_seeds = 4
m_cue = 6
file_packets = 500
packets_per_rate_unit = 10.0
rounds = 50
hotspot_radius_m = 15.0

[power]
players = 4
sinr_target_db = 10.0
tol_w = 1e-09
max_iters = 1000

[stackelberg]
lambda_points = 2000
pair = 0
rb = 0
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
        with pytest.raises(ConfigError, match=message):
            loads_config(f"[content]\n{line}\n")

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
        with pytest.raises(ConfigError, match="hotspot_radius_m"):
            loads_config(f"[content]\nhotspot_radius_m = {radius}\n")

    def test_hotspot_radius_up_to_cell_radius_accepted(self):
        config = loads_config("[radio]\ncell_radius_m = 300\n[content]\nhotspot_radius_m = 300\n")
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
            loads_config(f"[stackelberg]\n{line}\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = stackelberg\n[stackelberg]\nlambda_points = 8\n{line}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

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

    @pytest.mark.parametrize(
        "cls, where", [(_ListRoot, "_ListSection.values"), (_ComplexRoot, "_ComplexRoot.z")]
    )
    def test_field_without_parser_is_an_error(self, cls, where):
        with pytest.raises(TypeError, match=rf"{where}: no config parser"):
            _schema(cls)

    def test_content_section_is_the_content_scenario(self):
        config = loads_config("[content]\nrounds = 7\nhotspot_radius_m = 20\n")
        assert config.content == ContentScenario(rounds=7, hotspot_radius_m=20.0)

    def test_zero_rounds_rejected(self, tmp_path):
        from d2dgames.cli import main

        with pytest.raises(ValueError, match="rounds must be >= 1, got 0"):
            ContentScenario(rounds=0).validate()
        with pytest.raises(ConfigError, match="rounds must be >= 1, got 0"):
            loads_config("[content]\nrounds = 0\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = content-distribution\ndrops = 1\n[content]\nrounds = 0\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


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

    def test_schemes_unchecked_where_unused(self):
        assert loads_config("experiment = stackelberg\nsweep =\n").sweep == ()


class TestReadme:
    def test_config_block_loads_to_the_defaults(self):
        blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        config = loads_config(blocks[0])
        assert replace(config, output_path="") == ExperimentConfig()
