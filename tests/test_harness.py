import math
import random

import numpy as np
import pytest

from d2dgames.config import ExperimentConfig, loads_config
from d2dgames.harness import (
    CSV_TABLES,
    PairedStats,
    oracle_check,
    rows_to_csv,
    run_experiment,
    summarize,
    t975,
)


def _small_sumrate_config(**kw):
    text = """
    experiment = sumrate-vs-pairs
    sweep = 2,3
    drops = 3
    master_seed = 5
    m_cue = 3
    """
    config = loads_config(text)
    from dataclasses import replace

    return replace(config, **kw) if kw else config


def _brute_force_paired(rows):
    """Paired stats by rescanning every (sweep, drop seed) cell for each sweep."""
    by_cell = {}
    for sweep, scheme, seed, value, *_ in rows:
        if not math.isnan(value):
            by_cell.setdefault((sweep, seed), {})[scheme] = float(value)
    schemes = sorted({scheme for cell in by_cell.values() for scheme in cell})
    paired = {}
    for sweep in sorted({sweep for sweep, _ in by_cell}):
        for i, a in enumerate(schemes):
            for b in schemes[i + 1:]:
                diffs = [
                    cell[a] - cell[b]
                    for (s, _), cell in by_cell.items()
                    if s == sweep and a in cell and b in cell
                ]
                if not diffs:
                    continue
                n = len(diffs)
                paired[(sweep, a, b)] = PairedStats(
                    mean_diff=float(np.mean(diffs)),
                    wins_a=sum(d > 0 for d in diffs),
                    wins_b=sum(d < 0 for d in diffs),
                    ties=sum(d == 0 for d in diffs),
                    count=n,
                    ci95=t975(n - 1) * float(np.std(diffs, ddof=1)) / math.sqrt(n)
                    if n >= 2 else None,
                )
    return paired


class TestSummarize:
    @pytest.mark.parametrize(
        "values_a, values_b",
        [([3], [1]), ([0.1], [0.3]), ([2.5, 1], [0.25, 4])],
        ids=["one-int", "one-float", "two"],
    )
    def test_paired_stats_bit_identical_to_numpy(self, values_a, values_b):
        rows = [(2, "a", i, v, 0, 0) for i, v in enumerate(values_a)]
        rows += [(2, "b", i, v, 0, 0) for i, v in enumerate(values_b)]
        st = summarize(rows)[1][(2, "a", "b")]
        diffs = [float(x) - float(y) for x, y in zip(values_a, values_b)]
        n = len(diffs)
        assert float.hex(st.mean_diff) == float.hex(float(np.mean(diffs)))
        assert type(st.mean_diff) is float and st.count == n
        if n == 1:
            assert st.ci95 is None
        else:
            want = t975(n - 1) * float(np.std(diffs, ddof=1)) / math.sqrt(n)
            assert float.hex(st.ci95) == float.hex(want)

    @pytest.mark.parametrize("seed", range(6))
    def test_stats_match_per_group_numpy(self, seed):
        # mixed group lengths, groups of one value and skipped NaN rows
        rng = random.Random(100 + seed)
        rows = []
        for sweep in range(6):
            for drop in range(rng.choice([1, 1, 2, 3, 7, 40])):
                for scheme in ("a", "b", "c"):
                    value = rng.choice([rng.uniform(-5, 5), rng.uniform(0, 1e6), math.nan])
                    rows.append((sweep, scheme, drop, value, 0, 0))
        groups, paired = summarize(rows)
        kept = [row for row in rows if not math.isnan(row[3])]
        assert len(kept) < len(rows)
        lengths = set()
        for (sweep, scheme), st in groups.items():
            values = [row[3] for row in kept if row[:2] == (sweep, scheme)]
            lengths.add(len(values))
            assert st.count == len(values)
            assert float.hex(st.mean) == float.hex(float(np.mean(values)))
            want = 0.0 if len(values) == 1 else float(np.std(values, ddof=1))
            assert float.hex(st.stddev) == float.hex(want)
        assert 1 in lengths and len(lengths) > 2
        for (sweep, a, b), st in paired.items():
            cells = {}
            for row in kept:
                if row[0] == sweep:
                    cells.setdefault(row[2], {})[row[1]] = row[3]
            diffs = [c[a] - c[b] for c in cells.values() if a in c and b in c]
            n = len(diffs)
            assert float.hex(st.mean_diff) == float.hex(float(np.mean(diffs)))
            if n == 1:
                assert st.ci95 is None
            else:
                want = t975(n - 1) * float(np.std(diffs, ddof=1)) / math.sqrt(n)
                assert float.hex(st.ci95) == float.hex(want)

    def test_single_row_flagged(self):
        groups, _ = summarize([(2, "rica", 111, 5.0, 0, 0)])
        st = groups[(2, "rica")]
        assert st.mean == 5.0
        assert st.stddev == 0.0
        assert st.count == 1

    def test_two_rows_mean_and_sample_stddev(self):
        rows = [(2, "rica", 1, 2.0, 0, 0), (2, "rica", 2, 4.0, 0, 0)]
        groups, _ = summarize(rows)
        st = groups[(2, "rica")]
        assert st.mean == pytest.approx(3.0)
        assert st.stddev == pytest.approx(math.sqrt(2.0))
        assert st.count == 2

    def test_permutation_invariance(self):
        rows = [
            (2, "rica", 1, 2.0, 0, 0),
            (2, "random", 1, 1.0, 0, 0),
            (2, "rica", 2, 4.0, 0, 0),
            (2, "random", 2, 5.0, 0, 0),
        ]
        a = summarize(rows)
        b = summarize(list(reversed(rows)))
        assert a == b

    def test_paired_stats(self):
        rows = [
            (2, "a", 1, 2.0, 0, 0),
            (2, "b", 1, 1.0, 0, 0),
            (2, "a", 2, 1.0, 0, 0),
            (2, "b", 2, 3.0, 0, 0),
            (2, "a", 3, 2.0, 0, 0),
            (2, "b", 3, 2.0, 0, 0),
        ]
        _, paired = summarize(rows)
        st = paired[(2, "a", "b")]
        assert st.count == 3
        assert st.wins_a == 1
        assert st.wins_b == 1
        assert st.ties == 1
        assert st.mean_diff == pytest.approx((1.0 - 2.0 + 0.0) / 3)

    def test_paired_ci95_is_the_paired_t_half_width(self):
        values_a = [2.0, 1.0, 2.0, 5.5, 0.25]
        values_b = [1.0, 3.0, 2.0, 2.5, 1.0]
        rows = [(2, "a", i, v, 0, 0) for i, v in enumerate(values_a)]
        rows += [(2, "b", i, v, 0, 0) for i, v in enumerate(values_b)]
        _, paired = summarize(rows)
        diffs = [x - y for x, y in zip(values_a, values_b)]
        mean = sum(diffs) / 5
        sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / 4)
        # t quantile 0.975 at 4 degrees of freedom
        assert paired[(2, "a", "b")].ci95 == pytest.approx(2.776 * sd / math.sqrt(5), rel=1e-12)
        _, paired = summarize(rows[:1] + rows[5:6])
        assert paired[(2, "a", "b")].count == 1 and paired[(2, "a", "b")].ci95 is None

    def test_t_table_reads_the_smaller_tabulated_df(self):
        assert t975(1) == 12.706 and t975(30) == 2.042
        assert t975(49) == t975(40) == 2.021
        assert t975(10**6) == 1.962
        stats = pytest.importorskip("scipy.stats")
        for df in [*range(1, 31), 40, 50, 60, 80, 100, 120, 200, 500, 1000]:
            assert t975(df) == pytest.approx(float(stats.t.ppf(0.975, df)), abs=5e-4)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_pairing(self, seed):
        rng = random.Random(seed)
        schemes = ["rica", "random", "all_cellular", "x"][: rng.randint(1, 4)]
        rows = []
        for _ in range(rng.randint(0, 200)):
            value = rng.choice([rng.uniform(-5, 5), float(rng.randint(0, 2)), math.nan])
            rows.append((rng.randint(0, 6), rng.choice(schemes), rng.randint(0, 9), value, 0, 0))
        _, paired = summarize(rows)
        want = _brute_force_paired(rows)
        assert list(paired) == list(want)
        assert paired == want

    def test_nan_rows_excluded(self):
        rows = [(2, "a", 1, float("nan"), 0, 0), (2, "a", 2, 4.0, 0, 0)]
        groups, _ = summarize(rows)
        assert groups[(2, "a")].count == 1


class TestGroupOrder:
    """Groups are summarized in numeric order of sweep point and round, and printed
    in that order; content prints its last round only."""

    CONFIGS = {
        "sumrate": "experiment = sumrate-vs-pairs\nsweep = 10,2,3\ndrops = 1\nm_cue = 2\n"
        "schemes = random,all_cellular\n",
        "content": "experiment = content-distribution\ndrops = 1\n[content]\n"
        "n_d2d = 4\nk_seeds = 2\nm_cue = 2\nrounds = 11\n",
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_numeric_order(self, name, tmp_path, capsys):
        from d2dgames.cli import main

        summary = run_experiment(loads_config(self.CONFIGS[name]))
        keys = list(summary.groups)
        assert keys == sorted(keys) and keys[-1][0] >= 10
        if name == "content":
            keys = [key for key in keys if key[0] == keys[-1][0]]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIGS[name])
        assert main(["run", "--config", str(cfg)]) == 0
        printed = [
            line.strip().split(":")[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  (")
        ]
        assert printed == [str(k) for k in keys]


class TestPairedPrint:
    """The CLI prints one line per paired scheme comparison; content only at its last round."""

    @pytest.mark.parametrize("name", sorted(TestGroupOrder.CONFIGS))
    def test_one_line_per_pair(self, name, tmp_path, capsys):
        from d2dgames.cli import main

        text = TestGroupOrder.CONFIGS[name]
        paired = run_experiment(loads_config(text)).paired
        if name == "content":
            last = max(sweep for sweep, _, _ in paired)
            paired = {key: st for key, st in paired.items() if key[0] == last}
        assert paired
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == 0
        printed = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("  paired ")
        ]
        assert printed == [
            f"  paired {sweep} {a}-{b}: mean_diff={st.mean_diff:.4f} "
            f"ci95={'n/a' if st.ci95 is None else f'±{st.ci95:.4f}'} "
            f"wins={st.wins_a}:{st.wins_b} ties={st.ties} n={st.count}"
            for (sweep, a, b), st in paired.items()
        ]

    def test_half_width_printed_with_two_drops(self, tmp_path, capsys):
        from d2dgames.cli import main

        text = TestGroupOrder.CONFIGS["sumrate"].replace("drops = 1", "drops = 2")
        paired = run_experiment(loads_config(text)).paired
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert [st.count for st in paired.values()] == [2, 2, 2]
        for (sweep, a, b), st in paired.items():
            assert f"  paired {sweep} {a}-{b}: mean_diff={st.mean_diff:.4f} ci95=±" in out


def _fmt_cell_rows_to_csv(header, rows):
    """The writer that formatted each cell alone, floats by ``repr``."""
    lines = [",".join(header)]
    lines.extend(
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows
    )
    return "\n".join(lines) + "\n"


class TestRowsToCsv:
    def test_matches_the_cell_by_cell_writer(self):
        rows = [
            (0, "rica", -0.0, float("nan"), float("inf"), -float("inf")),
            (-7, "all_cellular", 5e-324, 1e16, 0.1 + 0.2, 2**70),
            (3, "", 1.0, 0.0, -1e-300, 123456789.123456789),
        ]
        header = ("a", "b", "c", "d", "e", "f")
        assert rows_to_csv(header, rows) == _fmt_cell_rows_to_csv(header, rows)
        assert rows_to_csv(header, []) == "a,b,c,d,e,f\n"

    def test_list_rows_numpy_scalar_and_bool_cells(self):
        # numpy scalars and bools are not what the engines emit, but the writer
        # gives them the bytes of the cell-by-cell writer
        rows = [
            [1, "x", 0.25, np.int64(-3)],
            (np.float32(0.1), np.int32(7), True, False),
            [np.bool_(True), np.uint8(200), -0.0, ""],
        ]
        header = ("a", "b", "c", "d")
        assert rows_to_csv(header, rows) == _fmt_cell_rows_to_csv(header, rows)
        assert rows_to_csv(("a",), [[1.5], (2,)]) == "a\n1.5\n2\n"
        # a numpy float64 is a float whose repr names its type; it is written by str
        cells = (np.float64(0.1), np.float64(1e-300))
        assert rows_to_csv(("a", "b"), [cells]) == "a,b\n0.1,1e-300\n"

    @pytest.mark.parametrize("length", [2, 4])
    def test_ragged_row_raises_naming_index_and_lengths(self, length):
        rows = [(1, 2.0, "x"), (3, 4.0, "y"), tuple(range(length))]
        with pytest.raises(ValueError, match=f"row 2 has {length} cells, the header 3"):
            rows_to_csv(("a", "b", "c"), rows)

    @pytest.mark.parametrize(
        "text",
        [
            "experiment = sumrate-vs-pairs\nsweep = 2,3\ndrops = 2\nm_cue = 2\n",
            "experiment = content-distribution\ndrops = 2\n[content]\nrounds = 3\n",
            "experiment = power-control\n[power]\nplayers = 3\n",
            "experiment = stackelberg\n[stackelberg]\nlambda_points = 40\n",
        ],
        ids=["sumrate", "content", "power", "stackelberg"],
    )
    def test_rows_hold_only_python_int_str_and_float(self, text):
        # a numpy scalar is written differently by str and by repr
        summary = run_experiment(loads_config(text))
        assert summary.rows
        assert {type(v) for row in summary.rows for v in row} <= {int, str, float}


class TestSumrateExperiment:
    def test_row_count_and_schema(self):
        config = _small_sumrate_config()
        summary = run_experiment(config)
        _, header = CSV_TABLES["sumrate-vs-pairs"]
        assert all(len(row) == len(header) for row in summary.rows)
        # drops x sweep points x schemes
        assert len(summary.rows) == 3 * 2 * 3
        assert not summary.errors

    def test_single_drop_single_scheme_row_count(self):
        config = _small_sumrate_config(drops=1, schemes=("random",))
        summary = run_experiment(config)
        assert len(summary.rows) == 2  # one row per sweep point

    def test_paired_design_same_seed_per_cell(self):
        summary = run_experiment(_small_sumrate_config())
        by_cell = {}
        for n_pairs, scheme, seed, *_ in summary.rows:
            by_cell.setdefault((n_pairs, scheme), []).append(seed)
        seeds = {k: tuple(v) for k, v in by_cell.items()}
        assert seeds[(2, "rica")] == seeds[(2, "random")] == seeds[(2, "all_cellular")]

    def test_deterministic_rows(self):
        a = run_experiment(_small_sumrate_config())
        b = run_experiment(_small_sumrate_config())
        assert a.rows == b.rows

    def test_csv_written_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_experiment(_small_sumrate_config(output_path=str(out_a)))
        run_experiment(_small_sumrate_config(output_path=str(out_b)))
        csv_a = (out_a / "sumrate.csv").read_bytes()
        csv_b = (out_b / "sumrate.csv").read_bytes()
        assert csv_a == csv_b
        assert csv_a.startswith(b"n_pairs,scheme,drop_seed,sum_rate_bps_hz,rounds,valuation_calls\n")
        config_echo = (out_a / "effective_config.txt").read_text()
        assert loads_config(config_echo) is not None


class TestContentExperiment:
    def test_rows_and_determinism(self):
        text = """
        experiment = content-distribution
        drops = 2
        master_seed = 3
        [content]
        n_d2d = 6
        k_seeds = 2
        m_cue = 2
        file_packets = 80
        rounds = 4
        """
        config = loads_config(text)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.rows == b.rows
        # per drop and scheme: rounds+1 rows
        assert len(a.rows) == 2 * 2 * 5
        for row in a.rows:
            assert len(row) == len(CSV_TABLES["content-distribution"][1])

    def test_failed_drop_is_a_nan_row_outside_the_statistics(self, monkeypatch):
        from d2dgames import coalition

        switch = coalition.run_switch_dynamics
        calls = []

        def failing_on_second_drop(*args, **kw):
            calls.append(None)
            if len(calls) > 2:  # two rounds per drop
                raise RuntimeError("switch dynamics failed on purpose")
            return switch(*args, **kw)

        monkeypatch.setattr(coalition, "run_switch_dynamics", failing_on_second_drop)
        config = loads_config(
            "experiment = content-distribution\ndrops = 2\n[content]\nrounds = 2\n"
        )
        summary = run_experiment(config)
        assert len(summary.errors) == 1
        failed = [row for row in summary.rows if row[1] == "coalition" and math.isnan(row[3])]
        assert len(failed) == 1 and failed[0][0] == 0 and math.isnan(failed[0][4])
        st = summary.groups[(0, "coalition")]
        assert (st.mean, st.count) == (2000.0, 1)
        assert summary.groups[(0, "noncooperative")].count == 2

    def test_failed_channel_draw_fails_every_scheme(self, monkeypatch):
        from d2dgames import coalition

        def failing_draw(*args, **kw):
            raise RuntimeError("gain draw failed on purpose")

        monkeypatch.setattr(coalition, "draw_content_gains", failing_draw)
        config = loads_config(
            "experiment = content-distribution\ndrops = 2\n[content]\nrounds = 2\n"
        )
        summary = run_experiment(config)
        assert [row[:2] for row in summary.rows] == [(0, "coalition"), (0, "noncooperative")] * 2
        assert all(math.isnan(row[3]) and math.isnan(row[4]) for row in summary.rows)
        assert summary.errors[1] == "drop=0 scheme=noncooperative: gain draw failed on purpose"
        assert len(summary.errors) == 4 and summary.groups == {}

    def test_surviving_scheme_rows_equal_a_run_of_that_scheme_alone(self, monkeypatch):
        from d2dgames import coalition

        text = "experiment = content-distribution\ndrops = 2\n[content]\nrounds = 3\n"
        alone = run_experiment(loads_config("schemes = coalition\n" + text))

        def failing_baseline(*args, **kw):
            raise RuntimeError("baseline failed on purpose")

        monkeypatch.setattr(coalition, "noncooperative_baseline", failing_baseline)
        summary = run_experiment(loads_config(text))
        coop = [row for row in summary.rows if row[1] == "coalition"]
        _, header = CSV_TABLES["content-distribution"]
        assert rows_to_csv(header, coop) == rows_to_csv(header, alone.rows)
        selfish = [row for row in summary.rows if row[1] == "noncooperative"]
        assert [row[0] for row in selfish] == [0, 0] and all(math.isnan(r[3]) for r in selfish)
        assert summary.errors == [
            f"drop={d} scheme=noncooperative: baseline failed on purpose" for d in (0, 1)
        ]

    def test_failure_no_scheme_repeats_alone_is_raised(self, monkeypatch):
        from d2dgames import coalition

        draw, calls = coalition.draw_content_gains, []

        def failing_once(*args, **kw):
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("gain draw failed once")
            return draw(*args, **kw)

        monkeypatch.setattr(coalition, "draw_content_gains", failing_once)
        text = "experiment = content-distribution\ndrops = 1\n[content]\nrounds = 2\n"
        with pytest.raises(RuntimeError, match="^gain draw failed once$"):
            run_experiment(loads_config(text))
        assert len(calls) == 1 + 2 * 2  # the lockstep call, then each scheme alone


class TestPowerAndStackelbergExperiments:
    def test_power_rows(self):
        config = loads_config("experiment = power-control\n[power]\nplayers = 3\n")
        summary = run_experiment(config)
        iters = {row[0] for row in summary.rows}
        players = {row[1] for row in summary.rows}
        assert players == {0, 1, 2}
        assert 0 in iters
        # powers stay within bounds
        assert all(0.0 <= row[2] <= config.radio.p_d2d_w + 1e-12 for row in summary.rows)

    def test_stackelberg_rows(self):
        config = loads_config(
            "experiment = stackelberg\n[stackelberg]\nlambda_points = 50\n"
        )
        summary = run_experiment(config)
        assert len(summary.rows) == 50
        lams = [row[0] for row in summary.rows]
        assert lams == sorted(lams)
        # follower power non-increasing in price
        ps = [row[1] for row in summary.rows]
        assert all(b <= a + 1e-12 for a, b in zip(ps, ps[1:]))


class TestOracleCheck:
    def test_all_checks_pass(self):
        config = loads_config("experiment = oracle-check\n")
        summary = run_experiment(config)
        assert summary.checks is not None
        assert summary.checks["all_passed"], summary.checks

    @pytest.mark.parametrize("direction", ["downlink", "uplink"])
    def test_all_checks_pass_in_both_link_directions(self, direction):
        config = loads_config(
            f"experiment = oracle-check\n[radio]\nlink_direction = {direction}\n"
        )
        summary = run_experiment(config)
        assert summary.checks["all_passed"], summary.checks

    def test_under_reporting_sum_rate_fails_auction_check(self, monkeypatch):
        # 0.999 x the true sum rate still lies below the exhaustive optimum;
        # only the agreement with the oracle's own recomputation catches it
        from d2dgames import radio

        true_sum_rate = radio.sum_rate
        monkeypatch.setattr(
            radio, "sum_rate", lambda *args, **kw: 0.999 * true_sum_rate(*args, **kw)
        )
        checks = oracle_check(ExperimentConfig())
        assert checks["auction_below_exhaustive_optimum"] is False
        assert not checks["all_passed"]

    def test_under_reporting_value_fn_fails_switch_check(self, monkeypatch):
        # 0.9 x every coalition value keeps the same moves and stays below the
        # exhaustive optimum; only the oracle's own score of the partition catches it
        from d2dgames import coalition

        true_make_value_fn = coalition.make_value_fn

        def scaled(rnd):
            value_fn = true_make_value_fn(rnd)
            return lambda anchor, members: 0.9 * value_fn(anchor, members)

        monkeypatch.setattr(coalition, "make_value_fn", scaled)
        checks = oracle_check(ExperimentConfig())
        assert checks["switch_stable_and_below_optimum"] is False
        assert not checks["all_passed"]

    @pytest.mark.parametrize("direction", ["downlink", "uplink"])
    def test_leader_payment_sign_flip_fails_stackelberg_check(self, monkeypatch, direction):
        # the flipped leader prices the follower out (p* = 0), where both
        # signs give the same value; only the oracle's score of the other
        # grid prices catches it
        from d2dgames import stackelberg

        def flipped(instance, lam, p_w):
            own = stackelberg._log2(
                1.0 + instance.p_c_w * instance.g_cc / (instance.sigma_w + p_w * instance.g_db)
            )
            return own - lam * p_w

        monkeypatch.setattr(stackelberg.StackelbergInstance, "leader_utility", flipped)
        config = loads_config(
            f"experiment = oracle-check\n[radio]\nlink_direction = {direction}\n"
        )
        checks = oracle_check(config)
        assert checks["stackelberg_equilibrium_verified"] is False
        assert not checks["all_passed"]


class TestCli:
    def test_print_defaults(self, capsys):
        from d2dgames.cli import main

        assert main(["print-defaults"]) == 0
        out = capsys.readouterr().out
        assert "[radio]" in out
        assert loads_config(out) == ExperimentConfig()

    def test_run_with_config(self, tmp_path, capsys):
        from d2dgames.cli import main

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = sumrate-vs-pairs\nsweep = 2\ndrops = 1\nm_cue = 2\n"
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "sumrate.csv").exists()
        assert (out_dir / "effective_config.txt").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        from d2dgames.cli import main

        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = nonsense\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2

    def test_failed_parse_leaves_the_next_call_working(self, tmp_path, capsys):
        from d2dgames.cli import _build_parser, main

        # the parser is built once per process, so a failed parse must not
        # leave state behind for the next call
        with pytest.raises(SystemExit) as exc:
            main(["run", "--seed", "not-a-number"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = sumrate-vs-pairs\nsweep = 2\ndrops = 1\nm_cue = 2\n"
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", "7", "--out", str(out_dir)]) == 0
        assert "master_seed = 7" in (out_dir / "effective_config.txt").read_text()
        assert main(["print-defaults"]) == 0
        args = _build_parser().parse_args(["run", "--config", str(cfg)])
        assert args.seed is None and args.out is None
        assert _build_parser() is _build_parser()

    def test_error_rows_exit_code(self, tmp_path, capsys, monkeypatch):
        from d2dgames import auction
        from d2dgames.cli import main

        def failing_auction(*args, **kw):
            raise RuntimeError("auction failed on purpose")

        monkeypatch.setattr(auction, "run_auction", failing_auction)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = sumrate-vs-pairs\nsweep = 2\ndrops = 1\nm_cue = 2\n"
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 4
        rows = (out_dir / "sumrate.csv").read_text().splitlines()[1:]
        rica = [row.split(",") for row in rows if row.split(",")[1] == "rica"]
        assert len(rica) == 1 and rica[0][3] == "nan"
        assert len(rows) == 3  # the other schemes still ran
        out = capsys.readouterr().out
        assert "errors (1):" in out
        assert "scheme=rica: auction failed on purpose" in out

    def test_non_terminating_auction_exit_code(self, tmp_path, capsys):
        from d2dgames.cli import main

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = sumrate-vs-pairs\nsweep = 4\ndrops = 2\nm_cue = 2\n"
            "[auction]\nmax_rounds = 1\n"
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 4
        rows = [row.split(",") for row in (out_dir / "sumrate.csv").read_text().splitlines()[1:]]
        assert len(rows) == 6
        assert [row[3:] for row in rows if row[1] == "rica"] == [["nan", "0", "0"]] * 2
        assert all(row[3] != "nan" for row in rows if row[1] != "rica")
        out = capsys.readouterr().out
        assert "errors (2):" in out
        assert out.count("scheme=rica: auction hit max_rounds=1 without terminating") == 2

    def test_failed_oracle_check_exit_code(self, tmp_path, capsys, monkeypatch):
        from d2dgames import radio
        from d2dgames.cli import main

        true_sum_rate = radio.sum_rate
        monkeypatch.setattr(
            radio, "sum_rate", lambda *args, **kw: 0.999 * true_sum_rate(*args, **kw)
        )
        assert main(["oracle-check"]) == 3
        cfg = tmp_path / "check.cfg"
        cfg.write_text("experiment = oracle-check\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 3
        assert '"all_passed": false' in capsys.readouterr().out
        assert '"all_passed": false' in (out_dir / "oracle_check.json").read_text()

    @pytest.mark.parametrize("text", [
        "experiment = sumrate-vs-pairs\nsweep = 2\ndrops = 1\nm_cue = 2\n",
        "experiment = content-distribution\ndrops = 1\n[content]\nn_d2d = 4\nrounds = 3\n",
        "experiment = power-control\n[power]\nplayers = 3\n",
        "experiment = stackelberg\n[stackelberg]\nlambda_points = 20\n",
        "experiment = oracle-check\n",
    ])
    def test_rerun_into_the_same_directory_writes_the_same_bytes(self, text, tmp_path):
        from d2dgames.cli import main

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)

        def run(out_dir):
            main(["run", "--config", str(cfg), "--out", str(out_dir)])
            return {path.name: path.read_bytes() for path in out_dir.iterdir()}

        out_dir = tmp_path / "out"
        first = run(out_dir)
        assert len(first) == 2
        assert run(out_dir) == first
        for name, data in first.items():  # longer files under the same names
            (out_dir / name).write_bytes(data + b"stale tail\n" * 100)
        assert run(out_dir) == first
