"""Every config the schema admits either runs or is rejected.

Configs are drawn from ``config._SECTIONS``, each from the keys its drawn
experiment reads: each size key from a small range so that every run stays
fast, then a few keys of any kind set to edge values (0, negative values,
+-4000, +-1e300, nan and inf for floats). A run must end in one of two ways:

- exit 2 with a ``config error:`` line;
- exit 0 or 4 without raising, where every error row names a documented limit.

A key of a type this file has no values for fails the test, so a key added
to the schema later is fuzzed too. A config that also sets one key its
experiment does not read must exit 2 naming that key.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path
from typing import get_type_hints

from hypothesis import given, settings
from hypothesis import strategies as st

from d2dgames import cli
from d2dgames.config import _SECTIONS, EXPERIMENTS, ExperimentConfig

# the experiments a run can take; oracle-check runs fixed instances and reads no size
RUNNABLE = tuple(e for e in EXPERIMENTS if e != "oracle-check")

# size keys: the range every config draws from, so that each run stays small
SIZES = {
    ("harness", "drops"): (1, 2),
    ("harness", "m_cue"): (1, 4),
    ("auction", "exact_cap"): (0, 6),
    ("auction", "max_rounds"): (1, 200),
    ("content", "n_d2d"): (1, 6),
    ("content", "k_seeds"): (1, 3),
    ("content", "m_cue"): (1, 3),
    ("content", "file_packets"): (1, 50),
    ("content", "rounds"): (1, 3),
    ("power", "players"): (0, 4),
    ("power", "max_iters"): (1, 50),
    ("stackelberg", "lambda_points"): (2, 40),
    ("stackelberg", "pair"): (0, 3),
}
SWEEP_RANGE = (0, 4)

EDGE_FLOATS = ["0", "-1", "4000", "-4000", "1e300", "-1e300", "nan", "inf", "-inf"]
EDGE_INTS = [-(2**63), -1, 0, 1, 2**64]
SCHEME_NAMES = sorted({s for reads in EXPERIMENTS.values() for s in reads.schemes or ()})

# error rows a run may write: each one a limit the README documents
DOCUMENTED_LIMITS = [re.compile(r"auction hit max_rounds=\d+ without terminating")]

_DEFAULTS = ExperimentConfig()


def _hint(section: str, key: str):
    cls = ExperimentConfig if section == "harness" else type(getattr(_DEFAULTS, section))
    return get_type_hints(cls)[key]


def _value_text(section: str, key: str, edge: bool) -> st.SearchStrategy[str]:
    """Config text of one key: a small size, or an edge value when ``edge``."""
    hint = _hint(section, key)
    if (section, key) in SIZES:
        lo, hi = SIZES[section, key]
        return st.integers(lo - 2 if edge else lo, hi).map(str)
    if key == "sweep":
        lo, hi = SWEEP_RANGE
        items = st.integers(lo - 1 if edge else lo, hi)
        return st.lists(items, min_size=0 if edge else 1, max_size=3).map(
            lambda xs: ",".join(map(str, xs))
        )
    if key == "experiment":
        return st.sampled_from(RUNNABLE + (("bogus",) if edge else ()))
    if key == "schemes":
        names = SCHEME_NAMES + (["bogus"] if edge else [])
        return st.lists(st.sampled_from(names), max_size=3).map(",".join)
    if key == "link_direction":
        return st.sampled_from(["downlink", "uplink"] + (["sideways"] if edge else []))
    if hint is float:
        return st.sampled_from(EDGE_FLOATS)
    if hint == float | None:
        return st.sampled_from(EDGE_FLOATS + ["auto"])
    if hint is int:
        return st.sampled_from(EDGE_INTS)
    raise AssertionError(f"no fuzz values for [{section}] {key} of type {hint!r}")


# output_path is replaced by --out
KEYS = [(s, k) for s, keys in _SECTIONS.items() for k in keys if k != "output_path"]

# experiment -> the keys of KEYS it reads
READ = {name: [key for key in KEYS if reads.has(*key)] for name, reads in EXPERIMENTS.items()}


def _text(values: dict[tuple[str, str], str]) -> str:
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for (s, k), v in values.items() if s == section)
    return "\n".join(lines) + "\n"


def _sized(draw, experiment: str) -> dict[tuple[str, str], str]:
    """The experiment's size keys and sweep at small values."""
    values = {("harness", "experiment"): experiment}
    for key in READ[experiment]:
        if key in SIZES or key == ("harness", "sweep"):
            values[key] = draw(_value_text(*key, edge=False))
    return values


@st.composite
def config_texts(draw) -> str:
    experiment = draw(_value_text("harness", "experiment", edge=False))
    values = _sized(draw, experiment)
    for key in draw(st.lists(st.sampled_from(READ[experiment]), max_size=4, unique=True)):
        values[key] = draw(_value_text(*key, edge=True))
    return _text(values)


@st.composite
def unread_key_texts(draw) -> tuple[str, str, str]:
    """(text, experiment, key): a small config plus one key its experiment does not read."""
    experiment = draw(_value_text("harness", "experiment", edge=False))
    values = _sized(draw, experiment)
    unread = [key for key in KEYS if key not in READ[experiment]]
    key = draw(st.sampled_from(unread))
    values[key] = draw(_value_text(*key, edge=draw(st.booleans())))
    return _text(values), experiment, key[1]


def _error_lines(stdout: str) -> list[str]:
    """The lines ``run`` prints under ``errors (n):``, one per error row."""
    lines = stdout.splitlines()
    head = next((i for i, line in enumerate(lines) if line.startswith("errors (")), None)
    if head is None:
        return []
    errors = []
    for line in lines[head + 1 :]:
        if not line.startswith("  "):
            break
        errors.append(line.strip())
    return errors


def test_every_key_has_fuzz_values():
    for key in KEYS:
        _value_text(*key, edge=True)
        _value_text(*key, edge=False)


def _run(text: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``run`` on ``text``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(text=config_texts())
def test_a_config_runs_or_is_rejected(text):
    code, out, err = _run(text)
    if code == 2:
        assert err.startswith("config error: "), (text, err)
        return
    assert code in (0, 4), (text, code, out)
    errors = _error_lines(out)
    assert bool(errors) == (code == 4), (text, out)
    for line in errors:
        assert any(limit.search(line) for limit in DOCUMENTED_LIMITS), (text, line)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=unread_key_texts())
def test_one_unread_key_is_rejected(case):
    text, experiment, key = case
    code, _, err = _run(text)
    assert code == 2, (text, code)
    assert re.match(rf"config error: line \d+: {experiment} does not read key {key!r}", err), (
        text, err
    )
