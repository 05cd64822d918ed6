"""The pipeline config grammar on random `key = value` lines.

A config either parses, or fails with a UsageError naming its line. What
parses then builds the experiments and the simulation and training configs,
which may fail only in the config classes' own checks (`__post_init__`), as
a ValueError: a value that does not parse never reaches them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from equirank.cli import (
    _PIPELINE_DEFAULTS,
    UsageError,
    _parse_experiment,
    _sim_config,
    _train_config,
    parse_pipeline_config,
)
from equirank.simgen import ARCHETYPES

_words = st.one_of(
    st.sampled_from(["", " ", "a", "x1", "=", ":", "-", "#", "1.5", "true", "nan", "1e999"]),
    st.integers(-3, 12).map(str),
    st.text(max_size=5),
)
_entries = st.one_of(
    st.builds(lambda n, c: f"{n}={c}", st.sampled_from([*ARCHETYPES, "chaotic", ""]),
              st.one_of(st.integers(-1, 8).map(str), _words)),
    st.integers(-1, 8).map(str),
    _words,
)
_lists = st.lists(_entries, max_size=4).map(",".join)
_experiments = st.lists(
    st.sampled_from(["baseline", "minmax", "normalization", "mehestan", "none",
                     "contrastive", "embeddings", "warp", ""]),
    min_size=1, max_size=3,
).map("+".join)
_values = st.one_of(
    _words, _lists, _experiments,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 10**6).map(str),
)


def _line(key):
    """`key = value`, the value mostly of the key's own kind, so that whole
    configs parse often enough for their later lines to be reached."""
    default = _PIPELINE_DEFAULTS.get(key)
    if isinstance(default, bool):
        kind = st.sampled_from(["true", "false", "True"])
    elif isinstance(default, int):
        kind = st.integers(-2, 50).map(str)
    elif isinstance(default, float):
        kind = st.floats(-1.0, 2.0).map(repr)
    elif key == "experiment":
        kind = _experiments
    elif key in ("archetypes", "group_sizes"):
        kind = _lists
    else:
        kind = _words
    return st.one_of(kind, kind, _values).map(lambda value: f"{key} = {value}")


_keys = st.sampled_from([*_PIPELINE_DEFAULTS, "experiment", "bogus", ""])
_lines = st.one_of(
    _keys.flatmap(_line),
    st.sampled_from(["", "# comment", "no separator"]),
)


@given(lines=st.lists(_lines, max_size=8))
@settings(max_examples=500, deadline=None)
def test_config_errors_are_usage_errors_or_config_checks(lines, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "grid.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        values, experiments = parse_pipeline_config(path)
    except UsageError as exc:
        assert "line " in str(exc)
        return
    try:
        for name in experiments:
            _parse_experiment(name)
        _sim_config(values)
        _train_config(values, contrastive=True, embeddings=True)
    except ValueError as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        assert tb.tb_frame.f_code.co_name == "__post_init__", f"{exc!r} from {tb.tb_frame}"
