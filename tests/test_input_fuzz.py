"""The pipeline config and model readers on any bytes, through `cli.main`.

Every input either runs, or exits with 2 (config) or 1 (model) and one
stderr line that names the file: never a traceback.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirank import cli
from equirank.dataset import FeatureTable, write_comparisons, write_features
from row_view import comparison_set

_MODEL = json.dumps(
    {"dim": 2, "w": [1.0, -0.5], "user_offsets": {"u0": [0.0, 0.25]}}, indent=2
).encode()
_MODEL_PIECES = [
    b"[", b"]", b"{", b"}", b'"', b",", b":", b"NaN", b"-Infinity", b"1e400", b"1" + b"0" * 400,
    b"9" * 5000, b"[" * 3000, b"null", b"true", b"0", b'"dim"', b'"w"', b"\\u", b"\\ud800",
    b"\xff", b"\xc3\xa9", b"\n", b"\r", b" ",
]
_CONFIG = b"seed = 3\nusers = 4\nexperiment = minmax+contrastive\n"
_CONFIG_PIECES = [
    b"=", b"#", b"+", b",", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x1e", b"\xc2\x85",
    b"\xe2\x80\xa8", b"\xe2\x80\xa9", b"\x85", b"\xff", b"\0", b" ", b"users", b"seed",
    b"experiment", b"mehestan", b"embeddings", b"archetypes", b"neutral=", b"group_sizes",
    b"train_fraction", b"opposed_groups", b"true", b"1", b"-3", b"0.5", b"1e999", b"nan",
    b"9" * 5000,
]


def _bytes(valid, pieces):
    """Arbitrary bytes and sampled pieces, alone or in place of a slice of a
    valid document."""
    noise = st.lists(
        st.one_of(st.sampled_from(pieces), st.binary(max_size=8)), max_size=12
    ).map(b"".join)
    spliced = st.tuples(
        st.integers(0, len(valid)), st.integers(0, len(valid)), noise
    ).map(lambda t: valid[: min(t[:2])] + t[2] + valid[max(t[:2]) :])
    return st.one_of(st.binary(max_size=64), noise, spliced)


def _main(argv):
    """(exit code, stderr) of one run of `cli.main`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def audit_inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("audit")
    rng = np.random.default_rng(3)
    rows = [(f"u{k % 2}", "g", f"i{k % 6}", f"i{(k + 1) % 6}", 0.5) for k in range(12)]
    write_comparisons(comparison_set(rows), folder / "test.csv")
    write_features(FeatureTable(tuple(f"i{k}" for k in range(6)), rng.normal(size=(6, 2))),
                   folder / "features.csv")
    return folder


@given(data=_bytes(_MODEL, _MODEL_PIECES))
@settings(max_examples=200, deadline=None)
def test_any_model_bytes_run_or_exit_1_naming_the_file(data, audit_inputs, tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "model.json"
    model.write_bytes(data)
    code, err = _main(["audit", "--model", str(model), "--test", str(audit_inputs / "test.csv"),
                       "--features", str(audit_inputs / "features.csv"),
                       "-o", str(model.parent / "out")])
    if code == 0:
        return
    assert code == 1, err
    assert err.startswith(f"equirank: {model}: ") and err.count("\n") == 1, err


class _Parsed(Exception):
    """Raised where the pipeline would start simulating: the config was read."""


def _parsed(values):
    raise _Parsed


@given(data=_bytes(_CONFIG, _CONFIG_PIECES))
@settings(max_examples=300, deadline=None)
def test_any_config_bytes_parse_or_exit_2_naming_the_file(data, tmp_path_factory):
    config = tmp_path_factory.mktemp("config") / "grid.cfg"
    config.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        # What a config's values do to the run is not the reader's concern.
        mp.setattr(cli, "_sim_config", _parsed)
        try:
            code, err = _main(["pipeline", "--config", str(config),
                               "-o", str(config.parent / "out")])
        except _Parsed:
            return
    assert code == 2, err
    assert err.startswith(f"equirank: {config}: ") and err.count("\n") == 1, err
