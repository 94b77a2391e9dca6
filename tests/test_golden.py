"""Golden bundle corpus: every config in ``golden/manifest.json`` must still
produce its committed bundle.

Text is split into number tokens and the text between them. The text must
match exactly, and so must integer tokens (counts, labels, flags written as
digits); float tokens must agree to 1e-12. When the running numpy is the
version that wrote the corpus the files must also match byte for byte,
which catches what the token comparison allows, such as ``-0.0`` written
for ``0.0``. Bundle bytes may differ across numpy and BLAS builds, so the
byte check is skipped elsewhere. Regenerate with
``PYTHONPATH=src python tests/golden/regenerate.py``.
"""
import json
import pathlib
import re

import numpy as np
import pytest

from graphqec.runner import ExperimentConfig, run_experiment

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
FLOAT_ATOL = 1e-12
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _is_float(token: str) -> bool:
    return "." in token or "e" in token or "E" in token


def token_mismatch(got: str, want: str) -> str | None:
    """First difference under the corpus rules, or None."""
    got_text, want_text = _NUMBER.split(got), _NUMBER.split(want)
    if got_text != want_text:
        diff = next(i for i, (a, b) in enumerate(zip(got_text + [""], want_text + [""]))
                    if a != b)
        return f"text differs: {got_text[diff]!r} vs {want_text[diff]!r}"
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if _is_float(a) or _is_float(b):
            if not (_is_float(a) and _is_float(b)) or abs(float(a) - float(b)) > FLOAT_ATOL:
                return f"number {a} vs {b}"
        elif a != b:
            return f"integer {a} vs {b}"
    return None


@pytest.mark.parametrize("name", sorted(MANIFEST["configs"]))
def test_bundle_matches_golden(name, tmp_path):
    config = ExperimentConfig.from_dict(MANIFEST["configs"][name])
    run_experiment(config).write(tmp_path, config.formats)
    want_dir = GOLDEN / name
    got_files = sorted(p.name for p in tmp_path.iterdir())
    assert got_files == sorted(p.name for p in want_dir.iterdir())
    same_numpy = np.__version__ == MANIFEST["numpy"]
    for fname in got_files:
        got = (tmp_path / fname).read_bytes()
        want = (want_dir / fname).read_bytes()
        problem = token_mismatch(got.decode(), want.decode())
        assert problem is None, f"{name}/{fname}: {problem}"
        if same_numpy:
            assert got == want, f"{name}/{fname}: bytes differ"


@pytest.mark.parametrize("got, want, ok", [
    ("a,1,0.5\n", "a,1,0.5\n", True),
    ("a,1,0.5000000000001\n", "a,1,0.5\n", True),
    ("a,1,0.50000001\n", "a,1,0.5\n", False),
    ("a,2,0.5\n", "a,1,0.5\n", False),   # counts are exact
    ("a,1.0,0.5\n", "a,1,0.5\n", False),  # an integer may not turn into a float
    ("b,1,0.5\n", "a,1,0.5\n", False),
    ("a,1,0.5,7\n", "a,1,0.5\n", False),
    ('{"x": -0.0}', '{"x": 0.0}', True),  # left to the byte comparison
])
def test_token_comparison(got, want, ok):
    assert (token_mismatch(got, want) is None) == ok
