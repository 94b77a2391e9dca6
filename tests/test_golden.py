"""Golden bundle corpus: every config in ``golden/manifest.json`` must still
produce its committed bundle.

Text is split into number tokens and the text between them. The text must
match exactly, and so must integer tokens (counts, labels, flags written as
digits); float tokens must agree to 1e-12. When the running numpy is the
version that wrote the corpus the files must also match byte for byte,
which catches what the token comparison allows, such as ``-0.0`` written
for ``0.0``. Bundle bytes may differ across numpy and BLAS builds, so the
byte test reports itself skipped, naming both numpy versions, elsewhere.
Each config runs once; both tests read its cached bundle. Regenerate with
``PYTHONPATH=src python tests/golden/regenerate.py``.
"""
import functools
import json
import pathlib
import re
import tempfile

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


@functools.cache
def bundle(name: str) -> dict[str, bytes]:
    """File name -> bytes of the bundle that config ``name`` writes now."""
    config = ExperimentConfig.from_dict(MANIFEST["configs"][name])
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(config).write(tmp, config.formats)
        return {p.name: p.read_bytes() for p in pathlib.Path(tmp).iterdir()}


@pytest.mark.parametrize("name", sorted(MANIFEST["configs"]))
def test_bundle_matches_golden(name):
    got = bundle(name)
    want_dir = GOLDEN / name
    assert sorted(got) == sorted(p.name for p in want_dir.iterdir())
    for fname in sorted(got):
        problem = token_mismatch(got[fname].decode(), (want_dir / fname).read_bytes().decode())
        assert problem is None, f"{name}/{fname}: {problem}"


@pytest.mark.parametrize("name", sorted(MANIFEST["configs"]))
def test_bundle_bytes_match_golden(name):
    if np.__version__ != MANIFEST["numpy"]:
        pytest.skip(f"numpy {np.__version__} is running; the corpus bytes were "
                    f"written by numpy {MANIFEST['numpy']}")
    got = bundle(name)
    for fname in sorted(got):
        assert got[fname] == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname}: bytes differ"


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
