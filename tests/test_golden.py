"""The command line's outputs against tests/golden/outputs.json.

Each row is the exit code and the digests of stdout and stderr of one argv
(tests/golden/make.py, which also says how to regenerate the file).  A few
rows also run as `python -m cubetact` under two hash seeds, so no output
depends on the order of a set or a dict of str.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_make", Path(__file__).resolve().parent / "golden" / "make.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    where = tmp_path_factory.mktemp("golden")
    golden.write_documents(where)
    return where


@pytest.fixture(scope="module")
def stored():
    return json.loads(golden.OUTPUTS.read_text(encoding="utf-8"))


def test_the_rows_are_the_argv_list(stored):
    """The file holds one row for each argv of make.rows(), in order, and
    the file is as make.py writes it."""
    assert list(stored) == [golden.key(argv) for argv in golden.rows()]
    assert golden.OUTPUTS.read_text(encoding="utf-8") == golden.dumps(stored)


def test_outputs_are_the_golden_rows(documents, stored):
    got = golden.compute(documents)
    moved = [k for k in stored if got.get(k) != stored[k]]
    assert not moved, f"{len(moved)} rows moved: " + "; ".join(
        f"{k}: {got.get(k)} != {stored[k]}" for k in moved)


@pytest.mark.parametrize("hash_seed", golden.HASH_SEEDS)
def test_outputs_do_not_depend_on_the_hash_seed(documents, stored, hash_seed):
    moved = [line for line in golden.SUBPROCESS
             if golden.run_subprocess(line, documents, hash_seed) != stored[line]]
    assert not moved, f"PYTHONHASHSEED={hash_seed} moved: {moved}"
