"""The persistent store's bytes, pinned.

One warm :class:`VersionHistoryRunner` run of the WBS history dumps its
summary cache into a new store file; the file's SHA-256 is pinned.  The
codec (``repro/parallel/serialize.py``) and the store's record layout
(``repro/parallel/store.py``) decide every byte, so a change to either
that moves them must also bump ``STORE_FORMAT`` and the ``v<format>`` in
CI's store cache keys (``.github/workflows/ci.yml``): a reader of the old
format must refuse the new bytes instead of misreading them.  Then
re-record the pin from a run of this test and say why.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.artifacts import wbs_artifact
from repro.evolution.history import VersionHistoryRunner
from repro.parallel.store import STORE_FORMAT

PINNED = (8, "573b5a810f4788f20c78952bc9ee5a90cabd9e9aee4c6dbe9c83feca29f36b69")


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def wbs_store(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("store") / "WBS.jsonl")
    report = VersionHistoryRunner(wbs_artifact(), store_path=path).run()
    assert report.cache["store_loaded"] == 0
    return path


def test_wbs_store_bytes_are_pinned(wbs_store):
    digest = hashlib.sha256(_read_bytes(wbs_store)).hexdigest()
    assert (STORE_FORMAT, digest) == PINNED, (
        "the WBS store's bytes moved: a codec or record-layout change must bump "
        "STORE_FORMAT and the v<format> of CI's store cache keys, then re-record "
        f"PINNED as {(STORE_FORMAT, digest)!r}"
    )


def test_a_resume_that_records_nothing_new_leaves_the_bytes(wbs_store):
    before = _read_bytes(wbs_store)
    report = VersionHistoryRunner(wbs_artifact(), store_path=wbs_store).run()
    assert report.cache["store_loaded"] == report.cache["store_dumped"]
    assert report.cache["store_skipped"] == 0
    assert _read_bytes(wbs_store) == before


_DIGEST_SCRIPT = r"""
import hashlib, sys
from repro.artifacts import wbs_artifact
from repro.evolution.history import VersionHistoryRunner

VersionHistoryRunner(wbs_artifact(), store_path=sys.argv[1]).run()
with open(sys.argv[1], "rb") as handle:
    print(hashlib.sha256(handle.read()).hexdigest())
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_the_pin_holds_under_any_string_hash_seed(tmp_path, hash_seed):
    """Nothing in the bytes may follow set or dict order of strings, which
    changes with the interpreter's hash seed."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src"))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, str(tmp_path / "WBS.jsonl")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (STORE_FORMAT, proc.stdout.strip()) == PINNED
