"""The engine version is a digest of the library's sources, and every
persistent cache key folds it in: editing any source byte retires every
cached result."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro
from repro.engine import cache as engine_cache
from repro.engine.compile import ENGINE_VERSION

PRINT_VERSION = "from repro.engine.compile import ENGINE_VERSION; print(ENGINE_VERSION)"


def _version_of(package_parent: Path) -> str:
    """ENGINE_VERSION as a fresh interpreter computes it for a package copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(package_parent)
    child = subprocess.run(
        [sys.executable, "-c", PRINT_VERSION],
        capture_output=True, text=True, env=env, check=True,
    )
    return child.stdout.strip()


def test_version_is_a_16_hex_digit_source_digest():
    assert len(ENGINE_VERSION) == 16
    int(ENGINE_VERSION, 16)


def test_one_changed_kernel_byte_changes_the_version(tmp_path):
    package = Path(repro.__file__).resolve().parent
    copy = tmp_path / "repro"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    # The digest covers relative paths, not the checkout location.
    assert _version_of(tmp_path) == ENGINE_VERSION

    source = copy / "engine" / "compile.py"
    data = bytearray(source.read_bytes())
    index = data.index(b"Kernel compiler")
    data[index] = ord("k")
    source.write_bytes(bytes(data))
    assert _version_of(tmp_path) != ENGINE_VERSION


def _all_keys(model) -> dict[str, str]:
    design = engine_cache.design_fingerprint(model)
    return {
        "campaign_cell_key": engine_cache.campaign_cell_key(design, "scenario"),
        "diagnosis_key": engine_cache.diagnosis_key(design, "scenario", {"spec": {}}),
        "diagnosis_key[log]": engine_cache.diagnosis_key(
            design, "scenario", {"spec": {}}, log_fp="log"
        ),
    }


def test_every_cache_key_changes_with_the_version(c17_model, monkeypatch):
    before = _all_keys(c17_model)
    assert before == _all_keys(c17_model)  # keys are deterministic
    monkeypatch.setattr(engine_cache, "ENGINE_VERSION", "edited-sources")
    after = _all_keys(c17_model)
    changed = {name for name in before if before[name] != after[name]}
    assert changed == set(before)

