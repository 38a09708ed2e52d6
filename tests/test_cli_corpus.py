"""CLI byte-identity corpus.

Each ``cli_corpus/<name>.json`` is run through ``cli.main`` in-process, from
the repository root (dataset paths are relative to it), into a fresh output
directory.  ``cli_corpus/manifest.json`` holds, per config, the exit code,
stdout and stderr (the output directory written as ``OUT``) and the sha256 of
every artifact.  A change that keeps the CLI's output keeps every entry; a
change that alters an entry on purpose re-records that entry only, with

    PYTHONPATH=src python tests/test_cli_corpus.py NAME [NAME ...]

and lists it.  With no names every entry is recorded.  Warnings are errors
here as in the rest of the suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from host import hosts

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "cli_corpus"
MANIFEST = CORPUS / "manifest.json"


def corpus_names() -> list[str]:
    return sorted(path.stem for path in CORPUS.glob("*.json") if path != MANIFEST)


def run_entry(name: str, out: Path) -> dict:
    """Exit code, stdout, stderr and artifact digests of one config; the
    caller has made the repository root the working directory."""
    from shuffleopt.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", "--config", str(CORPUS / f"{name}.json"), "--out", str(out)])
    files = {} if not out.exists() else {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()}
    return {"exit": code, "stdout": stdout.getvalue().replace(str(out), "OUT"),
            "stderr": stderr.getvalue().replace(str(out), "OUT"), "files": files}


@pytest.mark.parametrize("name", corpus_names())
def test_cli_output_matches_manifest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))[name]
    assert run_entry(name, tmp_path / "out") == expected, hosts()


def test_manifest_covers_the_corpus():
    assert sorted(json.loads(MANIFEST.read_text(encoding="utf-8"))) == corpus_names()


def record(names: list[str]):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in names or corpus_names():
            manifest[name] = run_entry(name, Path(tmp) / name)
            print(f"{name}: exit {manifest[name]['exit']}, "
                  f"{len(manifest[name]['files'])} file(s)")
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    record(sys.argv[1:])
