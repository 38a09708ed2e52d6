"""The cells of `tests/kernels.py` and its verdicts on one cell's run, with
`subprocess.run` replaced, so no process starts; and that its test list
names tests that exist."""

import ast
import signal
import subprocess

import pytest

import kernels

OFF = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
CAP = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
MASK = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}
CELLS = {"numpy default x glibc default": {}, "numpy default x glibc -AVX2,-FMA": MASK,
         "numpy AVX-512 off x glibc default": OFF, "numpy AVX-512 off x glibc -AVX2,-FMA": OFF | MASK,
         "numpy X86_V2 x glibc default": CAP, "numpy X86_V2 x glibc -AVX2,-FMA": CAP | MASK,
         "OpenBLAS Prescott": {"OPENBLAS_CORETYPE": "Prescott"}}
FAILED = ("FAILED tests/test_optimizers.py::test_golden_trajectories_bitwise - AssertionError\n"
          "FAILED tests/test_cli_corpus.py::test_cli_output_matches_manifest[adam-softmax-accuracy]"
          " - AssertionError: recorded on: numpy 2.4.6\n2 failed, 1 passed in 0.50s\n")


@pytest.mark.parametrize("name", CELLS)
def test_each_cell_runs_under_its_settings_alone(monkeypatch, name):
    # a setting of the calling shell reaches no cell
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX512F")
    settings = []

    def fake_run(args, **kwargs):
        settings.append({k: v for k, v in kwargs["env"].items() if k in kernels.SETTINGS})
        return subprocess.CompletedProcess(args, 0, stdout="3 passed in 0.50s\n")

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert list(kernels.CELLS) == list(CELLS)
    kernels.run_cell(kernels.CELLS[name])
    assert settings == [CELLS[name]] * 2  # the bare import, then the tests


@pytest.mark.parametrize("imports, code, stdout, report, failed", [
    (-signal.SIGILL, 0, "", "cannot run here", False),
    (1, 0, "", "cannot run here", False),  # numpy refuses the setting
    (0, 0, "3 passed in 0.50s\n", "pass (3 passed in 0.50s)", False),
    (0, 1, FAILED, "fail (2 failed, 1 passed in 0.50s)\n"
     "    tests/test_optimizers.py::test_golden_trajectories_bitwise\n"
     "    tests/test_cli_corpus.py::test_cli_output_matches_manifest[adam-softmax-accuracy]", True)],
    ids=["sigill", "refused", "pass", "fail"])
def test_run_cell_verdicts(monkeypatch, imports, code, stdout, report, failed):
    runs = []

    def fake_run(args, **kwargs):
        runs.append(args[1])
        return subprocess.CompletedProcess(args, imports if args[1] == "-c" else code,
                                           stdout=stdout)

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert kernels.run_cell({}) == (report, failed)
    assert runs == (["-c"] if imports else ["-c", "-m"])  # no tests where numpy cannot load


@pytest.mark.parametrize("entry", kernels.TESTS)
def test_runner_lists_existing_tests(entry):
    path, _, name = entry.partition("::")
    assert (kernels.ROOT / path).is_file(), entry
    if name:
        tree = ast.parse((kernels.ROOT / path).read_text())
        assert name in [node.name for node in tree.body if isinstance(node, ast.FunctionDef)], entry
