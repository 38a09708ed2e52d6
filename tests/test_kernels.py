"""The verdicts of `tests/kernels.py` on one kernel's pytest run, with
`subprocess.run` replaced, so no process starts."""

import signal
import subprocess

import pytest

import kernels


@pytest.mark.parametrize("code, report, failed", [
    (-signal.SIGILL, "cannot run here", False),
    (1, "fail (kernel Haswell; 1 failed, 2 passed in 0.50s)", True),
    (0, "pass (kernel Haswell; 3 passed in 0.50s)", False)])
def test_run_kernel_verdicts(monkeypatch, code, report, failed):
    kernels_forced = []

    def fake_run(args, **kwargs):
        kernels_forced.append(kwargs["env"]["OPENBLAS_CORETYPE"])
        if args[1] == "-c":  # the probe
            return subprocess.CompletedProcess(args, 0, stdout="kernel Haswell\n")
        summary = "3 passed" if code == 0 else "1 failed, 2 passed"
        return subprocess.CompletedProcess(args, code, stdout=f"{summary} in 0.50s\n")

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert kernels.run_kernel("Haswell") == (report, failed)
    assert kernels_forced == ["Haswell", "Haswell"]
