"""Run the relational tests and every digest test under each OpenBLAS kernel
that can be forced.

    python tests/kernels.py

A relational test compares two paths, or two forms of one definition, under
one kernel, and no recorded number goes through BLAS or LAPACK, so every test
here should pass under every kernel.  ``OPENBLAS_CORETYPE`` acts only on the
process it is set for, so each kernel gets its own pytest process, one at a
time.  A kernel whose instructions this CPU lacks dies of SIGILL and is
reported as "cannot run here".  Prints one line per kernel and exits 1 when
any kernel fails.  pytest does not collect this file.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Prescott", "Nehalem")
TESTS = ("tests/test_platform.py", "tests/test_literal_methods.py", "tests/test_live_twin.py",
         "tests/test_config_outcomes.py", "tests/test_cli_corpus.py",
         "tests/test_optimizers.py::test_block_sweep_equals_row_steps_bitwise",
         "tests/test_optimizers.py::test_float_sweep_equals_row_steps_bitwise",
         "tests/test_optimizers.py::test_golden_trajectories_bitwise",
         "tests/test_objectives.py::test_softmax_row_logits_are_full_logits_bitwise",
         "tests/test_objectives.py::test_quadratic_component_value_is_full_value_term_bitwise",
         "tests/test_schedules.py::test_step_sizes_bitwise",
         "tests/test_diagnostics.py::test_bounds_bitwise",
         "tests/test_diagnostics.py::test_fit_rate_matches_polyfit")
# prints the kernel OpenBLAS runs, which may differ from the one forced
PROBE = ("import sys; sys.path.insert(0, 'tests'); from host import host; "
         "print(host().split('; ')[-2])")


def run_kernel(kernel: str) -> tuple[str, bool]:
    """What the kernel's run reports, and whether it failed."""
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel}
    probe = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                           capture_output=True, text=True)
    tests = subprocess.run([sys.executable, "-m", "pytest", "-q", *TESTS], cwd=ROOT, env=env,
                           capture_output=True, text=True)
    if tests.returncode == -signal.SIGILL:
        return "cannot run here", False
    lines = tests.stdout.strip().splitlines() or [f"exit {tests.returncode}"]
    verdict = "pass" if tests.returncode == 0 else "fail"
    return f"{verdict} ({probe.stdout.strip()}; {lines[-1]})", tests.returncode != 0


def main() -> int:
    failed = False
    for kernel in KERNELS:
        report, bad = run_kernel(kernel)
        print(f"{kernel}: {report}", flush=True)
        failed |= bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
