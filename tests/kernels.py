"""Run the relational tests, the golden digests and most of the CLI corpus
under each OpenBLAS kernel that can be forced.

    python tests/kernels.py

The relational tests compare two paths under one kernel (a fast path against
the path it replaces), so they should pass under every kernel:
``test_platform.py``, ``test_literal_methods.py``, ``test_live_twin.py``,
``test_block_sweep_equals_row_steps_bitwise`` and
``test_float_sweep_equals_row_steps_bitwise``.  The recorded digests run too,
since neither a recorded squared norm nor a logistic margin goes through BLAS:
``test_golden_trajectories_bitwise`` and the CLI corpus entries, except the
ones in `KERNEL_BOUND`, which change under some kernel.
``OPENBLAS_CORETYPE`` acts only on the process it is set for, so each kernel
gets its own pytest process, one at a time.  A kernel whose instructions this
CPU lacks dies of SIGILL and is reported as "cannot run here".  Prints one
line per kernel and exits 1 when any kernel fails.  pytest does not collect
this file.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Prescott", "Nehalem")
# corpus entries whose bytes change under some kernel, with the cause
KERNEL_BOUND = {
    "nasg-thm3-rate-sweep": "the rate fit's slope and intercept: np.polyfit's least squares",
}
CORPUS = sorted(path.stem for path in (ROOT / "tests" / "cli_corpus").glob("*.json")
                if path.stem != "manifest" and path.stem not in KERNEL_BOUND)
TESTS = ("tests/test_platform.py", "tests/test_literal_methods.py", "tests/test_live_twin.py",
         "tests/test_optimizers.py::test_block_sweep_equals_row_steps_bitwise",
         "tests/test_optimizers.py::test_float_sweep_equals_row_steps_bitwise",
         "tests/test_optimizers.py::test_golden_trajectories_bitwise",
         *(f"tests/test_cli_corpus.py::test_cli_output_matches_manifest[{name}]"
           for name in CORPUS))
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
