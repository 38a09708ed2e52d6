"""Run the relational tests and every digest test in each cell of the host
matrix: the settings of the host axes that can move a recorded bit.

    python tests/kernels.py

numpy picks its SIMD loops by CPU at run time, and glibc its ``exp``,
``log``, ``log1p``, ``cos`` and ``sin`` variants by CPU at load time, and
either choice can move a digest's last bit.  The cells are numpy's dispatch
{default, AVX-512 off, capped at X86_V2} x glibc's hwcaps {default,
``-AVX2,-FMA``}, plus one forced OpenBLAS kernel as a canary: no recorded
number goes through BLAS (``tests/test_source_rules.py``), so that cell
should pass.  Each setting acts only on the process it is set for, so each
cell gets its own pytest process, one at a time.  A cell whose bare ``import
numpy`` fails (SIGILL, or numpy refusing the setting) is reported as "cannot
run here".  Prints one line per cell, with the ids of the tests that failed,
and exits 1 when any cell fails.  It keeps no list of expected failures, so a
known failure shows as one.  pytest does not collect this file.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMPY = {"numpy default": {},
         "numpy AVX-512 off": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
         "numpy X86_V2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}}
GLIBC = {"glibc default": {},
         "glibc -AVX2,-FMA": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}}
CELLS = {f"{n} x {g}": {**numpy_env, **glibc_env}
         for n, numpy_env in NUMPY.items() for g, glibc_env in GLIBC.items()}
CELLS["OpenBLAS Prescott"] = {"OPENBLAS_CORETYPE": "Prescott"}
SETTINGS = {"NPY_DISABLE_CPU_FEATURES", "GLIBC_TUNABLES", "OPENBLAS_CORETYPE"}
TESTS = ("tests/test_platform.py", "tests/test_literal_methods.py", "tests/test_live_twin.py",
         "tests/test_config_outcomes.py", "tests/test_cli_corpus.py",
         "tests/test_generated_instances.py::test_generated_instances_bitwise",
         "tests/test_optimizers.py::test_block_sweep_equals_row_steps_bitwise",
         "tests/test_optimizers.py::test_float_sweep_equals_row_steps_bitwise",
         "tests/test_optimizers.py::test_golden_trajectories_bitwise",
         "tests/test_objectives.py::test_softmax_row_logits_are_full_logits_bitwise",
         "tests/test_objectives.py::test_quadratic_component_value_is_full_value_term_bitwise",
         "tests/test_schedules.py::test_step_sizes_bitwise",
         "tests/test_diagnostics.py::test_bounds_bitwise",
         "tests/test_diagnostics.py::test_fit_rate_matches_polyfit")


def run_cell(settings: dict) -> tuple[str, bool]:
    """What the cell's run reports, and whether it failed."""
    env = {k: v for k, v in os.environ.items() if k not in SETTINGS} | settings
    if subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                      capture_output=True).returncode != 0:
        return "cannot run here", False
    tests = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", *TESTS], cwd=ROOT,
                           env=env, capture_output=True, text=True)
    lines = tests.stdout.strip().splitlines() or [f"exit {tests.returncode}"]
    if tests.returncode == 0:
        return f"pass ({lines[-1]})", False
    failed = [line[len("FAILED "):].split(" - ")[0] for line in lines if line.startswith("FAILED ")]
    return "\n    ".join([f"fail ({lines[-1]})", *failed]), True


def main() -> int:
    failed = False
    for name, settings in CELLS.items():
        report, bad = run_cell(settings)
        print(f"{name}: {report}", flush=True)
        failed |= bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
