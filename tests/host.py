"""The host the bitwise gates run on, as one line.

No number the golden digests and the CLI corpus hash goes through BLAS or
LAPACK (``tests/test_source_rules.py``), so they do not depend on the
OpenBLAS kernel or thread count, and no total takes the builtin ``sum``, so
they do not depend on the Python version (``ordered_sum``).  Some go through
numpy's SIMD loops (array ``np.exp`` and ``np.log``), and some through libm
(``math.exp`` and ``math.log1p`` in the logistic row step's ``_logaddexp0``,
numpy's float64 ``cos`` and ``sin`` in the Gaussian draws), so they hold the
bits of the numpy version and SIMD level, and of the glibc version and
whether the CPU offers FMA and AVX2, that they were recorded with:
`RECORDED_HOST`.  glibc picks its ``exp``, ``log``, ``log1p``, ``cos`` and
``sin`` by CPU at load time, an FMA variant where the CPU has FMA and AVX2,
and the variants round differently.  When one fails it prints that line
beside this host's (`hosts`), which also names the Python version.  The
SIMD field follows ``NPY_DISABLE_CPU_FEATURES``; the FMA+AVX2 field reports
the CPU, not a ``GLIBC_TUNABLES`` mask (``tests/kernels.py`` runs the gates
under both settings).
"""

import platform

import numpy as np

RECORDED_HOST = "numpy 2.4.6; SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR; glibc 2.36; FMA+AVX2 yes"

try:  # numpy's CPU dispatch targets and the CPU features it detected
    from numpy._core._multiarray_umath import __cpu_dispatch__ as _DISPATCH
    from numpy._core._multiarray_umath import __cpu_features__ as _FEATURES
except ImportError:  # numpy before 2.0
    _DISPATCH = _FEATURES = None


def _simd() -> str:
    """The SIMD targets numpy's dispatch enables on this CPU, or "unknown"."""
    if _FEATURES is None:
        return "unknown"
    return " ".join(f for f in _DISPATCH if _FEATURES.get(f)) or "none"


def _fma_avx2() -> str:
    """Whether the CPU offers both FMA and AVX2, as numpy's CPU feature table
    reads them (whatever numpy's dispatch enables), or "unknown"."""
    if _FEATURES is None:
        return "unknown"
    return "yes" if _FEATURES.get("FMA3") and _FEATURES.get("AVX2") else "no"


def host() -> str:
    """The Python version, numpy's version and enabled SIMD targets, the C
    library and whether the CPU offers FMA and AVX2."""
    libc, libc_version = platform.libc_ver()
    return (f"Python {platform.python_version()}; numpy {np.__version__}; SIMD {_simd()}; "
            f"{libc or 'libc'} {libc_version or 'unknown'}; FMA+AVX2 {_fma_avx2()}")


def hosts() -> str:
    """The recording host's line and this host's, for a failing digest."""
    return f"recorded on: {RECORDED_HOST}\nthis host:   {host()}"
