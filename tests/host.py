"""The host the bitwise gates run on, as one line.

No number the golden digests and the CLI corpus hash goes through BLAS or
LAPACK, so they do not depend on the OpenBLAS kernel or thread count
(``tests/kernels.py`` checks the kernels), and no total takes the builtin
``sum``, so they do not depend on the Python version (``ordered_sum``).  Some
go through numpy's SIMD loops (array ``np.exp`` and ``np.log``), and some
through libm (``math.exp`` and ``math.log1p`` in the logistic row step's
``_logaddexp0``), so they hold the bits of the numpy version and SIMD level,
and of the glibc version and whether the CPU offers FMA and AVX2, that they
were recorded with: `RECORDED_HOST`.  glibc picks its ``exp``, ``log`` and
``log1p`` by CPU at load time, an FMA variant where the CPU has FMA and AVX2,
and the variants round differently.  When one fails it prints that line
beside this host's (`hosts`), which also names the Python version, numpy's
BLAS build, the OpenBLAS kernel in use and OpenBLAS's thread count.  numpy
and OpenBLAS both pick their kernels by CPU at run time
(``NPY_DISABLE_CPU_FEATURES`` turns numpy's targets off,
``OPENBLAS_CORETYPE`` forces an OpenBLAS kernel, ``OPENBLAS_NUM_THREADS``
sets the thread count), and ``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA``
makes glibc take its non-FMA variants in one process, which this line does
not show: it reports the CPU, not the mask.
"""

import ctypes
import platform
from pathlib import Path

import numpy as np

RECORDED_HOST = "numpy 2.4.6; SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR; glibc 2.36; FMA+AVX2 yes"

try:  # numpy's CPU dispatch targets and the CPU features it detected
    from numpy._core._multiarray_umath import __cpu_dispatch__ as _DISPATCH
    from numpy._core._multiarray_umath import __cpu_features__ as _FEATURES
except ImportError:  # numpy before 2.0
    _DISPATCH = _FEATURES = None


def _openblas(name: str, restype):
    """The value of a no-argument function of numpy's bundled OpenBLAS, or
    "unknown" where that library or function is missing."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        function = getattr(ctypes.CDLL(str(path)), name, None)
        if function is not None:
            function.argtypes, function.restype = [], restype
            return function()
    return "unknown"


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
    library and whether the CPU offers FMA and AVX2, numpy's BLAS build, and
    the OpenBLAS kernel and thread count in use."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints its configuration
        blas = {}
    core = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    threads = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    libc, libc_version = platform.libc_ver()
    return (f"Python {platform.python_version()}; numpy {np.__version__}; SIMD {_simd()}; "
            f"{libc or 'libc'} {libc_version or 'unknown'}; FMA+AVX2 {_fma_avx2()}; "
            f"BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no configuration')}); "
            f"kernel {core.decode() if isinstance(core, bytes) else core}; "
            f"{threads} BLAS threads")


def hosts() -> str:
    """The recording host's line and this host's, for a failing digest."""
    return f"recorded on: {RECORDED_HOST}\nthis host:   {host()}"
