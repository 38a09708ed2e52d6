"""The host the bitwise gates run on, as one line.

No number the golden digests and the CLI corpus hash goes through BLAS or
LAPACK, so they do not depend on the OpenBLAS kernel or thread count
(``tests/kernels.py`` checks the kernels), and no total takes the builtin
``sum``, so they do not depend on the Python version (``ordered_sum``).  Some
go through numpy's SIMD loops (array ``np.exp`` and ``np.log``), so they hold
the bits of the numpy version and SIMD level they were recorded with:
`RECORDED_HOST`.  When one fails it prints that line beside this host's
(`hosts`), which also names the Python version, numpy's BLAS build, the
OpenBLAS kernel in use and OpenBLAS's thread count.  numpy and OpenBLAS both
pick their kernels by CPU at run time (``NPY_DISABLE_CPU_FEATURES`` turns
numpy's targets off, ``OPENBLAS_CORETYPE`` forces an OpenBLAS kernel,
``OPENBLAS_NUM_THREADS`` sets the thread count).
"""

import ctypes
import platform
from pathlib import Path

import numpy as np

RECORDED_HOST = "numpy 2.4.6; SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


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
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy before 2.0
        return "unknown"
    return " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f)) or "none"


def host() -> str:
    """The Python version, numpy's version and enabled SIMD targets, its BLAS
    build, and the OpenBLAS kernel and thread count in use."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints its configuration
        blas = {}
    core = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    threads = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return (f"Python {platform.python_version()}; numpy {np.__version__}; SIMD {_simd()}; "
            f"BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no configuration')}); "
            f"kernel {core.decode() if isinstance(core, bytes) else core}; "
            f"{threads} BLAS threads")


def hosts() -> str:
    """The recording host's line and this host's, for a failing digest."""
    return f"recorded on: {RECORDED_HOST}\nthis host:   {host()}"
