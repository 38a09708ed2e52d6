"""Generated instances keep the bits they were recorded with.

`prng.standard_normals` takes Box-Muller through numpy's array `log`, `cos`
and `sin`, whose bits depend on numpy's SIMD level (`log`) and on glibc's
choice of `cos` and `sin` variants by CPU, so every generated quadratic
instance does too.  The golden digests and the CLI corpus happen to hold no
draw that moves, so this witness hashes enough draws to see a move: 10^6
draws (200 keys x 5,000), and the centres of `quad-rate`'s 8 instances
(`make_quadratic(500, 50, s)` for s = 0-7, as perfbench builds them).  On
the recording host (`RECORDED_HOST`) both hashes move under numpy's dispatch
capped at X86_V2 or with AVX-512 off, and under
``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA``.
"""

import hashlib

import numpy as np

from host import hosts
from shuffleopt.objectives import make_quadratic
from shuffleopt.prng import standard_normals

GENERATED = {
    "draws": "bb71eedf47e33c40a204c483799a62ac440d1a800d7a7a5e34650052817813b3",
    "quad-rate centres": "84a30acbaf47a0581d2824c073b39e3fe69f5721017e19f567056676d19296f4",
}


def test_generated_instances_bitwise():
    draws = np.concatenate([standard_normals(key, 5000) for key in range(200)])
    centres = np.concatenate([make_quadratic(500, 50, seed)[0].centers for seed in range(8)])
    got = {"draws": hashlib.sha256(draws.tobytes()).hexdigest(),
           "quad-rate centres": hashlib.sha256(centres.tobytes()).hexdigest()}
    assert got == GENERATED, hosts()
