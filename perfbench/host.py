"""Host block and BLAS thread check.

NumPy and SciPy wheels each bundle their own OpenBLAS: NumPy's is the
ILP64 build (symbols suffixed ``64_``), SciPy's the LP64 build. Both
read ``OPENBLAS_NUM_THREADS`` when they load, so the entry points set it
before importing NumPy; :func:`blas_state` reads the counts back from
both libraries through ctypes so a run on an unpinned BLAS is refused.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

# (package, library glob, symbol suffix)
_LIBS = (
    ("numpy", "numpy.libs/libscipy_openblas64_*.so*", "64_"),
    ("scipy", "scipy.libs/libscipy_openblas-*.so*", ""),
)


def blas_state() -> dict:
    """``{package: {"library", "config", "threads"}}`` for both OpenBLAS builds."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 - loads SciPy's OpenBLAS

    pkgs = {"numpy": numpy, "scipy": scipy}
    out = {}
    for pkg, pattern, suffix in _LIBS:
        site = Path(pkgs[pkg].__file__).resolve().parent.parent
        found = sorted(site.glob(pattern))
        if not found:
            raise RuntimeError(f"no bundled OpenBLAS for {pkg} under {site}/{pattern}")
        lib = ctypes.CDLL(str(found[0]))
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        out[pkg] = {
            "library": found[0].name,
            "config": get_config().decode(errors="replace").strip(),
            "threads": int(get_threads()),
        }
    return out


def host_block(blas: dict) -> dict:
    import numpy
    import scipy

    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }
