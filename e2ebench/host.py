"""The run environment: what it is, and what the machine can do.

* :func:`environment` records what a result depends on besides the
  code: cores, numpy and OpenBLAS versions, the BLAS thread count and
  the kernel defaults the library picked at import.
* :func:`calibrate` measures the machine's roofline: dgemm peak and
  streaming bandwidth, the latter over an array of at least four times
  the last-level cache so that it streams from DRAM.
* :func:`single_blas_thread` pins numpy's OpenBLAS to one thread for
  the plain single-thread baseline.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MIB = 1 << 20


def _openblas():
    """numpy's bundled OpenBLAS with its symbol prefix and suffix.

    numpy 2 wheels ship ``scipy_openblas64_``; older ones plain
    ``openblas``.  ``(None, "", "")`` when neither is found.
    """
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                return lib, prefix, suffix
    return None, "", ""


_LIB, _PREFIX, _SUFFIX = _openblas()


def _blas_fn(name: str, restype, argtypes):
    fn = getattr(_LIB, f"{_PREFIX}_{name}{_SUFFIX}")
    fn.restype = restype
    fn.argtypes = argtypes
    return fn


def blas_threads() -> int:
    """OpenBLAS threads numpy uses now (0 when it cannot be read)."""
    if _LIB is None:
        return 0
    return int(_blas_fn("get_num_threads", ctypes.c_int, [])())


def blas_config() -> str:
    """OpenBLAS build string, e.g. ``"OpenBLAS 0.3.31 ... Haswell"``."""
    if _LIB is None:
        return "unknown"
    return _blas_fn("get_config", ctypes.c_char_p, [])().decode().strip()


@contextmanager
def single_blas_thread():
    """Run the body with numpy's OpenBLAS pinned to one thread.

    Yields whether pinning worked; without a known OpenBLAS the body
    runs at the default thread count.
    """
    if _LIB is None:
        yield False
        return
    set_threads = _blas_fn("set_num_threads", None, [ctypes.c_int])
    before = blas_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(before)


def llc_bytes() -> int:
    """Size of the largest CPU cache (the last level), 0 when unknown."""
    sizes = []
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        text = Path(index).read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        sizes.append(int(text.rstrip("KMG")) * scale)
    return max(sizes, default=0)


def environment() -> dict:
    """Everything besides the code that a result depends on."""
    import repro
    from repro.kernels import DEFAULT_CHUNK
    from repro.plan import DEFAULT_FUSION_KMAX

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config(),
        "blas_threads": blas_threads(),
        "repro": repro.__version__,
        "default_chunk": DEFAULT_CHUNK,
        "default_fusion_kmax": DEFAULT_FUSION_KMAX,
        "llc_mib": llc_bytes() / MIB,
    }


def dgemm_gflops(n: int = 2048, repeats: int = 3) -> float:
    """Best-of-*repeats* dgemm rate at the default BLAS thread count."""
    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    out = np.empty((n, n))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.dot(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 2.0 * n**3 / best / 1e9


def stream_gbytes_per_s(array_bytes: int, repeats: int = 3) -> float:
    """Best-of-*repeats* in-place scale over one *array_bytes* array.

    An in-place update reads and writes every byte, like a state-vector
    kernel sweep, so each pass moves ``2 * array_bytes``.
    """
    a = np.ones(array_bytes // 8)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.multiply(a, 1.0000001, out=a)
        best = min(best, time.perf_counter() - start)
    del a
    return 2.0 * array_bytes / best / 1e9


def calibrate(*, small: bool = False) -> dict:
    """The machine's measured roofline corners.

    The bandwidth array is the larger of 420 MiB and four times the
    last-level cache (*small* shrinks both measurements for the smoke
    test, whose figures are not meant to be read).
    """
    if small:
        array_bytes = 16 * MIB
        gflops = dgemm_gflops(n=256)
    else:
        array_bytes = max(420 * MIB, 4 * llc_bytes())
        array_bytes = -(-array_bytes // MIB) * MIB
        gflops = dgemm_gflops()
    return {
        "dgemm_gflops": gflops,
        "stream_gbytes_per_s": stream_gbytes_per_s(array_bytes),
        "stream_array_mib": array_bytes / MIB,
        "llc_mib": llc_bytes() / MIB,
    }
