"""Machine/environment stamp and the host read-modify-write bandwidth probe.

``python3 perfbench/host.py`` prints one JSON object: the probe result
(``rmw_gbps``) and the sizes it used.  The probe array is at least four
times the reported last-level cache so the stream is served from DRAM; it is
split across the same number of threads the jit row pool uses, because that
is the parallelism the kernels it is compared against run with.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor

#: Thread-cap variables the launcher sets for every workload process.
THREAD_CAP_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int | None:
    """Parse sysfs cache sizes such as ``307200K``."""
    if not text:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def llc_bytes() -> int | None:
    """Size of the highest-level cache cpu0 reports, in bytes."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best_level, best_size = -1, None
    try:
        entries = os.listdir(base)
    except OSError:
        return None
    for entry in entries:
        if not entry.startswith("index"):
            continue
        level = _read(f"{base}/{entry}/level")
        size = _size_bytes(_read(f"{base}/{entry}/size"))
        if level is not None and size is not None and int(level) > best_level:
            best_level, best_size = int(level), size
    return best_size


def _meminfo_bytes(key: str) -> int | None:
    text = _read("/proc/meminfo") or ""
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1]) * 1024
    return None


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def machine_stamp() -> dict:
    """Cores, CPU model, LLC, RAM, Python/numpy/BLAS versions, thread caps."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_info = "unknown"
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "llc_bytes": llc_bytes(),
        "ram_bytes": _meminfo_bytes("MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info,
        "platform": platform.platform(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_CAP_VARS},
    }


def rmw_probe(threads: int, repeats: int = 5) -> dict:
    """Best-of read-modify-write stream bandwidth over a >= 4x LLC array.

    The array is capped at a quarter of the available memory; ``capped``
    says when that made it smaller than four times the LLC.
    """
    import numpy as np

    llc = llc_bytes() or (32 << 20)
    want = 4 * llc
    available = _meminfo_bytes("MemAvailable") or want * 4
    nbytes = min(want, available // 4)
    arr = np.ones(nbytes // 8, dtype=np.float64)
    chunks = np.array_split(arr, threads)
    times = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for _ in range(repeats):
            start = time.perf_counter()
            list(pool.map(lambda c: np.multiply(c, 1.0000001, out=c), chunks))
            times.append(time.perf_counter() - start)
    moved = 2 * arr.nbytes  # one read and one write per element
    return {
        "rmw_gbps": moved / min(times) / 1e9,
        "array_bytes": int(arr.nbytes),
        "llc_bytes": llc,
        "capped": arr.nbytes < want,
        "threads": threads,
        "repeats": repeats,
    }


if __name__ == "__main__":
    n_threads = int(sys.argv[1]) if len(sys.argv) > 1 else (os.cpu_count() or 1)
    print(json.dumps(rmw_probe(n_threads)))
