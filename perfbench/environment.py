"""The environment a result was measured in, recorded with every run."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from importlib import metadata

from common import ROOT, SRC


def describe(args, env_info: dict) -> dict:
    import numpy

    blas_name, blas_threads = blas()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": env_info["nproc"],
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": blas_name,
        "blas_threads": blas_threads,
        "blas_thread_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "noon_coherence_threads": "unset",
        "noon_coherence_threads_removed": env_info["noon_coherence_threads_inherited"],
        "commit": commit(),
        "src_sha256": source_digest(),
    }


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas() -> tuple[str | None, int | None]:
    """Name of numpy's BLAS and the thread count it reports, when it can say."""
    import numpy

    try:
        name = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = None
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return name, int(getter())
    return name, None


def commit() -> str | None:
    """The git commit, when the checkout itself is a repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the library sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()
