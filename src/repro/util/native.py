"""Build and load the package's C kernels with stdlib ``ctypes`` and gcc.

A kernel is one C file beside the module that calls it.  :func:`load`
compiles it with the host's gcc into the module's ``__pycache__/``,
under a name keyed by a hash of the source, the compiler's version and
the flags, and loads it; later imports find the shared object and only
ask gcc its version.  The object is written under a temporary name and
``os.replace``-d into place, so process ranks that import at the same
moment each load a whole file and leave one behind.

The flags are fixed: ``-O2 -ffp-contract=off`` (no fused multiply-add),
never ``-ffast-math`` or ``-march=native``, so a kernel can do the
frozen Python arithmetic operation for operation, and its object runs
on any host of the same architecture.  There is no pure-Python
fallback: a missing compiler is an ``ImportError`` that names gcc.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def array(dtype, writable: bool = False):
    """A 1-D C-contiguous array argument; ctypes checks it on every call."""
    return np.ctypeslib.ndpointer(dtype, ndim=1, flags="C,W" if writable else "C")


def load(source: Path, cache_dir: Path | None = None) -> ctypes.CDLL:
    """Compile ``source`` unless its cached object exists; load it.

    ``cache_dir`` defaults to the ``__pycache__`` beside ``source``.
    """
    gcc = shutil.which("gcc")
    if gcc is None:
        raise ImportError(
            f"repro's native kernel {source.name} needs gcc on PATH "
            f"(built with {' '.join(FLAGS)}); no gcc was found"
        )
    version = subprocess.run(
        [gcc, "--version"], capture_output=True, check=True
    ).stdout
    key = hashlib.sha256(
        b"\0".join([source.read_bytes(), version, " ".join(FLAGS).encode()])
    ).hexdigest()[:16]
    cache = source.parent / "__pycache__" if cache_dir is None else cache_dir
    target = cache / f"{source.stem}.{key}.so"
    if not target.exists():
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f"{source.stem}.", suffix=".tmp", dir=cache
        )
        os.close(fd)
        try:
            built = subprocess.run(
                [gcc, *FLAGS, "-o", tmp, str(source)],
                capture_output=True, text=True,
            )
            if built.returncode != 0:
                raise ImportError(
                    f"gcc could not compile {source}:\n{built.stderr.strip()}"
                )
            os.chmod(tmp, 0o755)  # mkstemp's 0600 would keep others out
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(target))
