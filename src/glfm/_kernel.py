"""Build, cache and load the compiled sweep kernel, `_sweep.c`, through ctypes.

The kernel is compiled on first use with the system C compiler (`cc`),
linked against numpy's `libnpyrandom.a`, and cached under
`${XDG_CACHE_HOME:-~/.cache}/glfm/`. The cached file's name carries a hash of
the source, the compiler flags and the numpy version, so an edit to any of
them builds a fresh copy. A build writes to a temporary file and renames it
into place, so processes building at once do not see a partial library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = ["KernelBuildError", "State", "call", "check", "load"]

SOURCE = Path(__file__).with_name("_sweep.c")
# no -ffast-math, -march=native or FMA contraction: each operation rounds
# once, as in the numpy references that the tests compare draws with
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

# step mask of glfm_attributes
STEP_REBUILD, STEP_WEIGHTS, STEP_PSEUDO, STEP_THRESHOLDS, STEP_NOISE = 1, 2, 4, 8, 16
# error codes of the kernel's entry points
ERR_NOT_PD, ERR_EMPTY_SUPPORT, ERR_BOUNDS, ERR_STD, ERR_NOMEM, ERR_MEAN = -1, -2, -3, -4, -5, -6


class KernelBuildError(RuntimeError):
    """No C compiler, or the compiler could not build the kernel."""


_i64, _f64, _ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


class State(ctypes.Structure):
    """Pointers to a LatentState's arrays; mirrors glfm_state in _sweep.c."""

    _fields_ = [
        *((name, _i64) for name in ("N", "K", "S", "D", "nb")),
        *((name, _ptr) for name in ("Z", "Y", "B", "P", "P_inv", "lam", "col_sums", "sigma2")),
        *((name, _ptr) for name in ("kind", "offset", "levels", "missing", "cells")),
        *((name, _ptr) for name in ("obs_lo", "obs_hi", "theta")),
        *((name, _f64) for name in ("sigma_B2", "sigma_u2", "sigma_theta2", "beta1", "beta2")),
    ]


_SIGNATURES = {
    "glfm_rows": (ctypes.c_int, [_ptr, ctypes.POINTER(State), _i64, _i64, ctypes.c_int, _i64,
                                 _i64, _ptr, _ptr, _ptr]),
    "glfm_attributes": (ctypes.c_int, [_ptr, ctypes.POINTER(State), _i64, _i64, _i64, _i64,
                                       ctypes.c_int, _ptr]),
    "glfm_trunc_normal": (ctypes.c_int, [_ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr]),
    "glfm_inverse_gamma": (_f64, [_ptr, _f64, _f64]),
    "glfm_chol_inverse": (ctypes.c_int, [_i64, _ptr, _ptr]),
    "glfm_ndtr": (None, [_i64, _ptr, _ptr]),
    "glfm_log_ndtr": (None, [_i64, _ptr, _ptr]),
    "glfm_row_loglik": (_f64, [_f64, _f64, _f64]),
    "glfm_birth_gain_bound": (_f64, [_f64, _f64, _f64]),
    "glfm_inverse_cdf_index": (_i64, [_i64, _ptr, _f64]),
}


def _cache_path() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    key = hashlib.sha256()
    key.update(SOURCE.read_bytes())
    key.update(" ".join(CFLAGS).encode())
    key.update(np.__version__.encode())
    return Path(root) / "glfm" / f"_sweep-{key.hexdigest()[:16]}.so"


def _command(out: str, *extra: str) -> list[str]:
    """The compiler command that builds the kernel into out, with extra flags."""
    cc = shutil.which("cc")
    if cc is None:
        raise KernelBuildError(
            "no C compiler: glfm builds its sampler kernel with `cc`, which is not on PATH"
        )
    npyrandom = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    return [cc, *CFLAGS, *extra, f"-I{np.get_include()}", str(SOURCE), str(npyrandom),
            "-lm", "-o", out]


def _build(target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.stem + "-", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        cmd = _command(tmp)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            lines = proc.stderr.splitlines()
            first = next((ln for ln in lines if "error" in ln), lines[0] if lines else "")
            raise KernelBuildError(
                f"cannot build the sampler kernel: {cmd[0]} exited with {proc.returncode}: "
                f"{first.strip()}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@lru_cache(maxsize=None)
def load() -> ctypes.CDLL:
    """The kernel library, built first if no cached copy matches."""
    target = _cache_path()
    if not target.exists():
        _build(target)
    lib = ctypes.CDLL(str(target))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def call(rng, name: str, *args):
    """Call kernel entry `name` on rng's bit generator, holding its lock."""
    fn = getattr(load(), name)
    bit_generator = rng.gen.bit_generator
    with bit_generator.lock:
        return fn(bit_generator.ctypes.bit_generator, *args)


def check(code: int) -> None:
    """Raise the Python exception that a kernel error code stands for."""
    if code >= 0:
        return
    if code == ERR_NOT_PD:
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    if code == ERR_BOUNDS:
        raise ValueError("truncation requires lo < hi")
    if code == ERR_STD:
        raise ValueError("std must be finite and > 0")
    if code == ERR_MEAN:
        raise ValueError("truncated normal mean must not be NaN")
    if code == ERR_NOMEM:
        raise MemoryError("sampler kernel could not allocate its workspace")
    raise RuntimeError(f"sampler kernel failed with code {code}")
