"""The compiled log-Euler chunk kernel, built and loaded on first use.

``_log_euler.c`` steps one chunk of ``integrator._log_euler`` for one path,
bit for bit, and ``log_euler_chunk`` wraps it in a function of the same
signature, which checks that a chunk's arrays fit before it passes their
pointers.  It is compiled with the C compiler Python was built with
(``sysconfig``'s ``CC``) at fixed flags, into a per-user cache
(``$XDG_CACHE_HOME/chemlevy``, else ``~/.cache/chemlevy``) keyed by the
SHA-256 of the source, the compiler command, the flags and the machine, and
loaded with ``ctypes``.  A build goes to a temporary file in the cache and is
renamed into place, so processes that build at once never load half a file.
Nothing here runs at import: ``chemlevy`` starts without ``ctypes``, a
compiler or the cache.  Any failure (no compiler, a cache that cannot be
written, a library that does not load) makes ``log_euler_chunk`` return
None, and the Python kernel runs instead, with the same bytes.
"""

import functools
import os

from ._lazy import np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_log_euler.c")
# never -ffast-math or -march: either may change the kernel's rounding
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


@functools.cache
def log_euler_chunk():
    """integrator._log_euler run in C, or None where it cannot be had."""
    try:
        return _load()
    except Exception:
        # the Python kernel writes the same bytes, so this is no error; the
        # reason goes only to a logger someone has turned on
        import logging
        logging.getLogger(__name__).debug("no compiled log-Euler kernel", exc_info=True)
        return None


def _load():
    import ctypes
    import hashlib
    import platform
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        return None
    with open(_SOURCE, "rb") as f:
        source = f.read()
    key = hashlib.sha256(repr((source, cc, _FLAGS, platform.machine())).encode()).hexdigest()
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.join(os.path.expanduser("~"), ".cache"), "chemlevy")
    path = os.path.join(cache, f"log_euler-{key[:32]}.so")
    if not os.path.exists(path):
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run([*cc, *_FLAGS, "-o", tmp, _SOURCE, "-lm"], check=True,
                           capture_output=True, timeout=120)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    fn = ctypes.CDLL(path).log_euler_chunk
    size = ctypes.c_ssize_t
    fn.argtypes = [size, *[ctypes.c_void_p] * 9, size, size]
    fn.restype = size

    def chunk(k, jl, t, dt, g, mark, row, s, out):
        n = len(dt)
        t, dt, g, k, jl = (np.ascontiguousarray(a, np.float64) for a in (t, dt, g, k, jl))
        mark, row = (np.ascontiguousarray(a, np.intp) for a in (mark, row))
        # everything the kernel reads, and writes in place, must be there
        if not (len(t) == len(mark) == len(row) == n + 1 and g.shape == (n, 3)
                and k.shape == (11,) and jl.shape[1:] == (3,) and mark.max() < len(jl)
                and s.shape == (15,) and s.flags.c_contiguous and out.ndim == 2 and len(out) >= 8
                and row.max() < out.shape[1] and s.dtype == out.dtype == np.float64):
            raise ValueError("a chunk's arrays do not fit the compiled kernel")
        return fn(n, *(a.ctypes.data for a in (t, dt, g, mark, row, k, jl, s, out)),
                  *(stride // out.itemsize for stride in out.strides))

    return chunk
