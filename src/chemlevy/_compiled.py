"""The compiled library: the window kernel of every scheme and the float
formatter, built and loaded on first use.

``_window.c`` steps a window of a path's jump-adapted mesh, a count of mesh
steps from the path's resume point, which it moves on: it weaves the
window's events into its grid points, scales its raw normals into noise
and steps a scheme over the result, bit for bit ``integrator._walker`` of
the scheme's Python step loop.  The walker is shared, and each scheme
(log-Euler, direct Euler, RK4) adds its step body.  ``window(scheme)``
returns a binder of a run's constants to the scheme's kernel, which
returns a function of the engine's window signature, which makes its
out-values per call, so one bind serves every thread; it checks that what
a window is given fits, reading nothing else, before it passes pointers.
``_float_rows.c`` writes a float64 block as CSV lines whose cells are the
floats' ``repr``, and ``float_rows`` wraps it in a function from a block to
those bytes.  Its power-of-five tables are generated by ``_pow5_tables``
from exact integers, and written to a header only when the library is built.

Both sources are compiled into one library with the C compiler Python was
built with (``sysconfig``'s ``CC``) at fixed flags, into a per-user cache
(``$XDG_CACHE_HOME/chemlevy``, else ``~/.cache/chemlevy``) keyed by the
SHA-256 of what the compiler reads (the two sources and the tables' header),
the compiler command, the flags and the machine (``os.uname().machine``,
which ``platform.machine()`` reads), and loaded once with ``ctypes``.  A
build goes to a temporary directory in the cache and its library is renamed
into place, so processes that build at once never load half a file; it then
removes every other library in the cache older than its own.  Only a build
imports ``subprocess`` and ``tempfile``.  Nothing here runs at import, and
the CLI loads this module only for a command that steps a path or writes a
number table.  Any failure (no compiler, a cache that cannot be written, a
library that does not load) makes both accessors return None, and the
Python kernels and ``repr`` run instead, with the same bytes.
"""

import functools
import os

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCES = tuple(os.path.join(_HERE, name) for name in ("_window.c", "_float_rows.c"))
# never -ffast-math or -march: either may change the kernel's rounding
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# bytes a cell may take in _float_rows.c, its "," or "\n" included
_CELL_BYTES = 25
# each scheme's kernel in _window.c, and the length of its constants k
_SCHEMES = {"log_euler": 11, "direct_euler": 9, "rk4": 9}


def window(scheme: str):
    """A function from a run's constants (the scheme's k and jump sizes jl,
    as ``_window.c`` reads them, the sigmas, and the grid's n, h = t_end /
    n, t_end and stride) to the scheme's window kernel run in C, or None
    where it cannot be had.  scheme is "log_euler", "direct_euler" or
    "rk4"."""
    library = _library()
    return library and library[0][scheme]


def float_rows():
    """A function from a C-contiguous float64 (rows, cols) block to its CSV
    lines, every cell its repr, or None where it cannot be had."""
    library = _library()
    return library and library[1]


@functools.cache
def _library():
    try:
        return _load()
    except Exception:
        # the Python kernel and repr write the same bytes, so this is no
        # error; the reason goes only to a logger someone has turned on
        import logging
        logging.getLogger(__name__).debug("no compiled library", exc_info=True)
        return None


def _pow5_tables() -> str:
    """_float_rows.c's tables as C, from exact integers: POW5_INV[q] is
    2^(bits(5^q) - 1 + 125) // 5^q + 1 and POW5[i] is 5^i cut or padded to
    125 bits, each as (low, high) 64-bit words.  q and i run to what the
    largest double and the smallest subnormal need."""
    def table(name, values):
        rows = ",\n".join(f"{{0x{v & (1 << 64) - 1:x}u, 0x{v >> 64:x}u}}" for v in values)
        return f"static const uint64_t {name}[{len(values)}][2] = {{\n{rows}}};\n"

    inv = [(1 << (5 ** q).bit_length() - 1 + 125) // 5 ** q + 1 for q in range(291)]
    pow5 = [(5 ** i << 125) >> (5 ** i).bit_length() for i in range(326)]
    return table("POW5_INV", inv) + table("POW5", pow5)


def _load():
    import ctypes
    import hashlib
    import shlex
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        return None
    sources = []
    for name in _SOURCES:
        with open(name, "rb") as f:
            sources.append(f.read())
    # what the compiler reads, the header included, so an edit of this file alone builds
    # nothing; the machine as platform.machine() names it, without importing platform
    tables = _pow5_tables()
    key = hashlib.sha256(repr((sources, tables, cc, _FLAGS, os.uname().machine)).encode())
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.join(os.path.expanduser("~"), ".cache"), "chemlevy")
    path = os.path.join(cache, f"chemlevy-{key.hexdigest()[:32]}.so")
    if not os.path.exists(path):
        import glob
        import subprocess
        import tempfile
        from contextlib import suppress

        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as build:
            with open(os.path.join(build, "_pow5.h"), "w", encoding="ascii") as f:
                f.write(tables)
            built = os.path.join(build, "library.so")
            subprocess.run([*cc, *_FLAGS, "-I", build, "-o", built, *_SOURCES, "-lm"],
                           check=True, capture_output=True, timeout=120)
            os.replace(built, path)
        # one library per cache: any other one older than this build is stale
        for other in glob.glob(os.path.join(glob.escape(cache), "chemlevy-*.so")):
            with suppress(OSError):  # another build may have removed it first
                if os.stat(other).st_mtime_ns < os.stat(path).st_mtime_ns:
                    os.unlink(other)
    library = ctypes.CDLL(path)
    size, ptr, real = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
    write = library.float_rows
    write.argtypes = [ptr, size, size, ptr]
    write.restype = size

    def binder(name, k_size):
        step = getattr(library, f"{name}_window")
        step.argtypes = [ptr, ptr, ptr, size, real, real, size, ctypes.POINTER(size),
                         ctypes.POINTER(real), size, ptr, ptr, size, ptr, ptr, ptr, size]
        step.restype = ctypes.c_char_p

        def bind(k, jl, sigmas, n, h, t_end, stride):
            k, jl, sigmas = (np.ascontiguousarray(a, np.float64) for a in (k, jl, sigmas))
            if not (k.shape == (k_size,) and jl.ndim == 2 and jl.shape[1] == 3
                    and sigmas.shape == (3,) and 1 <= stride <= n):
                raise ValueError("a run's constants do not fit the compiled kernel")
            run = (k.ctypes.data, jl.ctypes.data, sigmas.ctypes.data, n, h, t_end, stride)

            def window(at, ev_t, ev_mark, z, s, out):
                u, i, t = at
                ev_t, z = (np.ascontiguousarray(v, np.float64) for v in (ev_t, z))
                ev_mark = np.ascontiguousarray(ev_mark, np.intp)
                m, steps = len(ev_t), len(z)
                # everything the kernel reads, and writes in place, must be there; each
                # check reads the window's arrays alone, never the path's whole schedule
                if not (1 <= u <= n + 1 and 0 <= i and ev_t.shape == ev_mark.shape == (m,)
                        and z.shape == (steps, 3) and m <= steps <= n + 1 - u + m
                        and (m == 0 or 0 <= ev_mark.min() and ev_mark.max() < len(jl))
                        and s.shape == (15,) and s.flags.c_contiguous and out.ndim == 2
                        and len(out) >= 8 and -(-n // stride) < out.shape[1]
                        and out.strides[1] == out.itemsize and s.dtype == out.dtype == np.float64):
                    raise ValueError("a window's arrays do not fit the compiled kernel")
                # the resume point as the kernel reads and moves it: grid point and event,
                # then the time (set to the stopping step's if the path stops)
                place, now = (size * 2)(u, i), real(t)
                why = step(*run, place, now, steps, ev_t.ctypes.data, ev_mark.ctypes.data, m,
                           z.ctypes.data, s.ctypes.data, out.ctypes.data,
                           out.strides[0] // out.itemsize)
                if not why:
                    at[:] = *place, now.value
                return why and (why.decode(), now.value)

            # the kernel reads the constants' arrays through their pointers
            window.arrays = k, jl, sigmas
            return window

        return bind

    def lines(block) -> bytes:
        if not (block.ndim == 2 and block.dtype == np.float64 and block.flags.c_contiguous):
            raise ValueError("a block must be a C-contiguous float64 (rows, cols) array")
        rows, cols = block.shape
        buf = np.empty(rows * (cols * _CELL_BYTES + 1), np.uint8)
        return buf[:write(block.ctypes.data, rows, cols, buf.ctypes.data)].tobytes()

    return {name: binder(name, k_size) for name, k_size in _SCHEMES.items()}, lines
