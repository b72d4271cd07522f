"""Compiled kernel providers for GF(2^8) arithmetic.

:class:`~repro.core.gf.GF256` dispatches its hot loops — elementwise
multiply, batched matrix multiply and batched Gauss–Jordan elimination — to
a *kernel*.  The ``"numpy"`` kernel is the in-process reference
implementation living in :mod:`repro.core.gf`; the ``"compiled"`` kernel is
provided by this module and is required to be bit-identical to it (the
guarantee is asserted by hypothesis property tests and re-checked inside
every ``gfbench`` run).

Two compiled providers are known, tried in order:

``numba``
    The primary provider, enabled by installing the ``fast`` extra
    (``pip install .[fast]``).  Kernels are ``@njit(cache=True,
    parallel=True)`` functions with ``prange`` over the batch axis, so
    repeat runs hit numba's on-disk cache and large stacks use every core.

``cext``
    A fallback provider for hosts with a C toolchain but no numba: a tiny
    C file is compiled once into a shared library cached under
    ``~/.cache/repro-information-slicing/`` (keyed by source hash) and
    loaded through :mod:`ctypes`.  Set ``CC`` to override the compiler.
    The same build-and-cache step (:func:`compile_shared_library`) also
    builds the SHA-256 counter-mode keystream kernel of
    :mod:`repro.crypto.sha256_kernel`.

Both providers work on contiguous ``uint8`` stacks and take the field's
flattened 256x256 multiplication table (and the 256-entry inverse table)
as arguments, so non-default polynomials work unchanged.  The environment
variable ``REPRO_GF_KERNEL_PROVIDER`` forces provider selection:
``numba`` / ``cext`` require that provider (error if it cannot load) and
``none`` disables every compiled kernel — GF(2^8) and the keystream alike —
the knob the fallback tests use to exercise the numpy- and hashlib-only
paths even on hosts where a compiler exists.

To add a provider: write a loader returning an object with the three
methods of :class:`KernelProvider`, add it to ``_LOADERS``, and the
bit-identity suite in ``tests/test_gf_kernels.py`` covers it for free.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from .errors import KernelUnavailableError

#: Environment variable forcing provider selection (``numba``/``cext``/``none``).
PROVIDER_ENV = "REPRO_GF_KERNEL_PROVIDER"

#: Cache directory for the compiled C provider's shared libraries.
CACHE_DIR = Path(
    os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache")
) / "repro-information-slicing"


class KernelProvider(Protocol):
    """The three hot loops a compiled provider must implement.

    All arrays are C-contiguous ``uint8``.  ``mul`` is the flattened
    256x256 multiplication table (``mul[a * 256 + b] == a * b``), ``inv``
    the 256-entry inverse table with ``inv[0] == 0``.
    """

    name: str

    def multiply(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray, mul: np.ndarray
    ) -> None:
        """Elementwise product of flat arrays ``a`` and ``b`` into ``out``."""

    def batched_matmul(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray, mul: np.ndarray
    ) -> None:
        """``(B, m, k) @ (B, k, n) -> (B, m, n)`` into ``out``."""

    def gauss_jordan(
        self,
        aug: np.ndarray,
        singular: np.ndarray,
        mul: np.ndarray,
        inv: np.ndarray,
    ) -> None:
        """In-place Gauss–Jordan over an augmented ``(B, n, 2n)`` stack.

        Mirrors ``GF256._gauss_jordan_batch`` exactly (pivot choice, the
        safe-pivot substitution for singular entries, elimination order) so
        even the garbage rows of singular entries stay bit-identical.
        ``singular`` is a ``(B,)`` uint8 output mask.
        """


_C_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

void gf_mul_elementwise(const uint8_t *a, const uint8_t *b, uint8_t *out,
                        ptrdiff_t count, const uint8_t *mul) {
    for (ptrdiff_t i = 0; i < count; i++)
        out[i] = mul[((size_t)a[i] << 8) | b[i]];
}

void gf_batched_matmul(const uint8_t *a, const uint8_t *b, uint8_t *out,
                       ptrdiff_t batch, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n,
                       const uint8_t *mul) {
    for (ptrdiff_t s = 0; s < batch; s++) {
        const uint8_t *A = a + s * m * k;
        const uint8_t *B = b + s * k * n;
        uint8_t *O = out + s * m * n;
        for (ptrdiff_t i = 0; i < m; i++) {
            const uint8_t *arow = A + i * k;
            uint8_t *orow = O + i * n;
            for (ptrdiff_t j = 0; j < n; j++)
                orow[j] = 0;
            for (ptrdiff_t kk = 0; kk < k; kk++) {
                const uint8_t *mrow = mul + ((size_t)arow[kk] << 8);
                const uint8_t *brow = B + kk * n;
                for (ptrdiff_t j = 0; j < n; j++)
                    orow[j] ^= mrow[brow[j]];
            }
        }
    }
}

void gf_gauss_jordan(uint8_t *aug, uint8_t *singular,
                     ptrdiff_t batch, ptrdiff_t n,
                     const uint8_t *mul, const uint8_t *inv) {
    ptrdiff_t w = 2 * n;
    for (ptrdiff_t s = 0; s < batch; s++) {
        uint8_t *M = aug + s * n * w;
        uint8_t sing = 0;
        for (ptrdiff_t col = 0; col < n; col++) {
            /* First non-zero entry at or below the diagonal; stay on the
             * diagonal when the column is dead (matches argmax-of-zeros). */
            ptrdiff_t pivot = col;
            ptrdiff_t r;
            for (r = col; r < n; r++) {
                if (M[r * w + col] != 0) {
                    pivot = r;
                    break;
                }
            }
            if (r == n)
                sing = 1;
            if (pivot != col) {
                uint8_t *crow = M + col * w;
                uint8_t *prow = M + pivot * w;
                for (ptrdiff_t j = 0; j < w; j++) {
                    uint8_t t = crow[j];
                    crow[j] = prow[j];
                    prow[j] = t;
                }
            }
            /* Normalise via the pivot's inverse; substitute 1 for a zero
             * pivot so singular entries keep the reference's garbage. */
            uint8_t p = M[col * w + col];
            const uint8_t *nrow = mul + ((size_t)inv[p ? p : 1] << 8);
            uint8_t *crow = M + col * w;
            for (ptrdiff_t j = 0; j < w; j++)
                crow[j] = nrow[crow[j]];
            for (ptrdiff_t r2 = 0; r2 < n; r2++) {
                if (r2 == col)
                    continue;
                uint8_t f = M[r2 * w + col];
                if (f == 0)
                    continue;
                const uint8_t *frow = mul + ((size_t)f << 8);
                uint8_t *row = M + r2 * w;
                for (ptrdiff_t j = 0; j < w; j++)
                    row[j] ^= frow[crow[j]];
            }
        }
        singular[s] = sing;
    }
}
"""


#: Flags every compiled kernel is built with (part of the cache digest).
_CFLAGS = ("-O3", "-fPIC", "-shared")


def compiled_kernels_disabled() -> bool:
    """True when ``REPRO_GF_KERNEL_PROVIDER=none`` turns every compiled kernel off."""
    return os.environ.get(PROVIDER_ENV, "").strip().lower() == "none"


def compile_shared_library(name: str, source: str) -> Path:
    """Compile ``source`` into a cached shared library, reusing prior builds.

    ``name`` prefixes the cached files.  :mod:`subprocess` and
    :mod:`tempfile` are imported here, so a process that finds its
    libraries cached (or never needs one) does not import them.

    :raises KernelUnavailableError: no usable compiler, an unwritable cache
        directory, or the build failed.
    """
    compiler = os.environ.get("CC", "cc")
    # The digest covers the *whole* build recipe — source, compiler and
    # flags — so any change to it invalidates the cached .so instead of
    # silently reusing a library built under a different recipe.
    recipe = "\0".join([source, compiler, *_CFLAGS])
    digest = hashlib.sha256(recipe.encode("utf-8")).hexdigest()[:16]
    library = CACHE_DIR / f"{name}_{digest}.so"
    if os.path.isfile(library):  # False, not an error, when it cannot be read
        return library
    import subprocess
    import tempfile

    try:
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        # Every builder compiles its own copy of the source in its own
        # directory, so concurrent cold-cache builds never read a file
        # another process is rewriting; the finished library is moved into
        # place atomically.
        with tempfile.TemporaryDirectory(dir=CACHE_DIR) as build_dir:
            source_path = Path(build_dir) / f"{name}.c"
            source_path.write_text(source, encoding="utf-8")
            built = Path(build_dir) / f"{name}.so"
            subprocess.run(
                [compiler, *_CFLAGS, "-o", str(built), str(source_path)],
                check=True,
                capture_output=True,
                text=True,
            )
            os.replace(built, library)
    except subprocess.CalledProcessError as error:
        raise KernelUnavailableError(
            f"C compilation failed: {error.stderr.strip()}"
        ) from error
    except OSError as error:
        # No compiler, an unusable one, or an unwritable cache directory.
        raise KernelUnavailableError(
            f"cannot build {name} with C compiler {compiler!r}: {error}"
        ) from error
    return library


_UINT8_P = ctypes.POINTER(ctypes.c_uint8)


def _as_ptr(array: np.ndarray):
    return array.ctypes.data_as(_UINT8_P)


class _CExtensionProvider:
    """The three kernels as C functions loaded through ctypes."""

    name = "cext"

    def __init__(self) -> None:
        self._lib = ctypes.CDLL(str(compile_shared_library("gf_kernels", _C_SOURCE)))
        self._lib.gf_mul_elementwise.restype = None
        self._lib.gf_mul_elementwise.argtypes = [
            _UINT8_P, _UINT8_P, _UINT8_P, ctypes.c_ssize_t, _UINT8_P,
        ]
        self._lib.gf_batched_matmul.restype = None
        self._lib.gf_batched_matmul.argtypes = [
            _UINT8_P, _UINT8_P, _UINT8_P,
            ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_ssize_t,
            _UINT8_P,
        ]
        self._lib.gf_gauss_jordan.restype = None
        self._lib.gf_gauss_jordan.argtypes = [
            _UINT8_P, _UINT8_P, ctypes.c_ssize_t, ctypes.c_ssize_t,
            _UINT8_P, _UINT8_P,
        ]

    def multiply(self, a, b, out, mul) -> None:
        self._lib.gf_mul_elementwise(
            _as_ptr(a), _as_ptr(b), _as_ptr(out), a.size, _as_ptr(mul)
        )

    def batched_matmul(self, a, b, out, mul) -> None:
        batch, m, k = a.shape
        n = b.shape[2]
        self._lib.gf_batched_matmul(
            _as_ptr(a), _as_ptr(b), _as_ptr(out), batch, m, k, n, _as_ptr(mul)
        )

    def gauss_jordan(self, aug, singular, mul, inv) -> None:
        batch, n, _ = aug.shape
        self._lib.gf_gauss_jordan(
            _as_ptr(aug), _as_ptr(singular), batch, n, _as_ptr(mul), _as_ptr(inv)
        )


def _load_cext_provider() -> KernelProvider:
    return _CExtensionProvider()


def _load_numba_provider() -> KernelProvider:
    try:
        import numba
    except ImportError as error:
        raise KernelUnavailableError(
            "numba is not installed (pip install .[fast])"
        ) from error

    @numba.njit(cache=True, parallel=True)
    def _mul(a, b, out, mul):  # pragma: no cover - compiled
        for i in numba.prange(a.shape[0]):
            out[i] = mul[np.int64(a[i]) * 256 + np.int64(b[i])]

    @numba.njit(cache=True, parallel=True)
    def _matmul(a, b, out, mul):  # pragma: no cover - compiled
        batch, m, k = a.shape
        n = b.shape[2]
        for s in numba.prange(batch):
            for i in range(m):
                for j in range(n):
                    out[s, i, j] = 0
                for kk in range(k):
                    base = np.int64(a[s, i, kk]) * 256
                    for j in range(n):
                        out[s, i, j] ^= mul[base + np.int64(b[s, kk, j])]

    @numba.njit(cache=True, parallel=True)
    def _gauss_jordan(aug, singular, mul, inv):  # pragma: no cover - compiled
        batch, n, w = aug.shape
        for s in numba.prange(batch):
            sing = np.uint8(0)
            for col in range(n):
                pivot = col
                found = False
                for r in range(col, n):
                    if aug[s, r, col] != 0:
                        pivot = r
                        found = True
                        break
                if not found:
                    sing = np.uint8(1)
                if pivot != col:
                    for j in range(w):
                        t = aug[s, col, j]
                        aug[s, col, j] = aug[s, pivot, j]
                        aug[s, pivot, j] = t
                p = aug[s, col, col]
                safe = p if p != 0 else np.uint8(1)
                base = np.int64(inv[safe]) * 256
                for j in range(w):
                    aug[s, col, j] = mul[base + np.int64(aug[s, col, j])]
                for r2 in range(n):
                    if r2 == col:
                        continue
                    f = aug[s, r2, col]
                    if f == 0:
                        continue
                    fbase = np.int64(f) * 256
                    for j in range(w):
                        aug[s, r2, j] ^= mul[fbase + np.int64(aug[s, col, j])]
            singular[s] = sing

    class _NumbaProvider:
        name = "numba"

        def multiply(self, a, b, out, mul) -> None:
            _mul(a, b, out, mul)

        def batched_matmul(self, a, b, out, mul) -> None:
            _matmul(a, b, out, mul)

        def gauss_jordan(self, aug, singular, mul, inv) -> None:
            _gauss_jordan(aug, singular, mul, inv)

    provider = _NumbaProvider()
    # Trigger compilation now so a broken numba install fails loudly at
    # selection time instead of mid-experiment.
    mul = np.zeros(65536, dtype=np.uint8)
    inv = np.zeros(256, dtype=np.uint8)
    provider.multiply(
        np.zeros(1, dtype=np.uint8),
        np.zeros(1, dtype=np.uint8),
        np.zeros(1, dtype=np.uint8),
        mul,
    )
    provider.batched_matmul(
        np.zeros((1, 1, 1), dtype=np.uint8),
        np.zeros((1, 1, 1), dtype=np.uint8),
        np.zeros((1, 1, 1), dtype=np.uint8),
        mul,
    )
    provider.gauss_jordan(
        np.zeros((1, 1, 2), dtype=np.uint8), np.zeros(1, dtype=np.uint8), mul, inv
    )
    return provider


#: Provider loaders in preference order.
_LOADERS: dict[str, Callable[[], KernelProvider]] = {
    "numba": _load_numba_provider,
    "cext": _load_cext_provider,
}

_PROVIDER: KernelProvider | None = None
_PROVIDER_ERROR: KernelUnavailableError | None = None
_PROVIDER_RESOLVED = False


def _select_provider() -> KernelProvider:
    forced = os.environ.get(PROVIDER_ENV, "").strip().lower()
    if compiled_kernels_disabled():
        raise KernelUnavailableError(
            f"compiled kernels disabled by {PROVIDER_ENV}=none"
        )
    if forced:
        if forced not in _LOADERS:
            raise KernelUnavailableError(
                f"unknown {PROVIDER_ENV} value {forced!r}; "
                f"expected one of {', '.join([*sorted(_LOADERS), 'none'])}"
            )
        return _LOADERS[forced]()
    errors = []
    for name, loader in _LOADERS.items():
        try:
            return loader()
        except KernelUnavailableError as error:
            errors.append(f"{name}: {error}")
    raise KernelUnavailableError(
        "no compiled GF(2^8) provider available — " + "; ".join(errors)
    )


def load_provider() -> KernelProvider:
    """The selected compiled provider, loading (and caching) it on first use.

    Raises :class:`~repro.core.errors.KernelUnavailableError` when no
    provider can load; the failure is cached too, so repeated probes are
    cheap.
    """
    global _PROVIDER, _PROVIDER_ERROR, _PROVIDER_RESOLVED
    if not _PROVIDER_RESOLVED:
        try:
            _PROVIDER = _select_provider()
        except KernelUnavailableError as error:
            _PROVIDER_ERROR = error
        _PROVIDER_RESOLVED = True
    if _PROVIDER is None:
        assert _PROVIDER_ERROR is not None
        raise _PROVIDER_ERROR
    return _PROVIDER


def reset_provider_cache() -> None:
    """Forget the cached provider selection (tests flip ``PROVIDER_ENV``)."""
    global _PROVIDER, _PROVIDER_ERROR, _PROVIDER_RESOLVED
    _PROVIDER = None
    _PROVIDER_ERROR = None
    _PROVIDER_RESOLVED = False


def compiled_available() -> bool:
    """True when a compiled provider can load on this host."""
    try:
        load_provider()
    except KernelUnavailableError:
        return False
    return True


def compiled_unavailable_reason() -> str | None:
    """Why compiled kernels cannot load, or ``None`` when they can."""
    try:
        load_provider()
    except KernelUnavailableError as error:
        return str(error)
    return None


def provider_name() -> str | None:
    """Name of the loaded provider (``numba``/``cext``), or ``None``."""
    try:
        return load_provider().name
    except KernelUnavailableError:
        return None
