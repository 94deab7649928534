"""The seven LAPACK routines of the library, called through ctypes.

The library needs LAPACK ``dsygvd`` (the dense generalized eigensolve),
``dtrtri`` (inverses of the Cholesky factors of stacked pencils), ``dgeqp3``
(pivoted QR), ``dsbgvx`` (values of a banded pencil), ``dgbtrf`` and
``dgbtrs`` (the shifted band factorization and its solves) and ``dpbtrf``
(banded Cholesky); see Anderson et al., *LAPACK Users' Guide* (1999).  They
are taken from the LAPACK that numpy itself links, and has loaded with
``numpy.linalg``, so no other library is imported or opened: numpy's wheels
bundle an OpenBLAS that exports reference LAPACK as ``scipy_<name>_64_``
(64-bit integers) or ``scipy_<name>_`` (32-bit ones), found through the
dependencies of numpy's LAPACK extension.  Where numpy's LAPACK exports no
such symbols (an Accelerate or MKL build), the same routines come from
``scipy.linalg.cython_lapack``, 32-bit integers.  The source is chosen once,
at import; :class:`_Lapack` is one source's seven calls.

Each call mirrors scipy's wrapper of the routine (``scipy.linalg.eigh``,
``lapack.dtrtri``, ``qr(pivoting=True)``, ``lapack.dgbtrf``/``dgbtrs``,
``cholesky_banded``): the same layout, options and workspace sizes, so the
same bits from the same LAPACK.  Fortran's hidden character lengths are
passed where the routine is Fortran's own.  The calls return LAPACK's
``info``; their callers turn it into an error.
"""

from __future__ import annotations

import ctypes

import numpy as np

__all__ = []

# how many arguments of each routine are characters, which Fortran follows
# with hidden lengths
_CHARS = {"dsygvd": 2, "dtrtri": 2, "dgeqp3": 0, "dsbgvx": 3, "dgbtrf": 0, "dgbtrs": 1,
          "dpbtrf": 1}


def _finite(*arrays) -> None:
    """scipy's input check, with its message."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _ptr(a: np.ndarray, dtype=np.float64) -> ctypes.c_void_p:
    """The address of ``a``, which LAPACK reads and may overwrite: a
    writeable Fortran-contiguous array of ``dtype``, else ``ValueError``."""
    if a.dtype != dtype or not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError(f"LAPACK takes a writeable Fortran-ordered {np.dtype(dtype)} array")
    return ctypes.c_void_p(a.ctypes.data)


class _Lapack:
    """The seven routines at ``addresses``, with integers of ``int_type`` and,
    where ``hidden``, Fortran's hidden character lengths.

    The calls declare no argument types: every argument is passed as a ctypes
    object (an address checked by :func:`_ptr`, a reference to an integer
    or a double, a character string or a hidden length), which ctypes hands
    on unconverted.  That is the cheapest call ctypes makes: declared
    pointer types cost about 0.4 us more per call, which made the 79
    ``dtrtri`` calls of a stack slower than scipy's wrapper."""

    def __init__(self, addresses: dict[str, int], int_type, hidden: bool):
        self.int_type = int_type
        self.index = np.dtype(f"i{ctypes.sizeof(int_type)}")  # integer arrays
        self._calls = {name: ctypes.CFUNCTYPE(None)(address)
                       for name, address in addresses.items()}
        one = ctypes.c_size_t(1)
        self._tails = {name: (one,) * (chars if hidden else 0) for name, chars in _CHARS.items()}

    def _run(self, name: str, *args) -> None:
        self._calls[name](*args, *self._tails[name])

    def _int(self, value: int):
        return ctypes.byref(self.int_type(value))

    def dsygvd(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
        """Every eigenpair of the symmetric pencil ``(a, b)`` from their lower
        triangles, both Fortran-ordered and overwritten: ``a`` by the
        ``b``-orthonormal eigenvectors.  Returns the ascending eigenvalues and
        ``info``: scipy's ``eigh(a, b)``, which calls this routine by default."""
        _finite(a, b)
        n = a.shape[0]
        if a.shape != (n, n) or b.shape != (n, n):
            raise ValueError("dsygvd takes two square matrices of one size")
        w = np.empty(n)
        lwork, liwork = 1 + 6 * n + 2 * n * n, 5 * n + 3
        work, iwork = np.empty(lwork), np.empty(liwork, dtype=self.index)
        info = self.int_type(0)
        self._run("dsygvd", self._int(1), b"V", b"L", self._int(n), _ptr(a), self._int(n),
                  _ptr(b), self._int(n), _ptr(w), _ptr(work), self._int(lwork),
                  _ptr(iwork, self.index), self._int(liwork), ctypes.byref(info))
        return w, info.value

    def dtrtri(self, L: np.ndarray) -> np.ndarray:
        """The inverses of the lower triangular matrices ``L[k]``, each as
        scipy's ``lapack.dtrtri(L[k], lower=1)`` inverts it: on a
        Fortran-ordered copy.  The arguments are converted once for the stack,
        so a call costs no more than scipy's."""
        F = np.array(L.mT, dtype=np.float64, order="C")  # a copy, each matrix in Fortran order
        k, n = F.shape[0], F.shape[-1]
        if F.size:  # LAPACK refuses an empty matrix
            n_, info = self._int(n), ctypes.byref(self.int_type(0))
            call, tail = self._calls["dtrtri"], self._tails["dtrtri"]
            base, step = F.ctypes.data, F.strides[0]
            for a in range(base, base + k * step, step):
                # a Cholesky factor has a positive diagonal: never singular
                call(b"L", b"N", n_, ctypes.c_void_p(a), n_, info, *tail)
        return np.ascontiguousarray(F.mT)

    def dgeqp3(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pivoted QR factorization of ``a``, as scipy's ``qr(a,
        mode="r", pivoting=True)`` takes it: the factored Fortran-ordered
        copy, ``R`` in its upper triangle, and the pivots from 0.  The
        workspace comes from a query first, since the blocked code depends on
        it."""
        _finite(a)
        qr = np.array(a, order="F")
        m, n = qr.shape
        jpvt, tau = np.zeros(n, dtype=self.index), np.empty(min(m, n))
        info = self.int_type(0)

        def call(work: np.ndarray, lwork: int) -> None:
            self._run("dgeqp3", self._int(m), self._int(n), _ptr(qr), self._int(m),
                      _ptr(jpvt, self.index), _ptr(tau), _ptr(work), self._int(lwork),
                      ctypes.byref(info))

        query = np.empty(1)
        call(query, -1)  # the optimal workspace, into query[0]
        work = np.empty(max(int(query[0]), 1))
        call(work, work.size)
        return qr, jpvt - 1

    def dsbgvx(self, ab: np.ndarray, bb: np.ndarray) -> tuple[np.ndarray, int]:
        """Every eigenvalue, ascending, and no eigenvector of the banded
        pencil whose upper bands are ``ab`` and ``bb`` (Fortran-ordered, both
        overwritten), and ``info``."""
        n, ka, kb = ab.shape[1], ab.shape[0] - 1, bb.shape[0] - 1
        if bb.shape[1] != n:
            raise ValueError("dsbgvx takes two bands of one size")
        w = np.empty(n)
        unused = np.empty(1)  # q and z: not referenced without eigenvectors
        work = np.empty(7 * n)
        iwork, ifail = np.empty(5 * n, dtype=self.index), np.empty(n, dtype=self.index)
        found, info = self.int_type(0), self.int_type(0)
        zero = ctypes.byref(ctypes.c_double(0.0))  # vl, vu (unused) and abstol (default)
        self._run("dsbgvx", b"N", b"A", b"U", self._int(n), self._int(ka), self._int(kb),
                  _ptr(ab), self._int(ka + 1), _ptr(bb), self._int(kb + 1), _ptr(unused),
                  self._int(1), zero, zero, self._int(1), self._int(n), zero,
                  ctypes.byref(found), _ptr(w), _ptr(unused), self._int(1), _ptr(work),
                  _ptr(iwork, self.index), _ptr(ifail, self.index), ctypes.byref(info))
        return w[:found.value], info.value

    def dgbtrf(self, ab: np.ndarray, kl: int, ku: int) -> tuple[np.ndarray, int]:
        """The LU factorization of the square general band ``ab``
        (Fortran-ordered, ``kl`` more rows for the fill, overwritten by the
        factors): the pivots, from 1, and ``info``."""
        ldab, n = ab.shape
        if ldab < 2 * kl + ku + 1:
            raise ValueError("dgbtrf takes kl more rows for the fill")
        ipiv, info = np.empty(n, dtype=self.index), self.int_type(0)
        self._run("dgbtrf", self._int(n), self._int(n), self._int(kl), self._int(ku), _ptr(ab),
                  self._int(ldab), _ptr(ipiv, self.index), ctypes.byref(info))
        return ipiv, info.value

    def dgbtrs(self, lu: np.ndarray, kl: int, ku: int, ipiv: np.ndarray):
        """A function that solves ``A x = b`` for one right-hand side ``b`` in
        place and returns it, from the factors ``lu`` and pivots ``ipiv`` of
        :meth:`dgbtrf`; the arguments but ``b`` are converted once."""
        ldab, n = lu.shape
        if ipiv.shape != (n,):
            raise ValueError("dgbtrs takes one pivot per column")
        head = (b"N", self._int(n), self._int(kl), self._int(ku), self._int(1), _ptr(lu),
                self._int(ldab), _ptr(ipiv, self.index))
        tail = (self._int(n), ctypes.byref(self.int_type(0)), *self._tails["dgbtrs"])
        call = self._calls["dgbtrs"]

        def solve(b: np.ndarray) -> np.ndarray:
            if b.shape != (n,):
                raise ValueError(f"dgbtrs takes a right-hand side of {n} entries")
            call(*head, _ptr(b), *tail)
            return b

        solve.factors = lu, ipiv  # the addresses in head stay valid while solve lives
        return solve

    def dpbtrf(self, band: np.ndarray) -> tuple[np.ndarray, int]:
        """The upper banded Cholesky factor of the symmetric matrix whose upper
        band is ``band``, on a Fortran-ordered copy, and ``info``: scipy's
        ``cholesky_banded(band)``."""
        _finite(band)
        factor = np.array(band, order="F")
        info = self.int_type(0)
        self._run("dpbtrf", b"U", self._int(factor.shape[1]), self._int(factor.shape[0] - 1),
                  _ptr(factor), self._int(factor.shape[0]), ctypes.byref(info))
        return factor, info.value


def _numpy_source() -> _Lapack | None:
    """The routines of the LAPACK numpy links, or ``None`` without them."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)  # searched with its dependencies
    except (ImportError, OSError):
        return None
    for suffix, int_type in (("_64_", ctypes.c_int64), ("_", ctypes.c_int32)):
        try:
            addresses = {name: ctypes.cast(lib[f"scipy_{name}{suffix}"], ctypes.c_void_p).value
                         for name in _CHARS}
        except AttributeError:
            continue
        return _Lapack(addresses, int_type, hidden=True)
    return None


def _scipy_source() -> _Lapack:
    """The routines of scipy's ``cython_lapack``, from its C function
    pointers: 32-bit integers, and no hidden lengths."""
    import scipy.linalg.cython_lapack

    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsules = scipy.linalg.cython_lapack.__pyx_capi__
    addresses = {name: get_pointer(capsules[name], get_name(capsules[name])) for name in _CHARS}
    return _Lapack(addresses, ctypes.c_int, hidden=False)


lapack = _numpy_source() or _scipy_source()
