"""Solution of the generalized eigenproblem ``K U = lambda M U``.

The pencil is symmetric with positive definite mass.  There are two paths,
one per kind of result:

- :func:`solve_gevp` computes every eigenpair, by one of two routes picked
  from the operator itself:

  - the block-Fourier ("Bloch") route, when every block of the layout is
    the same patch: Dirichlet conditions, ``C^0`` separators, at least two
    blocks of ``block_size`` elements, and stored bands that repeat from
    block to block and are mirror-symmetric within one.  A sine transform
    over the blocks splits the pencil into ``n_b - 1`` pencils of size
    ``m + 1`` (``m`` bubbles per block and one interface), one per
    wavenumber ``k pi / n_b``, solved in one batched call, plus the ``m``
    stopping-band modes of the bubble pencil.  The eigenvectors stay
    factored: the returned spectrum keeps the per-wavenumber amplitudes and
    the bubble vectors, and builds any block of columns from them in O(n)
    per column, so no n x n array is formed and ``DENSE_LIMIT`` does not
    apply.  Its modes' quadrature forms are summed over one block, which
    stands for every block: the Bloch dispersion of condensed
    macro-elements (Hughes, Reali & Sangalli 2008);
  - a dense LAPACK ``dsygvd`` (a triangular factorization of ``M`` reduces
    the pencil to a standard symmetric problem) for every other
    pencil: ragged layouts, one block (IGA), Neumann conditions, smoother
    separators, and pencils without a layout.  It holds the n x n
    eigenvector array, so it refuses more than ``DENSE_LIMIT`` dofs, and
    sums its quadrature forms over the whole mesh, as one block.

  Both routes then take the same steps.  Each mode's forms ``v^T K v = sum_q
  w_q v'(x_q)^2`` and ``v^T M v = sum_q w_q v(x_q)^2`` at the points of
  ``op.quadrature`` are checked against the pencil, on whose bands they are
  the mode's eigenvalue and ``1``, and the eigenvalues are their quotients,
  unless the bands are not the assembly of ``op.kv`` under that rule (a
  pencil without a layout keeps its own eigenvalues, and has no forms).  The
  spectrum keeps those forms and sums any other rule's on request
  (:meth:`Spectrum.forms`).  Callers read eigenvectors a block of columns
  at a time (:meth:`Spectrum.columns` over :meth:`Spectrum.blocks`), or as
  unsigned Bloch factors (:meth:`Spectrum.factors`): two fields on one
  closed block and their block patterns, from which the error budget
  integrates a column over one block.  Eigenvectors are normalized against
  the assembled mass matrix.  A run of eigenvalues with gaps of at most ``n eps
  lambda_max`` cannot be resolved by either route, so its vectors are an
  arbitrary basis of the run's subspace; they are replaced by the
  subspace's localized (SCDM) basis, which is the same whichever route
  found the subspace (but for a pick between rows of equal norm), an
  orthogonal combination ``V G`` of the run's vectors
  (:func:`_localized_runs`).  The dense route builds these columns and sums
  their forms over the whole mesh.  The block-Fourier route keeps ``G``
  alone: its rows come from the factors, and the forms and pair products
  of a localized column from those of its modes, since modes of different
  Bloch classes do not meet at the quadrature points
  (:meth:`_BlochSpectrum._localize_forms`).  It builds no column for a
  tight run either.  Each column is signed so that its leading entry is
  positive: on the block-Fourier route, when it is built.
- :func:`solve_eigenvalues` computes every eigenvalue and no eigenvector,
  by one of two routes picked as above:

  - on a layout of repeated blocks, the eigenvalues of the same
    per-wavenumber pencils and of the bubble pencil, from batched Cholesky
    factorizations and ``eigvalsh`` over chunks of wavenumbers.  It builds
    no n x n array, so ``DENSE_LIMIT`` does not apply to it;
  - on every other pencil, LAPACK ``dsbgvx`` straight from the stored upper
    bands (split Cholesky factorization of ``M``, band reduction to
    tridiagonal form, then a root-free QL sweep): O(n^2 p) time and O(n p)
    memory, against O(n^3) time and two n x n copies for the dense route,
    and the same bits as LAPACK ``dsbgvd``.  The reduction chases bulges in
    O(n^2) however few values are wanted, so ``converge`` polishes its mode
    at the mode's exact eigenvalue instead of solving for it.

Every eigensolver is backward stable, so its eigenvalues are accurate to
about ``n eps lambda_max`` in absolute terms, not relative to themselves; on
fine meshes that noise swamps the discretization error of the lowest modes,
and so does the cancellation of quotients formed on the stored bands.  The
quotients at the quadrature points are free of both on every mode: their
error is quadratic in the eigenvectors', their slopes come from differences
of neighbouring coefficients rather than from sums that cancel, and their
sums add terms of one sign (under a rule of positive weights).
:func:`polish_eigenvalue` takes the same quotient for the one mode nearest
an estimate, from inverse
iteration with one LU factorization on the bands (LAPACK ``dgbtrf``): O(n
p^2) for a pencil of any size, and no eigensolve when the estimate is the
mode's exact eigenvalue.  The quotient is the same to a rounding or two
from any start, so the iteration starts from a fixed deterministic vector,
not a random one.  One banded Cholesky factorization then certifies
such a mode as the lowest (:func:`_certify_lowest`).

The LAPACK routines (``dsygvd``, ``dtrtri`` in :func:`_pencil_eigh`,
``dgeqp3`` in :func:`_localized_runs`, ``dsbgvx``, ``dgbtrf``, ``dgbtrs`` and
``dpbtrf``) are bound through ctypes to the LAPACK numpy has already loaded
(``_lapack``), so the package imports no scipy module: scipy's import was
most of a CLI run's start-up.  Nor does it import ``numpy.random`` (6 MB
resident), since the polish starts from a deterministic vector.
"""

from __future__ import annotations

import math

import numpy as np

from ._lapack import lapack
from .assembly import DiscreteOperator, NumericalError, SymmetricBandedMatrix
from .quadrature import QuadratureSpec, map_rule_to_element
from .splines import _point_sums, span_basis_rows

__all__ = ["Spectrum", "solve_gevp", "solve_eigenvalues", "polish_eigenvalue"]

DENSE_LIMIT = 6000
# entries per block of eigenvector columns or of stacked per-wavenumber
# pencils: 512 KB per temporary, whatever the mesh
_BLOCK_ENTRIES = 1 << 16
# the stored bands of a repeated patch agree to this fraction of their largest
# entry, plus n_elements eps: knot rounding grows with the element count.  A
# mode's quadrature forms match its pencil eigenvalue and 1 to the same
# tolerance plus the solver's n eps (see _settle): on the dense route at most
# 0.001 of it, up to riga(5900, 2, 99) and iga(5990, 2), under each rule
_PATCH_TOL = 1e-12
# entries this close (relative) to a column's largest magnitude tie for its
# sign.  It must exceed the mirror asymmetry of the dense route's mirror-odd
# modes, or round-off picks their sign: up to 4.4e-11 on riga(60, 2, 10)
# (5.7e-12 under Gauss) and 2.4e-10 on riga(300, 3, 30), counting the modes
# odd to 1e-9, against 4e-15 on the block-Fourier route
_SIGN_TIE = 1e-9
# relative offset of the inverse-iteration shift below the estimate, so that
# the shift is never exactly an eigenvalue.  Each step shrinks the other
# modes' share by the ratio of the wanted mode's distance from the shift to
# the next one's.  The steps stop once one moves the iterate (scaled to a
# largest entry of 1) by at most _POLISH_TOL, which leaves the quotient, whose
# error is quadratic in the iterate's, right to a rounding; the round-off of
# the iterate itself stays below that up to a million linear elements
_POLISH_SHIFT = 1e-8
_POLISH_TOL = 1e-8
_POLISH_MAX_STEPS = 50
# the penalty on v(1/2)^2, in units of the eigenvalue, that lifts the Neumann
# constant mode above the shift of _certify_lowest
_CERTIFY_PENALTY = 16.0


class Spectrum:
    """All eigenpairs, ascending: ``eigenvalues[j]`` and eigenvector column
    ``j`` belong to mode ``j + 1``.

    Callers read the eigenvectors a block of columns at a time,
    :meth:`columns` over the bounds of :meth:`blocks`, so that no n x n array
    need exist, or up to sign as the Bloch factors of :meth:`factors`, and
    their quadrature forms under any rule from :meth:`forms`.  This class
    slices one dense array, the dense route's, and is one block of the whole
    mesh; the block-Fourier route's :class:`_BlochSpectrum` builds each block
    from its factors.  :attr:`eigenvectors` is every column at once.  The
    spectrum holds the knot vector ``kv`` of its mesh and the basis index of
    each row, ``dofs``, not the bands it was solved on; a pencil without a
    mesh has neither, and no forms.
    """

    def __init__(self, eigenvalues: np.ndarray, vectors: np.ndarray, kv=None,
                 dofs: np.ndarray | None = None):
        self.eigenvalues = eigenvalues
        self._vectors = vectors
        self._kv, self._dofs = kv, dofs
        self._forms = {}  # the forms of each rule, once formed

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def eigenvectors(self) -> np.ndarray:
        """Every column: an n x n array."""
        return self.columns(0, self.n_modes)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """Eigenvector columns ``lo .. hi - 1``, mass-normalized and signed as
        :func:`solve_gevp` describes: here a view of the dense array."""
        return self._vectors[:, lo:hi]

    def factors(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The factors ``(coefficients, pattern)`` of columns ``lo .. hi - 1``,
        as :meth:`_BlochSpectrum.factors` describes them, unsigned: they give
        each column up to its sign.  Here one block, the whole mesh: the
        columns themselves, a tight run's localized ones included, scattered
        onto every basis function of ``kv`` (zero on those removed by
        boundary conditions) as one field under the pattern ``1``."""
        return _scattered(self._kv, self._dofs, self.columns(lo, hi)), np.ones((1, 1, hi - lo))

    def forms(self, rule: QuadratureSpec) -> np.ndarray:
        """``(v^T K v, v^T M v)`` of every column, one row each: the sums of
        ``w_q v'(x_q)^2`` and of ``w_q v(x_q)^2`` over the points ``x_q`` and
        weights ``w_q`` of ``rule`` on every element of the spectrum's mesh.
        They are the forms on the bands assembled under ``rule``, without the
        cancellation of band products on smooth columns.

        Each rule's forms are formed once and kept, read-only; the solve
        keeps those of the rule it solved under.  Rules that resolve to the
        same points on the mesh (kind, point count and ``tau``), such as the
        default and an explicit ``p + 1`` Gauss points, share them.  Here
        each column is summed over the whole mesh, as one block: O(n_e q (p
        + 1)) per column for ``q`` points per element."""
        for kept, forms in self._forms.items():  # kept forms imply a mesh
            if kept.resolved(self._kv.p) == rule.resolved(self._kv.p):
                return forms
        self._keep(rule, self._point_forms(rule))
        return self._forms[rule]

    def _point_forms(self, rule: QuadratureSpec) -> np.ndarray:
        return _mesh_forms(self._kv, self._dofs, rule, self._vectors)

    def _keep(self, rule: QuadratureSpec, forms: np.ndarray) -> None:
        forms.flags.writeable = False
        self._forms[rule] = forms

    def blocks(self, lo: int = 0, entries: int | None = None) -> list[tuple[int, int]]:
        """Bounds ``(a, b)`` of consecutive column blocks covering columns
        ``lo .. n_modes - 1``, each of about ``_BLOCK_ENTRIES`` entries, a
        column holding ``entries`` of them (``n_modes`` by default: a built
        column).  No block is one column wide unless the range is: the error
        budget's load moments sum such a block in another order (see
        :func:`~splinespectra.analysis._load_moments`)."""
        if self.n_modes <= lo:
            return []
        width = max(2, _BLOCK_ENTRIES // (self.n_modes if entries is None else entries))
        return _bounds(lo, self.n_modes, width)


def _bounds(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """Bounds ``(a, b)`` of ranges of ``width`` covering ``lo .. hi - 1``, the
    last up to ``2 width - 1`` wide: none is one wide unless ``hi - lo`` is."""
    edges = [*range(lo, max(hi - 1, lo + 1), width), hi]
    return list(zip(edges[:-1], edges[1:]))


def _signs(V: np.ndarray) -> np.ndarray:
    """``+1`` or ``-1`` per column of ``V``, the sign of its leading entry.

    The leading entry is the first one within ``1 - _SIGN_TIE`` of the
    column's largest magnitude, so that a mirror-antisymmetric mode, whose
    two largest entries are equal and opposite, is signed by position, not
    by round-off.
    """
    mag = np.abs(V)
    lead = (mag >= (1.0 - _SIGN_TIE) * mag.max(axis=0)).argmax(axis=0)
    signs = np.sign(V[lead, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def _check_size(n: int) -> None:
    if n > DENSE_LIMIT:
        raise ValueError(f"eigensolve refused: {n} dofs exceed the limit of {DENSE_LIMIT}")


def solve_gevp(op: DiscreteOperator) -> Spectrum:
    """Solve ``K U = lambda M U`` for the complete spectrum.

    Eigenvalues come back sorted ascending with matching eigenvector columns,
    mass-normalized (``v^T M v = 1``) against the assembled ``M``.

    A layout whose blocks all repeat one patch (Dirichlet conditions, ``C^0``
    separators, at least two blocks of equal size, bands that repeat and are
    mirror-symmetric) is solved by its per-wavenumber pencils, whatever its
    size, its eigenvectors factored and built a block of columns at a time.
    Any other pencil, including one without a ``layout``, takes a dense
    LAPACK ``dsygvd``.  Either way (:func:`_settle`), the
    eigenvalues are the quotients of the quadrature forms at the points of
    ``op.quadrature``, each run of eigenvalues closer than ``n eps
    lambda_max`` gets its localized basis, and each column is signed so
    that its leading entry, the first within ``1e-9`` (relative) of its
    largest magnitude, is positive.

    Raises
    ------
    ValueError
        If the pencil takes the dense route and its dimension exceeds
        ``DENSE_LIMIT``.
    """
    patch = _uniform_patch(op)
    if patch is not None:
        return _BlochSpectrum(op, *patch)
    _check_size(op.n_dofs)
    w, V = _dense_eigenpairs(op)
    kv, dofs = getattr(op, "kv", None), getattr(op, "dof_indices", None)
    forms = None if kv is None else _mesh_forms(kv, dofs, op.quadrature, V)
    w, order, forms, runs = _settle(op, w, forms,
                                    lambda modes: lambda rows: V[np.ix_(rows, modes)])
    moved = np.flatnonzero(order != np.arange(w.size))
    V[:, moved] = V[:, order[moved]]
    for lo, hi, G in runs:
        V[:, lo:hi] = V[:, lo:hi] @ G
        if forms is not None:
            forms[:, lo:hi] = _mesh_forms(kv, dofs, op.quadrature, V[:, lo:hi])
    spectrum = Spectrum(w, V, kv, dofs)
    for lo, hi in spectrum.blocks():
        V[:, lo:hi] *= _signs(V[:, lo:hi])
    if forms is not None:
        spectrum._keep(op.quadrature, forms)
    return spectrum


def _settle(op, lam: np.ndarray, forms: np.ndarray | None, rows):
    """The steps both routes of :func:`solve_gevp` take after their
    eigenpairs: ``(eigenvalues, order, forms, runs)`` from the pencil
    eigenvalues ``lam`` of the modes and their forms under ``op.quadrature``
    (``None`` without a mesh).  On the stored bands a mode's forms are its
    pencil eigenvalue and ``1``; where all match within ``_PATCH_TOL +
    (n_elements + n) eps`` (times ``lambda_max`` for the eigenvalues), in
    O(n), the eigenvalues are the quotients, else those of the pencil the
    eigenvectors solve.  ``order`` sorts them, stably, and ``forms`` follow
    it.  ``runs`` are the ``(lo, hi, G)`` of the :func:`_localized_runs` of
    the sorted eigenvalues, from ``rows(modes)``, a function of row indices
    that gives those rows of the modes' unsigned eigenvectors: the localized
    columns of run ``lo .. hi - 1`` are its sorted columns times ``G``.  The
    caller replaces the run's forms, still those of its modes."""
    if forms is not None:
        vKv, vMv = forms
        tol = _PATCH_TOL + (op.layout.n_elements + lam.size) * np.finfo(float).eps
        if (np.abs(vMv - 1.0).max() <= tol
                and np.abs(vKv / vMv - lam).max() <= tol * np.abs(lam).max()):
            lam = vKv / vMv
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    runs = [(lo, hi, G) for lo, hi, _, G in _localized_runs(
        lam, lambda a, b: rows(order[a:b]))]
    return lam, order, None if forms is None else forms[:, order], runs


def _dense_eigenpairs(op: DiscreteOperator) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of the pencil, by LAPACK ``dsygvd`` on its dense
    matrices: the eigenvalues and the Fortran-ordered eigenvector array."""
    # K and M are fresh and exactly symmetric: their transposes are
    # Fortran-ordered views that LAPACK overwrites without a copy
    V, M = op.K.to_dense().T, op.M.to_dense().T
    w, info = lapack.dsygvd(V, M)
    n = w.size
    if info > n:  # pragma: no cover - guarded at assembly
        raise NumericalError(
            f"generalized eigensolve failed: The leading minor of order {info - n} of B is "
            "not positive definite. The factorization of B could not be completed and no "
            "eigenvalues or eigenvectors were computed.")
    if info:  # pragma: no cover
        raise NumericalError(
            "generalized eigensolve failed: The algorithm failed to compute an eigenvalue "
            f"while working on the submatrix lying in rows and columns {info}/{n + 1} "
            f"through mod({info},{n + 1}).")
    return w, V


def _uniform_patch(op) -> tuple | None:
    """``(n_blocks, K_patch, M_patch)`` when every block of ``op`` repeats one
    mirror-symmetric patch, else ``None``.

    The layout must have Dirichlet conditions, ``C^0`` separators and
    ``n_elements`` a multiple of ``block_size``, with at least two blocks;
    the reduced dofs then run
    block by block, ``m`` bubbles (``layout.bubble_counts``) and one interface.
    To ``1e-12 + n_elements eps`` of the band's largest entry (knot rounding
    makes the bands repeat only to about ``n_elements eps``), the stored
    bands must equal
    themselves shifted by one block, the first block's bubble pencil must be
    invariant under the mirror ``J`` (reversal of the bubbles), its bubbles
    must not couple to the next block, and its interface must couple to the
    next block's bubbles by ``J`` times its coupling to its own.  Each patch
    is ``(A_bb, r, a_ss, a_st)``: the bubble block, its coupling to the
    right interface, the interface diagonal and the coupling between
    neighbouring interfaces.  They are read from the bands averaged over all
    blocks.  Knot rounding grows along the mesh, so the first blocks' own
    pencil eigenvalues would drift from the assembled pencil's by up to
    about ``n_elements eps lambda_max``; the mean patch's stay within about
    ``4e-14 lambda_max`` (p up to 5, up to 900 elements).
    """
    layout = getattr(op, "layout", None)
    if layout is None or layout.bc != "dirichlet" or layout.separator_continuity != 0:
        return None
    n_blocks, rest = divmod(layout.n_elements, layout.block_size)
    m = int(layout.bubble_counts[0])
    period = m + 1
    n = op.n_dofs
    if n_blocks < 2 or rest or n != n_blocks * period - 1:
        return None
    window = np.arange(min(2 * period, n))
    tol = _PATCH_TOL + layout.n_elements * np.finfo(float).eps
    patches = []
    for A in (op.K, op.M):
        if A.bandwidth > period:
            return None
        W = A.restricted(window).to_dense()
        bb, r = W[:m, :m], W[:m, m]
        shifted = A.restricted(np.arange(period, n)).band \
            - A.restricted(np.arange(n - period)).band
        mismatch = np.max([np.abs(bb - bb[::-1, ::-1]).max(initial=0.0),
                           np.abs(W[:m, period:]).max(initial=0.0),
                           np.abs(W[m, period:period + m] - r[::-1]).max(initial=0.0),
                           np.abs(shifted).max(initial=0.0)])
        if not mismatch <= tol * np.abs(A.band).max():
            return None
        W = _block_mean(A, n_blocks, window.size)
        st = W[m, -1] if window.size == 2 * period else 0.0
        patches.append((W[:m, :m], W[:m, m], W[m, m], st))
    return n_blocks, *patches


def _block_mean(A: SymmetricBandedMatrix, n_blocks: int, size: int) -> np.ndarray:
    """The leading ``size`` rows and columns (at most two blocks) of ``A``,
    dense, with each stored band entry averaged over the blocks that hold it."""
    period = (A.n + 1) // n_blocks
    # the eliminated last interface is a zero column, left out of its mean
    cols = np.pad(A.band, ((0, 0), (0, 1))).reshape(A.bandwidth + 1, n_blocks, period)
    first, second = cols[:, :-1].mean(axis=1), cols[:, 1:].mean(axis=1)
    if n_blocks > 2:
        second[:, -1] = cols[:, 1:-1, -1].mean(axis=1)
    band = np.hstack([first, second])[:, :size]
    return SymmetricBandedMatrix(band).restricted(np.arange(size)).to_dense()


def _pencil_eigh(A: np.ndarray, B: np.ndarray, vectors: bool = True):
    """Eigenpairs of stacked symmetric pencils ``(A[k], B[k])``, each ``B[k]``
    positive definite, in one batched call; vectors are ``B``-orthonormal.
    With ``vectors=False``, the eigenvalues alone.  Each Cholesky factor
    is inverted by LAPACK ``dtrtri``, one call per pencil: a triangular
    inverse, a quarter of the work of a general one.  The stack's arguments
    are converted once, so a call costs no more than scipy's wrapper of the
    routine."""
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"patch mass matrix not positive definite: {exc}") from exc
    Linv = lapack.dtrtri(L)
    C = Linv @ A @ Linv.mT
    if not vectors:
        return np.linalg.eigvalsh(C)
    w, Z = np.linalg.eigh(C)
    return w, Linv.mT @ Z


def _folded_pencils(n_blocks: int, K_patch: tuple, M_patch: tuple,
                    ks: np.ndarray | None = None):
    """The sine transform over the blocks of a pencil of :func:`_uniform_patch`.

    The mirror splits the ``m`` bubbles into ``me`` even and ``mo`` odd
    combinations, the columns of ``Qe`` and ``Qo``.  At wavenumber
    ``theta_k = k pi / n_b``, ``k = 1 .. n_b - 1``, the interfaces carry
    ``sin(theta b) X``, the even bubbles ``sin(theta (b - 1/2))`` and the odd
    ones ``cos(theta (b - 1/2))`` in block ``b = 1 .. n_b``, and the
    amplitudes solve the ``(m + 1)``-sized pencil ``(KA[i], MA[i])`` of the
    ``i``-th wavenumber ``k`` of ``ks`` (all of them by default), even bubbles
    first, then odd ones, then the interface.  Its leading ``me`` and next
    ``mo`` rows and columns, the same at every wavenumber, are the even and
    odd bubble pencils.  Returns ``(KA, MA, Qe, Qo)``.
    """
    m = K_patch[0].shape[0]
    period, me, mo = m + 1, (m + 1) // 2, m // 2
    half = math.sqrt(0.5)
    Qe, Qo = np.zeros((m, me)), np.zeros((m, mo))
    i = np.arange(mo)
    Qe[i, i] = Qe[m - 1 - i, i] = Qo[i, i] = half
    Qo[m - 1 - i, i] = -half
    if m % 2:
        Qe[mo, mo] = 1.0
    ks = np.arange(1, n_blocks) if ks is None else ks
    theta = ks * math.pi / n_blocks

    def folded(patch):
        bb, r, ss, st = patch
        A = np.zeros((ks.size, period, period))
        A[:, :me, :me] = Qe.T @ bb @ Qe
        A[:, me:m, me:m] = Qo.T @ bb @ Qo
        A[:, :m, m] = A[:, m, :m] = np.hstack(
            [np.outer(2.0 * np.cos(theta / 2), Qe.T @ r),
             np.outer(2.0 * np.sin(theta / 2), Qo.T @ r)])
        A[:, m, m] = ss + 2.0 * st * np.cos(theta)
        return A

    return folded(K_patch), folded(M_patch), Qe, Qo


def _wave_chunks(n_blocks: int, K_patch: tuple, M_patch: tuple):
    """``(ks, KA, MA, Qe, Qo)``: the folded pencils of :func:`_folded_pencils`
    at the wavenumbers ``ks``, over chunks of consecutive ``k = 1 .. n_b -
    1`` of about ``_BLOCK_ENTRIES`` entries per stacked array, so that no
    stack of all ``n_b - 1`` pencils, their factors or their products is
    ever held."""
    chunk = max(1, _BLOCK_ENTRIES // (K_patch[0].shape[0] + 1) ** 2)
    for k in range(1, n_blocks, chunk):
        ks = np.arange(k, min(k + chunk, n_blocks))
        yield ks, *_folded_pencils(n_blocks, K_patch, M_patch, ks)


def _bloch_eigenvalues(n_blocks: int, K_patch: tuple, M_patch: tuple) -> np.ndarray:
    """Every eigenvalue of a pencil of :func:`_uniform_patch`, ascending: those
    of the per-wavenumber pencils of :func:`_folded_pencils` and of the even
    and odd bubble pencils, the stopping bands.  O(n_b m^3) time.  The
    wavenumbers go in the chunks of :func:`_wave_chunks`, so memory is
    ``_BLOCK_ENTRIES`` per temporary plus the ``n`` values; no n x n
    array."""
    values = []
    for _, KA, MA, Qe, _ in _wave_chunks(n_blocks, K_patch, M_patch):
        values.append(_pencil_eigh(KA, MA, vectors=False).ravel())
    m, me = Qe.shape
    for bubbles in (slice(0, me), slice(me, m)):
        values.append(_pencil_eigh(KA[:1, bubbles, bubbles], MA[:1, bubbles, bubbles],
                                   vectors=False).ravel())
    return np.sort(np.concatenate(values))


class _BlochSpectrum(Spectrum):
    """Every eigenpair of a pencil of :func:`_uniform_patch`, its eigenvectors
    kept as Bloch factors and built a block of columns at a time.

    The modes are the ``(n_b - 1)(m + 1)`` wave modes of the per-wavenumber
    pencils of :func:`_folded_pencils`, and the ``m`` stopping-band modes of
    the bubble pencils, even ones with the block pattern ``(-1)^b`` and odd
    ones repeated unchanged, zero on every interface.  The transforms are
    the orthonormal DST-I, DST-II and DCT-II, so the built vectors are
    ``M``-orthonormal.  The factors are the per-wavenumber amplitudes ``Y``,
    the bubble vectors, and tables of the block patterns at each
    wavenumber: O(n_b m^2) memory.  The pencils are solved in the chunks of
    :func:`_wave_chunks`.  Besides the factors the spectrum keeps the mode
    of each column and, for each tight run (see :func:`_localized_runs`),
    the ``r x r`` matrix ``G`` that combines the run's modes into its
    localized columns: O(n + r^2).

    :meth:`factors` hands out the factors of any block of columns: two
    fields on the first block's basis functions, from its left interface to
    its right one, and their block patterns.  A caller can then integrate a
    column over the first block and sum over the blocks by the patterns, in
    O(m + n_b) per column.

    Each mode's quadrature forms are summed over one block
    (:meth:`_block_forms`), and those of a tight run's localized columns
    follow from its modes' (:meth:`_localize_forms`), so neither the solve
    nor the forms build a column: the modes are built and signed when
    :meth:`columns` is called.
    """

    def __init__(self, op: DiscreteOperator, n_blocks: int, K_patch: tuple,
                 M_patch: tuple):
        m = K_patch[0].shape[0]
        period = m + 1
        n_wave = (n_blocks - 1) * period
        lam = np.empty(n_wave + m)
        self._Y = np.empty((period, n_wave))  # column (k - 1) (m + 1) + t
        for ks, KA, MA, Qe, Qo in _wave_chunks(n_blocks, K_patch, M_patch):
            cols = slice((ks[0] - 1) * period, ks[-1] * period)
            w, Y = _pencil_eigh(KA, MA)
            lam[cols] = w.ravel()
            self._Y[:, cols] = Y.transpose(1, 0, 2).reshape(period, -1)
        me = Qe.shape[1]
        # the bubble pencils are the same at every wavenumber
        lam_even, Z_even = _pencil_eigh(KA[:1, :me, :me], MA[:1, :me, :me])
        lam_odd, Z_odd = _pencil_eigh(KA[:1, me:m, me:m], MA[:1, me:m, me:m])
        lam[n_wave:] = np.concatenate([lam_even[0], lam_odd[0]])
        super().__init__(None, None, op.kv, op.dof_indices)
        self._n, self._n_blocks, self._m = op.n_dofs, n_blocks, m
        self._size = op.layout.block_size
        # the patterns of the fields A and B, one column per wavenumber
        phi = (np.arange(n_blocks)[:, None] + 0.5) * (np.arange(1, n_blocks) * math.pi / n_blocks)
        self._phases = math.sqrt(2.0 / n_blocks) * np.stack([np.sin(phi), np.cos(phi)])
        self._bands = np.hstack([Qe @ Z_even[0], Qo @ Z_odd[0]]) / math.sqrt(n_blocks)

        self.eigenvalues, self._modes, forms, self._runs = _settle(
            op, lam, self._block_forms(op.quadrature), self._rows)
        self._localize_forms(forms, op.quadrature)
        self._keep(op.quadrature, forms)

    def _point_forms(self, rule: QuadratureSpec) -> np.ndarray:
        forms = self._block_forms(rule)[:, self._modes]
        self._localize_forms(forms, rule)
        return forms

    def _block_forms(self, rule: QuadratureSpec) -> np.ndarray:
        """:meth:`forms` of every mode, in mode order, as sums over the
        quadrature points of one block.

        On block ``b``, a wave mode of wavenumber ``theta`` is ``sin(phi_b) A
        + cos(phi_b) B`` with ``phi_b = theta (b - 1/2)``, times the pattern
        scale ``sqrt(2 / n_b)``; :meth:`_block_coefficients` gives ``A`` and
        ``B``.  For ``k = 1 .. n_b - 1`` the sums of ``sin^2(phi_b)`` and of
        ``cos^2(phi_b)`` over the blocks are ``n_b / 2`` and that of
        ``sin(phi_b) cos(phi_b)`` is zero, so ``int v'^2 = int_block (A'^2 +
        B'^2)``, and the same for ``v^2``.  A band mode's sums are ``n_b``
        times one block's.  Every block repeats the first one's ``B + p``
        functions, so the sums run there (:func:`_quadrature_forms`), in
        O(B q (p + 1)) per mode."""
        forms = _quadrature_forms(self._kv, rule, self._size, self._block_coefficients,
                                  self._n, fields=2)
        forms[:, self._Y.shape[1]:] *= self._n_blocks
        return forms

    def _localize_forms(self, forms: np.ndarray, rule: QuadratureSpec) -> None:
        """Replace, in the sorted ``forms`` under ``rule``, those of each tight
        run's modes by those of its localized columns, in O(r^2) per run.

        Extended oddly to ``[-1, 1]`` and periodically beyond, a mode is a
        sum of Bloch waves of the ``2 n_b``-block lattice of one class ``q``
        up to sign (:meth:`_classes`): ``k`` for a wave mode, ``0`` for an
        odd band mode and ``n_b`` for an even one.  The blocks and the rule
        are mirror-symmetric, so the sums over the quadrature points of
        products of two modes of different classes vanish: the point Gram of
        the run's modes is block-diagonal by class.  A localized column
        ``sum_c G[c, j] v_c`` then has the forms ``sum_c G[c, j]^2
        forms(v_c)`` over the classes with one mode in the run, and, for a
        class with more, the one-block forms of the class's combination."""
        for lo, hi, G in self._runs:
            modes = self._modes[lo:hi]
            q = self._classes(modes)
            counts = np.bincount(q, minlength=self._n_blocks + 1)
            single = counts[q] == 1
            out = forms[:, lo:hi][:, single] @ np.square(G[single])
            for c in np.flatnonzero(counts > 1):
                mine = q == c
                C = np.tensordot(self._block_coefficients(modes[mine]), G[mine], axes=1)
                combined = _quadrature_forms(self._kv, rule, self._size,
                                             lambda cols: C[:, :, cols], hi - lo, fields=2)
                out += combined * (self._n_blocks if c in (0, self._n_blocks) else 1)
            forms[:, lo:hi] = out

    def _classes(self, modes: np.ndarray) -> np.ndarray:
        """The Bloch class ``q`` of each mode, ``0 .. n_b``: ``k`` for a wave
        mode of wavenumber ``k pi / n_b``, ``n_b`` for an even band mode
        (pattern ``(-1)^b``) and ``0`` for an odd one (pattern ``1``)."""
        m, n_wave = self._m, self._Y.shape[1]
        return np.where(modes < n_wave, modes // (m + 1) + 1,
                        np.where(modes - n_wave < (m + 1) // 2, self._n_blocks, 0))

    def _block_coefficients(self, modes: np.ndarray) -> np.ndarray:
        """The coefficients of the fields ``A`` and ``B`` of ``modes`` (indices
        into the wave modes, ``k * (m + 1) + t``, then the even and the odd
        band modes) on the first block's left interface, its ``m`` bubbles and
        its right interface: ``(m + 2, 2, modes.size)``.

        ``A`` has the coefficients ``[c X, Qe y_e, c X]`` and ``B`` has ``[-s
        X, Qo y_o, s X]``, with ``c = cos(theta / 2)``, ``s = sin(theta /
        2)`` and ``X`` the interface amplitude: ``sin(theta b)`` and
        ``sin(theta (b - 1))`` are ``c sin(phi_b) +- s cos(phi_b)``.  The
        mirror combinations are unfolded by slices, one product per entry.  A
        band mode is ``A`` alone, with no interface amplitude."""
        m = self._m
        me, mo = (m + 1) // 2, m // 2
        n_wave = self._Y.shape[1]
        band = modes >= n_wave
        Y = self._Y[:, np.where(band, 0, modes)]  # band columns are set below
        C = np.empty((m + 2, 2, modes.size))  # function, field A or B, mode
        A, B = C[:, 0], C[:, 1]
        # bubble rows i and m - 1 - i are mirror images
        even, odd = math.sqrt(0.5) * Y[:mo], math.sqrt(0.5) * Y[me:m]
        A[1:mo + 1], A[m - mo + 1:m + 1] = even, even[::-1]
        B[1:mo + 1], B[m - mo + 1:m + 1] = odd, -odd[::-1]
        if m % 2:
            A[mo + 1], B[mo + 1] = Y[mo], 0.0
        half = (modes // (m + 1) + 1) * (0.5 * math.pi / self._n_blocks)
        A[0] = A[-1] = np.cos(half) * Y[m]
        B[-1] = np.sin(half) * Y[m]
        B[0] = -B[-1]
        C[:, :, band] = 0.0
        C[1:-1, 0, band] = self._bands[:, modes[band] - n_wave]
        return C

    def _patterns(self, modes: np.ndarray) -> np.ndarray:
        """The block patterns of :meth:`factors` of ``modes``, indexed as in
        :meth:`_block_coefficients`: ``(2, n_b, modes.size)``."""
        m, n_wave = self._m, self._Y.shape[1]
        band = modes >= n_wave
        pattern = self._phases[:, :, np.where(band, 0, modes) // (m + 1)]
        alternating = (-1.0) ** np.arange(self._n_blocks)[:, None]
        pattern[0][:, band] = np.where(modes[band] - n_wave < (m + 1) // 2, alternating, 1.0)
        pattern[1][:, band] = 0.0
        return pattern

    def _rows(self, modes: np.ndarray):
        """A function of row indices that gives those rows of the unsigned
        columns of ``modes`` (as :meth:`_block_coefficients` takes them) from
        the factors: row ``f`` of block ``b``, the block's bubble ``f`` or,
        for ``f = m``, its right interface, is ``pattern[0, b] A[f + 1] +
        pattern[1, b] B[f + 1]``, O(w) per row.  It builds every column
        (:meth:`columns`) and the rows that the SCDM step of
        :func:`_localized_runs` reads."""
        C, pattern = self._block_coefficients(modes), self._patterns(modes)

        def rows(index: np.ndarray) -> np.ndarray:
            b, f = np.divmod(index, self._m + 1)
            return pattern[0, b] * C[f + 1, 0] + pattern[1, b] * C[f + 1, 1]

        return rows

    def factors(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The Bloch factors ``(coefficients, pattern)`` of columns ``lo .. hi -
        1``, unsigned: ``(m + 2, 2, hi - lo)`` and ``(2, n_b, hi - lo)``.

        On the basis functions of block ``b = 1 .. n_b``, from its left
        interface to its right one, column ``c`` is, up to its sign,
        ``pattern[0, b - 1, c] A + pattern[1, b - 1, c] B`` with the fields
        ``A, B = coefficients[:, :, c].T`` (:meth:`_block_coefficients`).  A
        wave mode of wavenumber ``theta`` has the patterns ``sqrt(2 / n_b)``
        times ``sin(phi_b)`` and ``cos(phi_b)``, ``phi_b = theta (b -
        1/2)``; a band mode has ``A`` alone, under ``(-1)^(b - 1)`` (even) or
        ``1`` (odd).  Neighbouring blocks agree on their interface, and the
        eliminated ones (block 1's left, block ``n_b``'s right) vanish, to
        round-off.  O(m + n_b) memory per column.  The factors do not carry
        the signs of :meth:`columns`, found on the built columns: the one
        caller, the error budget, takes ``|(u_j, v_j)|``.

        The localized column ``sum_c G[c, j] v_c`` of a tight run (found in
        the spectrum's ``_runs``) has no factors of this form, so read it
        with :meth:`columns`; its factors here are those of its modes' class
        that meets its exact mode ``u = sin(pi (j + 1) x)`` (column ``j``,
        from 0).  ``u`` is a Bloch wave of class ``q = +-(j + 1) mod 2 n_b``
        (see :meth:`_localize_forms`), and the integral of a mode of another
        class against it vanishes, so ``(u, w)`` is that of the run's modes
        of class ``q`` alone, which share their pattern: the coefficients are
        ``sum G[c, j] coefficients_c`` over them, zero if there are none."""
        n_b = self._n_blocks
        modes = self._modes[lo:hi].copy()
        combined = []
        for a, b, G in self._runs:
            s, e = max(a, lo), min(b, hi)
            if s >= e:
                continue
            run = self._modes[a:b]
            q = (np.arange(s, e) + 1) % (2 * n_b)  # the exact modes s + 1 .. e
            match = self._classes(run)[:, None] == np.minimum(q, 2 * n_b - q)
            modes[s - lo:e - lo] = np.where(match.any(axis=0), run[match.argmax(axis=0)],
                                            modes[s - lo:e - lo])
            combined.append((slice(s - lo, e - lo), run, np.where(match, G[:, s - a:e - a], 0.0)))
        C = self._block_coefficients(modes)
        for cols, run, weights in combined:
            C[:, :, cols] = self._block_coefficients(run) @ weights
        return C, self._patterns(modes)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """Eigenvector columns ``lo .. hi - 1``, mass-normalized and signed as
        :func:`solve_gevp` describes, from the factors (:meth:`_rows`) a block
        of about ``_BLOCK_ENTRIES`` entries of rows at a time: O(n) per
        column, and O(n r) per column of a tight run of ``r``, each row its
        modes' row times ``G`` in one product, whatever the block size."""
        V = np.empty((self._n, hi - lo))
        parts = [(slice(None), self._rows(self._modes[lo:hi]), None)]
        for a, b, G in self._runs:
            s, e = max(a, lo), min(b, hi)
            if s < e:
                parts.append((slice(s - lo, e - lo), self._rows(self._modes[a:b]),
                              G[:, s - a:e - a]))
        for cols, rows, G in parts:
            width = max(1, hi - lo if G is None else G.shape[0])
            # einsum adds each entry's terms in order whatever the block's
            # shape, where dgemm rounds edge blocks of rows otherwise
            for x, y in _bounds(0, self._n, max(2, _BLOCK_ENTRIES // width)):
                block = rows(np.arange(x, y))
                V[x:y, cols] = block if G is None else np.einsum("rk,kc->rc", block, G)
        V *= _signs(V)
        return V


def _quadrature_forms(kv, rule: QuadratureSpec, n_el: int, coefficients, n: int,
                      fields: int = 1) -> np.ndarray:
    """The sums of ``w_q v'(x_q)^2`` and of ``w_q v(x_q)^2`` (two rows) of
    ``n`` modes over the points and weights of ``rule`` on the first ``n_el``
    elements of ``kv``, each mode's sums added over its ``fields`` fields.

    ``coefficients(modes)`` gives the coefficients of the fields of
    ``modes`` on the basis functions that meet those elements, from the
    first: ``(functions, fields, modes.size)``.  The basis is evaluated at
    every point in one call, and each point's value is the sum of its ``p +
    1`` terms in order (:func:`~splinespectra.splines._point_sums`), in
    buffers reused for every chunk.  The slopes of the basis functions sum
    to zero, so the slope is the same sum over the ``p`` differences of
    neighbouring coefficients, ``v'(x) = sum_a (c_a - c_{a-1}) G_a(x)``, ``a
    = 1 .. p``, with ``G_a = sum_{r >= a} N'_r``: the differences carry no
    cancellation, where the plain sum ``sum_r c_r N'_r`` of a smooth mode
    loses about ``log10(1 / h)`` digits at each point, and with them the
    polished quotient's independence of its start.  Each sum adds terms of
    one sign (under a rule of positive weights), element by element and
    then by :func:`_sum_rows`, so it is right to a few roundings.  O(n_el q
    (p + 1)) per mode and field for ``q`` points per element; the modes go
    in chunks whose point values hold about ``_BLOCK_ENTRIES`` entries per
    form."""
    p, reference = kv.p, rule.reference_rule(kv.p)
    spans = kv.spans()[:n_el]
    nodes, weights = map_rule_to_element(reference, kv.knots[spans], kv.knots[spans + 1])
    first, N, dN = span_basis_rows(kv, np.repeat(spans, reference.nodes.size), nodes.ravel(),
                                   derivs=True)
    G = np.cumsum(dN[:, :0:-1], axis=1)[:, ::-1]  # G_1 .. G_p
    points, width = first.size, first[-1] + p + 1
    forms = np.empty((2, n))
    chunk = max(1, _BLOCK_ENTRIES // (fields * points))
    # the values at the points and a gather of them, reused for every chunk
    buffers = np.empty((2, points * fields * min(chunk, n)))

    def element_sums(values):
        # each element's sum of w_q values^2 for each field, one row each.
        # einsum adds an element's points in order over two or more columns
        # but not over one, the polish's width: one column is added by hand
        squares = np.square(values, out=values).reshape(weights.shape + (-1,))
        if squares.shape[2] > 1:
            return np.einsum("eqc,eq->ec", squares, weights).reshape(fields * n_el, -1)
        return sum(weights[:, q, None] * squares[:, q] for q in range(weights.shape[1]))

    for lo in range(0, n, chunk):
        modes = np.arange(lo, min(lo + chunk, n))
        C = coefficients(modes).reshape(width, -1)
        values, term = (b[:points * C.shape[1]].reshape(points, -1) for b in buffers)
        # each point's slope from its p differences, then its value from its
        # p + 1 terms; both forms side by side
        slopes = element_sums(_point_sums(np.diff(C, axis=0), first, G, values, term))
        squares = element_sums(_point_sums(C, first, N, values, term))
        forms[:, modes] = _sum_rows(np.hstack([slopes, squares])).reshape(2, -1)
    return forms


def _mesh_forms(kv, dofs: np.ndarray, rule: QuadratureSpec, V: np.ndarray) -> np.ndarray:
    """:func:`_quadrature_forms` of the columns of ``V``, whose rows are the
    coefficients of the basis functions ``dofs`` of ``kv``, over every
    element: the whole mesh as one block, under the pattern ``1``."""
    if kv is None:
        raise ValueError("a spectrum without a mesh has no quadrature forms")
    return _quadrature_forms(kv, rule, kv.spans().size,
                             lambda modes: _scattered(kv, dofs, V[:, modes]), V.shape[1])


def _scattered(kv, dofs: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The columns of ``V``, coefficients of the basis functions ``dofs``, as
    one field on every basis function of ``kv``: ``(kv.n, 1, columns)``."""
    C = np.zeros((kv.n, 1, V.shape[1]))
    C[dofs, 0] = V
    return C


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """The column sums of ``x``, to about one rounding each; ``x`` is
    overwritten.

    A pairwise sum recovers the rounding error of every addition exactly
    (Knuth's TwoSum: ``a + b = s + (a - (s - z)) + (b - z)`` with ``z = s -
    a``) and adds them back at the end.  A plain sum of ``r`` rows errs by
    up to about ``log2 r`` roundings: the quotients of the five lowest modes
    of riga(2100, 2, 70) were then up to 4.7 units in the last place from
    the same quotients in extended precision, against 1.5 with this sum;
    their discretization error is only tens of units there."""
    err = np.zeros(x.shape[1:])
    while len(x) > 1:
        h = len(x) // 2
        a, b = x[:h], x[h:2 * h]
        s = a + b
        z = s - a
        b -= z
        z -= s
        z += a  # a - (s - z), exactly
        z += b
        err += z.sum(axis=0)
        x = np.concatenate([s, x[2 * h:]]) if len(x) % 2 else s
    return x[0] + err


def _localized_runs(w: np.ndarray, rows):
    """``(lo, hi, picked, G)`` for every run ``lo .. hi - 1`` of eigenvalues
    ``w`` (ascending) with gaps of at most ``n eps lambda_max``, whose
    ``M``-orthonormal eigenvector columns ``V_c`` have the rows
    ``rows(lo, hi)(index)``: the localized basis of the run's subspace is
    ``V_c G``.

    No solver resolves such a run, so its vectors are any basis of its
    subspace.  The localized one (SCDM, Damle, Lin & Ying 2015) depends on
    the subspace alone: a pivoted QR factorization of ``V_c^T`` (LAPACK
    ``dgeqp3``) picks one row per vector, ``V_c V_c[picked]^T`` spans the
    subspace with columns peaked at those rows, and a Loewdin step makes
    them ``M``-orthonormal.  Since
    ``V_c^T M V_c = I``, the step needs only the ``r x r`` Gram ``S =
    V_c[picked] V_c[picked]^T``: ``G = V_c[picked]^T S^(-1/2)``, an
    orthogonal matrix.  Columns are ordered by their row.

    The factorization runs on the rows of norm at least half the largest,
    the norms taken a block of rows at a time.  A row's residual never
    exceeds its norm, and the pivots' residuals ``|R_ss|`` do not increase,
    so when every ``|R_ss|`` of the ``r`` steps is at least half the largest
    norm no other row could have won a step: the pivots are those of the
    factorization over every row, but where two rows tie, as the mirror
    images about a separator of a mode of p >= 3 do, and round-off picks
    one.  When the check fails, every row is factored.  The rows of large
    norm lie near the separators, so this is O(n r) for the norms and
    O(r^3) for the rest, against O(n r^2) over every row.
    """
    n = w.size
    if n < 2:
        return
    tight = np.diff(w) <= n * np.finfo(float).eps * np.abs(w).max()
    edges = np.flatnonzero(np.diff(np.concatenate([[0], tight.view(np.int8), [0]])))
    for lo, hi in zip(edges[::2], edges[1::2] + 1):
        r, take = hi - lo, rows(lo, hi)
        width = max(1, _BLOCK_ENTRIES // r)
        size = np.concatenate([np.linalg.norm(take(np.arange(a, min(a + width, n))), axis=1)
                               for a in range(0, n, width)])
        index = np.flatnonzero(size >= 0.5 * size.max())
        if index.size >= r:
            V = take(index)
            R, pivots = lapack.dgeqp3(V.T)
        if index.size < r or np.abs(np.diagonal(R)).min() < 0.5 * size.max():
            index = np.arange(n)
            V = take(index)
            pivots = lapack.dgeqp3(V.T)[1]
        chosen = np.sort(pivots[:r])
        V = V[chosen]
        g, U = np.linalg.eigh(V @ V.T)
        yield lo, hi, index[chosen], V.T @ ((U / np.sqrt(g)) @ U.T)


def solve_eigenvalues(op: DiscreteOperator) -> np.ndarray:
    """Every eigenvalue of the 1D pencil ``K u = lambda M u``, ascending.

    Forms no eigenvector and no n x n array.  A layout whose blocks all repeat
    one patch (as in :func:`solve_gevp`) gets every eigenvalue from its
    per-wavenumber and bubble pencils, whatever its size.  Any other pencil
    is solved by LAPACK ``dsbgvx`` on the stored upper bands of ``op.K`` and
    ``op.M``.  The values agree with ``solve_gevp(op).eigenvalues`` to
    round-off, a few ``1e-14 lambda_max``.

    Raises
    ------
    ValueError
        Off the repeated-patch route, if the dimension exceeds
        ``DENSE_LIMIT`` (the same limit as :func:`solve_gevp`) or a band
        holds an infinity or NaN.
    NumericalError
        If a mass matrix is not positive definite, or LAPACK reports that
        the tridiagonal solve did not converge.
    """
    patch = _uniform_patch(op)
    if patch is not None:
        return _bloch_eigenvalues(*patch)
    _check_size(op.n_dofs)  # before the bands are read
    return _band_eigenvalues(op.K, op.M)


def _band_eigenvalues(K: SymmetricBandedMatrix, M: SymmetricBandedMatrix) -> np.ndarray:
    """:func:`solve_eigenvalues` of the banded pencil ``(K, M)``, of any size:
    ``dsbgvx`` takes the same tridiagonal QL sweep as ``dsbgvd``."""
    if not (np.isfinite(K.band).all() and np.isfinite(M.band).all()):
        raise ValueError("array must not contain infs or NaNs")
    # dsbgvx overwrites both bands: hand it Fortran-ordered copies
    w, info = lapack.dsbgvx(np.array(K.band, order="F"), np.array(M.band, order="F"))
    if info != 0:
        cause = ("mass matrix not positive definite" if info > K.n
                 else "no convergence" if info > 0 else "bad argument")
        raise NumericalError(f"banded eigensolve failed: {cause} (LAPACK dsbgvx info {info})")
    return w


def polish_eigenvalue(op: DiscreteOperator, estimate: float) -> float:
    """The eigenvalue nearest ``estimate``, as the Rayleigh quotient of its mode.

    Inverse iteration at the shift ``sigma = estimate (1 - 1e-8)`` gives the
    eigenvector ``v``: ``K - sigma M`` is factored once on the bands, by
    LAPACK ``dgbtrf`` on the general band of :func:`_general_band`, and each
    step is one banded solve (``dgbtrs``) and one banded product by ``M``,
    O(n p) after the O(n p^2) factorization.  The steps stop once the iterate
    settles (see ``_POLISH_TOL``; at most ``_POLISH_MAX_STEPS``), after a
    few steps unless the estimate is far from its eigenvalue.  The result is the quotient ``v^T K v / v^T M
    v`` of the quadrature forms at the points of ``op.quadrature`` over the
    whole mesh (see :func:`solve_gevp`), free of the cancellation of a
    quotient on the stored bands.  Its error is quadratic in the
    eigenvector's, so it is free of the absolute round-off ``n eps
    lambda_max`` that a full solve leaves on every eigenvalue, and since the
    forms take the slope from differences of coefficients, it is the same
    to a rounding or two whatever the start (:func:`_polish_start`, a
    deterministic sequence).  Under Neumann conditions the constant vector is
    the zero mode: it is projected out of every iterate, ``M``-orthogonally,
    so the result is the nearest eigenvalue above it.

    Raises
    ------
    NumericalError
        If ``K - sigma M`` is singular or the iteration breaks down.
    """
    sigma = estimate * (1.0 - _POLISH_SHIFT)
    u = op.K.bandwidth
    lu = _general_band(op.K.band - sigma * op.M.band)
    pivots, info = lapack.dgbtrf(lu, u, u)
    if info != 0:
        raise NumericalError(f"shifted factorization at {sigma:.17g} failed: "
                             f"exactly singular (LAPACK dgbtrf info {info})")
    # M 1 / 1^T M 1 under Neumann conditions, whose constant vector is the
    # zero mode: y - (m^T y) 1 is y's part M-orthogonal to the constant
    m = None
    if getattr(op, "bc", None) == "neumann":
        m = op.M @ np.ones(op.n_dofs)
        m /= m.sum()
    solve = lapack.dgbtrs(lu, u, u, pivots)
    x = _polish_start(op.n_dofs)
    for _ in range(_POLISH_MAX_STEPS):
        y = solve(op.M @ x)
        if m is not None:
            y -= m @ y
        scale = np.abs(y).max()
        if not (np.isfinite(scale) and scale > 0.0):
            raise NumericalError(f"inverse iteration at {sigma:.17g} broke down")
        y /= scale
        # the sign of the iterate flips at each step when sigma lies above
        # the eigenvalue
        change = min(np.abs(y - x).max(), np.abs(y + x).max())
        x = y
        if change <= _POLISH_TOL:
            break
    vKv, vMv = _mesh_forms(op.kv, op.dof_indices, op.quadrature, x[:, None])
    return float(vKv[0] / vMv[0])


def _polish_start(n: int) -> np.ndarray:
    """The start of :func:`polish_eigenvalue`'s iteration: the golden-ratio
    sequence ``frac(i (sqrt(5) - 1) / 2) - 1/2``, ``i = 0 .. n - 1``.  It is
    spread evenly over ``[-1/2, 1/2)`` without a period, like a random
    vector, and needs no random generator."""
    return np.arange(n) * (0.5 * (math.sqrt(5.0) - 1.0)) % 1.0 - 0.5


def _general_band(band: np.ndarray) -> np.ndarray:
    """The LAPACK general band (``dgbtrf``) of the symmetric matrix whose
    upper band is ``band``, with ``u`` sub- and ``u`` superdiagonals and ``u``
    more rows for the fill of pivoting: ``ab[2 u + i - j, j]`` holds entry
    ``(i, j)``.  Fortran-ordered, as LAPACK takes it."""
    u, n = band.shape[0] - 1, band.shape[1]
    ab = np.zeros((3 * u + 1, n), order="F")
    ab[u:2 * u + 1] = band
    for d in range(1, min(u, n - 1) + 1):
        ab[2 * u + d, :-d] = band[u - d, d:]
    return ab


def _certify_lowest(op: DiscreteOperator, rho: float) -> None:
    """Check that ``rho`` is the lowest eigenvalue of the pencil, above the
    constant mode under Neumann conditions, by one banded Cholesky
    factorization.

    By Sylvester's law of inertia, ``A = K - sigma M`` is positive definite,
    and its Cholesky factorization succeeds, exactly when no eigenvalue
    lies at or below ``sigma``.  At ``sigma = rho / 2`` round-off cannot
    cross the margin of half the eigenvalue; a higher mode fails, since the
    mode below it lies near ``rho / 4`` or lower.

    Under Neumann conditions the constant mode lies below ``sigma``, so the
    check adds the penalty ``16 rho v(1/2)^2`` to the form of ``A``: a
    rank-one term on the ``p + 1`` functions that meet ``x = 1/2``, inside
    the band.  A positive rank-one term moves each eigenvalue at most up to
    the next one, so the penalized pencil's lowest eigenvalue lies at or
    below the first non-constant one, and success still proves that the
    latter lies above ``sigma``.  The penalty lifts the constant (whose
    value at ``1/2`` is 1) to ``16 rho``, and the lowest non-constant mode,
    odd about the middle, nearly vanishes there: the penalized lowest
    eigenvalue read at least 0.95 of it on every layout of up to 24
    elements and degree up to 5.  (A banded compression to the constant's
    ``M``-orthogonal complement needs a basis of differences, which turns
    ``K`` into a fourth difference whose Cholesky pivots lose their margin
    to round-off: at iga(32000, 1) the 27,061st failed.)

    Raises
    ------
    NumericalError
        If the factorization fails: some eigenvalue (other than the
        constant one) lies at or below ``rho / 2``, so ``rho`` is not the
        lowest.
    """
    sigma = 0.5 * rho
    A = SymmetricBandedMatrix(op.K.band - sigma * op.M.band)
    if getattr(op, "bc", None) == "neumann":
        kv = op.kv  # no function is eliminated: dof a is basis function a
        span = np.searchsorted(kv.knots, [0.5], side="right") - 1
        first, N = span_basis_rows(kv, span, np.array([0.5]))
        A.add_symmetric_block(first, _CERTIFY_PENALTY * rho * N[:, :, None] * N[:, None, :])
    info = lapack.dpbtrf(A.band)[1]
    if info:
        raise NumericalError(
            f"the polished eigenvalue {rho:.17g} is not the lowest: an eigenvalue "
            f"lies at or below {sigma:.17g} (banded Cholesky: {info}-th leading minor "
            "not positive definite)")
