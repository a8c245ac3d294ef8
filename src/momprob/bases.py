"""Bases of matrix representation: damped-vector and weighted-polynomial routes.

Two constructions are provided.  The first starts from a generating vector
g and the damped vector exp(-alpha*T^2) g of a finite section T; applying
Gram-Schmidt to its power orbit yields an orthonormal family in which the
operator is again tridiagonal.  The second reweights a measure by
(1+t^2)^{-1} and divides the resulting orthonormal polynomials by
sqrt(C)*(t-i), producing an orthonormal system whose recurrence matrix is
the tridiagonal representation of multiplication by the variable.

Both routes are verified at finite truncation only; column orthonormality,
route agreement and Gram identities are numerical checks, not certificates
of the infinite-dimensional statements.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import mpmath as mp

from . import tridiag
from .errors import AlphaBelowThreshold, FiniteSupport, TruncationTooSmall
from .jacobi import JacobiMatrix
from .measures import Measure, measure_to_jacobi, power_reweight
from .precision import is_finite_number, pairwise_sum, rounded, to_mpf, wp


@dataclass(frozen=True)
class BasisAtTruncation:
    """Orthonormal columns (coordinates in the canonical basis) of size N."""

    vectors: tuple  # tuple of columns, each a tuple of N coordinates
    N: int


def stone_jacobi_measure_route(mu_g: Measure, alpha, n: int) -> JacobiMatrix:
    """Recurrence matrix of the Gaussian-damped measure exp(-2*alpha*t^2) mu.

    This is the matrix attached to the damped-vector basis when the measure
    is the spectral measure of the generating vector.  ``alpha >= 1/2`` is
    the proven cyclicity threshold; smaller positive values are accepted
    with a warning since only sufficiency at 1/2 is established.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if 0 < alpha < 0.5:
        warnings.warn(
            f"alpha={alpha} is below the proven threshold 1/2; the damped "
            "vector may fail to be cyclic",
            AlphaBelowThreshold,
            stacklevel=2,
        )
    damped = mu_g.gauss_damp(alpha)
    return measure_to_jacobi(damped, n)


def stone_jacobi_operator_route(
    J: JacobiMatrix,
    alpha,
    g_coords: Sequence,
    N: int,
    n: int,
) -> Tuple[JacobiMatrix, BasisAtTruncation]:
    """Damped-vector basis from the operator side, at truncation size N.

    Builds the N x N section T, forms eta = exp(-alpha*T^2) g through the
    spectral decomposition of T (exact at working precision), orthonormalizes
    the power orbit {T^k eta} with doubled classical Gram-Schmidt, and reads
    off the tridiagonal entries.  Requires n <= N/4: power orbits are
    polluted by the truncation boundary well before N steps, and the
    factor-of-4 margin is what keeps the two routes in agreement.
    """
    if not (is_finite_number(alpha) and alpha >= 0):
        raise ValueError("alpha must be finite and nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    if n * 4 > N:
        raise TruncationTooSmall(
            f"operator route needs n <= N/4 (got n={n}, N={N}); "
            "enlarge the truncation or reduce the output size"
        )
    cfg = J.precision
    bits, qq, bb, gg = _section_and_vector(J, g_coords, N, "generating vector")
    with wp(bits + 32):
        if alpha == 0:
            eta = gg
        else:
            a = to_mpf(alpha)
            nodes = tridiag.eigenvalues(qq, bb, bits + 32)
            cols = tridiag.eigenvector_columns(qq, bb, nodes, bits + 32)
            eta = [mp.mpf(0)] * N
            for lam, v in zip(nodes, cols):
                coef = mp.exp(-a * to_mpf(lam) ** 2) * mp.fsum(
                    vi * gi for vi, gi in zip(v, gg)
                )
                for i in range(N):
                    eta[i] += coef * v[i]

        # orthonormalize the power orbit with doubled Gram-Schmidt
        basis, images = [], []
        u = eta
        for k in range(n):
            for _ in range(2):
                for col in basis:
                    c = mp.fsum(ui * ci for ui, ci in zip(u, col))
                    u = [ui - c * ci for ui, ci in zip(u, col)]
            nrm = mp.sqrt(mp.fsum(ui * ui for ui in u))
            if not nrm > mp.mpf(2) ** (-bits):
                raise FiniteSupport(
                    f"power orbit collapses at step {k}: vector numerically "
                    "inside the span of its predecessors"
                )
            basis.append([ui / nrm for ui in u])
            # T times this vector is both its image and the next orbit vector
            u = tridiag.matvec(qq, bb, basis[k])
            images.append(u)

        q_out, b_out = [], []
        for k in range(n):
            q_out.append(mp.fsum(a_ * b_ for a_, b_ in zip(basis[k], images[k])))
            if k + 1 < n:
                bk = mp.fsum(a_ * b_ for a_, b_ in zip(basis[k + 1], images[k]))
                if not bk > 0:
                    raise TruncationTooSmall(
                        f"off-diagonal entry {k + 1} not positive at truncation "
                        f"N={N}; the section is too small for n={n}"
                    )
                b_out.append(bk)

    Jout = JacobiMatrix(q=rounded(q_out, cfg), b=rounded(b_out, cfg), precision=cfg)
    return Jout, BasisAtTruncation(vectors=tuple(tuple(rounded(col, cfg)) for col in basis), N=N)


def f_basis_jacobi(mu: Measure, n: int) -> Tuple[JacobiMatrix, object]:
    """Recurrence matrix of the (1+t^2)^{-1}-reweighted measure, plus C.

    The returned matrix is the representation of multiplication by the
    variable in the orthonormal system R_k(t) / (sqrt(C) (t - i)); its
    moment problem is determinate by construction, so classification of the
    output must never come back indeterminate.
    """
    nu1, C = power_reweight(mu, -1)
    J = measure_to_jacobi(nu1, n)
    return J, C


def f_basis_gram(mu: Measure, n: int):
    """Gram matrix of the weighted system in L2 of ``mu``.

    Entries are the complex inner products of f_k = R_k / (sqrt(C)(t-i));
    the matrix must come out as the identity with vanishing imaginary parts
    (the weights 1/((t-i) conj(t-i)) collapse to (1+t^2)^{-1} on the real
    line).  Returned as a list of mpc rows for the caller to inspect.
    """
    atoms = mu.effective_atoms()
    if atoms is None:
        raise FiniteSupport("Gram check needs a measure with discrete support")
    J, C = f_basis_jacobi(mu, n)
    pts, wts = atoms
    cfg = mu.precision
    with wp(cfg.bits + 32):
        q, b = J.coefficients(n)
        qq = [to_mpf(x) for x in q]
        bb = [to_mpf(x) for x in b]
        sC = mp.sqrt(to_mpf(C))
        rows = []
        fvals = []  # fvals[i][k] = f_k(t_i)
        for t in pts:
            tt = to_mpf(t)
            rv = tridiag.poly_values(qq, bb, tt, n)
            denom = sC * mp.mpc(tt, -1)
            fvals.append([rk / denom for rk in rv])
        for j in range(n):
            row = []
            for k in range(n):
                entries = [
                    to_mpf(w) * mp.conj(fv[j]) * fv[k]
                    for w, fv in zip(wts, fvals)
                ]
                row.append(pairwise_sum(entries))
            rows.append(row)
    return [rounded(row, cfg) for row in rows]


def gram_deviation(gram) -> Tuple[float, float]:
    """(max |G - I|, max |Im G|) of a complex Gram matrix."""
    dev = mp.mpf(0)
    imag = mp.mpf(0)
    for j, row in enumerate(gram):
        for k, g in enumerate(row):
            target = 1 if j == k else 0
            dev = max(dev, abs(g - target))
            imag = max(imag, abs(mp.im(g)))
    return float(dev), float(imag)


def _section_and_vector(J: JacobiMatrix, vec: Sequence, N: int, what: str):
    """(bits, q, b, v): the working bits, the N x N section of ``J`` and
    ``vec`` padded with zeros to length N, as mpf at bits + 32.  ``vec``
    must be finite, nonzero and at most N long."""
    vec = list(vec)
    if len(vec) > N:
        raise ValueError(f"{what} longer than the truncation")
    if not all(is_finite_number(x) for x in vec):
        raise ValueError(f"{what} must be finite")
    if all(x == 0 for x in vec):
        raise ValueError(f"{what} must be nonzero")
    bits = J.precision.bits
    q, b = J.coefficients(N)
    with wp(bits + 32):
        return (bits, [to_mpf(x) for x in q], [to_mpf(x) for x in b],
                [to_mpf(x) for x in vec + [0] * (N - len(vec))])


def representation_diagnostic(
    J: JacobiMatrix, delta_coords: Sequence, N: int, n: int
) -> float:
    """Smallest singular value of the normalized column family
    (T - iI) T^{k-1} delta, k = 1..n, at truncation size N.

    A value bounded away from zero as N grows is evidence (not a proof:
    finite sections cannot certify density) that the vector generates a
    basis of representation.
    """
    if n < 1 or n > N:
        raise ValueError("need 1 <= n <= N")
    bits, qq, bb, v = _section_and_vector(J, delta_coords, N, "probe vector")
    with wp(bits + 32):
        A = mp.matrix(N, n)
        for k in range(n):
            tv = tridiag.matvec(qq, bb, v)
            col = [mp.mpc(tv[i], -v[i]) for i in range(N)]  # (T - iI) T^k delta
            nrm = mp.sqrt(mp.fsum(abs(c) ** 2 for c in col))
            for i in range(N):
                A[i, k] = col[i] / nrm
            v = tv  # T^(k+1) delta
        sv = mp.svd_c(A, compute_uv=False)
        smin = min(sv[i] for i in range(sv.rows))
    return float(smin)
