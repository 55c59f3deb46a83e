"""Sum-of-squares certificates for rational inner functions on the bidisk.

For stable p of bidegree (n, m) with reflection p~ there are vector
polynomials A = (A_1..A_r), bidegrees at most (n-1, m), and B = (B_1..B_s),
bidegrees at most (n, m-1), with

    p(z) conj(p(w)) - p~(z) conj(p~(w))
        = (1 - z1 conj(w1)) * sum_j A_j(z) conj(A_j(w))
        + (1 - z2 conj(w2)) * sum_j B_j(z) conj(B_j(w)).

Matching coefficients of z1^a z2^b conj(w1)^c conj(w2)^d gives linear
constraints L(G_A, G_B) = T on the Gram matrices G_A = sum a_j a_j*,
G_B = sum b_j b_j* over the monomial bases {z1^a z2^b : a <= n-1, b <= m} and
{a <= n, b <= m-1}.  L keeps the displacement (a - c, b - d), so the
constraints split into one block per displacement class.  On a class, LL*
is a Kronecker sum of two path-graph Laplacians, diagonal in a DCT-II basis,
and its only null vector is the constant on the class.  The class sums of T
are the Fourier coefficients of |p|^2 - |p~|^2 on the torus, where
|p~| = |p|, so they vanish for every p: the constraints are always
consistent and the projection onto them is closed-form.

solve_gram first builds a pair from p's coefficients (bivariate Fejer-Riesz,
after Geronimo and Woerdeman).  On |z2| = 1 the Christoffel-Darboux Gram of
p(., z2) is M(z2) = sum_k M_k z2^k, k = -m..m, n x n and positive definite
when p has no zero on the closed bidisk.  A discrete Riccati equation, solved
by structured doubling, gives an outer factor G(u) = sum_{j<=m} G_j u^j of M,
the A-side factors are a_k[i, j] = G_j[i, k], and T - L(G_A, 0) summed down
each z2 diagonal is G_B, of rank m.  The polish below accepts the pair, with
no step at rounding level, and the certificate reports iterations 0.  If the
Riccati solve raises or the pair is rejected (a repeated zero on the torus),
Dykstra runs: a global phase of alternating projections with outer-normal
correction on the PSD cone, plus a rank-truncated Gauss-Newton polish on the
spectral factors, which restores fast local convergence when the feasible set
touches the cone boundary.  The polish is tried at Dykstra iterations 50, 150,
500, 1500, ... and once Dykstra meets tol.  L(G_A, G_B) - T is Hermitian, so
its steps solve on half the rows, the upper triangle.  A polish counts only if
its residual times (n+1)^2 (m+1)^2, the number of terms a sampled check of the
identity sums, is at most tol.

Certificates are scale-free: p is normalized to unit coefficient norm
internally and the reported residual is relative to ||p||^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .numerics import eig_hermitian, hermitize, project_psd, psd_factor
from .poly2 import BivariatePolynomial
from .serialize import FORMAT_TAG, matrix_to_pairs, pairs_to_matrix


# ----------------------------------------------------------------------
# coefficient tensors
# ----------------------------------------------------------------------

def sos_target_tensor(p: BivariatePolynomial) -> np.ndarray:
    """Coefficient tensor T[a, b, c, d] of p(z) conj(p(w)) - p~(z) conj(p~(w))."""
    pc = p.coeffs
    rc = p.reflect().coeffs
    return np.einsum("ab,cd->abcd", pc, pc.conj()) - np.einsum("ab,cd->abcd", rc, rc.conj())


def gram_pair_tensor(gram_a: np.ndarray, gram_b: np.ndarray, n: int, m: int) -> np.ndarray:
    """Coefficient tensor of the right-hand side for the given Gram pair.

    This is the constraint map L; it broadcasts over leading axes of the
    two Gram arrays.
    """
    gram_a, gram_b = np.asarray(gram_a), np.asarray(gram_b)
    lead = np.broadcast_shapes(gram_a.shape[:-2], gram_b.shape[:-2])
    out = np.zeros(lead + (n + 1, m + 1, n + 1, m + 1), dtype=complex)
    if gram_a.size:
        a4 = gram_a.reshape(gram_a.shape[:-2] + (n, m + 1, n, m + 1))
        out[..., :n, :, :n, :] += a4
        out[..., 1:, :, 1:, :] -= a4
    if gram_b.size:
        b4 = gram_b.reshape(gram_b.shape[:-2] + (n + 1, m, n + 1, m))
        out[..., :, :m, :, :m] += b4
        out[..., :, 1:, :, 1:] -= b4
    return out


def gram_from_factors(polys: list[BivariatePolynomial], n: int, m: int) -> np.ndarray:
    """Gram matrix sum_j a_j a_j* from factor polynomials over the (n, m) basis."""
    order = (n + 1) * (m + 1)
    gram = np.zeros((order, order), dtype=complex)
    for poly in polys:
        vec = poly.padded((n, m)).coeffs.ravel()
        gram += np.outer(vec, vec.conj())
    return gram


def factors_from_gram(gram: np.ndarray, degrees: tuple) -> list[BivariatePolynomial]:
    """Spectral factor polynomials of a Hermitian Gram matrix.

    Inverse of gram_from_factors up to unitary mixing: the returned list
    satisfies sum_k a_k a_k* = PSD part of gram.  Negative eigenvalues are
    clipped at zero, so a corrupted matrix yields factors whose sum of
    squares no longer matches it and downstream identity checks flag the
    discrepancy instead of crashing here.
    """
    n_b, m_b = degrees
    order = (n_b + 1) * (m_b + 1)
    g = np.asarray(gram, dtype=complex)
    if g.shape != (order, order):
        raise ValueError(
            "Gram matrix of shape %s does not match basis bidegree (%d, %d)"
            % (g.shape, n_b, m_b)
        )
    g = 0.5 * (g + g.conj().T)
    vals, vecs = np.linalg.eigh(g)
    cutoff = 1e-14 * max(float(vals[-1]) if vals.size else 0.0, 1.0)
    polys = []
    for lam, column in zip(vals, vecs.T):
        if lam <= cutoff:
            continue
        coeffs = (np.sqrt(lam) * column).reshape(n_b + 1, m_b + 1)
        polys.append(BivariatePolynomial(coeffs))
    return polys


def sos_residual(
    p: BivariatePolynomial,
    a_polys: list[BivariatePolynomial],
    b_polys: list[BivariatePolynomial],
) -> float:
    """Max coefficient mismatch of the decomposition identity (absolute)."""
    n, m = p.bidegree
    gram_a = gram_from_factors(a_polys, n - 1, m) if n > 0 else np.zeros((0, 0), complex)
    gram_b = gram_from_factors(b_polys, n, m - 1) if m > 0 else np.zeros((0, 0), complex)
    diff = gram_pair_tensor(gram_a, gram_b, n, m) - sos_target_tensor(p)
    return float(np.max(np.abs(diff)))


# ----------------------------------------------------------------------
# closed-form projection onto the coefficient constraints
# ----------------------------------------------------------------------

def _gram_pair_adjoint(tensor: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of gram_pair_tensor: one slice difference per Gram."""
    adj_a = tensor[:n, :, :n, :] - tensor[1:, :, 1:, :]
    adj_b = tensor[:, :m, :, :m] - tensor[:, 1:, :, 1:]
    return adj_a.reshape((n * (m + 1),) * 2), adj_b.reshape(((n + 1) * m,) * 2)


def displacement_class_sums(tensor: np.ndarray) -> np.ndarray:
    """Sums of T[a, b, c, d] over each class (a - c, b - d), indexed by offset.

    For the target tensor these are the Fourier coefficients of
    |p|^2 - |p~|^2 on the torus, where |p~| = |p|, so they vanish.
    """
    n1, m1 = tensor.shape[:2]
    a, b, c, d = np.indices(tensor.shape)
    sums = np.zeros((2 * n1 - 1, 2 * m1 - 1), dtype=complex)
    np.add.at(sums, (a - c + n1 - 1, b - d + m1 - 1), tensor)
    return sums


def _diagonal_dct(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II along every diagonal of a size x size index plane.

    Returns U acting on the flattened plane and the eigenvalues lam of the
    path-graph Laplacian on each diagonal: row r of U is the mode k that
    lives on position r's diagonal (of length l) at its k-th entry, with
    lam[r] = 2 - 2 cos(pi k / l).
    """
    u = np.zeros((size * size, size * size))
    lam = np.zeros(size * size)
    for delta in range(1 - size, size):
        length = size - abs(delta)
        k = np.arange(length)
        flat = (k + max(delta, 0)) * size + (k + max(-delta, 0))
        basis = np.sqrt(2.0 / length) * np.cos(np.pi * np.outer(k, 2 * k + 1) / (2 * length))
        basis[0] = np.sqrt(1.0 / length)
        u[np.ix_(flat, flat)] = basis
        lam[flat] = 2.0 - 2.0 * np.cos(np.pi * k / length)
    return u, lam


class DisplacementProjector:
    """Frobenius projection of Hermitian pairs onto {L(G_A, G_B) = T}.

    LL* acts on the (a, c) and (b, d) index planes as the sum of the
    path-graph Laplacians along their diagonals, so it is diagonal after a
    DCT-II on every diagonal of both planes (see the module docstring).
    """

    def __init__(self, target: np.ndarray):
        self.target = target
        n1, m1 = target.shape[:2]
        self.n, self.m = n1 - 1, m1 - 1
        self.order_a = self.n * m1
        self.order_b = n1 * self.m
        self._u1, lam1 = _diagonal_dct(n1)
        self._u2, lam2 = _diagonal_dct(m1)
        lam = lam1[:, None] + lam2[None, :]
        self._inverse = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)

    def residual(self, gram_a: np.ndarray, gram_b: np.ndarray) -> np.ndarray:
        """L(G_A, G_B) - T."""
        return gram_pair_tensor(gram_a, gram_b, self.n, self.m) - self.target

    def project(self, gram_a, gram_b, residual=None) -> tuple[np.ndarray, np.ndarray]:
        """G - L*((LL*)^+ (L G - T)); pass residual when L G - T is at hand."""
        if residual is None:
            residual = self.residual(gram_a, gram_b)
        n1, m1 = self.n + 1, self.m + 1
        planes = residual.transpose(0, 2, 1, 3).reshape(n1 * n1, m1 * m1)
        spectrum = self._u1 @ planes @ self._u2.T
        planes = self._u1.T @ (spectrum * self._inverse) @ self._u2
        dual = planes.reshape(n1, n1, m1, m1).transpose(0, 2, 1, 3)
        step_a, step_b = _gram_pair_adjoint(dual, self.n, self.m)
        return hermitize(gram_a - step_a), hermitize(gram_b - step_b)


# ----------------------------------------------------------------------
# certificate container
# ----------------------------------------------------------------------

@dataclass
class SosCertificate:
    p: BivariatePolynomial
    p_tilde: BivariatePolynomial
    gram_a: np.ndarray
    gram_b: np.ndarray
    a_polys: list[BivariatePolynomial]
    b_polys: list[BivariatePolynomial]
    residual: float  # max coefficient mismatch, relative to ||p||_2^2
    iterations: int
    seed: int
    tol: float
    polish_iterations: int = 0

    def to_json(self) -> dict:
        return {
            "format": FORMAT_TAG,
            "p": self.p.to_json(),
            "p_tilde": self.p_tilde.to_json(),
            "G_A": matrix_to_pairs(self.gram_a),
            "G_B": matrix_to_pairs(self.gram_b),
            "A_polys": [q.to_json() for q in self.a_polys],
            "B_polys": [q.to_json() for q in self.b_polys],
            "residual": self.residual,
            "iterations": self.iterations,
            "polish_iterations": self.polish_iterations,
            "seed": self.seed,
            "tol": self.tol,
        }

    @classmethod
    def from_json(cls, obj) -> "SosCertificate":
        return cls(
            p=BivariatePolynomial.from_json(obj["p"]),
            p_tilde=BivariatePolynomial.from_json(obj["p_tilde"]),
            gram_a=pairs_to_matrix(obj["G_A"]) if obj["G_A"] else np.zeros((0, 0), complex),
            gram_b=pairs_to_matrix(obj["G_B"]) if obj["G_B"] else np.zeros((0, 0), complex),
            a_polys=[BivariatePolynomial.from_json(q) for q in obj["A_polys"]],
            b_polys=[BivariatePolynomial.from_json(q) for q in obj["B_polys"]],
            residual=float(obj["residual"]),
            iterations=int(obj["iterations"]),
            seed=int(obj["seed"]),
            tol=float(obj["tol"]),
            polish_iterations=int(obj.get("polish_iterations", 0)),
        )


# ----------------------------------------------------------------------
# Gauss-Newton polish on spectral factors
# ----------------------------------------------------------------------

def _half_rows(proj):
    """Flat indices of the upper triangle and of its off-diagonal part, and row weights.

    Re on the first and Im on the second carry the Hermitian residual; weights
    sqrt(2) off the diagonal keep its Frobenius norm, so steps stay the same.
    """
    order = (proj.n + 1) * (proj.m + 1)
    i, j = np.triu_indices(order)
    flat, off = i * order + j, i != j
    return flat, flat[off], np.where(np.concatenate([off, off[off]]), np.sqrt(2.0), 1.0)


def _factor_residual(proj, rows, x_fac, y_fac):
    diff = proj.residual(x_fac @ x_fac.conj().T, y_fac @ y_fac.conj().T).ravel()
    return np.concatenate([diff[rows[0]].real, diff[rows[1]].imag])


def _factor_directions(fac):
    """d(X X*) for a unit step in Re, then Im, of each entry of X, column by column."""
    rows = fac.shape[0]
    left = np.eye(rows)[None, :, :, None] * fac.conj().T[:, None, None, :]  # e_u x_j*
    left = np.stack([left, 1j * left], axis=2)
    return (left + left.conj().swapaxes(-1, -2)).reshape(2 * fac.size, rows, rows)


def _factor_jacobian(proj, rows, x_fac, y_fac):
    """Real Jacobian of the factor residual; columns follow Re/Im of each entry."""
    none = np.zeros((0, 0), dtype=complex)
    tens = np.concatenate([
        gram_pair_tensor(_factor_directions(x_fac), none, proj.n, proj.m),
        gram_pair_tensor(none, _factor_directions(y_fac), proj.n, proj.m),
    ]).reshape(-1, proj.target.size)
    return np.concatenate([tens[:, rows[0]].real, tens[:, rows[1]].imag], axis=1).T


# Steps drop singular values below this fraction of the largest: near a
# rank-deficient solution (a boundary zero of p) they sit at rounding level.
_STEP_RCOND = 1e-10


def _gauss_newton_step(proj, rows, x_fac, y_fac, res):
    """Minimum-norm least-squares step on the weighted half-size system."""
    jac = _factor_jacobian(proj, rows, x_fac, y_fac) * rows[2][:, None]
    return np.linalg.lstsq(jac, -rows[2] * res, rcond=_STEP_RCOND)[0]


def _apply_step(x_fac, y_fac, step, scale):
    delta = step[0::2] + 1j * step[1::2]
    dx, dy = delta[:x_fac.size], delta[x_fac.size:]
    return (x_fac + scale * dx.reshape(x_fac.shape, order="F"),
            y_fac + scale * dy.reshape(y_fac.shape, order="F"))


def _polish_floor(tol):
    return max(tol * 1e-4, 1e-14)


def _gauss_newton(proj, x_fac, y_fac, tol, max_iter=40):
    """Local refinement of the factor pair; returns (x, y, iterations) or None.

    Steps while they improve, down to a floor well below tol, or until LAPACK
    fails.  Accepts only if the residual times (n+1)^2 (m+1)^2, the number of
    terms `verify` sums in its sampled identity, is at most tol.
    """
    rows = _half_rows(proj)
    res = _factor_residual(proj, rows, x_fac, y_fac)
    norm_inf = float(np.max(np.abs(res), initial=0.0))
    it = 0
    while it < max_iter and norm_inf > _polish_floor(tol) and x_fac.size + y_fac.size:
        try:
            step = _gauss_newton_step(proj, rows, x_fac, y_fac, res)
        except np.linalg.LinAlgError:
            break
        for scale in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            x_new, y_new = _apply_step(x_fac, y_fac, step, scale)
            res_new = _factor_residual(proj, rows, x_new, y_new)
            norm_new = float(np.max(np.abs(res_new), initial=0.0))
            if norm_new < norm_inf:
                break
        else:
            break
        x_fac, y_fac, res, norm_inf = x_new, y_new, res_new, norm_new
        it += 1
    if norm_inf * proj.target.size <= tol:
        return x_fac, y_fac, it
    return None


def _rank_candidates(w, thresholds):
    if w.size == 0:
        return [0]
    top = max(float(w[-1]), 0.0)
    ranks = []
    for rel in thresholds:
        r = int(np.sum(w > rel * top)) if top > 0 else 0
        if r not in ranks:
            ranks.append(r)
    if w.size not in ranks:
        ranks.append(int(w.size))
    return ranks


def _truncated_factor(eig, rank):
    w, v = eig
    if rank == 0:
        return np.zeros((v.shape[0], 0), dtype=complex)
    w = np.clip(w, 0.0, None)
    idx = np.argsort(w)[::-1][:rank]
    return v[:, idx] * np.sqrt(w[idx])


def _attempt_polish(proj, gram_a, gram_b, tol):
    eig_a, eig_b = eig_hermitian(gram_a), eig_hermitian(gram_b)
    thresholds = (1e-2, 1e-4, 1e-8)
    pairs = zip(_rank_candidates(eig_a.eigenvalues, thresholds),
                _rank_candidates(eig_b.eigenvalues, thresholds))
    full = (gram_a.shape[0], gram_b.shape[0])
    for ra, rb in dict.fromkeys([*pairs, full]):  # full-rank factors last, once
        result = _gauss_newton(proj, _truncated_factor(eig_a, ra), _truncated_factor(eig_b, rb), tol)
        if result is not None:
            return result
    return None


# ----------------------------------------------------------------------
# solver
# ----------------------------------------------------------------------

def _diagonal_cumsum(x):
    """x[i, j] + x[i-1, j-1] + ... down each diagonal of the two leading axes."""
    x = x.copy()
    for i in range(1, x.shape[0]):
        x[i, 1:] += x[i - 1, :-1]
    return x


def _schur_cohn_moments(coeffs):
    """M_k, k = -m..m, stacked: with f_a(z2) = sum_b c[a, b] z2^b, M(z2)[a, c] sums
    f_{a-s} conj(f_{c-s}) - f_{n-c+s} conj(f_{n-a+s}) over s = 0..min(a, c)."""
    n, m = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    # corr[x, y, k + m]: the z2^k coefficient of f_x conj(f_y)
    corr = np.stack([coeffs[:, max(k, 0):m + 1 + min(k, 0)]
                     @ coeffs[:, max(-k, 0):m + 1 - max(k, 0)].conj().T
                     for k in range(-m, m + 1)], axis=-1)
    flipped = corr[:0:-1, :0:-1].transpose(1, 0, 2)  # flipped[a, c] = corr[n - c, n - a]
    return _diagonal_cumsum(corr[:n, :n] - flipped).transpose(2, 0, 1)


_DOUBLING_STEPS = 100  # 5-7 suffice when p is strictly stable, about 30 for a simple torus zero


def _riccati_doubling(a, b, r, s):
    """Stabilizing X of a*Xa - X - (a*Xb + s)(r + b*Xb)^-1 (b*Xa + s*) = 0 by structured doubling
    (Chu, Fan, Lin and Wang); LinAlgError unless it converges to X that meets it to sqrt(eps)."""
    rs, eye = np.linalg.solve(r, s.conj().T), np.eye(len(a))
    a_k, g, h = a_0, g_0, h_0 = a - b @ rs, b @ np.linalg.solve(r, b.conj().T), -s @ rs
    for _ in range(_DOUBLING_STEPS):
        both = np.linalg.solve(eye + g @ h, np.concatenate([a_k, g], axis=1))  # W^-1 [A G]
        wa, wg = both[:, :len(a)], both[:, len(a):]
        step = a_k.conj().T @ h @ wa
        a_k, g, h = a_k @ wa, g + a_k @ wg @ a_k.conj().T, h + step
        if not np.abs(step).max() > 1e-15 * np.abs(h).max():  # converged, or not finite
            miss = a_0.conj().T @ h @ np.linalg.solve(eye + g_0 @ h, a_0) + h_0 - h
            if np.abs(miss).max() <= 1.5e-8 * np.abs(h).max() < np.inf:  # near-singular W stalls
                return h
            break
    raise np.linalg.LinAlgError("structured doubling found no stabilizing solution")


def _fejer_riesz_factors(coeffs, target):
    """Factor pair from an outer factor of M (module docstring); LinAlgError if M is singular."""
    n, m = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    x_fac = none = np.zeros((0, 0), dtype=complex)
    if n > 0:
        moments = _schur_cohn_moments(coeffs)
        if m == 0:
            outer = np.linalg.cholesky(moments[0])[None]
        else:
            size, up = n * m, moments[m + 1:].reshape(n * m, n)  # N = [M_1; ..; M_m]
            shift = np.eye(size, k=n)  # A, the block up-shift; C = [I 0 .. 0]
            x = _riccati_doubling(shift.T, np.eye(size, n), moments[m], up)
            g0 = np.linalg.cholesky(moments[m] + x[:n, :n])
            gains = np.linalg.solve(g0.conj(), (up + shift @ x[:, :n]).T).T  # K G_0, K Re = N + A X C*
            outer = np.concatenate([g0[None], gains.reshape(m, n, n)])
        x_fac = outer.transpose(1, 0, 2).reshape(n * (m + 1), n)  # a_k[i, j] = G_j[i, k]
    rest = target - gram_pair_tensor(x_fac @ x_fac.conj().T, none, n, m)
    gram_b = _diagonal_cumsum(rest[:, :m, :, :m].transpose(1, 3, 0, 2)).transpose(2, 0, 3, 1)
    order_b = (n + 1) * m
    return x_fac, _truncated_factor(np.linalg.eigh(hermitize(gram_b.reshape(order_b, order_b))), m)


_POLISH_CHECKPOINTS = (50, 150, 500, 1500, 4000, 10000, 25000, 60000, 150000)


def solve_gram(
    p: BivariatePolynomial,
    tol: float = 1e-9,
    max_iter: int = 200000,
    seed: int = 42,
) -> SosCertificate:
    """Find a PSD Gram pair certifying the decomposition identity for p.

    The pair comes from an outer factor of the Schur-Cohn matrix polynomial
    (iterations 0), or, when that fails, from Dykstra's loop and the polish.
    Stability of p is the caller's responsibility (gate with check_stability).
    With no pair within tol after max_iter iterations and the polish, it
    raises InfeasibleError with the best residual reached: for unstable p no
    pair exists, but stopping at max_iter alone proves nothing.  A max_iter
    below 1 or a tol that is not finite and positive raises ValueError.
    """
    if max_iter < 1 or not 0.0 < tol < np.inf:
        raise ValueError("max_iter must be at least 1 and tol must be finite and positive")
    scale = p.coeff_norm()
    if scale == 0.0:
        raise ValueError("cannot decompose the zero polynomial")
    p_norm = p.scale(1.0 / scale)
    n, m = p.bidegree

    target = sos_target_tensor(p_norm)
    proj = DisplacementProjector(target)
    defect = float(np.max(np.abs(displacement_class_sums(target))))
    if defect > 1e-10 * (1.0 + float(np.max(np.abs(target)))):
        raise InfeasibleError(
            "coefficient constraints are inconsistent", residual=defect, iterations=0,
        )

    try:
        factors = _fejer_riesz_factors(p_norm.coeffs, target)
    except np.linalg.LinAlgError:  # M(z2) is singular on the circle: no outer factor
        factors = None
    polish_out = _gauss_newton(proj, *factors, tol) if factors is not None else None
    iterations = 0
    if polish_out is None:
        rng = np.random.default_rng(seed)

        def random_hermitian(order):
            if order == 0:
                return np.zeros((0, 0), dtype=complex)
            raw = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
            return hermitize(raw)

        x_a, x_b = proj.project(random_hermitian(proj.order_a), random_hermitian(proj.order_b))
        corr_a, corr_b = np.zeros_like(x_a), np.zeros_like(x_b)

        best_res, best_pair, converged = np.inf, None, False

        for k in range(max_iter):
            iterations = k + 1
            z_a, z_b = x_a + corr_a, x_b + corr_b
            psd_a, psd_b = project_psd(z_a), project_psd(z_b)
            corr_a, corr_b = z_a - psd_a, z_b - psd_b

            residual = proj.residual(psd_a, psd_b)
            res = float(np.max(np.abs(residual)))
            if res < best_res:
                best_res = res
                best_pair = (psd_a, psd_b)
            if res <= tol:
                converged = True
                break
            if iterations in _POLISH_CHECKPOINTS:
                polish_out = _attempt_polish(proj, psd_a, psd_b, tol)
                if polish_out is not None:
                    break
            x_a, x_b = proj.project(psd_a, psd_b, residual)

        # a pair that only just met tol is polished too, so that sampled checks
        # at the same tol, which add up many coefficient errors, still pass
        if polish_out is None and best_pair is not None and best_res > _polish_floor(tol):
            polish_out = _attempt_polish(proj, best_pair[0], best_pair[1], tol)

    polish_iterations = 0
    if polish_out is not None:
        x_fac, y_fac, polish_iterations = polish_out
        gram_a, gram_b = hermitize(x_fac @ x_fac.conj().T), hermitize(y_fac @ y_fac.conj().T)
    elif converged:
        gram_a, gram_b = best_pair
        x_fac, y_fac = psd_factor(gram_a), psd_factor(gram_b)
    else:
        raise InfeasibleError(
            f"no PSD Gram pair within tolerance {tol:.1e} "
            f"(best residual {best_res:.3e} after {iterations} iterations)",
            residual=best_res, iterations=iterations,
        )

    final_res = float(np.max(np.abs(proj.residual(gram_a, gram_b))))
    if final_res > tol:
        raise InfeasibleError(
            f"refined residual {final_res:.3e} still above tolerance {tol:.1e}",
            residual=final_res, iterations=iterations,
        )

    def factor_polys(fac, shape):
        return [BivariatePolynomial((col * scale).reshape(shape)) for col in fac.T]

    return SosCertificate(
        p=p,
        p_tilde=p.reflect(),
        gram_a=gram_a * scale ** 2,
        gram_b=gram_b * scale ** 2,
        a_polys=factor_polys(x_fac, (n, m + 1)) if n > 0 else [],
        b_polys=factor_polys(y_fac, (n + 1, m)) if m > 0 else [],
        residual=final_res,
        iterations=iterations,
        seed=seed,
        tol=tol,
        polish_iterations=polish_iterations,
    )
