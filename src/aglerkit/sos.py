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
constraints split into one block per displacement class.  The class sums of
T are the Fourier coefficients of |p|^2 - |p~|^2 on the torus, where
|p~| = |p|, so they vanish for every p: the constraints are always
consistent.

solve_gram builds a pair from p's coefficients (bivariate Fejer-Riesz,
after Geronimo and Woerdeman).  On |z2| = 1 the Christoffel-Darboux Gram
of p(., z2) is M(z2) = sum_k M_k z2^k, k = -m..m, n x n and positive
definite when p has no zero on the closed bidisk.  A discrete Riccati
equation, solved by structured doubling, gives an outer factor
G(u) = sum_{j<=m} G_j u^j of M, the A-side factors are
a_k[i, j] = G_j[i, k], and T - L(G_A, 0) summed down each z2 diagonal is
G_B, of rank m.  A Gauss-Newton polish on the factors then refines the
pair; L(G_A, G_B) - T is Hermitian, so its steps solve on half the rows,
the upper triangle.  A pair counts only if its residual times
(n+1)^2 (m+1)^2, the number of terms a sampled check of the identity sums,
is at most tol.  For strictly stable p the polish accepts p's own pair
with no step at rounding level, and the certificate reports iterations 0.

A repeated zero on the torus leaves M singular there, so the doubling
raises or the pair is rejected.  For r < 1, p(r z1, r z2) has no zero on
the closed bidisk whenever p has none in the open one, and its pair is a
warm start whose error shrinks with 1 - r; the polish then works against
p's own residual.  The radii in _RADII are tried in order, and iterations
reports the index of the accepted one.

Near the double torus zeros of a product f^2 g^2 the rank-(n, m) polish
can stall above tol, as its Jacobian loses rank.  The best pair reached
then gets n and m more columns and a damped polish, which on most such
inputs measured reaches the polish floor; the widened pair counts only
there (see solve_gram).

Certificates are scale-free: p is normalized to unit coefficient norm
internally and the reported residual is relative to ||p||^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .poly2 import BivariatePolynomial
from .serialize import FORMAT_TAG, matrix_to_pairs, pairs_to_matrix


# ----------------------------------------------------------------------
# coefficient tensors
# ----------------------------------------------------------------------

def hermitize(mat) -> np.ndarray:
    """Nearest Hermitian matrix, (M + M*) / 2."""
    mat = np.asarray(mat, dtype=complex)
    return 0.5 * (mat + mat.conj().T)


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
    vals, vecs = np.linalg.eigh(hermitize(g))
    cutoff = 1e-14 * (float(vals[-1]) if vals.size else 0.0)  # relative: a Gram's scale is p's squared
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
        """Load a certificate; ValueError unless p~ is p's reflection and residual, tol and every pair are finite."""
        p = BivariatePolynomial.from_json(obj["p"])
        p_tilde = BivariatePolynomial.from_json(obj["p_tilde"])
        if not np.array_equal(p_tilde.coeffs, p.reflect().coeffs):
            raise ValueError("p_tilde is not the reflection of p")
        if not np.isfinite([float(obj["residual"]), float(obj["tol"])]).all():
            raise ValueError("certificate residual and tol must be finite")
        return cls(
            p=p,
            p_tilde=p_tilde,
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

def _half_rows(target):
    """Flat indices of the upper triangle and of its off-diagonal part, and row weights.

    Re on the first and Im on the second carry the Hermitian residual; weights
    sqrt(2) off the diagonal keep its Frobenius norm, so steps stay the same.
    """
    order = target.shape[0] * target.shape[1]
    i, j = np.triu_indices(order)
    flat, off = i * order + j, i != j
    return flat, flat[off], np.where(np.concatenate([off, off[off]]), np.sqrt(2.0), 1.0)


def _bidegree(target):
    return target.shape[0] - 1, target.shape[1] - 1


def _factor_residual(target, rows, x_fac, y_fac):
    gram_a, gram_b = x_fac @ x_fac.conj().T, y_fac @ y_fac.conj().T
    diff = (gram_pair_tensor(gram_a, gram_b, *_bidegree(target)) - target).ravel()
    return np.concatenate([diff[rows[0]].real, diff[rows[1]].imag])


def _factor_directions(fac):
    """d(X X*) for a unit step in Re, then Im, of each entry of X, column by column."""
    rows = fac.shape[0]
    left = np.eye(rows)[None, :, :, None] * fac.conj().T[:, None, None, :]  # e_u x_j*
    left = np.stack([left, 1j * left], axis=2)
    return (left + left.conj().swapaxes(-1, -2)).reshape(2 * fac.size, rows, rows)


def _factor_jacobian(target, rows, x_fac, y_fac):
    """Real Jacobian of the factor residual; columns follow Re/Im of each entry."""
    none = np.zeros((0, 0), dtype=complex)
    tens = np.concatenate([
        gram_pair_tensor(_factor_directions(x_fac), none, *_bidegree(target)),
        gram_pair_tensor(none, _factor_directions(y_fac), *_bidegree(target)),
    ]).reshape(-1, target.size)
    return np.concatenate([tens[:, rows[0]].real, tens[:, rows[1]].imag], axis=1).T


# Steps drop singular values below this fraction of the largest: near a
# rank-deficient solution (a boundary zero of p) they sit at rounding level.
_STEP_RCOND = 1e-10


def _gauss_newton_step(target, rows, x_fac, y_fac, res):
    """Minimum-norm least-squares step on the weighted half-size system."""
    jac = _factor_jacobian(target, rows, x_fac, y_fac) * rows[2][:, None]
    return np.linalg.lstsq(jac, -rows[2] * res, rcond=_STEP_RCOND)[0]


def _damped_step(target, rows, x_fac, y_fac, res):
    """Levenberg-Marquardt step with damping |r|, solved in row space as
    -J* (J J* + |r| I)^-1 r.  Under a local error bound it converges fast
    even where the solutions are not isolated, as for a widened pair (Fan
    and Yuan, Computing 74, 2005)."""
    jac = _factor_jacobian(target, rows, x_fac, y_fac) * rows[2][:, None]
    res = rows[2] * res
    gram = jac @ jac.T
    gram[np.diag_indices_from(gram)] += np.linalg.norm(res)
    return -jac.T @ np.linalg.solve(gram, res)


def _apply_step(x_fac, y_fac, step, scale):
    delta = step[0::2] + 1j * step[1::2]
    dx, dy = delta[:x_fac.size], delta[x_fac.size:]
    return (x_fac + scale * dx.reshape(x_fac.shape, order="F"),
            y_fac + scale * dy.reshape(y_fac.shape, order="F"))


def _polish_floor(tol):
    return max(tol * 1e-4, 1e-14)


def _gauss_newton(target, x_fac, y_fac, tol, max_iter, step_rule=_gauss_newton_step):
    """Local refinement of the factor pair against L(G_A, G_B) = target.

    Steps while they improve, at most max_iter times, down to a floor well
    below tol, or until LAPACK fails.  Returns (x, y, steps, residual), the
    residual as a max coefficient error.
    """
    rows = _half_rows(target)
    res = _factor_residual(target, rows, x_fac, y_fac)
    norm_inf = float(np.max(np.abs(res), initial=0.0))
    it = 0
    while it < max_iter and norm_inf > _polish_floor(tol) and x_fac.size + y_fac.size:
        try:
            step = step_rule(target, rows, x_fac, y_fac, res)
        except np.linalg.LinAlgError:
            break
        for scale in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            x_new, y_new = _apply_step(x_fac, y_fac, step, scale)
            res_new = _factor_residual(target, rows, x_new, y_new)
            norm_new = float(np.max(np.abs(res_new), initial=0.0))
            if norm_new < norm_inf:
                break
        else:
            break
        x_fac, y_fac, res, norm_inf = x_new, y_new, res_new, norm_new
        it += 1
    return x_fac, y_fac, it, norm_inf


def _widened(target, x_fac, y_fac, res):
    """The pair with as many columns again on each side, along the top
    eigenvectors of -L*(R) for R = L(G_A, G_B) - target and scaled by
    sqrt(res): the PSD terms that lower the residual fastest."""
    n, m = _bidegree(target)
    diff = gram_pair_tensor(x_fac @ x_fac.conj().T, y_fac @ y_fac.conj().T, n, m) - target
    adjoints = diff[:n, :, :n, :] - diff[1:, :, 1:, :], diff[:, :m, :, :m] - diff[:, 1:, :, 1:]
    out = []
    for fac, adjoint in zip((x_fac, y_fac), adjoints):
        if fac.size:
            vecs = np.linalg.eigh(-hermitize(adjoint.reshape(len(fac), len(fac))))[1]
            fac = np.concatenate([fac, np.sqrt(res) * vecs[:, ::-1][:, :fac.shape[1]]], axis=1)
        out.append(fac)
    return out


def _truncated_factor(eig, rank):
    w, v = eig
    if rank == 0:
        return np.zeros((v.shape[0], 0), dtype=complex)
    w = np.clip(w, 0.0, None)
    idx = np.argsort(w)[::-1][:rank]
    return v[:, idx] * np.sqrt(w[idx])


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
    last = np.inf
    for _ in range(_DOUBLING_STEPS):
        both = np.linalg.solve(eye + g @ h, np.concatenate([a_k, g], axis=1))  # W^-1 [A G]
        wa, wg = both[:, :len(a)], both[:, len(a):]
        step = a_k.conj().T @ h @ wa
        a_k, g, h = a_k @ wa, g + a_k @ wg @ a_k.conj().T, h + step
        size, top = np.abs(step).max(), np.abs(h).max()
        # converged; stalled, as rounding holds steps near a torus zero; or not finite
        if not (size > 1e-15 * top and (size < last or size > 1e-6 * top)):
            miss = a_0.conj().T @ h @ np.linalg.solve(eye + g_0 @ h, a_0) + h_0 - h
            if np.abs(miss).max() <= 1.5e-8 * top < np.inf:  # near-singular W stalls
                return h
            break
        last = size
    raise np.linalg.LinAlgError("structured doubling found no stabilizing solution")


def _outer_factor(coeffs):
    """The G_j of M's outer factor, stacked (module docstring), n > 0; LinAlgError if M is singular."""
    n, m = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    moments = _schur_cohn_moments(coeffs)
    if m == 0:
        return np.linalg.cholesky(moments[0])[None]
    size, up = n * m, moments[m + 1:].reshape(n * m, n)  # N = [M_1; ..; M_m]
    shift = np.eye(size, k=n)  # A, the block up-shift; C = [I 0 .. 0]
    x = _riccati_doubling(shift.T, np.eye(size, n), moments[m], up)
    g0 = np.linalg.cholesky(moments[m] + x[:n, :n])
    gains = np.linalg.solve(g0.conj(), (up + shift @ x[:, :n]).T).T  # K G_0, K Re = N + A X C*
    return np.concatenate([g0[None], gains.reshape(m, n, n)])


def _fejer_riesz_factors(coeffs, target):
    """Factor pair from an outer factor of M (module docstring); LinAlgError if M is singular."""
    n, m = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    x_fac = none = np.zeros((0, 0), dtype=complex)
    if n > 0:
        x_fac = _outer_factor(coeffs).transpose(1, 0, 2).reshape(n * (m + 1), n)  # G_j[i, k]
    rest = target - gram_pair_tensor(x_fac @ x_fac.conj().T, none, n, m)
    gram_b = _diagonal_cumsum(rest[:, :m, :, :m].transpose(1, 3, 0, 2)).transpose(2, 0, 3, 1)
    order_b = (n + 1) * m
    return x_fac, _truncated_factor(np.linalg.eigh(hermitize(gram_b.reshape(order_b, order_b))), m)


# Warm starts in order: p itself, then p(r z1, r z2), which has no zero on the
# closed bidisk when p has none in the open one, so its outer factor exists.
_RADII = (1.0, 0.9, 0.99, 0.999, 0.9999)

# Step cap of each polish.  On the boundary-zero inputs measured, accepted
# contracted warm starts needed up to 77 steps and widened pairs up to 83.
_POLISH_STEPS = 100


def solve_gram(
    p: BivariatePolynomial,
    tol: float = 1e-9,
    max_iter: int = 200000,
    seed: int = 42,
) -> SosCertificate:
    """Find a PSD Gram pair certifying the decomposition identity for p.

    The pair is the outer-factor pair of p, or of p(r z1, r z2) for the
    radii r in _RADII, polished against p's own residual; iterations reports
    the index of the accepted radius, 0 for p's own factor.  If none meets
    tol, the pair with the least residual is widened (_widened) and polished
    by damped steps; it counts only if that polish reaches its floor, since
    a stall just under tol near a torus zero can still fail `verify`, which
    divides by |p|^2.  p's own factor gets _POLISH_STEPS steps; every other
    polish gets min(max_iter, _POLISH_STEPS), and polish_iterations counts
    the steps behind the accepted pair.  seed draws nothing and is only
    recorded in the certificate.  Stability of p is the caller's
    responsibility (gate with check_stability).  With no pair within tol it
    raises InfeasibleError with the best residual reached: for unstable p
    no pair exists, but a repeated torus zero may also end there.  A
    max_iter below 1 or a tol that is not finite and positive raises
    ValueError.
    """
    if max_iter < 1 or not 0.0 < tol < np.inf:
        raise ValueError("max_iter must be at least 1 and tol must be finite and positive")
    scale = p.coeff_norm()
    if scale == 0.0:
        raise ValueError("cannot decompose the zero polynomial")
    p_norm = p.scale(1.0 / scale)
    n, m = p.bidegree

    target = sos_target_tensor(p_norm)
    powers = np.add.outer(np.arange(n + 1), np.arange(m + 1))
    fallback_steps = min(max_iter, _POLISH_STEPS)
    accepted = best = None
    for iterations, radius in enumerate(_RADII):
        coeffs = p_norm.coeffs * radius ** powers
        own = target if radius == 1.0 else sos_target_tensor(BivariatePolynomial(coeffs))
        try:
            factors = _fejer_riesz_factors(coeffs, own)
        except np.linalg.LinAlgError:  # M(z2) is singular on the circle: no outer factor
            continue
        cap = _POLISH_STEPS if radius == 1.0 else fallback_steps
        x_fac, y_fac, taken, res = _gauss_newton(target, *factors, tol, cap)
        # the residual times the number of terms `verify` sums must meet tol
        if res * target.size <= tol:
            accepted = x_fac, y_fac, iterations, taken
            break
        if best is None or res < best[-1]:
            best = x_fac, y_fac, iterations, taken, res
    best_res = np.inf if best is None else best[-1]
    if accepted is None and best is not None:
        x_fac, y_fac, iterations, taken, res = best
        x_fac, y_fac, more, res = _gauss_newton(
            target, *_widened(target, x_fac, y_fac, res), tol, fallback_steps, _damped_step,
        )
        best_res = min(best_res, res)
        if res <= _polish_floor(tol):
            accepted = x_fac, y_fac, iterations, taken + more
    if accepted is None:
        raise InfeasibleError(
            f"no PSD Gram pair within tolerance {tol:.1e} (best residual {best_res:.3e} "
            f"from {len(_RADII)} warm starts)",
            residual=best_res, iterations=len(_RADII),
        )
    x_fac, y_fac, iterations, polish_iterations = accepted

    gram_a, gram_b = hermitize(x_fac @ x_fac.conj().T), hermitize(y_fac @ y_fac.conj().T)
    final_res = float(np.max(np.abs(gram_pair_tensor(gram_a, gram_b, n, m) - target)))
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
