"""Minkowski-norm calculus: F, its derivatives, and the metric structure of
the Wulff shape.

A Minkowski norm is a positive 1-homogeneous function F on R^d (d = n+1),
smooth away from the origin, whose restriction of the Euclidean Hessian to
tangent spaces of the unit sphere (the anisotropy matrix A_F) is positive
definite.  The gradient map x -> DF(x) sends the unit sphere onto the Wulff
shape W = {F0 = 1}, where F0 is the dual norm

    F0(xi) = sup_{x != 0} <x, xi> / F(x).

The metric G is the Hessian of (1/2) F0^2 and Q is its third derivative;
both are 0-homogeneous resp. (-1)-homogeneous and are evaluated on W in
practice.  Homogeneity gives the identities G(xi)(xi, xi) = 1 and
Q(xi)(xi, ., .) = 0 for xi on W, which the tests use as oracles.

Three families are provided:

* isotropic      F(x) = |x|             (round Wulff shape)
* ellipsoid      F(x) = sqrt(<x, Mx>)   (M symmetric positive definite)
* perturbed      base family plus smooth zonal terms a * |x| * g(<x^, c>)

F, each zonal term and each support field (fields.py) are homogeneous
functions of one shape: one private base, _Homogeneous, defines
jet/value/grad/hess on rows (B, d), rejecting the zero vector and any input
that is not 2-D; each class computes the jet [D^0, ..., D^order] (order 0-3,
0-2 for support fields) in one pass, _derivative(x, order), on nonzero rows
(B, d).
Every family's derivatives are closed form, so no path differences F.  The
zonal chain, _zonal, serves PerturbTerm and the bump support fields of
fields.py, whose combinations stack all their bumps' rows into one call;
the perturbed norm does not sum its terms' jets but
folds all its terms into one closed-form jet (PerturbedNorm._derivative),
sharing |x|, x^ and the projector, so that each term adds only a few
elementwise accumulations; the tests check it against PerturbTerm's chain.
Nothing evaluates F0 or solves for a Gauss preimage: every caller builds
its Wulff points as DF of unit points it holds (the mesh its nodes, the
kernel stencil points on the sphere, fields._geodesic_points).

G and Q are closed form for every family.  (1/2) F^2 and (1/2) F0^2 are
Legendre conjugates (Rockafellar, Convex Analysis, Thm 26.5), so their
gradient maps are mutually inverse: at the Wulff point z = DF(x) of unit x,
whose Legendre point is x / F(x),

    G(z) = [D^2(F^2/2)(x)]^-1 = [DF DF^T + F D^2F]^-1 (x),
    Q(z) = -G G G : F(x) D^3(F^2/2)(x),
    D^3(F^2/2) = sym_3(DF (x) D^2F) + F D^3F,

where sym_3 sums the three placements of the vector index and the factor
F(x) is the (-1)-homogeneity of D^3(F^2/2).  metric_on_wulff(x) and
q_on_wulff(x) take the Gauss preimage x, which every caller already holds
(the mesh nodes, or a stencil point), and solve nothing (metric_from_jet
reads G from a jet already held); the isotropic and ellipsoid families
return their constant G and Q = 0.  The small stacks are closed form, with
no LAPACK call per point: the inverse is the adjugate over the determinant
(spd_inverse, which rejects a row that is not positive definite), and Q,
or Q contracted into row bases (q_on_wulff(x, basis), the mesh's q_frame),
is three pairwise contractions, each slot taking its G and basis vector at
once (_contract3); sym_eig_det gives the spectra of 1x1 and 2x2 stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ModelInvalidError, NumericError

_EPS = 1e-14
# rows per block where a whole batch would set the memory high-water mark
# (the validation sample, the mesh's Q).  Blocking moves no bit: a row has
# the same bits in a batch of any size (tangent_form; tests/test_norms.py)
_BLOCK_ROWS = 512


def row_blocks(count: int):
    """Slices covering range(count) in consecutive blocks of _BLOCK_ROWS rows."""
    return [slice(lo, lo + _BLOCK_ROWS) for lo in range(0, count, _BLOCK_ROWS)]


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Normalize each row to unit Euclidean length."""
    x = np.asarray(x, dtype=float)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _sym3(s, v):
    """Batched s_ab v_c + s_ac v_b + s_bc v_a for symmetric s: (B, d, d, d)."""
    return (s[:, :, :, None] * v[:, None, None, :] + s[:, :, None, :] * v[:, None, :, None]
            + s[:, None, :, :] * v[:, :, None, None])


def sym_eig_det(m: np.ndarray):
    """Closed-form ascending eigenvalues (N, n) and determinants (N,) of
    symmetric stacks (N, n, n), n in {1, 2}; the eigenvalues read the lower
    triangle, as LAPACK's eigvalsh does: mid -/+ hypot((a00 - a11)/2, a10)."""
    if m.shape[-1] == 1:
        return m[:, :, 0].copy(), m[:, 0, 0].copy()
    a, b, c = m[:, 0, 0], m[:, 1, 0], m[:, 1, 1]
    mid, rad = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    return np.stack([mid - rad, mid + rad], axis=-1), a * c - m[:, 0, 1] * b


def spd_inverse(m: np.ndarray) -> np.ndarray:
    """Closed-form inverse of symmetric positive definite stacks (B, d, d), d
    in {2, 3}: the adjugate over the determinant, reading the upper
    triangle, symmetric.  A row whose leading minors are not all positive
    (singular or indefinite) raises NumericError naming the first one."""
    if m.shape[1:] == (2, 2):
        a, b, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 1]
        det = a * d - b * b
        minors = (a, det)
        adj = [[d, -b], [-b, a]]
    elif m.shape[1:] == (3, 3):
        a, b, c = m[:, 0, 0], m[:, 0, 1], m[:, 0, 2]
        d, e, f = m[:, 1, 1], m[:, 1, 2], m[:, 2, 2]
        c00, c01, c02 = d * f - e * e, c * e - b * f, b * e - c * d
        c11, c12, c22 = a * f - c * c, b * c - a * e, a * d - b * b
        det = a * c00 + b * c01 + c * c02
        minors = (a, c22, det)
        adj = [[c00, c01, c02], [c01, c11, c12], [c02, c12, c22]]
    else:
        raise InvalidInputError(f"spd_inverse takes stacks (B, 2, 2) or (B, 3, 3), got {m.shape}")
    bad = np.flatnonzero(~np.all(np.stack(minors) > 0, axis=0))
    if len(bad):
        raise NumericError(f"Legendre matrix DF DF^T + F D^2F not positive definite at row "
                           f"{int(bad[0])} (determinant {float(det[bad[0]]):.3e})")
    return np.stack([np.stack(row, axis=-1) for row in adj], axis=-2) / det[:, None, None]


def _contract3(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """t_abc e_pa e_qb e_rc row by row, (B, d, d, d), (B, k, d) -> (B, k, k, k):
    three pairwise contractions, one index each, every row on its own."""
    rows, k, d = e.shape
    t = (e @ t.reshape(rows, d, d * d)).reshape(rows, k, d, d)  # [p, b, c]
    t = t @ np.swapaxes(e, 1, 2)[:, None]  # [p, b, r]
    return e[:, None] @ t  # [p, q, r]


def tangent_form(basis: np.ndarray, m: np.ndarray) -> np.ndarray:
    """basis m basis^T row by row, (B, k, d), (B, d, d) -> (B, k, k).  The lone-row
    rule: one row runs as two copies, as einsum gives a 2-d row alone other bits."""
    if len(basis) == 1:
        return tangent_form(np.repeat(basis, 2, axis=0), np.repeat(m, 2, axis=0))[:1]
    return np.einsum("bki,bij,blj->bkl", basis, m, basis)


def tangent_basis(x: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the tangent space x^perp.

    Seeds with the coordinate axis least aligned with x, orthonormalizes,
    and (in 3d) completes with the cross product; the fixed seeding and
    ordering make every downstream cache reproducible.  Takes rows x (B, d),
    d in {2, 3}, and returns shape (B, d-1, d) with basis vectors as rows.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] not in (2, 3):
        raise InvalidInputError(f"tangent basis needs rows (B, 2) or (B, 3), got shape {x.shape}")
    if x.shape[1] == 2:
        return np.stack([-x[:, 1], x[:, 0]], axis=-1)[:, None, :]
    axis = np.argmin(np.abs(x), axis=-1)
    e = np.eye(3)[axis]
    u1 = unit_rows(e - (np.sum(e * x, axis=-1, keepdims=True)) * x)
    return np.stack([u1, np.cross(x, u1)], axis=1)


def _zonal(x, center, amplitude, profile, order, counts=None):
    """Jet [D^0, ..., D^order] (order 0-3) of a |x| g(<x^, c>) at rows x (B, d).

    ``profile(u, k)`` returns [g(u), g'(u), ..., g^(k)(u)]; the value keeps
    its own u = x @ c / r and asks for g alone, so its bits do not depend on
    the order.  The zonal perturbation terms of F and the bump fields share
    this.  One call serves several terms stacked: with counts, x holds
    counts[t] rows of term t after those of the terms before it, center
    (T, d) and amplitude (T,) one entry per term, and profile reads each
    row's own parameters.  Every row goes through its own term's
    operations, its dots with c included (taken as a @ c on the term's
    rows), so a stacked row gets the bits of a one-term call.
    """
    if counts is None:
        center, amplitude, counts = [center], [amplitude], [len(x)]
    centers = np.asarray(center, dtype=float)
    bounds = np.cumsum([0] + list(counts))

    def dot(a):
        return np.concatenate([a[lo:hi] @ c for lo, hi, c in zip(bounds[:-1], bounds[1:], centers)])

    c = np.repeat(centers, counts, axis=0)
    amp = np.repeat(np.asarray(amplitude, dtype=float), counts)
    r = np.linalg.norm(x, axis=-1)
    jet = [amp * r * profile(dot(x) / r, 0)[0]]
    if order == 0:
        return jet
    d = x.shape[1]
    xh = x / r[:, None]
    u = dot(xh)
    prof = profile(u, order)
    g, g1 = prof[0], prof[1]
    p = c - u[:, None] * xh
    jet.append(amp[:, None] * (g[:, None] * xh + g1[:, None] * p))
    if order > 1:
        g2 = prof[2]
        proj = np.eye(d)[None] - xh[:, :, None] * xh[:, None, :]
        h = (g - u * g1)[:, None, None] * proj + g2[:, None, None] * p[:, :, None] * p[:, None, :]
        jet.append(amp[:, None, None] * h / r[:, None, None])
    if order > 2:
        pp = p[:, :, None] * p[:, None, :]
        t = (-(u * g2)[:, None, None, None] * _sym3(proj, p)
             - (g - u * g1)[:, None, None, None] * _sym3(proj, xh)
             - g2[:, None, None, None] * _sym3(pp, xh)
             + prof[3][:, None, None, None] * pp[:, :, :, None] * p[:, None, None, :])
        jet.append(amp[:, None, None, None] * t / r[:, None, None, None] ** 2)
    return jet


# ---------------------------------------------------------------------------
# homogeneous functions: one derivative method each
# ---------------------------------------------------------------------------


class _Homogeneous:
    """A homogeneous function on R^d minus the origin: a norm, a zonal term
    or a support field.

    Subclasses implement ``_derivative(x, order)`` on nonzero rows x (B, d):
    the jet [D^0, ..., D^order] of fresh arrays, in one pass (order 0-3, 0-2
    for support fields).  jet/value/grad/hess take rows (B, d) and answer
    one entry per row; they reject the zero vector and input that is not 2-D.
    """

    def value(self, x) -> np.ndarray:
        return self.jet(x, 0)[-1]

    def grad(self, x) -> np.ndarray:
        return self.jet(x, 1)[-1]

    def hess(self, x) -> np.ndarray:
        return self.jet(x, 2)[-1]

    def jet(self, x, order) -> list:
        """[value, grad, ...] up to the given order, evaluated together."""
        return self._derivative(self._check_nonzero(x), order)

    def _derivative(self, x, order) -> list:
        raise NotImplementedError

    def _check_nonzero(self, x):
        """x as float rows (B, d), none of them zero."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise InvalidInputError(f"evaluators take rows (B, d), got shape {x.shape}")
        if np.any(np.linalg.norm(x, axis=-1) < _EPS):
            raise InvalidInputError("norm evaluated at the zero vector")
        return x


# ---------------------------------------------------------------------------
# perturbation terms
# ---------------------------------------------------------------------------

_TERM_KINDS = ("bump", "linear", "quadratic")


@dataclass(frozen=True)
class PerturbTerm(_Homogeneous):
    """One zonal perturbation a * |x| * g(u), u = <x/|x|, center>.

    kind 'bump' is the smooth localized profile g(u) = exp(-(1 - u)/width)
    (zonal Gaussian in the 1 - cos distance); 'linear' g(u) = u translates
    the Wulff shape; 'quadratic' g(u) = u^2 is a low-order zonal term.
    """

    kind: str
    center: tuple
    width: float
    amplitude: float

    def __post_init__(self):
        if self.kind not in _TERM_KINDS:
            raise InvalidInputError(f"unknown perturbation kind {self.kind!r}")
        c = unit_rows(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", tuple(float(v) for v in c))
        if self.kind == "bump" and not (0.0 < self.width < 2.0):
            raise InvalidInputError("bump width must lie in (0, 2)")

    def _profile(self, u, order):
        """[g(u), g'(u), ...] up to the given order (0-3), elementwise."""
        u = np.asarray(u, dtype=float)
        if self.kind == "bump":
            s = self.width
            g = np.exp(-(1.0 - u) / s)
            return [g] + [g / s**k for k in range(1, order + 1)]
        zero = np.zeros_like(u)
        if self.kind == "linear":
            return [u, np.ones_like(u), zero, zero][:order + 1]
        return [u * u, 2.0 * u, np.full_like(u, 2.0), zero][:order + 1]

    def _derivative(self, x, order):
        return _zonal(x, self.center, self.amplitude, self._profile, order)


# ---------------------------------------------------------------------------
# norm models
# ---------------------------------------------------------------------------


class MinkowskiNorm(_Homogeneous):
    """Base class; subclasses implement F's ``_derivative(x, order)`` (order
    0-3, behind the shared jet/value/grad/hess); G and Q go by the Legendre
    route unless a family overrides them in closed form."""

    family = "abstract"
    dim: int

    def metric_on_wulff(self, x) -> np.ndarray:
        """G at the Wulff points DF(x) of Gauss preimages x (B, d), by the
        Legendre route, which the closed-form families override."""
        return MinkowskiNorm.metric_from_jet(self, self.jet(x, 2))

    def metric_from_jet(self, jet) -> np.ndarray:
        """G from the jet [F, DF, D^2F, ...] at Gauss preimages (B, d):
        [D^2(F^2/2)]^-1 = [DF DF^T + F D^2F]^-1, 0-homogeneous (spd_inverse)."""
        f, df, d2f = jet[:3]
        return spd_inverse(df[:, :, None] * df[:, None, :] + f[:, None, None] * d2f)

    def q_on_wulff(self, x, basis=None) -> np.ndarray:
        """Q at the Wulff points DF(x) of Gauss preimages x (B, d):
        -G G G : F(x) D^3(F^2/2)(x), 0-homogeneous in x; with row bases
        basis (B, k, d), Q contracted into them, (B, k, k, k).

        Differentiating G(D(F^2/2)(y)) D^2(F^2/2)(y) = I in y gives
        -G G G : D^3(F^2/2)(y) at the Legendre point y = x / F(x).  Each
        slot takes its G and basis vector at once, e = basis G (or G), so
        the contraction is three pairwise ones (_contract3).
        """
        jet = self.jet(x, 3)
        f, df, d2f, d3f = jet
        g = MinkowskiNorm.metric_from_jet(self, jet)
        t = f[:, None, None, None] * (_sym3(d2f, df) + f[:, None, None, None] * d3f)
        return -_contract3(t, g if basis is None else basis @ g)

    # -- diagnostics ----------------------------------------------------------

    def validation_sample(self) -> np.ndarray:
        from .capgeom import sphere_sample

        return sphere_sample(self.dim, 5, 4096)

    def descriptor(self) -> dict:
        raise NotImplementedError


class IsotropicNorm(MinkowskiNorm):
    """F(x) = |x|; the Wulff shape is the round unit sphere."""

    family = "isotropic"

    def __init__(self, dim: int = 3):
        self.dim = dim

    def _derivative(self, x, order):
        r = np.linalg.norm(x, axis=-1)
        xh = x / r[:, None]
        jet = [r, xh][:order + 1]
        if order > 1:
            proj = np.eye(self.dim)[None] - xh[:, :, None] * xh[:, None, :]
            jet.append(proj / r[:, None, None])
        if order > 2:
            jet.append(-_sym3(proj, xh) / r[:, None, None, None] ** 2)
        return jet

    def metric_on_wulff(self, x):
        return np.broadcast_to(np.eye(self.dim), (len(x), self.dim, self.dim)).copy()

    def metric_from_jet(self, jet):
        return self.metric_on_wulff(jet[0])

    def q_on_wulff(self, x, basis=None):
        return np.zeros((len(x),) + (self.dim if basis is None else basis.shape[1],) * 3)

    def descriptor(self):
        return {"family": "isotropic", "dim": self.dim}


class EllipsoidNorm(MinkowskiNorm):
    """F(x) = sqrt(<x, Mx>) for symmetric positive definite M.

    The dual is sqrt(<xi, M^-1 xi>); G = M^-1 is constant and Q = 0.
    """

    family = "ellipsoid"

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("ellipsoid matrix must be square")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise InvalidInputError("ellipsoid matrix must be symmetric")
        ev = np.linalg.eigvalsh(m)
        if ev[0] <= 0:
            raise ModelInvalidError("ellipsoid matrix is not positive definite")
        self.matrix = 0.5 * (m + m.T)
        self.matrix_inv = np.linalg.inv(self.matrix)
        self.dim = m.shape[0]

    def _derivative(self, x, order):
        mx = x @ self.matrix
        jet = [np.sqrt(np.einsum("bi,bi->b", x, mx))]
        if order == 0:
            return jet
        f = jet[0]
        jet.append(mx / f[:, None])
        if order > 1:
            jet.append(self.matrix[None] / f[:, None, None]
                       - mx[:, :, None] * mx[:, None, :] / f[:, None, None] ** 3)
        if order > 2:
            f = f[:, None, None, None]
            m = np.broadcast_to(self.matrix, (x.shape[0], self.dim, self.dim))
            mmm = mx[:, :, None, None] * mx[:, None, :, None] * mx[:, None, None, :]
            jet.append(-_sym3(m, mx) / f**3 + 3.0 * mmm / f**5)
        return jet

    def metric_on_wulff(self, x):
        return np.broadcast_to(self.matrix_inv, (len(x), self.dim, self.dim)).copy()

    def metric_from_jet(self, jet):
        return self.metric_on_wulff(jet[0])

    def q_on_wulff(self, x, basis=None):
        return np.zeros((len(x),) + (self.dim if basis is None else basis.shape[1],) * 3)

    def descriptor(self):
        return {"family": "ellipsoid", "matrix": self.matrix.tolist()}


class PerturbedNorm(MinkowskiNorm):
    """Base family plus smooth zonal terms.

    Every derivative of F is the base's jet plus one folded closed-form jet
    of the zonal terms; the validation and the base class's G/Q
    (Legendre duality at a known Gauss preimage, see the module docstring)
    read them through jet.  Construction validates F > 0 and A_F > 0 on a
    dense sphere sample and fails loudly otherwise.
    """

    family = "perturbed"

    def __init__(self, base: MinkowskiNorm, terms):
        self.base = base
        self.terms = tuple(terms)
        self.dim = base.dim
        self._centers = np.array([t.center for t in self.terms]).reshape(len(self.terms), self.dim)
        self.validate()

    # primal

    def _derivative(self, x, order):
        """The base's jet plus one closed-form jet of the zonal sum
        Z = sum_t a_t |x| g_t(u_t), u_t = <x^, c_t>, p_t = c_t - u_t x^:

            DZ   = alpha x^ + sum_t a_t g1_t c_t,  alpha = sum_t a_t (g_t - u_t g1_t),
            D^2Z = (alpha P + S) / r,              S = sum_t a_t g2_t p_t p_t^T,
            D^3Z = (sum_t a_t g3_t p_t p_t p_t - sym_3(P, w + alpha x^)
                    - sym_3(S, x^)) / r^2,         w = sum_t a_t u_t g2_t p_t,

        where gk_t is the k-th derivative of term t's profile.  r, x^ and P =
        I - x^ x^T are computed once; each term adds into row-local
        accumulators, elementwise and in term order, so every order comes out
        of the same arithmetic.  PerturbTerm._derivative is the per-term chain.
        """
        jet = self.base._derivative(x, order)
        b, d = x.shape
        r = np.linalg.norm(x, axis=-1)
        xh = x / r[:, None]
        u = np.einsum("bi,ti->bt", xh, self._centers)
        val = np.zeros(b)
        if order > 0:
            alpha, tan = np.zeros(b), np.zeros((b, d))
        if order > 1:
            s2 = np.zeros((b, d, d))
        if order > 2:
            w, t3 = np.zeros((b, d)), np.zeros((b, d, d, d))
        for k, term in enumerate(self.terms):
            uk, c = u[:, k], self._centers[k]
            g = [term.amplitude * gk for gk in term._profile(uk, order)]
            val += g[0]
            if order > 0:
                alpha += g[0] - uk * g[1]
                tan += g[1][:, None] * c
            if order > 1:
                p = c - uk[:, None] * xh
                pp = p[:, :, None] * p[:, None, :]
                s2 += g[2][:, None, None] * pp
            if order > 2:
                w += (uk * g[2])[:, None] * p
                t3 += pp[:, :, :, None] * (g[3][:, None] * p)[:, None, None, :]
        jet[0] += r * val
        if order > 0:
            jet[1] += alpha[:, None] * xh + tan
        if order > 1:
            proj = np.eye(d)[None] - xh[:, :, None] * xh[:, None, :]
            jet[2] += (alpha[:, None, None] * proj + s2) / r[:, None, None]
        if order > 2:
            t3 -= _sym3(proj, w + alpha[:, None] * xh) + _sym3(s2, xh)
            jet[3] += t3 / r[:, None, None, None] ** 2
        return jet

    def validate(self):
        """F > 0 and A_F > 0 at every node of the validation sample, else a
        ModelInvalidError naming the worst node (F first).  The sample (10242
        nodes in 3d) is evaluated in blocks of _BLOCK_ROWS = 512 rows, as its
        whole-batch jet and tangent Hessians were the perturbed run's largest
        transient arrays; only F and the least A_F eigenvalue are kept per
        node."""
        pts = self.validation_sample()
        vals, lam = np.empty(len(pts)), np.empty(len(pts))
        for rows in row_blocks(len(pts)):
            vals[rows], _, d2f = self.jet(pts[rows], 2)
            tb = tangent_basis(pts[rows])
            lam[rows] = sym_eig_det(tangent_form(tb, d2f))[0][:, 0]
        if np.any(vals <= 0):
            i = int(np.argmin(vals))
            raise ModelInvalidError(f"perturbed norm non-positive at sample node {i}", node=pts[i])
        if np.any(lam <= 0):
            i = int(np.argmin(lam))
            raise ModelInvalidError(
                f"anisotropy matrix not positive definite at sample node {i} "
                f"(min eigenvalue {lam[i]:.3e})",
                node=pts[i],
            )

    def descriptor(self):
        return {
            "family": "perturbed",
            "base": self.base.descriptor(),
            "terms": [
                {"kind": t.kind, "center": list(t.center), "width": t.width, "amplitude": t.amplitude}
                for t in self.terms
            ],
        }

