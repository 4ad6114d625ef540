"""Minkowski-norm calculus: F, its derivatives, the dual norm, and the
metric structure of the Wulff shape.

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

F and each zonal term are homogeneous functions of one shape: a private
base defines value/grad/hess/third, which take one point (d,) or a batch
(B, d) and reject the zero vector, and each class computes its derivatives
of order 0-3 in one method, _derivative(x, order), on nonzero rows (B, d).
Every family's derivatives are closed form (the perturbed family sums its
base's and its terms' _derivative), so no path differences F.
Every family evaluates its dual norm, and on request the maximizer (the
Gauss preimage), as dual_value(xi, x_warm=None, return_argmax=False); the
perturbed family runs a damped Newton ascent on the sphere, from multiple
coarse starts, or from the approximate Gauss preimages x_warm when given
(the other families ignore x_warm), and stops at once from an exact one.
The warm start serves the projections of off-mesh stencil points onto the
Wulff shape, whose maximizer is then the projected point's preimage.
The zonal terms' derivative chain, _zonal, is shared with the bump support
fields of fields.py.

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
(the mesh nodes, or a projection solve's maximizer), and solve nothing; the
isotropic and ellipsoid families return their constant G and Q = 0.
metric(xi) and q_tensor(xi) at an arbitrary xi find the preimage first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ModelInvalidError, NumericError

_EPS = 1e-14


def _rows(x):
    """View input as (B, d); return (array, had_batch_dim)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], False
    return x, True


def _unbatch(val, batched):
    return val if batched else val[0]


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Normalize each row to unit Euclidean length."""
    x = np.asarray(x, dtype=float)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _sym3(s, v):
    """Batched s_ab v_c + s_ac v_b + s_bc v_a for symmetric s: (B, d, d, d)."""
    return (s[:, :, :, None] * v[:, None, None, :] + s[:, :, None, :] * v[:, None, :, None]
            + s[:, None, :, :] * v[:, :, None, None])


def tangent_basis(x: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the tangent space x^perp.

    Seeds with the coordinate axis least aligned with x, orthonormalizes,
    and (in 3d) completes with the cross product; the fixed seeding and
    ordering make every downstream cache reproducible.  Returns shape
    (..., d-1, d) with basis vectors as rows.
    """
    x, batched = _rows(x)
    b, d = x.shape
    if d == 2:
        t = np.stack([-x[:, 1], x[:, 0]], axis=-1)
        out = t[:, None, :]
    elif d == 3:
        axis = np.argmin(np.abs(x), axis=-1)
        e = np.eye(3)[axis]
        u1 = e - (np.sum(e * x, axis=-1, keepdims=True)) * x
        u1 = unit_rows(u1)
        u2 = np.cross(x, u1)
        out = np.stack([u1, u2], axis=1)
    else:
        raise InvalidInputError(f"ambient dimension {d} not supported")
    return out if batched else out[0]


def _zonal(x, center, amplitude, profile, order):
    """Derivative of the given order (0-3) of a |x| g(<x^, c>) at rows x (B, d).

    ``profile(u)`` returns g(u), g'(u), ... up to at least that order.  The
    zonal perturbation terms of F and the bump support fields share this.
    """
    c = np.asarray(center)
    r = np.linalg.norm(x, axis=-1)
    if order == 0:
        return amplitude * r * profile(x @ c / r)[0]
    d = x.shape[1]
    xh = x / r[:, None]
    u = xh @ c
    prof = profile(u)
    g, g1 = prof[0], prof[1]
    p = c[None, :] - u[:, None] * xh
    if order == 1:
        return amplitude * (g[:, None] * xh + g1[:, None] * p)
    g2 = prof[2]
    proj = np.eye(d)[None] - xh[:, :, None] * xh[:, None, :]
    if order == 2:
        h = (g - u * g1)[:, None, None] * proj + g2[:, None, None] * p[:, :, None] * p[:, None, :]
        return amplitude * h / r[:, None, None]
    pp = p[:, :, None] * p[:, None, :]
    t = (-(u * g2)[:, None, None, None] * _sym3(proj, p)
         - (g - u * g1)[:, None, None, None] * _sym3(proj, xh)
         - g2[:, None, None, None] * _sym3(pp, xh)
         + prof[3][:, None, None, None] * pp[:, :, :, None] * p[:, None, None, :])
    return amplitude * t / r[:, None, None, None] ** 2


# ---------------------------------------------------------------------------
# homogeneous functions: one derivative method each
# ---------------------------------------------------------------------------


class _Homogeneous:
    """A homogeneous function on R^d minus the origin, with derivatives to order 3.

    Subclasses implement ``_derivative(x, order)`` on nonzero rows x (B, d)
    for order 0-3; value/grad/hess/third take one point (d,) or a batch
    (B, d), reject the zero vector and answer in kind.
    """

    def value(self, x) -> np.ndarray:
        return self._at(x, 0)

    def grad(self, x) -> np.ndarray:
        return self._at(x, 1)

    def hess(self, x) -> np.ndarray:
        return self._at(x, 2)

    def third(self, x) -> np.ndarray:
        """Third derivative, shape (..., d, d, d)."""
        return self._at(x, 3)

    def _at(self, x, order):
        x, batched = self._check_nonzero(x)
        return _unbatch(self._derivative(x, order), batched)

    def _derivative(self, x, order) -> np.ndarray:
        raise NotImplementedError

    def _check_nonzero(self, x):
        x, batched = _rows(x)
        if np.any(np.linalg.norm(x, axis=-1) < _EPS):
            raise InvalidInputError("norm evaluated at the zero vector")
        return x, batched


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

    def _profile(self, u):
        """Return g(u) and its first three derivatives elementwise."""
        u = np.asarray(u, dtype=float)
        if self.kind == "linear":
            return u, np.ones_like(u), np.zeros_like(u), np.zeros_like(u)
        if self.kind == "quadratic":
            return u * u, 2.0 * u, np.full_like(u, 2.0), np.zeros_like(u)
        s = self.width
        g = np.exp(-(1.0 - u) / s)
        return g, g / s, g / s**2, g / s**3

    def _derivative(self, x, order):
        return _zonal(x, self.center, self.amplitude, self._profile, order)


# ---------------------------------------------------------------------------
# norm models
# ---------------------------------------------------------------------------


class MinkowskiNorm(_Homogeneous):
    """Base class; subclasses implement F's ``_derivative(x, order)`` (order
    0-3, behind the shared value/grad/hess/third) and the dual side."""

    family = "abstract"
    dim: int

    # -- primal side --------------------------------------------------------

    def cahn_hoffman(self, x) -> np.ndarray:
        """Gradient map DF at x / |x|; parametrizes the Wulff shape.

        Input off the unit sphere (by more than 1e-12) is normalized first.
        Equals F(x) x + (spherical gradient of F) for unit x.
        """
        x, batched = _rows(x)
        r = np.linalg.norm(x, axis=-1)
        if np.any(np.abs(r - 1.0) > 1e-12):
            x = x / r[:, None]
        return _unbatch(self.grad(x), batched)

    def anisotropy_matrix(self, x, basis: np.ndarray | None = None) -> np.ndarray:
        """Tangent restriction of the Hessian of F at unit x.

        ``basis`` is an orthonormal tangent basis shaped like the input: (n, d)
        for one point, (B, n, d) for a batch; when omitted the deterministic
        coordinate-seeded basis is used.
        """
        x, batched = _rows(x)
        if basis is None:
            basis = tangent_basis(x)
        elif not batched:
            basis = np.asarray(basis, dtype=float)[None]
        h = self.hess(x)
        a = np.einsum("bki,bij,blj->bkl", basis, h, basis)
        return _unbatch(a, batched)

    # -- dual side -----------------------------------------------------------

    def dual_value(self, xi, x_warm=None, return_argmax: bool = False):
        """F0(xi) in closed form (``x_warm`` is ignored), optionally with the
        maximizer: the Gauss preimage of the projected point xi / F0(xi)."""
        xi, batched = self._check_nonzero(xi)
        f0 = self._dual(xi)
        if return_argmax:
            return _unbatch(f0, batched), _unbatch(self.gauss_preimage(xi / f0[:, None]), batched)
        return _unbatch(f0, batched)

    def _dual(self, xi) -> np.ndarray:
        """F0 at nonzero rows xi (B, d)."""
        raise NotImplementedError

    def metric(self, xi) -> np.ndarray:
        """G(xi): Hessian of (1/2) F0^2, shape (..., d, d); 0-homogeneous."""
        xi, batched = self._check_nonzero(xi)
        return _unbatch(self.metric_on_wulff(self.gauss_preimage(xi)), batched)

    def q_tensor(self, xi) -> np.ndarray:
        """Q(xi): third derivative of (1/2) F0^2, shape (..., d, d, d);
        (-1)-homogeneous, so Q(xi) = Q(xi / F0(xi)) / F0(xi)."""
        xi, batched = self._check_nonzero(xi)
        f0, x = self.dual_value(xi, return_argmax=True)
        return _unbatch(self.q_on_wulff(x) / f0[:, None, None, None], batched)

    def _half_sq_derivs(self, x):
        """F, DF, D^2F and the 0-homogeneous D^2(F^2/2) = DF DF^T + F D^2F."""
        f = self.value(x)
        df = self.grad(x)
        d2f = self.hess(x)
        return f, df, d2f, df[:, :, None] * df[:, None, :] + f[:, None, None] * d2f

    def metric_on_wulff(self, x) -> np.ndarray:
        """G at the Wulff points DF(x) of Gauss preimages x (B, d):
        [D^2(F^2/2)(x)]^-1, 0-homogeneous in x."""
        *_, h = self._half_sq_derivs(x)
        return np.linalg.inv(h)

    def q_on_wulff(self, x) -> np.ndarray:
        """Q at the Wulff points DF(x) of Gauss preimages x (B, d):
        -G G G : F(x) D^3(F^2/2)(x), 0-homogeneous in x.

        Differentiating G(D(F^2/2)(y)) D^2(F^2/2)(y) = I in y gives
        -G G G : D^3(F^2/2)(y) at the Legendre point y = x / F(x).
        """
        f, df, d2f, h = self._half_sq_derivs(x)
        g = np.linalg.inv(h)
        t = f[:, None, None, None] * (_sym3(d2f, df) + f[:, None, None, None] * self.third(x))
        return -np.einsum("nia,njb,nkc,nabc->nijk", g, g, g, t, optimize=True)

    def gauss_preimage(self, z) -> np.ndarray:
        """Unit x with DF(x) parallel to z (inverse Cahn-Hoffman direction):
        the dual solve's maximizer; closed-form families override it."""
        return self.dual_value(z, return_argmax=True)[1]

    # -- diagnostics ----------------------------------------------------------

    def validation_sample(self) -> np.ndarray:
        from .capgeom import icosphere_vertices

        if self.dim == 3:
            return icosphere_vertices(5)
        phi = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        return np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    def descriptor(self) -> dict:
        raise NotImplementedError


class IsotropicNorm(MinkowskiNorm):
    """F(x) = |x|; the Wulff shape is the round unit sphere."""

    family = "isotropic"

    def __init__(self, dim: int = 3):
        self.dim = dim

    def _derivative(self, x, order):
        if order == 0:
            return np.linalg.norm(x, axis=-1)
        if order == 1:
            return unit_rows(x)
        r = np.linalg.norm(x, axis=-1)
        xh = x / r[:, None]
        proj = np.eye(self.dim)[None] - xh[:, :, None] * xh[:, None, :]
        if order == 2:
            return proj / r[:, None, None]
        return -_sym3(proj, xh) / r[:, None, None, None] ** 2

    def _dual(self, xi):
        return np.linalg.norm(xi, axis=-1)

    def metric_on_wulff(self, x):
        return np.broadcast_to(np.eye(self.dim), (len(x), self.dim, self.dim)).copy()

    def q_on_wulff(self, x):
        return np.zeros((len(x),) + (self.dim,) * 3)

    def gauss_preimage(self, z):
        z, batched = self._check_nonzero(z)
        return _unbatch(unit_rows(z), batched)

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
        if order == 0:
            return np.sqrt(np.einsum("bi,ij,bj->b", x, self.matrix, x))
        mx = x @ self.matrix
        f = np.sqrt(np.einsum("bi,bi->b", x, mx))
        if order == 1:
            return mx / f[:, None]
        if order == 2:
            return self.matrix[None] / f[:, None, None] - mx[:, :, None] * mx[:, None, :] / f[:, None, None] ** 3
        f = f[:, None, None, None]
        m = np.broadcast_to(self.matrix, (x.shape[0], self.dim, self.dim))
        mmm = mx[:, :, None, None] * mx[:, None, :, None] * mx[:, None, None, :]
        return -_sym3(m, mx) / f**3 + 3.0 * mmm / f**5

    def _dual(self, xi):
        return np.sqrt(np.einsum("bi,ij,bj->b", xi, self.matrix_inv, xi))

    def metric_on_wulff(self, x):
        return np.broadcast_to(self.matrix_inv, (len(x), self.dim, self.dim)).copy()

    def q_on_wulff(self, x):
        return np.zeros((len(x),) + (self.dim,) * 3)

    def gauss_preimage(self, z):
        z, batched = self._check_nonzero(z)
        return _unbatch(unit_rows(z @ self.matrix_inv), batched)

    def descriptor(self):
        return {"family": "ellipsoid", "matrix": self.matrix.tolist()}


class PerturbedNorm(MinkowskiNorm):
    """Base family plus smooth zonal terms.

    Every derivative of F is the closed-form sum of the base's and the
    terms' ``_derivative``; the dual solve, the validation and the base
    class's G/Q (Legendre duality at a known Gauss preimage, see the module
    docstring) read them through value/grad/hess/third.  Construction validates F > 0 and A_F > 0 on a dense
    sphere sample and fails loudly otherwise.
    """

    family = "perturbed"

    def __init__(self, base: MinkowskiNorm, terms):
        self.base = base
        self.terms = tuple(terms)
        self.dim = base.dim
        self._dual_starts = None
        self.validate()

    # primal

    def _derivative(self, x, order):
        """The base's derivative plus every term's, summed in order, in place
        (every family's _derivative returns a fresh array)."""
        out = self.base._derivative(x, order)
        for t in self.terms:
            out += t._derivative(x, order)
        return out

    def validate(self):
        pts = self.validation_sample()
        vals = np.asarray(self.value(pts))
        if np.any(vals <= 0):
            i = int(np.argmin(vals))
            raise ModelInvalidError(f"perturbed norm non-positive at sample node {i}", node=pts[i])
        a = self.hess(pts)
        tb = tangent_basis(pts)
        at = np.einsum("bki,bij,blj->bkl", tb, a, tb)
        ev = np.linalg.eigvalsh(at)
        if np.any(ev[:, 0] <= 0):
            i = int(np.argmin(ev[:, 0]))
            raise ModelInvalidError(
                f"anisotropy matrix not positive definite at sample node {i} "
                f"(min eigenvalue {ev[i, 0]:.3e})",
                node=pts[i],
            )

    # dual: multistart damped Newton ascent of <y, xi>/F(y) over the sphere

    def _coarse_starts(self):
        if self._dual_starts is None:
            if self.dim == 3:
                from .capgeom import icosphere_vertices

                verts = icosphere_vertices(0)  # 12 icosahedron vertices
                axes = np.concatenate([np.eye(3), -np.eye(3)], axis=0)
                self._dual_starts = unit_rows(np.concatenate([verts, axes], axis=0))[:20]
            else:
                phi = np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False)
                self._dual_starts = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        return self._dual_starts

    def _phi(self, y, xi):
        return np.einsum("bi,bi->b", y, xi) / self.value(y)

    def _newton_ascend(self, y, xi, tol, max_iter=60):
        """Damped Newton on the sphere, batched, stepping only the rows still
        above tol (gathered, then scattered back); returns (y, residual)."""
        y = y.copy()
        scale = np.linalg.norm(xi, axis=-1)
        res = np.full(len(y), np.inf)
        live = np.arange(len(y))
        for _ in range(max_iter):
            yl, xl = y[live], xi[live]
            f = np.asarray(self.value(yl))
            df = np.asarray(self.grad(yl))
            gam = np.einsum("bi,bi->b", yl, xl) / f  # current phi
            grad_phi = xl / f[:, None] - gam[:, None] * df / f[:, None]
            tb = tangent_basis(yl)
            gt = np.einsum("bki,bi->bk", tb, grad_phi)
            res[live] = np.linalg.norm(gt, axis=-1) / np.maximum(scale[live], _EPS)
            active = res[live] > tol
            if not np.any(active):
                break
            live = live[active]
            yl, xl, f, df, gam, tb, gt = (a[active] for a in (yl, xl, f, df, gam, tb, gt))
            d2f = np.asarray(self.hess(yl))
            h = (
                -(xl[:, :, None] * df[:, None, :] + df[:, :, None] * xl[:, None, :]) / f[:, None, None] ** 2
                - gam[:, None, None] * d2f / f[:, None, None]
                + 2.0 * gam[:, None, None] * df[:, :, None] * df[:, None, :] / f[:, None, None] ** 2
            )
            ht = np.einsum("bki,bij,blj->bkl", tb, h, tb)
            reg = 1e-12 * np.eye(y.shape[1] - 1)
            try:
                step = np.linalg.solve(-(ht - reg), gt[..., None])[..., 0]
            except np.linalg.LinAlgError:
                step = gt
            # damping: backtrack until phi does not decrease
            t = np.ones(len(live))
            ynew = yl.copy()
            for _ in range(30):
                cand = unit_rows(yl + np.einsum("bk,bkd->bd", t[:, None] * step, tb))
                ok = self._phi(cand, xl) >= gam - 1e-15
                ynew = np.where(ok[:, None], cand, ynew)
                if np.all(ok):
                    break
                t = np.where(ok, t, t * 0.5)
            y[live] = ynew
        return y, res

    def dual_value(self, xi, x_warm=None, return_argmax: bool = False):
        """F0(xi) by damped Newton ascent, optionally with the maximizer.

        Without ``x_warm`` the ascent runs from the best three of the coarse
        starts; with it (one row, or one row per xi) a single warm ascent
        runs from there to a tighter tolerance.
        """
        xi, batched = self._check_nonzero(xi)
        if x_warm is None:
            what = "dual-norm ascent"
            tol = 1e-10
            starts = self._coarse_starts()
            vals = np.stack([self._phi(np.broadcast_to(s, xi.shape).copy(), xi) for s in starts], axis=0)
            order = np.argsort(-vals, axis=0)
            best_y = None
            best_phi = np.full(xi.shape[0], -np.inf)
            for rank in range(3):
                y0 = starts[order[rank]]
                y, res = self._newton_ascend(y0.copy(), xi, tol)
                phi = self._phi(y, xi)
                take = phi > best_phi
                best_phi = np.where(take, phi, best_phi)
                best_y = y if best_y is None else np.where(take[:, None], y, best_y)
            yf, res = self._newton_ascend(best_y, xi, tol, max_iter=10)
        else:
            what = "warm dual ascent"
            y0 = np.atleast_2d(np.asarray(x_warm, dtype=float))
            if y0.shape[0] == 1 and xi.shape[0] > 1:
                y0 = np.broadcast_to(y0, xi.shape).copy()
            yf, res = self._newton_ascend(unit_rows(y0), xi, 1e-12, max_iter=30)
        phi = self._phi(yf, xi)
        if np.any(res > 1e-6):
            raise NumericError(f"{what} did not converge",
                               best_value=float(np.max(phi)), residual=float(np.max(res)))
        if return_argmax:
            return _unbatch(phi, batched), _unbatch(yf, batched)
        return _unbatch(phi, batched)

    def descriptor(self):
        return {
            "family": "perturbed",
            "base": self.base.descriptor(),
            "terms": [
                {"kind": t.kind, "center": list(t.center), "width": t.width, "amplitude": t.amplitude}
                for t in self.terms
            ],
        }


def norm_from_descriptor(desc: dict) -> MinkowskiNorm:
    """Rebuild a norm model from its descriptor() dict."""
    fam = desc["family"]
    if fam == "isotropic":
        return IsotropicNorm(dim=int(desc.get("dim", 3)))
    if fam == "ellipsoid":
        return EllipsoidNorm(np.asarray(desc["matrix"], dtype=float))
    if fam == "perturbed":
        base = norm_from_descriptor(desc["base"])
        terms = [PerturbTerm(t["kind"], tuple(t["center"]), float(t["width"]), float(t["amplitude"]))
                 for t in desc["terms"]]
        return PerturbedNorm(base, terms)
    raise InvalidInputError(f"unknown norm family {fam!r}")
