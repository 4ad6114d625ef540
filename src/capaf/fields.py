"""Scalar fields on the capillary cap and their 1-homogeneous generators.

Every C^2 scalar field f on the cap corresponds to a unique 1-homogeneous
function s on the ambient space via f(xi(x)) = s(x)/F(x); bodies are the
special case where s is a support function.  Working with the generator
makes two things exact: Minkowski combinations (s is linear in the body)
and the curvature-radii matrix of horizontal kernel fields (linear s, so
the derivative of the boundary map vanishes identically).

Two curvature-radii routes live here:

* the generator route: tau_kl = G(D_{e_k} X, e_l) with X = Ds, in closed
  form from the field's Hessian: the parameter velocity of e_k is
  v_k = A_F^{-1} e_k (chain rule d(xi) = A_F dx), so D_{e_k} X = D^2 s v_k;
  and
* the intrinsic route: tau = (covariant Hessian) + f g - Q(., ., grad f)/2
  evaluated by second differences along quadratic geodesic Taylor curves
  re-projected onto the cap, with a caller-chosen step (tied to the mesh
  level in convergence studies).  The fields enter as one plain function
  fn(z, g) of Wulff-shape points z and the metric there, one column per
  field (kernel_evaluator builds the kernel fields').

Support fields take one point (d,) or a batch (B, d) and answer in kind.
SupportField owns that contract once, for value/grad/hess; each field
computes its derivatives of order 0-2 in one method, _derivative(x, order),
on rows (B, d), and a combination sums its parts' _derivative.  The bump
field shares its zonal derivative chain with the norm layer.
"""

from __future__ import annotations

import itertools

import numpy as np

from .capgeom import CapMesh
from .errors import InvalidInputError
from .norms import MinkowskiNorm, _rows, _unbatch, _zonal, unit_rows


# ---------------------------------------------------------------------------
# support fields (1-homogeneous generators)
# ---------------------------------------------------------------------------


class SupportField:
    """1-homogeneous scalar field with gradient and Hessian access.

    Subclasses implement ``_derivative(x, order)`` on rows x (B, d) for
    order 0-2; value/grad/hess take one point (d,) or a batch (B, d) and
    answer in kind.
    """

    def value(self, x) -> np.ndarray:
        return self._at(x, 0)

    def grad(self, x) -> np.ndarray:
        return self._at(x, 1)

    def hess(self, x) -> np.ndarray:
        return self._at(x, 2)

    def _at(self, x, order):
        x, batched = _rows(x)
        return _unbatch(self._derivative(x, order), batched)

    def _derivative(self, x, order) -> np.ndarray:
        raise NotImplementedError

    @property
    def anchor(self) -> np.ndarray:
        """Tracked horizontal translation component (see volume anchoring)."""
        return np.zeros(self.dim)

    def __add__(self, other):
        return CombinationField([self, other], [1.0, 1.0])

    def __sub__(self, other):
        return CombinationField([self, other], [1.0, -1.0])

    def __rmul__(self, c):
        return CombinationField([self], [float(c)])


class WulffCapField(SupportField):
    """Support field of a capillary Wulff cap: s(x) = r0 (F(x) + w0 <E, x>)."""

    def __init__(self, model: MinkowskiNorm, omega0: float, r0: float, e_vec, ef_vec):
        if r0 <= 0:
            raise InvalidInputError("Wulff cap radius must be positive")
        e_vec = np.asarray(e_vec, dtype=float)
        if abs(e_vec[-1] - 1.0) > 1e-12:
            raise InvalidInputError("cap direction must pair to 1 with the vertical axis")
        self.model = model
        self.omega0 = float(omega0)
        self.r0 = float(r0)
        self.dim = model.dim
        self.shift = self.r0 * self.omega0 * e_vec
        self._anchor = self.r0 * self.omega0 * (e_vec - np.asarray(ef_vec, dtype=float))
        self._anchor[-1] = 0.0

    def _derivative(self, x, order):
        if order == 0:
            return self.r0 * self.model.value(x) + x @ self.shift
        if order == 1:
            return self.r0 * self.model.grad(x) + self.shift[None, :]
        return self.r0 * self.model.hess(x)

    @property
    def anchor(self):
        return self._anchor


class LinearField(SupportField):
    """s(x) = <v, x>; the horizontal part of v is the tracked anchor."""

    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)
        self.dim = len(self.v)

    def _derivative(self, x, order):
        if order == 0:
            return x @ self.v
        if order == 1:
            return np.broadcast_to(self.v, x.shape).copy()
        return np.zeros((x.shape[0], self.dim, self.dim))

    @property
    def anchor(self):
        a = self.v.copy()
        a[-1] = 0.0
        return a


class SphericalBumpField(SupportField):
    """Compactly supported bump s(x) = a |x| g((1 - <x^, c>)/w).

    g(t) = (1 - t^2)^6 for |t| < 1 and 0 outside: C^5 across the support
    edge (plenty for every derivative route used here) with mild derivative
    growth, unlike the classic exp(-1/(1-t^2)) profile whose higher
    derivatives concentrate near the edge and ruin finite-difference
    constants.  The field and its first five derivatives vanish identically
    outside the spherical cap {<x^, c> > 1 - w}; placing that cap strictly
    inside the parameter region leaves the capillary boundary condition
    untouched.
    """

    _POW = 6

    def __init__(self, center, width: float, amplitude: float):
        self.center = unit_rows(np.asarray(center, dtype=float))
        self.width = float(width)
        self.amplitude = float(amplitude)
        self.dim = len(self.center)
        if not (0.0 < self.width < 2.0):
            raise InvalidInputError("bump width must lie in (0, 2)")

    def _profile(self, u):
        p = self._POW
        t = (1.0 - u) / self.width
        inside = np.abs(t) < 1.0
        tt = np.where(inside, t, 0.0)
        one = 1.0 - tt * tt
        gg = one**p
        dg = -2.0 * p * tt * one ** (p - 1)
        d2g = -2.0 * p * one ** (p - 1) + 4.0 * p * (p - 1) * tt**2 * one ** (p - 2)
        zero = np.zeros_like(u)
        g = np.where(inside, gg, zero)
        g1 = np.where(inside, dg * (-1.0 / self.width), zero)
        g2 = np.where(inside, d2g / self.width**2, zero)
        return g, g1, g2

    def _derivative(self, x, order):
        """The zonal chain on the rows within reach of the support cap (a 1e-9
        margin in the cosine), exact zeros elsewhere: most rows miss a bump."""
        live = x @ self.center > (1.0 - self.width - 1e-9) * np.linalg.norm(x, axis=-1)
        out = np.zeros((len(x),) + (self.dim,) * order)
        out[live] = _zonal(x[live], self.center, self.amplitude, self._profile, order)
        return out


class CombinationField(SupportField):
    """Linear combination of support fields (Minkowski combinations)."""

    def __init__(self, fields, coeffs):
        if len(fields) != len(coeffs) or not fields:
            raise InvalidInputError("fields and coefficients must align and be nonempty")
        self.fields = list(fields)
        self.coeffs = [float(c) for c in coeffs]
        self.dim = fields[0].dim

    def _derivative(self, x, order):
        """c0 f0 + c1 f1 + ..., summed left to right in place."""
        out = self.coeffs[0] * self.fields[0]._derivative(x, order)
        for f, c in zip(self.fields[1:], self.coeffs[1:]):
            out += c * f._derivative(x, order)
        return out

    @property
    def anchor(self):
        a = np.zeros(self.dim)
        for f, c in zip(self.fields, self.coeffs):
            a = a + c * f.anchor
        return a


def kernel_field(mesh: CapMesh, alpha: int) -> LinearField:
    """Horizontal kernel field G(T^-1 xi)(T^-1 xi, E_alpha) as a generator.

    The identity G(z)(z, Y) = <Y, x>/F(x) at z = DF(x) makes the generator
    exactly linear: s(x) = <x, E_alpha>.
    """
    v = np.zeros(mesh.dim)
    v[alpha] = 1.0
    return LinearField(v)


# ---------------------------------------------------------------------------
# generator-route tau
# ---------------------------------------------------------------------------


def radii_form(hess, frame, g, vel):
    """Raw radii matrices tau_kl = G(D^2 s . v_k, e_l), (K, n, n).

    hess is D^2 s at K points, frame the frame vectors e_k there (K, n, d),
    g the metric G and vel the parameter velocities v_k = A_F^{-1} e_k as
    columns (K, d, n) (see `capgeom.parameter_velocities`).
    """
    return np.swapaxes(frame @ (g @ (hess @ vel)), 1, 2)


def tau_from_generator(mesh: CapMesh, field: SupportField):
    """Radii matrices in the g-ring orthonormal frame at every node.

    The field's Hessian at the nodes through `radii_form`.  Returns
    (tau_symmetrized, tau_raw), both (N, n, n).  The route is linear in the
    field, so bodies sum raw parts and symmetrize once.
    """
    tau = radii_form(np.asarray(field.hess(mesh.nodes)), mesh.frame, mesh.G, mesh.vel)
    return 0.5 * (tau + np.swapaxes(tau, 1, 2)), tau


# ---------------------------------------------------------------------------
# intrinsic route: geodesic stencils on the cap
# ---------------------------------------------------------------------------


def kernel_evaluator(mesh: CapMesh):
    """The horizontal kernel fields via the metric form G(z)(z, E_alpha), not
    the identity: ``fn(z, g)`` gives every field E_1..E_n at points z on the
    Wulff shape, given the metric g = G(z) there, as columns (K, n)."""
    return lambda z, g: np.einsum("bij,bi->bj", g, z)[:, : mesh.n]


def _geodesic_points(mesh: CapMesh, idx: np.ndarray, vel: np.ndarray, step: float):
    """Quadratic geodesic Taylor points on the Wulff shape, both signs.

    vel holds frame coefficients (K, n) of the initial velocity.  The
    acceleration of a g-ring geodesic in ambient coordinates is
    -g(v, v) z - (1/2) Q(v, v, e_l) e_l, from the Gauss formula with unit
    anisotropic curvature; the O(t^3) defect is odd in t, so symmetric
    differences stay second-order after re-projection, a radial rescaling
    onto {F0 = 1}.  Returns ((z_plus, x_plus), (z_minus, x_minus)): the
    maximizer x of <x, p>/F(x) in the projection's dual solve does not move
    when p is scaled, so it is the projected point's Gauss preimage.
    """
    z = mesh.psi[idx]
    fr = mesh.frame[idx]
    qf = mesh.q_frame[idx]
    v_amb = np.einsum("bk,bkd->bd", vel, fr)
    vnorm2 = np.einsum("bk,bk->b", vel, vel)
    qvv = np.einsum("bijl,bi,bj->bl", qf, vel, vel)
    acc = -vnorm2[:, None] * z - 0.5 * np.einsum("bl,bld->bd", qvv, fr)
    plus = z + step * v_amb + 0.5 * step**2 * acc
    minus = z - step * v_amb + 0.5 * step**2 * acc
    solves = (mesh.model.dual_value(p, mesh.nodes[idx], return_argmax=True) for p in (plus, minus))
    return tuple((p / f0[:, None], x) for p, (f0, x) in zip((plus, minus), solves))


def intrinsic_tau(mesh: CapMesh, fn, idx, step: float):
    """Radii matrices via the intrinsic formula tau = Hess + f g - Q(grad)/2.

    ``fn(z, g)`` evaluates m fields at Wulff-shape points z with metric g
    there, as columns (K, m) (see kernel_evaluator); one stencil serves all.
    g is the mesh's G at the nodes; an off-node point costs one projection
    solve, whose maximizer is the Gauss preimage the metric is read at.
    Covariant second derivatives come from geodesic second differences;
    off-diagonal entries by polarization along e_i + e_j.  Returns (tau,
    grad), shapes (K, m, n, n) and (K, m, n).
    """
    idx = np.asarray(idx, dtype=np.int64)
    n = mesh.n
    f0 = fn(mesh.psi[idx], mesh.G[idx])
    grad = np.empty(f0.shape + (n,))
    hess = np.empty(f0.shape + (n, n))
    second = {}
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        vel = np.zeros((len(idx), n))
        vel[:, [i, j]] = 1.0
        fp, fm = (fn(z, mesh.model.metric_on_wulff(x))
                  for z, x in _geodesic_points(mesh, idx, vel, step))
        if i == j:
            grad[..., i] = (fp - fm) / (2.0 * step)
        second[i, j] = (fp - 2.0 * f0 + fm) / step**2
    for i, j in second:
        val = second[i, j] if i == j else 0.5 * (second[i, j] - second[i, i] - second[j, j])
        hess[..., i, j] = val
        hess[..., j, i] = val
    qgrad = np.einsum("bijk,bmk->bmij", mesh.q_frame[idx], grad)
    tau = hess + f0[..., None, None] * np.eye(n) - 0.5 * qgrad
    return 0.5 * (tau + np.swapaxes(tau, -1, -2)), grad
