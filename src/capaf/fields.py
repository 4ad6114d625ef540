"""Scalar fields on the capillary cap and their 1-homogeneous generators.

Every C^2 scalar field f on the cap corresponds to a unique 1-homogeneous
function s on the ambient space via f(xi(x)) = s(x)/F(x); bodies are the
special case where s is a support function.  Working with the generator
makes two things exact: Minkowski combinations (s is linear in the body)
and the curvature-radii matrix of horizontal kernel fields (linear s, so
the derivative of the boundary map vanishes identically).

Two curvature-radii routes live here:

* the generator route: tau_kl = G(D_{e_k} X, e_l) with X = Ds, in closed
  form from the field's Hessian (capgeom.radii_form): the parameter
  velocity of e_k is v_k = A_F^{-1} e_k (chain rule d(xi) = A_F dx), so
  D_{e_k} X = D^2 s v_k; the mesh applies the same form to F's own Hessian
  for the unit cap's radii, cap_tau; and
* the intrinsic route: tau = (covariant Hessian) + f g - Q(., ., grad f)/2
  evaluated by second differences along curves on the Wulff shape that
  match the geodesics to second order, built as DF of curves on the unit
  sphere of Gauss preimages (no solve), with a caller-chosen step (tied to
  the mesh level in convergence studies).  The fields enter as one plain
  function fn(z, g) of Wulff-shape points z and the metric there, one
  column per field (kernel_evaluator builds the kernel fields').

Support fields are homogeneous functions of the norms' shape: SupportField
subclasses norms._Homogeneous, whose jet/value/grad/hess take rows (B, d)
and reject the zero vector.  Each field computes the jet [s, ..., D^order s]
(order 0-2) in one method, _derivative(x, order), on nonzero rows (B, d); a
combination (CombinationField, which also builds the operator's test fields,
differences of two bodies' fields) sums its parts' jets in place, the Wulff
cap scales its norm's _derivative, and the bump field shares its zonal
derivative chain with the norm layer.  A combination evaluates all its
bump parts in one zonal pass over their stacked live rows (_bump_jets),
each row with its own bump's parameters, so each row gets the bits of the
bump's own pass.
"""

from __future__ import annotations

import itertools

import numpy as np

from .capgeom import CapMesh, radii_form
from .errors import InvalidInputError
from .norms import MinkowskiNorm, _Homogeneous, _zonal, unit_rows


# ---------------------------------------------------------------------------
# support fields (1-homogeneous generators)
# ---------------------------------------------------------------------------


class SupportField(_Homogeneous):
    """1-homogeneous scalar field; the norms' jet/value/grad/hess contract,
    with subclasses computing the jet to order 2 in ``_derivative``."""

    @property
    def anchor(self) -> np.ndarray:
        """Tracked horizontal translation component (see volume anchoring)."""
        return np.zeros(self.dim)


class WulffCapField(SupportField):
    """Support field of a capillary Wulff cap: s(x) = r0 (F(x) + w0 <EF, x>).

    Its anchor is the zero vector; a horizontally shifted cap is a
    translate of this one (bodies.translate_horizontal).
    """

    def __init__(self, model: MinkowskiNorm, omega0: float, r0: float, ef_vec):
        if r0 <= 0:
            raise InvalidInputError("Wulff cap radius must be positive")
        self.model = model
        self.omega0 = float(omega0)
        self.r0 = float(r0)
        self.dim = model.dim
        self.shift = self.r0 * self.omega0 * np.asarray(ef_vec, dtype=float)

    def _derivative(self, x, order):
        jet = [self.r0 * f for f in self.model._derivative(x, order)]
        jet[0] += x @ self.shift
        if order > 0:
            jet[1] += self.shift[None, :]
        return jet


class LinearField(SupportField):
    """s(x) = <v, x>; the horizontal part of v is the tracked anchor."""

    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)
        self.dim = len(self.v)

    def _derivative(self, x, order):
        return [x @ self.v, np.broadcast_to(self.v, x.shape).copy(),
                np.zeros((x.shape[0], self.dim, self.dim))][:order + 1]

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

    def _live(self, x, r):
        """Indices of the rows of x (B, d), |x| = r, within reach of the
        support cap (a 1e-9 margin in the cosine): most rows miss a bump."""
        return np.flatnonzero(x @ self.center > (1.0 - self.width - 1e-9) * r)

    def _derivative(self, x, order):
        """The zonal chain on the live rows, exact zeros elsewhere."""
        jet = [np.zeros((len(x),) + (self.dim,) * k) for k in range(order + 1)]
        ((rows, part),) = _bump_jets([self], x, order)
        for out, a in zip(jet, part):
            out[rows] = a
        return jet


def _bump_profile(u, order, width, neg_inv_width, width_sq):
    """The bump profile [g, g', g''] in u = <x^, c>, up to the given order
    (0-2), with the width w, -1/w and w^2 given one entry per u."""
    p = SphericalBumpField._POW
    t = (1.0 - u) / width
    inside = np.abs(t) < 1.0
    tt = np.where(inside, t, 0.0)
    one = 1.0 - tt * tt
    zero = np.zeros_like(u)
    prof = [np.where(inside, one**p, zero)]
    if order > 0:
        one_p1 = one ** (p - 1)
        dg = -2.0 * p * tt * one_p1
        prof.append(np.where(inside, dg * neg_inv_width, zero))
    if order > 1:
        d2g = -2.0 * p * one_p1 + 4.0 * p * (p - 1) * tt**2 * one ** (p - 2)
        prof.append(np.where(inside, d2g / width_sq, zero))
    return prof


def _bump_jets(bumps, x, order):
    """[(rows, jet)] of each bump at its live rows of x (B, d), from one
    zonal pass over the bumps' stacked live rows: each row with its own
    bump's center, amplitude and profile scalars (width, -1/width and
    width^2, each computed once per bump), so a row gets the bits of a pass
    over its bump alone."""
    r = np.linalg.norm(x, axis=-1)
    rows = [b._live(x, r) for b in bumps]
    counts = [len(i) for i in rows]
    per_row = [np.repeat(v, counts) for v in zip(*((b.width, -1.0 / b.width, b.width**2)
                                                   for b in bumps))]
    jet = _zonal(x[np.concatenate(rows)], [b.center for b in bumps],
                 [b.amplitude for b in bumps],
                 lambda u, k: _bump_profile(u, k, *per_row), order, counts)
    bounds = np.cumsum([0] + counts)
    return [(i, [a[lo:hi] for a in jet]) for i, lo, hi in zip(rows, bounds[:-1], bounds[1:])]


class CombinationField(SupportField):
    """Linear combination of support fields (Minkowski combinations)."""

    def __init__(self, fields, coeffs):
        if len(fields) != len(coeffs) or not fields:
            raise InvalidInputError("fields and coefficients must align and be nonempty")
        self.fields = list(fields)
        self.coeffs = [float(c) for c in coeffs]
        self.dim = fields[0].dim

    def _derivative(self, x, order):
        """c0 f0 + c1 f1 + ..., each order summed left to right, in place,
        into zeros.  The bump parts are evaluated together, in one zonal
        pass over their live rows (_bump_jets), and each is added on its
        live rows only (elsewhere it is an exact zero); the other parts are
        evaluated by their own _derivative.  A part is scaled only when its
        coefficient is not 1.0 (1.0 * a is exact)."""
        bumps = [f for f in self.fields if isinstance(f, SphericalBumpField)]
        bump_jets = iter(_bump_jets(bumps, x, order) if bumps else ())
        jet = [np.zeros((len(x),) + (self.dim,) * k) for k in range(order + 1)]
        for part, c in zip(self.fields, self.coeffs):
            if isinstance(part, SphericalBumpField):
                rows, terms = next(bump_jets)
            else:
                rows, terms = slice(None), part._derivative(x, order)
            if c != 1.0:
                for a in terms:
                    a *= c
            for acc, a in zip(jet, terms):
                acc[rows] += a
        return jet

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


def tau_from_generator(mesh: CapMesh, field: SupportField):
    """Radii matrices in the g-ring orthonormal frame at every node.

    The field's Hessian at the nodes through `capgeom.radii_form`.  Returns
    (tau_symmetrized, tau_raw), both (N, n, n).  The route is linear in the
    field, so bodies sum raw parts and symmetrize once.
    """
    tau = radii_form(field.hess(mesh.nodes), mesh.frame, mesh.G, mesh.vel)
    return 0.5 * (tau + np.swapaxes(tau, 1, 2)), tau


# ---------------------------------------------------------------------------
# intrinsic route: geodesic stencils on the cap
# ---------------------------------------------------------------------------


def kernel_evaluator(mesh: CapMesh):
    """The horizontal kernel fields via the metric form G(z)(z, E_alpha), not
    the identity: ``fn(z, g)`` gives every field E_1..E_n at points z on the
    Wulff shape, given the metric g = G(z) there, as columns (K, n)."""
    return lambda z, g: np.einsum("bij,bi->bj", g, z)[:, : mesh.n]


def _geodesic_points(mesh: CapMesh, nodes, vel: np.ndarray, step: float):
    """The stencil points at +step and -step of a curve on the Wulff shape
    that matches a g-ring geodesic to second order, built on the unit
    sphere of Gauss preimages with no solve.

    nodes is the pair (idx, d3f): node indices (K,) and D^3F there (K, d,
    d, d), one order-3 jet that every stencil through them shares
    (functionals._stencil_nodes); vel holds frame
    coefficients (K, n) of the initial velocity v.  The preimage curve
    x(t) = unit(x + t dx + (1/2) t^2 w) starts at the node x;
    dx = sum_k vel_k v_k applies the mesh's parameter velocities
    (CapMesh.vel, columns v_k = A_F^-1 e_k), so that D^2F dx = v.  The Wulff
    curve DF(x(t)) lies on {F0 = 1} exactly, and its tangential acceleration
    G(D^2F w + D^3F[dx, dx], e_l) is the geodesic's a_l = -(1/2) Q(v, v, e_l)
    for w = sum_l (a_l - t_l) v_l, t_l = G(D^3F[dx, dx], e_l); its normal
    part follows from staying on the shape.  Symmetric differences along
    the curve are second-order.  Each point takes one order-2 jet, whose DF
    is its Wulff point.  Returns ((x_plus, jet_plus), (x_minus, jet_minus)),
    jets [F, DF, D^2F].
    """
    idx, d3f = nodes
    model, x, pvel = mesh.model, mesh.nodes[idx], mesh.vel[idx]
    dx = np.einsum("bdk,bk->bd", pvel, vel)
    d3f_dxdx = np.einsum("bdef,be,bf->bd", d3f, dx, dx)
    t = np.einsum("bd,bde,ble->bl", d3f_dxdx, mesh.G[idx], mesh.frame[idx])
    a = -0.5 * np.einsum("bijl,bi,bj->bl", mesh.q_frame[idx], vel, vel)
    w = np.einsum("bdk,bk->bd", pvel, a - t)
    points = (unit_rows(x + sgn * step * dx + 0.5 * step**2 * w) for sgn in (1.0, -1.0))
    return tuple((p, model.jet(p, 2)) for p in points)


def intrinsic_tau(mesh: CapMesh, fn, nodes, step: float):
    """Radii matrices via the intrinsic formula tau = Hess + f g - Q(grad)/2.

    ``fn(z, g)`` evaluates m fields at Wulff-shape points z with metric g
    there, as columns (K, m) (see kernel_evaluator); one stencil serves all.
    nodes is the pair (idx, d3f) of _geodesic_points, whose one order-3 jet
    every stencil through the nodes shares, at any step.  g is the mesh's
    G at the nodes; at an off-node point it is read from the point's own
    jet of F (norms.metric_from_jet).
    Covariant second derivatives come from geodesic second differences;
    off-diagonal entries by polarization along e_i + e_j.  Returns (tau,
    grad), shapes (K, m, n, n) and (K, m, n).
    """
    idx = nodes[0]
    n = mesh.n
    f0 = fn(mesh.psi[idx], mesh.G[idx])
    grad = np.empty(f0.shape + (n,))
    hess = np.empty(f0.shape + (n, n))
    second = {}
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        vel = np.zeros((len(idx), n))
        vel[:, [i, j]] = 1.0
        fp, fm = (fn(jet[1], mesh.model.metric_from_jet(jet))
                  for _, jet in _geodesic_points(mesh, nodes, vel, step))
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
