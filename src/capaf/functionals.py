"""Global functionals and identity/inequality checks for capillary convex bodies.

A mixed volume is a float, evaluated by one of three routes:

* "anisotropic": pull the cap integral back to the parameter region,
  (1/(n+1)) sum_i w_i s_hat_0 Q(tau_1, ..., tau_n) F(x_i) det A_F(x_i),
  with radii matrices expressed in the g-ring orthonormal frame;
* "euclidean": (1/(n+1)) sum_i w_i s_0 Q(W_1, ..., W_n) over the
  region directly; and
* "polyfit", the oracle: volumes of Minkowski combinations on a lambda
  grid, fitted by the exact multilinear volume polynomial.

The first two agree pointwise (mixed discriminants transform by det under
the frame change, absorbing det A_F), the third by polynomiality of the
volume.  The integral routes are slot-symmetrized (averaged over which
argument occupies the multiplier slot); the raw single-slot form is what
symmetry_check measures.  Every check reads its mixed volumes as index
tuples over one family of bodies, whose slot sums are each taken once.

Volume and the multiplier slot integrate the anchored support
s - <anchor, x>, the tracked horizontal translate; this is the same value
mathematically and makes horizontal-translation invariance exact.

Each identity or inequality check returns an InequalityReport, the six
fields a report record stores.

The kernel check, kernel_tau_intrinsic, Richardson-extrapolates two passes
of the intrinsic stencil on the same nodes (fourth order); kernel_tau_raw
is the one step-h pass, whose second-order decay the kernel tables read.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, factorial, prod

import numpy as np

from .bodies import CapillaryBody, shared_mesh
from .capgeom import (CapMesh, parameter_velocities, radii_form, region_residual,
                      signed_area)
from .errors import ConvexityViolationError, InvalidInputError
from .fields import SupportField, _geodesic_points, intrinsic_tau, kernel_evaluator
from .mixdisc import mixed_disc_gradient, mixed_discriminant_batch
from .norms import sym_eig_det, tangent_basis, tangent_form

_GUARD = 1e-30


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class InequalityReport:
    """Outcome of one checked identity or inequality, as a record stores it."""

    lhs: float
    rhs: float
    gap: float
    relative_gap: float
    tolerance: float
    passed: bool

    @staticmethod
    def inequality(lhs, rhs, tol, equality_expected=False):
        """lhs >= rhs (lhs = rhs if equality is expected), to tol relative to max |side|."""
        lhs, rhs = float(lhs), float(rhs)
        gap = lhs - rhs
        scale = max(abs(lhs), abs(rhs), _GUARD)
        ok = abs(gap) <= tol * scale if equality_expected else gap >= -tol * scale
        return InequalityReport(lhs, rhs, gap, gap / scale, tol, bool(ok))

    @staticmethod
    def identity(lhs, rhs, tol):
        return InequalityReport.inequality(lhs, rhs, tol, True)


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------


def _require_full_tuple(bodies) -> CapMesh:
    """The shared mesh of exactly n + 1 bodies (a mixed-volume argument list)."""
    mesh = shared_mesh(bodies)
    if len(bodies) != mesh.n + 1:
        raise InvalidInputError(f"need n+1 = {mesh.n + 1} bodies, got {len(bodies)}")
    return mesh


def volume(body: CapillaryBody) -> float:
    """|K| = (1/(n+1)) int s det W over the region (anchored support)."""
    return volume_of_combination([body], [1.0])


def volume_of_combination(bodies, lambdas) -> float:
    """Volume of sum lambda_i K_i straight from cached supports and W."""
    mesh = shared_mesh(bodies)
    s = sum(lam * b.shat_anchored * mesh.F_vals for b, lam in zip(bodies, lambdas))
    w = sum(lam * b.W for b, lam in zip(bodies, lambdas))
    return float(np.sum(mesh.weights * s * sym_eig_det(w)[1]) / (mesh.n + 1))


def hull_volume_oracle(body: CapillaryBody, seed: int = 0) -> float:
    """Convex-hull volume of 12000 sampled boundary points (independent route)."""
    from scipy.spatial import ConvexHull

    mesh = body.mesh
    rng = np.random.default_rng(seed)
    pts = [body.X - body.anchor[None, :]]
    d = mesh.dim
    need = max(0, 12000 - len(pts[0]))
    batch = []
    while sum(len(a) for a in batch) < need:
        cand = rng.normal(size=(4 * need, d))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        keep = cand[region_residual(mesh.model, mesh.omega0, cand) > 0]
        batch.append(keep)
        if not len(keep):
            break
    if batch:
        extra = np.concatenate(batch, axis=0)[:need]
        if len(extra):
            pts.append(np.asarray(body.field.grad(extra)) - body.anchor[None, :])
    cloud = np.concatenate(pts, axis=0)
    return float(ConvexHull(cloud).volume)


# ---------------------------------------------------------------------------
# mixed volume
# ---------------------------------------------------------------------------


def _slot_sums(family, route: str = "anisotropic"):
    """r(i, others), taken once per key: the raw single-slot sum with
    family[i] as the multiplier and the bodies at the index tuple `others`,
    in that order, in the other slots, by the "anisotropic" route or else
    the "euclidean" one.  Keys stay ordered, not sorted: the trailing
    permutations of symmetry_check measure what argument order moves."""
    mesh = shared_mesh(family)
    aniso = route == "anisotropic"

    @functools.cache
    def r(i: int, others: tuple) -> float:
        q = mixed_discriminant_batch([family[k].tau if aniso else family[k].W for k in others])
        if aniso:
            vals = family[i].shat_anchored * q * mesh.F_vals * mesh.detA
        else:
            vals = (family[i].shat_anchored * mesh.F_vals) * q
        return float(np.sum(mesh.weights * vals) / (mesh.n + 1))
    return r


def _volume(r, t: tuple) -> float:
    """V of the family's bodies at the index tuple t, the mean of t's slot sums
    in t's own order; InvalidInputError if it is not finite."""
    value = float(np.mean([r(t[p], t[:p] + t[p + 1:]) for p in range(len(t))]))
    if not np.isfinite(value):
        raise InvalidInputError("mixed volume is not finite")
    return value


def _mv_polyfit(bodies) -> float:
    """Coefficient extraction from the volume polynomial (oracle route).

    Deduplicates repeated bodies (they are one variable of the polynomial),
    fits the homogeneous degree-(n+1) polynomial on a deterministic lambda
    grid with two redundancy rows, and reads off the requested coefficient.
    """
    mesh = shared_mesh(bodies)
    n1 = mesh.n + 1
    distinct = list({id(b): b for b in bodies}.values())
    m = len(distinct)
    target = tuple(sorted(next(k for k, db in enumerate(distinct) if db is b)
                          for b in bodies))
    monomials = sorted(set(itertools.combinations_with_replacement(range(m), n1)))
    ncoef = len(monomials)
    grid_axis = (0.5, 1.0, 1.5, 2.0)
    grid = list(itertools.product(grid_axis, repeat=m))
    rows_needed = min(len(grid), ncoef + 2)
    picked = grid[::max(1, len(grid) // rows_needed)][:rows_needed]
    a = np.empty((len(picked), ncoef))
    y = np.empty(len(picked))
    for r, lam in enumerate(picked):
        a[r] = [prod(lam[v] for v in mono) for mono in monomials]
        y[r] = volume_of_combination(distinct, lam)
    coef = np.linalg.lstsq(a, y, rcond=None)[0]
    multinom = factorial(n1) / prod(factorial(target.count(v)) for v in range(m))
    return float(coef[monomials.index(target)] / multinom)


def mixed_volume(bodies, route: str = "anisotropic") -> float:
    """V(K_0, ..., K_n) by the requested route ("anisotropic", "euclidean"
    or "polyfit"); a non-finite value raises InvalidInputError.

    The integral routes average over the multiplier slot, which both
    reduces quadrature error and makes equality cases of the
    Alexandrov-Fenchel checks second order in the quadrature defect.
    """
    bodies = list(bodies)
    _require_full_tuple(bodies)
    if route == "polyfit":  # a one-slot "family": the guard sees the value itself
        return _volume(lambda i, others: _mv_polyfit(bodies), (0,))
    if route in ("anisotropic", "euclidean"):
        return _volume(_slot_sums(bodies, route), tuple(range(len(bodies))))
    raise InvalidInputError(f"unknown route {route!r}")


def integrand_identity_defect(bodies) -> float:
    """max_i |Q(tau_...) det A_F - Q(W_...)| / scale (pointwise route link)."""
    mesh = shared_mesh(bodies)
    q_tau = mixed_discriminant_batch([b.tau for b in bodies]) * mesh.detA
    q_w = mixed_discriminant_batch([b.W for b in bodies])
    scale = max(float(np.max(np.abs(q_w))), _GUARD)
    return float(np.max(np.abs(q_tau - q_w))) / scale


def symmetry_check(bodies) -> dict:
    """Swap and trailing-permutation deviations of the raw slot form, read
    from the bodies' slot sums (the identity permutation is v01 itself).

    The first-two-argument swap moves a derivative across the integral and
    vanishes only at the quadrature's O(h^2); trailing permutations only
    reorder arguments of the mixed discriminant and must vanish to
    roundoff.
    """
    bodies = list(bodies)
    _require_full_tuple(bodies)
    r = _slot_sums(bodies)
    tail = tuple(range(1, len(bodies)))
    v01, v10 = r(0, tail), r(1, (0,) + tail[1:])
    trail_dev = max(abs(r(0, perm) - v01) for perm in itertools.permutations(tail))
    return {"swap_deviation": abs(v01 - v10), "trailing_deviation": trail_dev,
            "scale": max(abs(v01), abs(v10), _GUARD)}


# ---------------------------------------------------------------------------
# quermassintegrals, Minkowski formula, Steiner formula
# ---------------------------------------------------------------------------


def quermassintegral(body: CapillaryBody, k: int) -> float:
    """V_{k, w0}(K) for 0 <= k <= n+1 via the interior curvature formula.

    k = 0 is the volume; for k >= 1 the integrand is
    H_{k-1}(F(x) + w0 <x, EF>) pulled back through the body's Gauss map
    with density det W.
    """
    mesh = body.mesh
    n = mesh.n
    if not 0 <= k <= n + 1:
        raise InvalidInputError(f"k={k} outside [0, {n + 1}]")
    if k == 0:
        return volume(body)
    weight = mesh.cap_body.s  # F + w0 <x, EF>
    vals = body.H[:, k - 1] * weight * body.detW
    return float(np.sum(mesh.weights * vals) / (n + 1))


def quermassintegral_boundary_route(body: CapillaryBody) -> float:
    """V_{1, w0} via the boundary form (|Sigma|_F + w0 |flat face|)/(n+1)."""
    mesh = body.mesh
    area_f = float(np.sum(mesh.weights * mesh.F_vals * body.detW))
    return (area_f + mesh.omega0 * flat_face_measure(body)) / (mesh.n + 1)


def flat_face_measure(body: CapillaryBody) -> float:
    """Measure of the flat face enclosed by the body's boundary curve."""
    mesh = body.mesh
    loop = mesh.boundary_loop
    pts = body.X[loop] - body.anchor[None, :]
    if mesh.n == 2:
        return abs(signed_area(pts[:, :2]))
    return float(abs(pts[0, 0] - pts[1, 0]))


def quermassintegral_mixed_route(body: CapillaryBody, k: int) -> float:
    """V_{k, w0} as a mixed volume against cap copies (correspondence).

    Uses the cap copy as the multiplier slot, matching the derivation that
    identifies the two expressions pointwise.
    """
    mesh = body.mesh
    n = mesh.n
    if not 0 <= k <= n + 1:
        raise InvalidInputError(f"k={k} outside [0, {n + 1}]")
    if k == 0:
        return volume(body)
    return _slot_sums([body, mesh.cap_body])(1, (0,) * (n + 1 - k) + (1,) * (k - 1))


def minkowski_formula_residual(body: CapillaryBody, k: int) -> float:
    """Residual of the capillary Minkowski integral formula at order k.

    int [H_k (1 + w0 G(nu_F)(nu_F, EF)) - H_{k+1} u_hat] dmu_F, evaluated
    by quadrature; tends to zero at the quadrature's order.
    """
    mesh = body.mesh
    n = mesh.n
    if not 0 <= k <= n - 1:
        raise InvalidInputError(f"k={k} outside [0, {n - 1}]")
    vals = body.H[:, k] * mesh.cap_body.shat - body.H[:, k + 1] * body.shat
    return float(np.sum(mesh.weights * body.detW * mesh.F_vals * vals))


def steiner_check(body: CapillaryBody, tol: float) -> InequalityReport:
    """Fit |K + t C| as a polynomial in t, on the grid t = 0.5, 1.0, ...,
    0.5 (n + 3), and compare it with the binomial-weighted
    quermassintegrals, at the coefficient of the worst relative gap."""
    mesh = body.mesh
    n = mesh.n
    cap = mesh.cap_body
    t_grid = tuple(0.5 * (j + 1) for j in range(n + 3))
    vols = np.array([volume_of_combination([body, cap], (1.0, t)) for t in t_grid])
    design = np.vander(np.asarray(t_grid), n + 2, increasing=True)
    coef = np.linalg.lstsq(design, vols, rcond=None)[0]
    expected = np.array([comb(n + 1, k) * quermassintegral(body, k) for k in range(n + 2)])
    rel = np.abs(coef - expected) / np.maximum(np.abs(expected), _GUARD)
    worst = int(np.argmax(rel))
    return InequalityReport.identity(float(coef[worst]), float(expected[worst]), tol)


# ---------------------------------------------------------------------------
# divergence identity
# ---------------------------------------------------------------------------


def _stencil_safe_interior(mesh: CapMesh, margin: float):
    """Interior nodes farther than `margin` (arc length) from every boundary
    node.  The boundary is never empty: both mesh builders fail on a region
    without one."""
    interior = mesh.interior_idx
    dots = mesh.nodes[interior] @ mesh.nodes[mesh.boundary_loop].T
    ok = np.arccos(np.clip(np.max(dots, axis=1), -1.0, 1.0)) > margin
    if not np.any(ok):
        raise InvalidInputError(
            f"no interior nodes clear the stencil margin {margin:.3g} (arc length) from "
            f"the boundary at mesh level {mesh.config.mesh_level}, omega0 = {mesh.omega0:g}; "
            f"the cap is too thin for this level, and a finer mesh level helps")
    return interior[ok]


def _tau_form_at_offsets(mesh: CapMesh, body: CapillaryBody, idx, direction: int,
                         step: float):
    """tau of a body at geodesic offsets, in first-order transported frames
    (`radii_form` with the metric and the velocities at the offset points).

    Each stencil point is built at its Gauss preimage, where the metric,
    basis, A_F (so the velocities) and Hessian are all read: its Wulff
    point, G and A_F from the point's one jet of F.  Returns (tau_plus,
    tau_minus), each (K, n, n).
    """
    n, model = mesh.n, mesh.model
    idx = np.asarray(idx, dtype=np.int64)
    k = len(idx)
    vel = np.zeros((k, n))
    vel[:, direction] = 1.0
    d3f = model.jet(mesh.nodes[idx], 3)[3]
    out = []
    for (x_new, jet), sgn in zip(_geodesic_points(mesh, idx, vel, step, d3f), (1.0, -1.0)):
        zs = jet[1]
        g_new = model.metric_from_jet(jet)
        tb_new = tangent_basis(x_new)
        a_new = tangent_form(tb_new, jet[2])
        hess = body.field.hess(x_new)
        # first-order parallel transport along e_direction
        fr = mesh.frame[idx]
        q = mesh.q_frame[idx]
        corr = -0.5 * np.einsum("bkl,bld->bkd", q[:, direction], fr)
        corr[:, direction, :] -= mesh.psi[idx]
        e_t = fr + sgn * step * corr
        # project G-orthogonally onto the tangent space at the new point
        gz = np.einsum("bkd,bde,be->bk", e_t, g_new, zs)
        e_t = e_t - gz[..., None] * zs[:, None, :]
        out.append(radii_form(hess, e_t, g_new, parameter_velocities(e_t, tb_new, a_new)))
    return out[0], out[1]


def divergence_identity_check(f1_body: CapillaryBody, trailing) -> float:
    """Pointwise divergence identity for the mixed-discriminant gradient.

    Evaluates sum_j grad_j Q^{ij} grad_i f1 - (1/2) Q^{ij} grad_i f1 Q_jkk
    + (1/2) Q^{ij} grad_l f1 Q_ijl at interior nodes (stencil-safe margin),
    with the geodesic stencil step 0.2 * 2^-level; returns the max residual
    relative to the field scale.
    """
    mesh = f1_body.mesh
    n = mesh.n
    trailing = list(trailing)
    if len(trailing) != n - 1:
        raise InvalidInputError(f"need n-1 = {n - 1} trailing bodies")
    step = 0.2 * 0.5**mesh.config.mesh_level
    idx = _stencil_safe_interior(mesh, 3.0 * step)

    grad_f1 = np.einsum("bkd,bde,be->bk", mesh.frame[idx], mesh.G[idx], f1_body.X[idx])
    # Q^{ij} = dQ/d(tau_1)_{ij}; Q is linear in tau_1, so f1 only fixes the shape
    head = [f1_body.tau[idx]]
    taus = [b.tau[idx] for b in trailing]
    qij = mixed_disc_gradient(head + taus)

    # grad_m of Q^{ij}: multilinear in each trailing tau, so substitute the
    # transported-frame derivative of each tau in its slot
    dq = np.zeros((len(idx), n, n, n))  # (node, m, i, j)
    for m_dir in range(n):
        for t_i, b in enumerate(trailing):
            tp, tm = _tau_form_at_offsets(mesh, b, idx, m_dir, step)
            slots = list(taus)
            slots[t_i] = (tp - tm) / (2.0 * step)
            dq[:, m_dir] += mixed_disc_gradient(head + slots)
    qf = mesh.q_frame[idx]
    # term1 = sum_ij (grad_j Q^{ij}) grad_i f1
    div_q = np.einsum("bjij->bi", dq)
    t1 = np.einsum("bi,bi->b", div_q, grad_f1)
    t2 = -0.5 * np.einsum("bij,bi,bjkk->b", qij, grad_f1, qf)
    t3 = 0.5 * np.einsum("bij,bl,bijl->b", qij, grad_f1, qf)
    resid = t1 + t2 + t3
    scale = max(float(np.max(np.abs(qij))) * float(np.max(np.abs(grad_f1))), _GUARD)
    return float(np.max(np.abs(resid))) / scale


# ---------------------------------------------------------------------------
# the elliptic operator of the quadratic-form argument
# ---------------------------------------------------------------------------


def _tau_and_values(mesh, f):
    """Radii matrices and nodal values s/F of an operator test function: a
    body's caches, or those of a bare support field built as an unvalidated
    body (so its Wulff-cap leaves read the mesh's F caches)."""
    if isinstance(f, SupportField):
        f = CapillaryBody(mesh, f, {"kind": "operator-test-field"}, validate=False)
    if isinstance(f, CapillaryBody):
        return f.tau, f.shat
    raise InvalidInputError("expected a CapillaryBody or SupportField")


def _operator_mesh(trailing) -> CapMesh:
    """The shared mesh of the trailing bodies f_2, ..., f_n (n >= 2)."""
    if not trailing:
        raise InvalidInputError("the operator needs n >= 2 and trailing bodies")
    mesh = shared_mesh(trailing)
    if mesh.n < 2:
        raise InvalidInputError("the operator needs n >= 2")
    if len(trailing) != mesh.n - 1:
        raise InvalidInputError(f"need n-1 = {mesh.n - 1} trailing bodies")
    return mesh


def _operator_frame(trailing):
    """(mesh, Q(tau_2, tau_2, tau_3, ...), L^2 weights) of the trailing bodies.

    The denominator Q is computed and checked positive once per call of the
    public operator functions; `_apply_to_tau` and the weights share it.
    """
    mesh = _operator_mesh(trailing)
    f2 = trailing[0]
    den = mixed_discriminant_batch([f2.tau] + [b.tau for b in trailing])
    if np.any(den <= 0):
        raise ConvexityViolationError("operator denominator not positive at some node")
    return mesh, den, mesh.weights * mesh.detA * mesh.F_vals * den / ((mesh.n + 1) * f2.shat)


def _apply_to_tau(tau_f, trailing, den):
    """Nodal values of A f from the radii matrices of f, over the denominator den."""
    num = mixed_discriminant_batch([tau_f] + [b.tau for b in trailing])
    return trailing[0].shat * num / den


def operator_a_apply(f, trailing):
    """(A f)(xi_i) = f_2 Q(tau[f], tau_2, ..., tau_n)/Q(tau_2, tau_2, ...).

    ``trailing`` lists the bodies f_2, ..., f_n (n - 1 of them); requires
    n >= 2.  Returns the nodal values of A f.
    """
    mesh, den, _ = _operator_frame(trailing)
    return _apply_to_tau(_tau_and_values(mesh, f)[0], trailing, den)


def operator_inner(f_vals, g_vals, omega) -> float:
    return float(np.sum(f_vals * g_vals * omega))


def operator_a_energy_check(g, trailing, tol: float) -> InequalityReport:
    """<A g, A g>_omega >= <g, A g>_omega - tol.

    The pointwise mixed-discriminant inequality bounds <A g, A g> below by
    the symmetric-form value of <g, A g>; the residual asymmetry is a
    quadrature defect, so the tolerance is applied against the natural
    scale of the quadratic form (the total omega mass floors the relative
    scale: for tiny test functions max(|lhs|, |rhs|) is meaninglessly
    small while the defect is measured in absolute form units).
    """
    mesh, den, om = _operator_frame(trailing)
    tau_g, g_vals = _tau_and_values(mesh, g)
    ag = _apply_to_tau(tau_g, trailing, den)
    lhs = operator_inner(ag, ag, om)
    rhs = operator_inner(g_vals, ag, om)
    mass = float(np.sum(om))
    gap = lhs - rhs
    scale = max(abs(lhs), abs(rhs), mass, _GUARD)
    return InequalityReport(float(lhs), float(rhs), float(gap), gap / scale,
                            tol, bool(gap >= -tol * scale))


def operator_selfadjoint_deviation(f, g, trailing) -> float:
    """|<f, A g> - <g, A f>| (vanishes at the quadrature's order)."""
    mesh, den, om = _operator_frame(trailing)
    tau_f, f_vals = _tau_and_values(mesh, f)
    tau_g, g_vals = _tau_and_values(mesh, g)
    return abs(operator_inner(f_vals, _apply_to_tau(tau_g, trailing, den), om)
               - operator_inner(g_vals, _apply_to_tau(tau_f, trailing, den), om))


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------


def af_inequality_check(bodies, tol: float, equality_expected: bool = False) -> InequalityReport:
    """V(K1,K2,rest)^2 >= V(K1,K1,rest) V(K2,K2,rest)."""
    bodies = list(bodies)
    _require_full_tuple(bodies)
    r, rest = _slot_sums(bodies), tuple(range(2, len(bodies)))
    v12, v11, v22 = (_volume(r, pair + rest) for pair in ((0, 1), (0, 0), (1, 1)))
    return InequalityReport.inequality(v12 * v12, v11 * v22, tol, equality_expected)


def quermassintegral_chain_check(body: CapillaryBody, k: int, l: int, tol: float,
                                 equality_expected: bool = False) -> InequalityReport:
    """(V_k/|C|)^{1/(n+1-k)} >= (V_l/|C|)^{1/(n+1-l)} for 0 <= l <= k <= n.

    The quermassintegrals entering the chain are evaluated through the
    symmetrized mixed-volume correspondence (body and cap copies on one
    quadrature form), so that the discrete inequality inherits the exact
    symmetry/pointwise-Alexandrov structure; the interior-formula route
    agrees with it at the quadrature order and is checked separately.
    """
    return quermassintegral_chain_family(body, [(k, l)], tol, equality_expected)[k, l]


def quermassintegral_chain_family(body: CapillaryBody, pairs, tol: float,
                                  equality_expected: bool = False) -> dict:
    """The quermassintegral chain report of every (k, l) in `pairs`, keyed by
    (k, l): the cap volume and each V_j a pair names are index tuples over
    the family [body, cap], whose slot sums are each taken once."""
    n = body.mesh.n
    for k, l in pairs:
        if not 0 <= l <= k <= n:
            raise InvalidInputError(f"require 0 <= l <= k <= n, got l={l}, k={k}")
    r = _slot_sums([body, body.mesh.cap_body])
    cap_vol = _volume(r, (1,) * (n + 1))
    querm = {j: _volume(r, (0,) * (n + 1 - j) + (1,) * j)
             for j in sorted({j for pair in pairs for j in pair})}
    if cap_vol <= 0 or any(v <= 0 for v in querm.values()):
        raise InvalidInputError("chain check requires positive quermassintegrals")
    return {(k, l): InequalityReport.inequality((querm[k] / cap_vol) ** (1.0 / (n + 1 - k)),
                                                (querm[l] / cap_vol) ** (1.0 / (n + 1 - l)),
                                                tol, equality_expected)
            for k, l in pairs}


def generalized_chain_check(k0: CapillaryBody, k1: CapillaryBody, trailing,
                            m: int, i: int, j: int, k: int, tol: float,
                            equality_expected: bool = False) -> InequalityReport:
    """V_(j)^{k-i} >= V_(i)^{k-j} V_(k)^{j-i} for the substitution family
    V_(i) = V(K0 ... K0, K1 ... K1, trailing) with i copies of K1."""
    return generalized_chain_family(k0, k1, trailing, m, [(i, j, k)], tol,
                                    equality_expected)[i, j, k]


def generalized_chain_family(k0: CapillaryBody, k1: CapillaryBody, trailing, m: int,
                             triples, tol: float, equality_expected: bool = False) -> dict:
    """The generalized chain report of every (i, j, k) in `triples`, keyed by
    (i, j, k): each V_(c) a triple names is an index tuple over the family
    [k0, k1, *trailing], whose slot sums are each taken once."""
    n = k0.mesh.n
    trailing = list(trailing)
    if not all(0 <= i < j < k <= m <= n + 1 for i, j, k in triples):
        raise InvalidInputError("require 0 <= i < j < k <= m <= n+1")
    if m + len(trailing) != n + 1:
        raise InvalidInputError(f"trailing must hold n+1-m = {n + 1 - m} bodies")
    r, rest = _slot_sums([k0, k1] + trailing), tuple(range(2, 2 + len(trailing)))
    v = {c: _volume(r, (0,) * (m - c) + (1,) * c + rest)
         for c in sorted({c for triple in triples for c in triple})}
    if any(vc <= 0 for vc in v.values()):
        raise InvalidInputError("generalized chain requires positive mixed volumes")
    return {(i, j, k): InequalityReport.inequality(v[j] ** (k - i),
                                                   v[i] ** (k - j) * v[k] ** (j - i),
                                                   tol, equality_expected)
            for i, j, k in triples}


# ---------------------------------------------------------------------------
# kernel fields
# ---------------------------------------------------------------------------


def _kernel_passes(mesh: CapMesh, steps) -> list:
    """Intrinsic-route tau of the horizontal kernel fields at the interior
    nodes clear of the boundary by three times the step 0.3 * 2^-level, one
    pass over one stencil per step in `steps` (fractions of that step)."""
    step = 0.3 * 0.5**mesh.config.mesh_level
    idx = _stencil_safe_interior(mesh, 3.0 * step)
    return [intrinsic_tau(mesh, kernel_evaluator(mesh), idx, s * step)[0] for s in steps]


def _field_maxima(tau) -> list:
    """The largest |tau| entry of each kernel field, E_1 first."""
    return [float(v) for v in np.max(np.abs(tau), axis=(0, 2, 3))]


def kernel_tau_raw(mesh: CapMesh) -> list:
    """Largest intrinsic-route tau entry of each kernel field, E_1 first,
    from one pass at the step h = 0.3 * 2^-level: the stencil's own O(h^2)
    error, whose decay per level the kernel tables read."""
    return _field_maxima(_kernel_passes(mesh, (1.0,))[0])


def kernel_tau_intrinsic(mesh: CapMesh) -> list:
    """Intrinsic-route tau of the horizontal kernel fields, interior nodes.

    Exactly zero in the continuum.  Two passes on the same nodes, at the
    steps h = 0.3 * 2^-level and h/2, are Richardson-extrapolated,
    (4 tau(h/2) - tau(h)) / 3, which cancels the stencil's h^2 term, so the
    value decays at fourth order.  Every field E_1..E_n comes out of one
    pass per step.  Returns the largest |tau| entry of each field, E_1
    first.
    """
    tau_h, tau_half = _kernel_passes(mesh, (1.0, 0.5))
    return _field_maxima((4.0 * tau_half - tau_h) / 3.0)
