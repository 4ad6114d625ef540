"""Global functionals and identity/inequality checks for capillary convex bodies.

Mixed volumes are evaluated by three routes:

* anisotropic-integral: pull the cap integral back to the parameter region,
  (1/(n+1)) sum_i w_i s_hat_0 Q(tau_1, ..., tau_n) F(x_i) det A_F(x_i),
  with radii matrices expressed in the g-ring orthonormal frame;
* euclidean-integral: (1/(n+1)) sum_i w_i s_0 Q(W_1, ..., W_n) over the
  region directly; and
* polyfit-oracle: volumes of Minkowski combinations on a lambda grid,
  fitted by the exact multilinear volume polynomial.

The first two agree pointwise (mixed discriminants transform by det under
the frame change, absorbing det A_F), the third by polynomiality of the
volume.  The integral routes are slot-symmetrized (averaged over which
argument occupies the multiplier slot); the raw single-slot form is what
symmetry_check measures.

Volume and the multiplier slot integrate the anchored support
s - <anchor, x>, the tracked horizontal translate; this is the same value
mathematically and makes horizontal-translation invariance exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, factorial, prod

import numpy as np

from .bodies import CapillaryBody
from .capgeom import CapMesh, parameter_velocities, region_residual
from .errors import ConvexityViolationError, InvalidInputError
from .fields import (SupportField, _geodesic_points, intrinsic_tau, kernel_evaluator,
                     radii_form)
from .mixdisc import mixed_disc_gradient, mixed_discriminant_batch
from .norms import tangent_basis

_GUARD = 1e-30


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class InequalityReport:
    """Outcome of one checked identity or inequality."""

    name: str
    lhs: float
    rhs: float
    gap: float
    relative_gap: float
    tolerance: float
    passed: bool
    equality_expected: bool = False
    notes: dict = field(default_factory=dict)

    @staticmethod
    def inequality(name, lhs, rhs, tol, equality_expected=False, notes=None):
        lhs, rhs = float(lhs), float(rhs)
        gap = lhs - rhs
        scale = max(abs(lhs), abs(rhs), _GUARD)
        rel = gap / scale
        ok = abs(gap) <= tol * scale if equality_expected else gap >= -tol * scale
        return InequalityReport(name, lhs, rhs, gap, rel, tol, bool(ok),
                                equality_expected, notes or {})

    @staticmethod
    def identity(name, lhs, rhs, tol, notes=None):
        return InequalityReport.inequality(name, lhs, rhs, tol, True, notes)


@dataclass
class MixedVolumeResult:
    """A mixed-volume value with its route tag and error surrogate."""

    value: float
    route: str
    mesh_level: int
    error_estimate: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise InvalidInputError("mixed volume is not finite")
        self.error_estimate = float(max(self.error_estimate, 0.0))


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------


def _require_shared_mesh(bodies) -> CapMesh:
    mesh = bodies[0].mesh
    for b in bodies[1:]:
        if b.mesh is not mesh:
            raise InvalidInputError("bodies must share one mesh")
    return mesh


def _require_full_tuple(bodies) -> CapMesh:
    """The shared mesh of exactly n + 1 bodies (a mixed-volume argument list)."""
    mesh = _require_shared_mesh(bodies)
    if len(bodies) != mesh.n + 1:
        raise InvalidInputError(f"need n+1 = {mesh.n + 1} bodies, got {len(bodies)}")
    return mesh


def volume(body: CapillaryBody) -> float:
    """|K| = (1/(n+1)) int s det W over the region (anchored support)."""
    mesh = body.mesh
    vals = body.shat_anchored * mesh.F_vals * body.detW
    return float(np.sum(mesh.weights * vals) / (mesh.n + 1))


def volume_of_combination(bodies, lambdas) -> float:
    """Volume of sum lambda_i K_i straight from cached supports and W."""
    mesh = _require_shared_mesh(bodies)
    s = sum(lam * b.shat_anchored * mesh.F_vals for b, lam in zip(bodies, lambdas))
    w = sum(lam * b.W for b, lam in zip(bodies, lambdas))
    detw = np.linalg.det(w) if mesh.n > 1 else w[:, 0, 0]
    return float(np.sum(mesh.weights * s * detw) / (mesh.n + 1))


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


def _mv_slot(bodies, slot: int, route: str) -> float:
    """Raw single-slot mixed volume with bodies[slot] as the multiplier."""
    mesh = bodies[0].mesh
    others = [b for k, b in enumerate(bodies) if k != slot]
    if route == "anisotropic":
        q = mixed_discriminant_batch([b.tau for b in others])
        vals = bodies[slot].shat_anchored * q * mesh.F_vals * mesh.detA
    elif route == "euclidean":
        q = mixed_discriminant_batch([b.W for b in others])
        vals = (bodies[slot].shat_anchored * mesh.F_vals) * q
    else:
        raise InvalidInputError(f"unknown slot route {route!r}")
    return float(np.sum(mesh.weights * vals) / (mesh.n + 1))


def _mv_polyfit(bodies) -> tuple:
    """Coefficient extraction from the volume polynomial (oracle route).

    Deduplicates repeated bodies (they are one variable of the polynomial),
    fits the homogeneous degree-(n+1) polynomial on a deterministic lambda
    grid with two redundancy rows, and reads off the requested coefficient.
    Returns (value, condition_number, fit_residual).
    """
    mesh = _require_shared_mesh(bodies)
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
    stride = max(1, len(grid) // rows_needed)
    picked = grid[::stride][:rows_needed]
    if len(picked) < ncoef:
        picked = grid[:ncoef + 2]
    a = np.empty((len(picked), ncoef))
    y = np.empty(len(picked))
    for r, lam in enumerate(picked):
        a[r] = [prod(lam[v] for v in mono) for mono in monomials]
        y[r] = volume_of_combination(distinct, lam)
    coef, res, rank, sv = np.linalg.lstsq(a, y, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    c_idx = monomials.index(target)
    multinom = factorial(n1) / prod(factorial(target.count(v)) for v in range(m))
    resid = float(np.sqrt(res[0])) if len(np.atleast_1d(res)) else 0.0
    return float(coef[c_idx] / multinom), cond, resid


def mixed_volume(bodies, route: str = "anisotropic") -> MixedVolumeResult:
    """V(K_0, ..., K_n) by the requested route.

    The integral routes average over the multiplier slot, which both
    reduces quadrature error and makes equality cases of the
    Alexandrov-Fenchel checks second order in the quadrature defect.
    """
    bodies = list(bodies)
    mesh = _require_full_tuple(bodies)
    level = mesh.config.mesh_level
    if route == "polyfit":
        value, cond, resid = _mv_polyfit(bodies)
        return MixedVolumeResult(value, "polyfit-oracle", level,
                                 max(resid, cond * 1e-16 * abs(value)))
    if route not in ("anisotropic", "euclidean"):
        raise InvalidInputError(f"unknown route {route!r}")
    vals = [_mv_slot(bodies, s, route) for s in range(len(bodies))]
    value = float(np.mean(vals))
    spread = float(np.max(np.abs(np.asarray(vals) - value)))
    tag = "anisotropic-integral" if route == "anisotropic" else "euclidean-integral"
    return MixedVolumeResult(value, tag, level, spread)


def mixed_volume_value(bodies) -> float:
    """The anisotropic-route mixed volume V(K_0, ..., K_n)."""
    return mixed_volume(bodies).value


def integrand_identity_defect(bodies) -> float:
    """max_i |Q(tau_...) det A_F - Q(W_...)| / scale (pointwise route link)."""
    mesh = _require_shared_mesh(bodies)
    q_tau = mixed_discriminant_batch([b.tau for b in bodies]) * mesh.detA
    q_w = mixed_discriminant_batch([b.W for b in bodies])
    scale = max(float(np.max(np.abs(q_w))), _GUARD)
    return float(np.max(np.abs(q_tau - q_w))) / scale


def symmetry_check(bodies) -> dict:
    """Swap and trailing-permutation deviations of the raw slot form.

    The first-two-argument swap moves a derivative across the integral and
    vanishes only at the quadrature's O(h^2); trailing permutations only
    reorder arguments of the mixed discriminant and must vanish to
    roundoff.
    """
    bodies = list(bodies)
    _require_full_tuple(bodies)
    v01 = _mv_slot(bodies, 0, "anisotropic")
    swapped = [bodies[1], bodies[0]] + bodies[2:]
    v10 = _mv_slot(swapped, 0, "anisotropic")
    scale = max(abs(v01), abs(v10), _GUARD)
    swap_dev = abs(v01 - v10)

    trail_dev = 0.0
    tail = bodies[1:]
    if len(tail) > 1:
        base = _mv_slot(bodies, 0, "anisotropic")
        for perm in itertools.permutations(range(len(tail))):
            arranged = [bodies[0]] + [tail[p] for p in perm]
            trail_dev = max(trail_dev, abs(_mv_slot(arranged, 0, "anisotropic") - base))
    return {"swap_deviation": swap_dev, "trailing_deviation": trail_dev,
            "scale": scale, "value": v01}


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
        xy = pts[:, :2]
        return abs(0.5 * float(np.sum(
            xy[:, 0] * np.roll(xy[:, 1], -1) - np.roll(xy[:, 0], -1) * xy[:, 1])))
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
    cap = mesh.cap_body
    arrangement = [cap] + [body] * (n + 1 - k) + [cap] * (k - 1)
    return _mv_slot(arrangement, 0, "anisotropic")


def minkowski_formula_residual(body: CapillaryBody, k: int) -> float:
    """Residual of the capillary Minkowski integral formula at order k.

    int [H_k (1 + w0 G(nu_F)(nu_F, EF)) - H_{k+1} u_hat] dmu_F, evaluated
    by quadrature; tends to zero at the quadrature's order.
    """
    mesh = body.mesh
    n = mesh.n
    if not 0 <= k <= n - 1:
        raise InvalidInputError(f"k={k} outside [0, {n - 1}]")
    g_term = 1.0 + mesh.omega0 * (mesh.nodes @ mesh.EF) / mesh.F_vals
    u_hat = body.shat
    vals = body.H[:, k] * g_term - body.H[:, k + 1] * u_hat
    return float(np.sum(mesh.weights * body.detW * mesh.F_vals * vals))


def steiner_check(body: CapillaryBody, t_grid=None, tol: float = 1e-4) -> InequalityReport:
    """Fit |K + t C| as a polynomial in t and compare with the
    binomial-weighted quermassintegrals."""
    mesh = body.mesh
    n = mesh.n
    cap = mesh.cap_body
    if t_grid is None:
        t_grid = tuple(0.5 * (j + 1) for j in range(n + 3))
    t_grid = tuple(float(t) for t in t_grid)
    if len(t_grid) < n + 2:
        raise InvalidInputError(f"need at least n+2 = {n + 2} grid points")
    if any(t <= 0 for t in t_grid):
        raise InvalidInputError("t grid must be positive")
    vols = np.array([volume_of_combination([body, cap], (1.0, t)) for t in t_grid])
    design = np.vander(np.asarray(t_grid), n + 2, increasing=True)
    coef, _, _, sv = np.linalg.lstsq(design, vols, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    notes = {"condition_number": cond}
    if cond > 1e8:
        notes["warning"] = "ill-conditioned Steiner fit; spread the t grid"
    expected = np.array([comb(n + 1, k) * quermassintegral(body, k) for k in range(n + 2)])
    rel = np.abs(coef - expected) / np.maximum(np.abs(expected), _GUARD)
    worst = int(np.argmax(rel))
    notes.update({"coefficients": coef.tolist(), "expected": expected.tolist(),
                  "worst_k": worst})
    return InequalityReport.identity("steiner-coefficients", float(coef[worst]),
                                     float(expected[worst]), tol, notes=notes)


# ---------------------------------------------------------------------------
# divergence identity
# ---------------------------------------------------------------------------


def _stencil_safe_interior(mesh: CapMesh, margin: float):
    """Interior nodes farther than `margin` (arc length) from every boundary
    node, and the count of interior nodes left out."""
    interior = mesh.interior_idx
    if len(mesh.boundary_idx):
        bx = mesh.nodes[mesh.boundary_idx]
        dots = mesh.nodes[interior] @ bx.T
        arc = np.arccos(np.clip(np.max(dots, axis=1), -1.0, 1.0))
        ok = arc > margin
    else:
        ok = np.ones(len(interior), dtype=bool)
    if not np.any(ok):
        raise InvalidInputError(
            f"no interior nodes clear the stencil margin {margin:.3g} (arc length) from "
            f"the boundary at mesh level {mesh.config.mesh_level}, omega0 = {mesh.omega0:g}; "
            f"the cap is too thin for this level, and a finer mesh level helps")
    return interior[ok], int(np.sum(~ok))


def _tau_form_at_offsets(mesh: CapMesh, body: CapillaryBody, idx, direction: int,
                         step: float):
    """tau of a body at geodesic offsets, in first-order transported frames
    (`radii_form` with the metric and the velocities at the offset points).

    Each point's Gauss preimage comes from its projection solve, and the
    metric, basis, A_F (so the velocities) and Hessian are all read there.
    Returns (tau_plus, tau_minus), each (K, n, n).
    """
    n, model = mesh.n, mesh.model
    idx = np.asarray(idx, dtype=np.int64)
    k = len(idx)
    vel = np.zeros((k, n))
    vel[:, direction] = 1.0
    out = []
    for (zs, x_new), sgn in zip(_geodesic_points(mesh, idx, vel, step), (1.0, -1.0)):
        g_new = np.asarray(model.metric_on_wulff(x_new))
        tb_new = tangent_basis(x_new)
        a_new = np.asarray(model.anisotropy_matrix(x_new, basis=tb_new))
        hess = np.asarray(body.field.hess(x_new))
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


def divergence_identity_check(f1_body: CapillaryBody, trailing):
    """Pointwise divergence identity for the mixed-discriminant gradient.

    Evaluates sum_j grad_j Q^{ij} grad_i f1 - (1/2) Q^{ij} grad_i f1 Q_jkk
    + (1/2) Q^{ij} grad_l f1 Q_ijl at interior nodes (stencil-safe margin),
    with the geodesic stencil step 0.2 * 2^-level; returns a dict with the
    max residual relative to the field scale and the skipped-node count.
    """
    mesh = f1_body.mesh
    n = mesh.n
    trailing = list(trailing)
    if len(trailing) != n - 1:
        raise InvalidInputError(f"need n-1 = {n - 1} trailing bodies")
    step = 0.2 * 0.5**mesh.config.mesh_level
    idx, skipped = _stencil_safe_interior(mesh, 3.0 * step)

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
    return {"max_residual": float(np.max(np.abs(resid))) / scale,
            "skipped": skipped, "checked": int(len(idx)), "step": step}


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
    mesh = _require_shared_mesh(trailing)
    if mesh.n < 2:
        raise InvalidInputError("the operator needs n >= 2")
    if len(trailing) != mesh.n - 1:
        raise InvalidInputError(f"need n-1 = {mesh.n - 1} trailing bodies")
    return mesh


def operator_weights(trailing) -> np.ndarray:
    """L^2 weights d omega = Q(tau_2, tau_2, tau_3, ...)/((n+1) f_2) F dmu."""
    mesh = _operator_mesh(trailing)
    f2 = trailing[0]
    denom = mixed_discriminant_batch([f2.tau] + [b.tau for b in trailing])
    if np.any(denom <= 0):
        raise ConvexityViolationError("operator weight denominator not positive")
    return mesh.weights * mesh.detA * mesh.F_vals * denom / ((mesh.n + 1) * f2.shat)


def _apply_to_tau(tau_f, trailing):
    """Nodal values of A f from the radii matrices of f."""
    f2 = trailing[0]
    num = mixed_discriminant_batch([tau_f] + [b.tau for b in trailing])
    den = mixed_discriminant_batch([f2.tau] + [b.tau for b in trailing])
    if np.any(den <= 0):
        raise ConvexityViolationError("operator denominator not positive at some node")
    return f2.shat * num / den


def operator_a_apply(f, trailing):
    """(A f)(xi_i) = f_2 Q(tau[f], tau_2, ..., tau_n)/Q(tau_2, tau_2, ...).

    ``trailing`` lists the bodies f_2, ..., f_n (n - 1 of them); requires
    n >= 2.  Returns the nodal values of A f.
    """
    return _apply_to_tau(_tau_and_values(_operator_mesh(trailing), f)[0], trailing)


def operator_inner(f_vals, g_vals, omega) -> float:
    return float(np.sum(f_vals * g_vals * omega))


def operator_a_energy_check(g, trailing, tol: float = 1e-6) -> InequalityReport:
    """<A g, A g>_omega >= <g, A g>_omega - tol.

    The pointwise mixed-discriminant inequality bounds <A g, A g> below by
    the symmetric-form value of <g, A g>; the residual asymmetry is a
    quadrature defect, so the tolerance is applied against the natural
    scale of the quadratic form (the total omega mass floors the relative
    scale: for tiny test functions max(|lhs|, |rhs|) is meaninglessly
    small while the defect is measured in absolute form units).
    """
    tau_g, g_vals = _tau_and_values(_operator_mesh(trailing), g)
    ag = _apply_to_tau(tau_g, trailing)
    om = operator_weights(trailing)
    lhs = operator_inner(ag, ag, om)
    rhs = operator_inner(g_vals, ag, om)
    mass = float(np.sum(om))
    gap = lhs - rhs
    scale = max(abs(lhs), abs(rhs), mass, _GUARD)
    return InequalityReport(
        "operator-energy", float(lhs), float(rhs), float(gap), gap / scale,
        tol, bool(gap >= -tol * scale), False, {"omega_mass": mass})


def operator_selfadjoint_deviation(f, g, trailing) -> float:
    """|<f, A g> - <g, A f>| (vanishes at the quadrature's order)."""
    mesh = _operator_mesh(trailing)
    tau_f, f_vals = _tau_and_values(mesh, f)
    tau_g, g_vals = _tau_and_values(mesh, g)
    om = operator_weights(trailing)
    return abs(operator_inner(f_vals, _apply_to_tau(tau_g, trailing), om)
               - operator_inner(g_vals, _apply_to_tau(tau_f, trailing), om))


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------


def af_inequality_check(bodies, tol: float = 1e-8,
                        equality_expected: bool = False) -> InequalityReport:
    """V(K1,K2,rest)^2 >= V(K1,K1,rest) V(K2,K2,rest)."""
    bodies = list(bodies)
    _require_full_tuple(bodies)
    k1, k2, rest = bodies[0], bodies[1], bodies[2:]
    v12 = mixed_volume_value([k1, k2] + rest)
    v11 = mixed_volume_value([k1, k1] + rest)
    v22 = mixed_volume_value([k2, k2] + rest)
    return InequalityReport.inequality(
        "alexandrov-fenchel", v12 * v12, v11 * v22, tol,
        equality_expected=equality_expected,
        notes={"v12": v12, "v11": v11, "v22": v22})


def quermassintegral_chain_check(body: CapillaryBody, k: int, l: int,
                                 tol: float = 1e-7,
                                 equality_expected: bool = False) -> InequalityReport:
    """(V_k/|C|)^{1/(n+1-k)} >= (V_l/|C|)^{1/(n+1-l)} for 0 <= l <= k <= n.

    The quermassintegrals entering the chain are evaluated through the
    symmetrized mixed-volume correspondence (body and cap copies on one
    quadrature form), so that the discrete inequality inherits the exact
    symmetry/pointwise-Alexandrov structure; the interior-formula route
    agrees with it at the quadrature order and is checked separately.
    """
    mesh = body.mesh
    n = mesh.n
    if not 0 <= l <= k <= n:
        raise InvalidInputError(f"require 0 <= l <= k <= n, got l={l}, k={k}")
    cap = mesh.cap_body

    def querm_mv(j):
        return mixed_volume_value([body] * (n + 1 - j) + [cap] * j)

    cap_vol = mixed_volume_value([cap] * (n + 1))
    vk = querm_mv(k)
    vl = querm_mv(l)
    if vk <= 0 or vl <= 0 or cap_vol <= 0:
        raise InvalidInputError("chain check requires positive quermassintegrals")
    lhs = (vk / cap_vol) ** (1.0 / (n + 1 - k))
    rhs = (vl / cap_vol) ** (1.0 / (n + 1 - l))
    return InequalityReport.inequality(
        f"quermassintegral-chain-k{k}-l{l}", lhs, rhs, tol,
        equality_expected=equality_expected,
        notes={"V_k": vk, "V_l": vl, "cap_volume": cap_vol})


def generalized_chain_check(k0: CapillaryBody, k1: CapillaryBody, trailing,
                            m: int, i: int, j: int, k: int,
                            tol: float = 1e-7,
                            equality_expected: bool = False) -> InequalityReport:
    """V_(j)^{k-i} >= V_(i)^{k-j} V_(k)^{j-i} for the substitution family
    V_(i) = V(K0 ... K0, K1 ... K1, trailing) with i copies of K1."""
    mesh = k0.mesh
    n = mesh.n
    trailing = list(trailing)
    if not 0 <= i < j < k <= m <= n + 1:
        raise InvalidInputError("require 0 <= i < j < k <= m <= n+1")
    if m + len(trailing) != n + 1:
        raise InvalidInputError(f"trailing must hold n+1-m = {n + 1 - m} bodies")

    def v_of(cnt):
        arrangement = [k0] * (m - cnt) + [k1] * cnt + trailing
        return mixed_volume_value(arrangement)

    vi, vj, vk_ = v_of(i), v_of(j), v_of(k)
    if min(vi, vj, vk_) <= 0:
        raise InvalidInputError("generalized chain requires positive mixed volumes")
    lhs = vj ** (k - i)
    rhs = vi ** (k - j) * vk_ ** (j - i)
    return InequalityReport.inequality(
        f"generalized-chain-i{i}-j{j}-k{k}-m{m}", lhs, rhs, tol,
        equality_expected=equality_expected,
        notes={"V_i": vi, "V_j": vj, "V_k": vk_})


# ---------------------------------------------------------------------------
# kernel fields
# ---------------------------------------------------------------------------


def kernel_tau_intrinsic(mesh: CapMesh, alpha: int | None = None):
    """Intrinsic-route tau of the horizontal kernel fields, interior nodes.

    Exactly zero in the continuum; the discrete value decays with the
    stencil step 0.3 * 2^-level.  Every field E_1..E_n comes out of one
    pass over one stencil.  Returns (max_entry, info): the largest |tau|
    entry of E_{alpha+1}, or with alpha None the list of them for every
    field.
    """
    step = 0.3 * 0.5**mesh.config.mesh_level
    idx, _ = _stencil_safe_interior(mesh, 3.0 * step)
    tau, _ = intrinsic_tau(mesh, kernel_evaluator(mesh), idx, step)
    maxima = [float(v) for v in np.max(np.abs(tau), axis=(0, 2, 3))]
    return (maxima if alpha is None else maxima[alpha]), {"checked": int(len(idx)), "step": step}
