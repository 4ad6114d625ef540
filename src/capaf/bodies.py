"""Capillary convex bodies bound to a cap mesh.

A body is a support field plus per-node caches on one mesh: the support s
and the capillary support shat = s/F (also anchored), boundary positions
X = Ds, the Euclidean radii matrix W = D^2 s restricted to the node tangent
basis and det W, the anisotropic radii matrix tau in the g-ring frame and
its asymmetry tau_asym; then the least W and tau eigenvalues and the
convex and capillary flags.  The normalized symmetric means H of the
anisotropic principal curvatures are computed on first read, as only the
quermassintegrals and the Minkowski formulae read them.  The spectra of W
and tau are closed form (norms.sym_eig_det) and not kept, as no run reads
them: sym_eig_det(body.tau)[0] gives the radii, whose reciprocals are the
curvatures.  The support field is the single source of truth, and s, X, W
and the generator-route tau are linear in it.  So every constructor builds
through CapillaryBody: Wulff-cap parts of the mesh's own norm read the
mesh's F caches, and only the rest of the field is evaluated, in one jet
(its bump leaves in one zonal pass over their stacked live rows, see
fields.CombinationField), whose Hessian gives W (norms.tangent_form) and
the raw radii on the rows where it is nonzero, each with the bits of any
batch: most rows miss every bump, and a linear leaf has none.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .capgeom import CapMesh, radii_form
# not called here: perfbench's self-test checks that its tracer also wraps a
# capgeom function imported by value, through this name
from .capgeom import icosphere_vertices  # noqa: F401
from .errors import (ConvexityViolationError, GenerationError,
                     InvalidInputError)
from .fields import (CombinationField, LinearField, SphericalBumpField,
                     SupportField, WulffCapField)
from .norms import sym_eig_det, tangent_form

_BACKTRACK_LIMIT = 20


def _leaves(field: SupportField, weight: float):
    """(leaf, weight) pairs of a field, nested combinations multiplied out."""
    if not isinstance(field, CombinationField):
        return [(field, weight)]
    return [pair for f, c in zip(field.fields, field.coeffs)
            for pair in _leaves(f, weight * c)]


def _sigma_means(kappa: np.ndarray) -> np.ndarray:
    """Normalized symmetric means H_k = sigma_k(kappa)/binom(n, k), k=0..n+1; n in {1, 2}."""
    nn, n = kappa.shape
    h = np.empty((nn, n + 2))
    h[:, 0] = 1.0
    if n == 1:
        h[:, 1] = kappa[:, 0]
    else:
        h[:, 1] = 0.5 * (kappa[:, 0] + kappa[:, 1])
        h[:, 2] = kappa[:, 0] * kappa[:, 1]
    h[:, n + 1] = 0.0
    return h


def _eig_pair(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Eigenvalues of W A^{-1} (generalized problem W v = lambda A v), n in {1, 2}."""
    m = np.linalg.solve(a, w)
    if m.shape[-1] == 1:
        return m[:, 0, 0][:, None]
    tr = m[:, 0, 0] + m[:, 1, 1]
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    disc = np.sqrt(np.maximum(tr * tr / 4.0 - det, 0.0))
    return np.stack([tr / 2.0 - disc, tr / 2.0 + disc], axis=-1)


class CapillaryBody:
    """A capillary convex body: support field plus mesh-bound caches."""

    def __init__(self, mesh: CapMesh, field: SupportField, provenance: dict,
                 validate: bool = True):
        self.mesh = mesh
        self.field = field
        self.provenance = dict(provenance)
        self._populate()
        if validate:
            self._validate()

    def _populate(self):
        """Every cache, linear in the support field: a Wulff-cap leaf of the
        mesh's norm reads the mesh's F, DF, A_F and cap_tau, all from the
        mesh's one jet of F; the other leaves are evaluated together, in one
        jet (the bumps in one zonal pass), whose Hessian gives W
        (norms.tangent_form) and the raw radii on the rows where it is
        nonzero, exact zeros elsewhere.  Raw radii matrices are summed before
        they are symmetrized, so tau_asym is the whole body's asymmetry:
        round-off, as the closed form is symmetric."""
        mesh = self.mesh
        x = mesh.nodes
        caps, rest = [], []
        for leaf, w in _leaves(self.field, 1.0):
            own_cap = isinstance(leaf, WulffCapField) and leaf.model is mesh.model
            (caps if own_cap else rest).append((leaf, w))
        parts = []  # (s, X, W, raw tau) of each summand
        for cap, w in caps:
            r, shift = w * cap.r0, w * cap.shift
            parts.append((r * mesh.F_vals + x @ shift, r * mesh.psi + shift,
                          r * mesh.A, r * mesh.cap_tau))
        if rest:
            field = CombinationField([f for f, _ in rest], [w for _, w in rest])
            s, ds, hess = field._derivative(x, 2)  # the nodes are unit rows
            idx = np.flatnonzero((hess != 0).reshape(len(x), -1).any(axis=1))
            w_rest, raw_rest = np.zeros((2, len(x), mesh.n, mesh.n))
            w_rest[idx] = tangent_form(mesh.tb[idx], hess[idx])
            raw_rest[idx] = radii_form(hess[idx], mesh.frame[idx], mesh.G[idx], mesh.vel[idx])
            parts.append((s, ds, w_rest, raw_rest))
        self.s, self.X, self.W, raw = (sum(col[1:], col[0]) for col in zip(*parts))
        self.tau_asym = np.abs(raw - np.swapaxes(raw, 1, 2)).reshape(len(x), -1).max(axis=1)
        self.tau = 0.5 * (raw + np.swapaxes(raw, 1, 2))
        self.shat = self.s / mesh.F_vals
        self.anchor = np.asarray(self.field.anchor, dtype=float)
        w_ev, self.detW = sym_eig_det(self.W)
        radii = sym_eig_det(self.tau)[0]
        self.shat_anchored = (self.s - x @ self.anchor) / mesh.F_vals
        self.min_w_eig = float(np.min(w_ev[:, 0]))
        self.min_tau_eig = float(np.min(radii[:, 0]))
        self.convex = bool(self.min_w_eig > 0 and self.min_tau_eig > 0)
        # one bound, relative to the body's extent max |X|, for the boundary
        # plane and the half-space, so a Minkowski multiple of a capillary
        # body is one (max |s| can be far smaller on a thin cap)
        self.capillary_bound = 1e-6 * float(np.max(np.linalg.norm(self.X, axis=-1)))
        self.boundary_plane_dev = float(np.max(np.abs(self.X[mesh.boundary_loop, -1])))
        self.halfspace_min = float(np.min(self.X[:, -1]))
        self.capillary = bool(self.boundary_plane_dev <= self.capillary_bound
                              and self.halfspace_min >= -self.capillary_bound)

    @functools.cached_property
    def H(self) -> np.ndarray:
        """The normalized symmetric means H of the anisotropic principal
        curvatures, the reciprocal radii (inf where a radius is not
        positive), (N, n + 2).  Computed on first read: only the
        quermassintegrals and the Minkowski formulae read it."""
        radii = sym_eig_det(self.tau)[0]
        with np.errstate(divide="ignore"):
            kappa = np.where(radii > 0, 1.0 / radii, np.inf)[:, ::-1]
        return _sigma_means(kappa)

    def _validate(self):
        if not self.convex:
            raise ConvexityViolationError(
                f"body not strictly convex (min W eig {self.min_w_eig:.3e}, "
                f"min tau eig {self.min_tau_eig:.3e})")
        if self.boundary_plane_dev > self.capillary_bound:
            raise InvalidInputError(
                f"body violates the capillary boundary condition: boundary plane deviation "
                f"{self.boundary_plane_dev:.3e} above the bound {self.capillary_bound:.3e}")
        if not self.capillary:
            raise InvalidInputError(
                f"body leaves the half-space: lowest height {self.halfspace_min:.3e} below "
                f"-{self.capillary_bound:.3e}")

    # ------------------------------------------------------------------ views

    def capillary_support_metric_form(self) -> np.ndarray:
        """The capillary support s_hat = s/F at every node through
        G(T^-1 xi)(X, T^-1 xi); a second route to shat."""
        return np.einsum("bi,bij,bj->b", self.X, self.mesh.G, self.mesh.psi)

    def tau_eigs_secondary(self) -> np.ndarray:
        """Radii via the Euclidean route: eigenvalues of W A_F^{-1}."""
        return _eig_pair(self.W, self.mesh.A)

    def robin_residuals(self):
        """(residuals, ok_mask) across the ordered boundary loop."""
        mesh = self.mesh
        loop = mesh.boundary_loop
        grad_shat = self.X[loop] - self.shat[loop, None] * mesh.psi[loop]
        lhs = np.einsum("bi,bij,bj->b", grad_shat, mesh.G[loop], mesh.muF)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhs = mesh.omega0 * self.shat[loop] / (mesh.F_vals[loop] * mesh.mu[:, -1])
        res = np.where(mesh.conormal_ok, lhs - rhs, 0.0)
        return res, mesh.conormal_ok.copy()

    def reconstruction_residual(self) -> float:
        """max |(grad s_hat + s_hat T^-1 xi) - X| over nodes (two routes)."""
        mesh = self.mesh
        grad_comp = np.einsum("bkd,bde,be->bk", mesh.frame, mesh.G, self.X)
        grad_amb = np.einsum("bk,bkd->bd", grad_comp, mesh.frame)
        recon = grad_amb + self.shat[:, None] * mesh.psi
        return float(np.max(np.abs(recon - self.X)))

    # -------------------------------------------------------------- serialize

    def record(self) -> dict:
        return {
            "provenance": self.provenance,
            "norm": self.mesh.model.descriptor(),
            "n": self.mesh.n,
            "omega0": self.mesh.omega0,
            "mesh_level": self.mesh.config.mesh_level,
            "flags": {"convex": self.convex, "capillary": self.capillary},
        }

    def record_json(self) -> str:
        return json.dumps(self.record(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_wulff_cap(mesh: CapMesh, r0: float) -> CapillaryBody:
    """Capillary Wulff cap of radius r0: support r0 (F(x) + w0 <EF, x>),
    anchored at the origin; translate_horizontal shifts it."""
    field = WulffCapField(mesh.model, mesh.omega0, r0, mesh.EF)
    return CapillaryBody(mesh, field, {"kind": "wulff-cap", "r0": r0})


def shared_mesh(bodies) -> CapMesh:
    """The one mesh all the bodies live on; InvalidInputError otherwise."""
    mesh = bodies[0].mesh
    if any(b.mesh is not mesh for b in bodies[1:]):
        raise InvalidInputError("bodies must share one mesh")
    return mesh


def minkowski_combine(bodies, lambdas) -> CapillaryBody:
    """Body with support field sum_i lambda_i s_i (nonnegative weights)."""
    bodies = list(bodies)
    lambdas = [float(v) for v in lambdas]
    if not bodies or len(bodies) != len(lambdas):
        raise InvalidInputError("bodies and weights must align and be nonempty")
    if any(lam < 0 for lam in lambdas):
        raise InvalidInputError("weights must be nonnegative")
    if sum(lambdas) <= 0:
        raise InvalidInputError("weights must not all vanish")
    mesh = shared_mesh(bodies)
    field = CombinationField([b.field for b in bodies], lambdas)
    prov = {"kind": "combination", "weights": lambdas,
            "parts": [b.provenance.get("kind", "?") for b in bodies]}
    return CapillaryBody(mesh, field, prov)


def translate_horizontal(body: CapillaryBody, v) -> CapillaryBody:
    """Body translated by a horizontal vector v."""
    v = np.asarray(v, dtype=float)
    if abs(v[-1]) > 1e-14:
        raise InvalidInputError("translation must be horizontal")
    field = CombinationField([body.field, LinearField(v)], [1.0, 1.0])
    prov = dict(body.provenance)
    prov["translated_by"] = list(map(float, v))
    return CapillaryBody(body.mesh, field, prov)


def _boundary_margin_cos(mesh: CapMesh, center: np.ndarray) -> float:
    """min (1 - <c, x>) over a fixed dense sample of the region complement."""
    outside = mesh.region_complement
    if len(outside) == 0:
        return 2.0
    return float(np.min(1.0 - outside @ center))


def random_capillary_body(mesh: CapMesh, seed: int, amplitude: float = 0.15) -> CapillaryBody:
    """Reproducible random capillary convex body.

    Unit Wulff cap, plus a random horizontal translation, plus smooth bumps
    supported strictly inside the parameter region (so the boundary
    condition is exact).  Bump amplitudes are scaled by width^2 so the
    curvature perturbation is O(amplitude).  The whole perturbation is
    halved (up to 20 times) until the body is strictly convex with positive
    radii and capillary support shat above 5% of the unit cap's own minimum
    (which falls towards 0 near the ends of the w0 interval); exhaustion
    raises GenerationError.
    The seed must be a nonnegative integer.
    """
    if seed < 0:
        raise InvalidInputError(f"seed {seed} is negative; seeds are nonnegative integers")
    if amplitude < 0:
        raise InvalidInputError("amplitude must be nonnegative")
    rng = np.random.default_rng(seed)
    d = mesh.dim
    v = rng.normal(size=d)
    v[-1] = 0.0
    nv = np.linalg.norm(v)
    if nv > 0:
        v *= 0.4 * amplitude * (0.5 + 0.5 * rng.random()) / nv
    cand = mesh.interior_candidates
    n_bumps = int(rng.integers(2, 4)) if amplitude > 0 else 0
    picks = rng.choice(len(cand), size=min(n_bumps, len(cand)), replace=False)
    bump_specs = []
    for p in picks:
        center = cand[p]
        margin = _boundary_margin_cos(mesh, center)
        width = 0.5 * margin * (0.6 + 0.35 * rng.random())
        if width <= 1e-6:
            continue
        amp = amplitude * (0.4 + 0.6 * rng.random()) * (1.0 if rng.random() < 0.5 else -1.0)
        amp *= width**2 / 8.0
        bump_specs.append((center, width, amp))

    shat_floor = 0.05 * float(np.min(mesh.cap_body.shat))
    scale = 1.0
    last_err = "no attempts"
    for _ in range(_BACKTRACK_LIMIT + 1):
        parts = [WulffCapField(mesh.model, mesh.omega0, 1.0, mesh.EF)]
        if np.linalg.norm(v) > 0:
            parts.append(LinearField(v * scale))
        parts += [SphericalBumpField(c, w, amp * scale) for c, w, amp in bump_specs]
        field = CombinationField(parts, [1.0] * len(parts))
        body = CapillaryBody(mesh, field,
                             {"kind": "random", "seed": int(seed), "amplitude": amplitude,
                              "backtrack_scale": scale},
                             validate=False)
        if body.convex and body.capillary and float(np.min(body.shat)) > shat_floor:
            return body
        last_err = (f"minW={body.min_w_eig:.2e} minTau={body.min_tau_eig:.2e} "
                    f"minShat={float(np.min(body.shat)):.2e}")
        scale *= 0.5
    raise GenerationError(f"random body generation exhausted backtracking ({last_err})")


def rebind(body: CapillaryBody, mesh: CapMesh) -> CapillaryBody:
    """Same support field evaluated on another mesh (convergence studies).

    On the body's own mesh the caches would come out bit for bit the same,
    so the validated body itself is returned.
    """
    if mesh is body.mesh:
        body._validate()
        return body
    return CapillaryBody(mesh, body.field, dict(body.provenance))

