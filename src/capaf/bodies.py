"""Capillary convex bodies bound to a cap mesh.

A body is a support field plus per-node caches on one mesh: boundary
positions X = Ds, the Euclidean radii matrix W = D^2 s restricted to the
node tangent basis, the anisotropic radii matrix tau in the g-ring frame,
and the anisotropic principal curvatures and normalized symmetric means.
The support field is the single source of truth, and s, X, W and the
generator-route tau are linear in it.  So every constructor builds through
CapillaryBody: Wulff-cap parts of the mesh's own norm read the mesh's F
caches, and only the rest of the field is evaluated, once.
"""

from __future__ import annotations

import json

import numpy as np

from .capgeom import CapConfig, CapMesh, build_cap_mesh
# not called here: perfbench's self-test checks that its tracer also wraps a
# capgeom function imported by value, through this name
from .capgeom import icosphere_vertices  # noqa: F401
from .errors import (ConvexityViolationError, GenerationError,
                     InvalidInputError)
from .fields import (CombinationField, LinearField, SphericalBumpField,
                     SupportField, WulffCapField, radii_form)

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
        mesh's norm reads the mesh's F, DF, A_F and cap_tau; the other leaves
        are evaluated together, once, and their Hessian gives both W and the
        raw radii.  Raw radii matrices are summed before they are
        symmetrized, so tau_asym is the whole body's asymmetry: round-off,
        as the closed form is symmetric."""
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
            hess = np.asarray(field.hess(x))
            parts.append((np.asarray(field.value(x)), np.asarray(field.grad(x)),
                          np.einsum("bki,bij,blj->bkl", mesh.tb, hess, mesh.tb),
                          radii_form(hess, mesh.frame, mesh.G, mesh.vel)))
        self.s, self.X, self.W, raw = (sum(col[1:], col[0]) for col in zip(*parts))
        self.tau_asym = np.max(np.abs(raw - np.swapaxes(raw, 1, 2)), axis=(1, 2))
        self.tau = 0.5 * (raw + np.swapaxes(raw, 1, 2))
        self.shat = self.s / mesh.F_vals
        self.anchor = np.asarray(self.field.anchor, dtype=float)
        self.detW = np.linalg.det(self.W) if mesh.n > 1 else self.W[:, 0, 0].copy()
        radii = np.linalg.eigvalsh(self.tau)
        self.tau_eigs = radii
        with np.errstate(divide="ignore"):
            self.kappa = np.where(radii > 0, 1.0 / radii, np.inf)[:, ::-1]
        self.H = _sigma_means(self.kappa)
        self.shat_anchored = (self.s - x @ self.anchor) / mesh.F_vals
        w_ev = np.linalg.eigvalsh(self.W)
        self.min_w_eig = float(np.min(w_ev[:, 0]))
        self.min_tau_eig = float(np.min(radii[:, 0]))
        self.convex = bool(self.min_w_eig > 0 and self.min_tau_eig > 0)
        bd = mesh.boundary_idx
        self.boundary_plane_dev = float(np.max(np.abs(self.X[bd, -1])))
        halfspace_min = float(np.min(self.X[:, -1]))
        self.capillary = bool(self.boundary_plane_dev <= 1e-6 * max(1.0, float(np.max(np.abs(self.s))))
                              and halfspace_min >= -1e-9)

    def _validate(self):
        if not self.convex:
            raise ConvexityViolationError(
                f"body not strictly convex (min W eig {self.min_w_eig:.3e}, "
                f"min tau eig {self.min_tau_eig:.3e})")
        if not self.capillary:
            raise InvalidInputError(
                f"body violates the capillary boundary condition "
                f"(plane deviation {self.boundary_plane_dev:.3e})")

    # ------------------------------------------------------------------ views

    def capillary_support_metric_form(self) -> np.ndarray:
        """The capillary support s_hat = s/F at every node through
        G(T^-1 xi)(X, T^-1 xi); a second route to shat."""
        return np.einsum("bi,bij,bj->b", self.X, self.mesh.G, self.mesh.psi)

    def u_bar(self) -> np.ndarray:
        """Alternative normalization s_hat / s_hat_o (read-only diagnostic)."""
        return self.shat / self.mesh.cap_body.shat

    def tau_eigs_secondary(self) -> np.ndarray:
        """Radii via the Euclidean route: eigenvalues of W A_F^{-1}."""
        return _eig_pair(self.W, self.mesh.A)

    def anisotropic_curvatures(self, i: int):
        """(kappa^F, [H_0..H_{n+1}]) at node i."""
        if self.tau_eigs[i, 0] <= 0:
            raise ConvexityViolationError(f"nonpositive radii eigenvalue at node {i}")
        return self.kappa[i], self.H[i]

    def robin_residual(self, i: int):
        """Boundary condition residual at boundary node i.

        Returns (residual, euclidean_residual, ok) where the first is
        grad_{mu_F} s_hat - w0 s_hat / (F(nu) <mu, E_d>), the second is
        <X, E_d> (both vanish together for capillary bodies), and ok is
        False when the co-normal is numerically vertical-degenerate.
        """
        at = np.flatnonzero(self.mesh.boundary_loop == i)
        if len(at) == 0:
            raise InvalidInputError(f"node {i} is not a boundary node")
        b = int(at[0])
        res, euclid, ok = self.robin_residuals()
        return float(res[b]), float(euclid[b]), bool(ok[b])

    def robin_residuals(self):
        """(residuals, euclid, ok_mask) across the ordered boundary loop."""
        mesh = self.mesh
        loop = mesh.boundary_loop
        grad_shat = self.X[loop] - self.shat[loop, None] * mesh.psi[loop]
        lhs = np.einsum("bi,bij,bj->b", grad_shat, mesh.G[loop], mesh.muF)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhs = mesh.omega0 * self.shat[loop] / (mesh.F_vals[loop] * mesh.mu[:, -1])
        res = np.where(mesh.conormal_ok, lhs - rhs, 0.0)
        return res, self.X[loop, -1], mesh.conormal_ok.copy()

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


def make_wulff_cap(mesh: CapMesh, r0: float, e_vec=None) -> CapillaryBody:
    """Capillary Wulff cap of radius r0: support r0 (F(x) + w0 <E, x>).

    E defaults to EF; any E with <E, E_d> = 1 keeps the boundary condition
    and horizontally shifts the body.
    """
    ef = mesh.EF
    e_vec = ef if e_vec is None else np.asarray(e_vec, dtype=float)
    field = WulffCapField(mesh.model, mesh.omega0, r0, e_vec, ef)
    prov = {"kind": "wulff-cap", "r0": r0, "e_vec": list(map(float, e_vec))}
    return CapillaryBody(mesh, field, prov)


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
    mesh = bodies[0].mesh
    if any(b.mesh is not mesh for b in bodies):
        raise InvalidInputError("all bodies must share one mesh")
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

    cap_shat = 1.0 + mesh.omega0 * (mesh.nodes @ mesh.EF) / mesh.F_vals
    shat_floor = 0.05 * float(np.min(cap_shat))
    scale = 1.0
    last_err = "no attempts"
    for _ in range(_BACKTRACK_LIMIT + 1):
        parts = [WulffCapField(mesh.model, mesh.omega0, 1.0, mesh.EF, mesh.EF)]
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


def body_from_record(record) -> CapillaryBody:
    """Reconstruct a body from its serialized record.

    Construction is deterministic, so replaying the recorded provenance on
    a mesh built from the recorded config reproduces every cache bit for bit.
    """
    from .norms import norm_from_descriptor

    if isinstance(record, str):
        record = json.loads(record)
    mesh = build_cap_mesh(CapConfig(int(record["n"]), float(record["omega0"]),
                                    norm_from_descriptor(record["norm"]),
                                    int(record["mesh_level"])))
    prov = record["provenance"]
    kind = prov.get("kind")
    if kind == "wulff-cap":
        return make_wulff_cap(mesh, float(prov["r0"]),
                              np.asarray(prov["e_vec"], dtype=float))
    if kind == "random":
        return random_capillary_body(mesh, int(prov["seed"]),
                                     float(prov["amplitude"]))
    raise InvalidInputError(f"cannot rebuild body of kind {kind!r}")
