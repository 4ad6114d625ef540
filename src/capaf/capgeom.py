"""Geometry of the capillary cap.

The parameter region is S = {x on the unit sphere : <DF(x), E_d> >= -w0},
the Gauss image of every w0-capillary convex hypersurface for the norm F.
The cap itself is C = {Psi(x) + w0 * EF : x in S}, a translated piece of the
Wulff shape lying in the closed upper half-space; EF is the unique multiple
of Psi(E_d) (resp. -Psi(-E_d), resp. E_d itself) pairing to 1 with E_d.

Meshing: for n = 2 an icosphere is clipped against the region boundary by
snapping straddling vertices onto {residual = 0} along great circles by
bisection, all straddling vertices of a mesh in one batch; quadrature is
vertex-lumped spherical-triangle area, second-order accurate.  Icospheres
are built once per level and cached, and the cached arrays are read-only.
Subdivision, the choice of snap partners and the boundary edge count are
whole-array operations; only the walk along the boundary loop is a Python
loop.  For n = 1 the region is a single arc, subdivided uniformly in angle
with trapezoid weights (the angular measure is exact).  Only these builders
turn the mesh level L into geometry: each sets the nominal spacing
CapMesh.spacing = h = 0.5**L, an exact power of two that the checks' steps
and scales read (icosphere edges are 1.1 h to 1.33 h in arc length, and the
arc's node gap is its length / 16 times h).

Every node carries caches, read from one jet [F, DF, D^2F] there, the only
evaluation of F's derivatives at the nodes: Psi(x), the anisotropy matrix
and its determinant (the pullback density from the cap to S), the cap point
xi, the ambient metric G at T^{-1} xi, a G-orthonormal tangent frame, the
frame's parameter velocities A_F^{-1} e_k, and the unit Wulff cap's raw
radii cap_tau (those of F itself, from the jet's D^2F).  At boundary nodes
the frame's last vector is aligned with A_F(nu) mu, mu being the Euclidean
outward co-normal, and the first vectors span the boundary tangent.  Lazy
caches, computed once per mesh on first use (arrays read-only): q_frame,
cap_body, interior_candidates, region_complement, the tau of each
intrinsic kernel pass, keyed by its step fraction, and the one order-3 jet
of F at a stencil's nodes (D^3F there), keyed by their margin from the
boundary, which the passes at h and h/2 share.  The kernel route's stencil
points are per call and not cached, since cached meshes would keep them
alive; only each pass's (K, n, n, n) result is kept.

The admissible geometry is n in SUPPORTED_N, w0 in the open interval
admissible_range(F) and a mesh level in [0, MAX_MESH_LEVEL]: CapConfig alone
checks it and words the messages.  The mesh's guards are constants:
BOUNDARY_RESIDUAL bounds the region residual of a boundary node (100 times
it after a snap), FRAME_ORTHONORMAL the frames' G-orthonormality defect,
and BOUNDARY_PLANE the height of a boundary cap point; a mesh that breaks
one raises.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidConfigError, MeshConstructionError,
                     NumericError)
from .norms import (MinkowskiNorm, row_blocks, sym_eig_det, tangent_basis,
                    tangent_form, unit_rows)

BOUNDARY_RESIDUAL = 1e-12
FRAME_ORTHONORMAL = 1e-10
BOUNDARY_PLANE = 1e-9

SUPPORTED_N = (1, 2)
MAX_MESH_LEVEL = 7


# ---------------------------------------------------------------------------
# icosphere
# ---------------------------------------------------------------------------


def _icosahedron():
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts = unit_rows(verts)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    return verts, faces


_ICOSPHERES = {}


def _subdivide(verts, faces):
    """Split every face into four at its normalized edge midpoints.

    Midpoints are numbered in order of first appearance, each face's edges
    taken as ab, bc, ca; the new faces of face abc are [a, ab, ca],
    [b, bc, ab], [c, ca, bc], [ab, bc, ca].
    """
    edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = np.min(edges, axis=1) * len(verts) + np.max(edges, axis=1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    mid = (len(verts) + rank[inverse]).reshape(-1, 3)
    ends = edges[first[order]]
    m = verts[ends[:, 0]] + verts[ends[:, 1]]
    # stacked (1, 3) @ (3, 1) dots round as the 1-D np.linalg.norm(m) does
    m = m / np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0])
    a, b, c = faces.T
    ab, bc, ca = mid.T
    new_faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    return np.concatenate([verts, m]), new_faces.reshape(-1, 3)


def icosphere(level: int):
    """Subdivided icosahedron projected to the sphere: (verts, faces).

    Built once per level, by subdividing the cached level below; every
    caller shares the cached arrays, which are read-only, so copy before
    modifying.
    """
    if level not in _ICOSPHERES:
        verts, faces = _subdivide(*icosphere(level - 1)) if level > 0 else _icosahedron()
        verts.setflags(write=False)
        faces.setflags(write=False)
        _ICOSPHERES[level] = (verts, faces)
    return _ICOSPHERES[level]


def icosphere_vertices(level: int) -> np.ndarray:
    return icosphere(level)[0]


def sphere_sample(dim: int, level: int, count: int) -> np.ndarray:
    """Fixed sample of the unit sphere in R^dim: the level-`level` icosphere
    vertices (dim 3) or `count` equally spaced angles (dim 2)."""
    if dim == 3:
        return icosphere_vertices(level)
    phi = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def signed_area(xy) -> float:
    """Shoelace area of the closed polygon with vertex rows xy (K, 2),
    positive when the vertices run counterclockwise."""
    x, y = xy[:, 0], xy[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def spherical_triangle_areas(a, b, c) -> np.ndarray:
    """Solid angles of geodesic triangles with vertex rows a, b, c."""
    triple = np.einsum("bi,bi->b", a, np.cross(b, c))
    denom = 1.0 + np.einsum("bi,bi->b", a, b) + np.einsum("bi,bi->b", b, c) + np.einsum("bi,bi->b", c, a)
    return np.abs(2.0 * np.arctan2(triple, denom))


# ---------------------------------------------------------------------------
# region and config
# ---------------------------------------------------------------------------


def ef_vector(config: CapConfig) -> np.ndarray:
    """Constant vector EF with <EF, E_d> = 1 used to translate the Wulff cap."""
    model, omega0 = config.norm, config.omega0
    e = np.zeros(config.dim)
    e[-1] = 1.0
    if omega0 == 0.0:
        return e
    if omega0 < 0.0:
        return model.grad(e[None])[0] / float(model.value(e[None])[0])
    return -model.grad(-e[None])[0] / float(model.value(-e[None])[0])


def admissible_range(model: MinkowskiNorm):
    d = model.dim
    e = np.zeros(d)
    e[-1] = 1.0
    return -float(model.value(e[None])[0]), float(model.value(-e[None])[0])


def parameter_velocities(frame, tb, a) -> np.ndarray:
    """Ambient parameter velocities v_k = A_F^{-1} e_k of the frame vectors
    e_k (K, n, d), as columns (K, d, n): the chain rule d(xi) = A_F dx.

    tb is the tangent basis and a the anisotropy matrix A_F in it.
    """
    v_t = np.linalg.solve(a, tb @ np.swapaxes(frame, 1, 2))  # columns: A^-1 e_k
    return np.swapaxes(tb, 1, 2) @ v_t


def radii_form(hess, frame, g, vel):
    """Raw radii matrices tau_kl = G(D^2 s . v_k, e_l), (K, n, n).

    hess is D^2 s at K points, frame the frame vectors e_k there (K, n, d),
    g the metric G and vel the parameter velocities v_k = A_F^{-1} e_k as
    columns (K, d, n) (see `parameter_velocities`).
    """
    return np.swapaxes(frame @ (g @ (hess @ vel)), 1, 2)


def region_residual(model: MinkowskiNorm, omega0: float, x) -> np.ndarray:
    """<DF(x), E_d> + omega0; nonnegative exactly on the parameter region."""
    return model.grad(x)[:, -1] + omega0


@dataclass
class CapConfig:
    """Geometry configuration: the norm F on R^(n+1), w0 and the mesh level."""

    norm: MinkowskiNorm
    omega0: float
    mesh_level: int

    def __post_init__(self):
        errors = self.problems(self.n, self.omega0, self.mesh_level, self.norm)
        if errors:
            raise InvalidConfigError("; ".join(errors), errors=errors)

    @staticmethod
    def problems(n, omega0, mesh_level, norm) -> list:
        """One message per broken rule, by config key; w0 needs a supported n and a norm."""
        errors = []
        if n not in SUPPORTED_N:
            errors.append(f"geometry.n: {n} unsupported (meshing restricted to n in "
                          f"{set(SUPPORTED_N)})")
        elif norm is not None:
            lo, hi = admissible_range(norm)
            if not lo < omega0 < hi:
                errors.append(f"geometry.omega0: {omega0} outside the admissible open interval "
                              f"({lo:.6g}, {hi:.6g})")
        if not 0 <= mesh_level <= MAX_MESH_LEVEL:
            errors.append(f"mesh.level: {mesh_level} out of range [0, {MAX_MESH_LEVEL}]")
        return errors

    @property
    def dim(self) -> int:
        return self.norm.dim

    @property
    def n(self) -> int:
        return self.dim - 1


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


class CapMesh:
    """Immutable discretization of the cap with per-node geometric caches."""

    def __init__(self, config: CapConfig, spacing: float, nodes, weights, cells,
                 boundary_loop, diagnostics):
        self.config = config
        self.spacing = spacing
        self.n = config.n
        self.dim = config.dim
        self.omega0 = config.omega0
        self.model = config.norm
        self.nodes = nodes
        self.weights = weights
        self.cells = cells
        self.boundary_loop = boundary_loop
        self.is_boundary = np.zeros(len(nodes), dtype=bool)
        self.is_boundary[boundary_loop] = True
        self.diagnostics = dict(diagnostics)
        self._caches = {}
        self._populate_caches()

    # cache construction -----------------------------------------------------

    def _populate_caches(self):
        model = self.model
        x = self.nodes
        self.EF = ef_vector(self.config)
        # one jet at the unit nodes (so DF is Psi): D^2F serves A_F, G, mu
        # and the unit cap's radii
        self.F_vals, self.psi, hess = jet = model.jet(x, 2)
        self.tb = tangent_basis(x)
        self.A = tangent_form(self.tb, hess)
        ev, self.detA = sym_eig_det(self.A)
        if np.any(ev[..., 0] <= 0):
            bad = int(np.argmin(ev[..., 0]))
            raise MeshConstructionError(
                f"anisotropy matrix not positive definite at node {bad}")
        self.anisotropy_condition = float(np.max(ev[..., -1] / ev[..., 0]))
        self.xi = self.psi + self.omega0 * self.EF
        self.G = model.metric_from_jet(jet)
        self.interior_idx = np.flatnonzero(~self.is_boundary)
        self._boundary_geometry(hess[self.boundary_loop])
        self._build_frames()
        self.vel = parameter_velocities(self.frame, self.tb, self.A)
        # F's own radii: a translation leaves radii unchanged
        self.cap_tau = radii_form(hess, self.frame, self.G, self.vel)
        self._check_invariants()

    def _boundary_geometry(self, hess_b):
        """Co-normals mu and A_F(nu) mu, from D^2F at the boundary loop
        (never empty: both mesh builders fail on a region without one)."""
        loop = self.boundary_loop
        x_b = self.nodes[loop]
        xi_b = self.xi[loop]
        if self.n == 2:
            nxt = np.roll(np.arange(len(loop)), -1)
            prv = np.roll(np.arange(len(loop)), 1)
            # the boundary curve lies in the floor plane, so its tangent is
            # exactly perpendicular to both the Gauss direction and E_3
            e3 = np.zeros(self.dim)
            e3[-1] = 1.0
            t_hat = unit_rows(np.cross(x_b, np.broadcast_to(e3, x_b.shape)))
            chord = xi_b[nxt] - xi_b[prv]
            flip = np.einsum("bi,bi->b", t_hat, chord) < 0
            t_hat[flip] = -t_hat[flip]
            mu = np.cross(x_b, t_hat)
            sign = np.where(mu[:, -1] > 0, -1.0, 1.0)
            mu = unit_rows(mu) * sign[:, None]
            self.boundary_tangent = t_hat
        else:
            # two endpoints; co-normal is the outward curve tangent
            t = np.stack([-x_b[:, 1], x_b[:, 0]], axis=-1)
            dxi = np.einsum("bij,bj->bi", hess_b, t)
            mu = unit_rows(dxi)
            mu[0] = -mu[0]  # first endpoint: outward means decreasing angle
            self.boundary_tangent = None
        self.mu = mu
        self.conormal_ok = np.abs(mu[:, -1]) > 1e-8
        self.muF = np.einsum("bij,bj->bi", hess_b, mu)

    def _build_frames(self):
        g = self.G
        tb = self.tb
        n, d = self.n, self.dim

        def gdot(u, v, rows=slice(None)):
            return np.einsum("bi,bij,bj->b", u, g[rows], v)

        frame = np.zeros((len(self.nodes), n, d))
        u1 = tb[:, 0]
        e1 = u1 / np.sqrt(gdot(u1, u1))[:, None]
        frame[:, 0] = e1
        if n == 2:
            u2 = tb[:, 1]
            w = u2 - gdot(e1, u2)[:, None] * e1
            frame[:, 1] = w / np.sqrt(gdot(w, w))[:, None]
        loop = self.boundary_loop
        if n == 2:
            t_hat = self.boundary_tangent
            eb1 = t_hat / np.sqrt(gdot(t_hat, t_hat, loop))[:, None]
            w = self.muF - gdot(eb1, self.muF, loop)[:, None] * eb1
            eb2 = w / np.sqrt(gdot(w, w, loop))[:, None]
            frame[loop, 0] = eb1
            frame[loop, 1] = eb2
        else:
            sgn = np.sign(np.einsum("bi,bi->b", frame[loop, 0], self.muF))
            sgn[sgn == 0] = 1.0
            frame[loop, 0] = frame[loop, 0] * sgn[:, None]
        self.frame = frame

    def _check_invariants(self):
        gram = tangent_form(self.frame, self.G)
        dev = np.max(np.abs(gram - np.eye(self.n)[None]))
        if dev > FRAME_ORTHONORMAL:
            raise NumericError(f"frame orthonormality defect {dev:.3e}")
        self.frame_orthonormal_defect = float(dev)
        plane = np.abs(self.xi[self.boundary_loop, -1])
        if np.any(plane > BOUNDARY_PLANE):
            raise MeshConstructionError(
                f"boundary cap point off the support plane by {np.max(plane):.3e}")
        r = self.psi[:, -1] + self.omega0  # the region residual, as psi = DF
        interior_bad = r[self.interior_idx] <= 0
        if np.any(interior_bad):
            raise MeshConstructionError("interior node with nonpositive region residual")
        self.region_residuals = r

    # accessors ---------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def sigma_total(self) -> float:
        return float(np.sum(self.weights))

    def _lazy(self, name: str, make):
        """Cache `name`, made by make() on first use; its arrays are read-only."""
        if name not in self._caches:
            value = make()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            self._caches[name] = value
        return self._caches[name]

    @property
    def q_frame(self) -> np.ndarray:
        """Q contracted against the frame at every node: (N, n, n, n).

        Made in blocks of 512 nodes (norms.row_blocks): the order-3 jets and
        (N, d, d, d) tensors of a whole fine mesh were a perturbed run's
        second-largest transient arrays.  The blocks give the whole-batch
        bits, as every batched evaluator gives a row the same bits in a batch
        of any size (see norms._BLOCK_ROWS).  Q is contracted into the frame
        as it is made (MinkowskiNorm.q_on_wulff with a basis), by three
        pairwise contractions."""
        return self._lazy("q_frame", self._q_frame)

    def _q_frame(self):
        q = np.empty((len(self.nodes),) + (self.n,) * 3)
        for rows in row_blocks(len(q)):
            q[rows] = self.model.q_on_wulff(self.nodes[rows], self.frame[rows])
        return q

    @property
    def cap_body(self):
        """Unit Wulff-cap body on this mesh."""
        from .bodies import make_wulff_cap

        return self._lazy("cap_body", lambda: make_wulff_cap(self, 1.0))

    @property
    def interior_candidates(self) -> np.ndarray:
        """Candidate bump centres for random bodies on this mesh."""
        return self._lazy("interior_candidates", lambda: _interior_candidate_directions(self))

    @property
    def region_complement(self) -> np.ndarray:
        """Fixed dense sample of the region complement."""
        return self._lazy("region_complement", lambda: _region_complement_sample(self))

    def dump_table(self) -> str:
        """Plain-text node table: node_index, x, tag, w, xi, detA_F."""
        buf = io.StringIO()
        d = self.dim
        xcols = " ".join(f"x{k}" for k in range(d))
        xicols = " ".join(f"xi{k}" for k in range(d))
        buf.write(f"# node_index {xcols} tag w {xicols} detA_F\n")
        for i in range(self.node_count):
            tag = "boundary" if self.is_boundary[i] else "interior"
            xs = " ".join(repr(float(v)) for v in self.nodes[i])
            xis = " ".join(repr(float(v)) for v in self.xi[i])
            buf.write(f"{i} {xs} {tag} {float(self.weights[i])!r} {xis} "
                      f"{float(self.detA[i])!r}\n")
        return buf.getvalue()


def _interior_candidate_directions(mesh: CapMesh) -> np.ndarray:
    """Mesh-independent coarse sample of directions inside the region.

    Built on a fixed level-2 icosphere (n=2) or a fixed angle grid (n=1)
    so the same seed yields the same random body at every mesh level.  It
    makes the lazy `CapMesh.interior_candidates`.
    """
    sample = sphere_sample(mesh.dim, 2, 256)
    r = region_residual(mesh.model, mesh.omega0, sample)
    cut = 0.45 * float(np.max(r))
    cand = sample[r > cut]
    if len(cand) == 0:
        cand = sample[np.argmax(r)][None, :]
    return cand


def _region_complement_sample(mesh: CapMesh) -> np.ndarray:
    """Fixed dense sample of the region complement: level-4 icosphere
    vertices (n=2) or 2048 angles (n=1) with nonpositive region residual.
    It makes the lazy `CapMesh.region_complement`.
    """
    sample = sphere_sample(mesh.dim, 4, 2048)
    return sample[region_residual(mesh.model, mesh.omega0, sample) <= 0.0]


# ---------------------------------------------------------------------------
# mesh construction
# ---------------------------------------------------------------------------


def _snap_to_boundary(model, omega0, v_out, v_in):
    """Roots of the region residual along the great circles from v_out to v_in.

    Batched over rows: every straddling pair is bisected at once (48 steps),
    and each root is the midpoint of its last interval; no derivative of F
    beyond the residual's own gradient is taken.
    """
    # row dots as stacked (1, d) @ (d, 1) products: BLAS dot, as a 1-D `@`
    # uses, so a batch snaps each row bit for bit as a one-row call does
    cos = (v_out[:, None, :] @ v_in[:, :, None])[:, 0, 0]
    ang = np.arccos(np.clip(cos, -1.0, 1.0))
    points = v_in.copy()
    live = ang >= 1e-14
    if not np.any(live):
        return points
    axis_a, axis_b, ang = v_out[live], v_in[live], ang[live]

    def gamma(t):
        return ((np.sin((1.0 - t) * ang)[:, None] * axis_a
                 + np.sin(t * ang)[:, None] * axis_b) / np.sin(ang)[:, None])

    def res(t):
        return region_residual(model, omega0, gamma(t))

    lo, hi = np.zeros(len(ang)), np.ones(len(ang))
    if np.any(res(lo) > 0):
        raise MeshConstructionError("snap bracketing failed: outside vertex not outside")
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        below = res(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t = 0.5 * (lo + hi)
    r = res(t)
    worst = int(np.argmax(np.abs(r)))
    if abs(r[worst]) > 100.0 * BOUNDARY_RESIDUAL:
        raise MeshConstructionError(f"boundary snap residual {r[worst]:.3e} above tolerance")
    points[live] = unit_rows(gamma(t))
    return points


def _build_mesh_2d(config: CapConfig) -> CapMesh:
    model, omega0 = config.norm, config.omega0
    verts, faces = icosphere(config.mesh_level)
    r = region_residual(model, omega0, verts)
    inside = r > BOUNDARY_RESIDUAL
    outside = r < -BOUNDARY_RESIDUAL

    keep = np.any(inside[faces], axis=1)
    faces = faces[keep]
    if len(faces) == 0:
        raise _too_coarse(config, "empty parameter region: no mesh vertex lies inside it")

    # snap each outside vertex of a kept face toward its face-mate inside
    # with the largest residual, the lowest index on a tie (every kept face
    # has an inside vertex, so every such outside vertex has one)
    pair_v = faces[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
    pair_u = faces[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
    mates = outside[pair_v] & inside[pair_u]
    if not np.any(mates):
        raise _too_coarse(config, "no mesh edge crosses the region boundary")
    if np.all(keep):
        raise _too_coarse(config, "the region meets every face of the mesh",
                          ", which leaves it no boundary")
    pair_v, pair_u = pair_v[mates], pair_u[mates]
    order = np.lexsort((pair_u, -r[pair_u], pair_v))
    pair_v, pair_u = pair_v[order], pair_u[order]
    best = np.r_[True, pair_v[1:] != pair_v[:-1]]
    out_idx, in_idx = pair_v[best], pair_u[best]
    verts = verts.copy()
    snapped = np.zeros(len(verts), dtype=bool)
    verts[out_idx] = _snap_to_boundary(model, omega0, verts[out_idx], verts[in_idx])
    snapped[out_idx] = True

    # drop unreferenced vertices and reindex
    in_kept = np.zeros(len(verts), dtype=bool)
    in_kept[faces] = True
    used = np.flatnonzero(in_kept)
    remap = -np.ones(len(verts), dtype=np.int64)
    remap[used] = np.arange(len(used))
    nodes = verts[used]
    cells = remap[faces]
    is_boundary = (snapped | (np.abs(r) <= BOUNDARY_RESIDUAL))[used]

    weights = np.zeros(len(nodes))
    areas = spherical_triangle_areas(nodes[cells[:, 0]], nodes[cells[:, 1]], nodes[cells[:, 2]])
    np.add.at(weights, cells[:, 0], areas / 3.0)
    np.add.at(weights, cells[:, 1], areas / 3.0)
    np.add.at(weights, cells[:, 2], areas / 3.0)

    loop = _walk_boundary(cells, is_boundary, nodes, config)
    return CapMesh(config, 0.5**config.mesh_level, nodes, weights, cells, loop,
                   {"snapped": int(np.sum(snapped))})


def _too_coarse(config: CapConfig, what: str, why: str = "") -> MeshConstructionError:
    """The documented error of a mesh level too coarse for the region."""
    return MeshConstructionError(f"{what} at mesh level {config.mesh_level} (omega0 = "
                                 f"{config.omega0:g}){why}; a finer mesh level helps")


def _walk_boundary(cells, is_boundary, nodes, config):
    """Ordered boundary loop (counterclockwise seen from +E3)."""
    from collections import defaultdict

    # edges seen once, in order of first appearance (ab, bc, ac per cell)
    e = cells[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2)
    lo, hi = np.min(e, axis=1), np.max(e, axis=1)
    _, first, count = np.unique(lo * len(nodes) + hi, return_index=True,
                                return_counts=True)
    once = np.sort(first[count == 1])
    if len(once) == 0:
        raise MeshConstructionError("no boundary edges found")
    if not np.all(is_boundary[lo[once]] & is_boundary[hi[once]]):
        raise MeshConstructionError("boundary edge with interior endpoint")
    adj = defaultdict(list)
    for a, b in zip(lo[once].tolist(), hi[once].tolist()):
        adj[a].append(b)
        adj[b].append(a)
    if any(len(nb) != 2 for nb in adj.values()):
        raise _too_coarse(config, "the region's boundary pinches at a mesh vertex")
    start = min(adj)
    loop = [start]
    prev, cur = -1, start
    for _ in range(len(adj)):
        a, b = adj[cur]
        nxt = a if a != prev else b
        if nxt == start:
            break
        loop.append(nxt)
        prev, cur = cur, nxt
    if len(loop) != len(adj):
        raise MeshConstructionError("boundary walk did not close into a single loop")
    loop = np.asarray(loop, dtype=np.int64)
    if signed_area(nodes[loop][:, :2]) < 0:
        loop = loop[::-1].copy()
    return loop


def _build_mesh_1d(config: CapConfig) -> CapMesh:
    model, omega0 = config.norm, config.omega0

    def res(phi):
        phi = np.atleast_1d(phi)
        pts = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        return region_residual(model, omega0, pts)

    # scan for sign changes, then bisect every bracket at once for 60 steps
    m0 = 4096
    phis = np.linspace(0.0, 2.0 * np.pi, m0, endpoint=False)
    rv = res(phis)
    bracket = rv * np.roll(rv, -1) < 0
    ra, lo = rv[bracket], phis[bracket]
    hi = lo + (2.0 * np.pi / m0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = res(mid) * ra > 0
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    roots = sorted(np.concatenate([phis[rv == 0.0], 0.5 * (lo + hi)]).tolist())
    if len(roots) < 2:
        # the scan does not depend on the mesh level: only omega0 can help
        raise MeshConstructionError(
            f"expected two region boundary angles, found {len(roots)} at mesh level "
            f"{config.mesh_level} (omega0 = {omega0:g}); the region or its complement is "
            f"narrower than the {m0}-angle boundary scan resolves at every mesh level, and an "
            f"omega0 farther from the ends of its admissible interval helps")
    # pick the arc (cyclically) whose midpoint lies inside the region
    best = None
    for i in range(len(roots)):
        lo = roots[i]
        hi = roots[(i + 1) % len(roots)]
        if hi <= lo:
            hi += 2.0 * np.pi
        mid = 0.5 * (lo + hi)
        if res(mid)[0] > 0:
            if best is not None:
                raise MeshConstructionError("parameter region is not a single arc")
            best = (lo, hi)
    if best is None:
        raise MeshConstructionError("empty parameter region")
    lo, hi = best
    m = 16 * 2**config.mesh_level
    phi_nodes = np.linspace(lo, hi, m + 1)
    nodes = np.stack([np.cos(phi_nodes), np.sin(phi_nodes)], axis=-1)
    dphi = (hi - lo) / m
    weights = np.full(m + 1, dphi)
    weights[0] = weights[-1] = dphi / 2.0
    cells = np.stack([np.arange(m), np.arange(1, m + 1)], axis=-1)
    loop = np.array([0, m], dtype=np.int64)
    return CapMesh(config, 0.5**config.mesh_level, nodes, weights, cells, loop, {})


def build_cap_mesh(config: CapConfig) -> CapMesh:
    """Mesh the parameter region and populate all per-node caches."""
    if config.n == 2:
        return _build_mesh_2d(config)
    return _build_mesh_1d(config)
