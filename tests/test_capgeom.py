from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from capaf.capgeom import (CapConfig, _snap_to_boundary, admissible_range,
                           build_cap_mesh, ef_vector, icosphere, region_residual,
                           spherical_triangle_areas)
from capaf.errors import InvalidConfigError
from capaf.norms import EllipsoidNorm, unit_rows


def test_icosphere_counts():
    for level in (0, 1, 2):
        verts, faces = icosphere(level)
        assert len(faces) == 20 * 4**level
        assert len(verts) == 10 * 4**level + 2
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-14)
        again_verts, again_faces = icosphere(level)
        assert np.array_equal(again_verts, verts) and np.array_equal(again_faces, faces)
        with pytest.raises(ValueError):
            verts[0, 0] = 0.0
        with pytest.raises(ValueError):
            faces[0, 0] = 0


def test_spherical_triangle_octant():
    a = np.array([[1.0, 0, 0]])
    b = np.array([[0, 1.0, 0]])
    c = np.array([[0, 0, 1.0]])
    assert spherical_triangle_areas(a, b, c)[0] == pytest.approx(np.pi / 2)


def test_ef_vector_zero_omega(model_factory):
    for name in ("iso3", "ell3"):
        ef = ef_vector(model_factory(name), 0.0)
        assert np.allclose(ef, [0, 0, 1])


def test_ef_vector_isotropic_any_omega(model_factory):
    for w0 in (-0.6, 0.4):
        assert np.allclose(ef_vector(model_factory("iso3"), w0), [0, 0, 1], atol=1e-15)


def test_ef_vector_ellipsoid_pairing():
    # M E3 = (0.3, 0, 1) with F(E3) = 1: EF = (0.3, 0, 1) for negative omega0
    model = EllipsoidNorm(np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.0], [0.3, 0.0, 1.0]]))
    ef = ef_vector(model, -0.3)
    assert np.allclose(ef, [0.3, 0.0, 1.0], atol=1e-12)
    assert ef[-1] == pytest.approx(1.0, abs=1e-12)
    ef_pos = ef_vector(model, 0.3)
    assert ef_pos[-1] == pytest.approx(1.0, abs=1e-12)


def test_ef_vector_rejects_inadmissible(model_factory):
    model = model_factory("iso3")
    lo, hi = admissible_range(model)
    with pytest.raises(InvalidConfigError):
        ef_vector(model, lo)  # boundary of the open interval
    with pytest.raises(InvalidConfigError):
        ef_vector(model, hi + 0.1)


def test_region_residual_values(model_factory):
    iso = model_factory("iso3")
    assert region_residual(iso, 0.0, np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0)
    theta = np.pi / 3
    x = np.array([np.sin(theta), 0.0, np.cos(theta)])
    assert region_residual(iso, -np.cos(theta), x) == pytest.approx(0.0, abs=1e-15)


def test_config_rejects_bad_values(model_factory):
    with pytest.raises(InvalidConfigError):
        CapConfig(3, 0.0, model_factory("iso3"), 3)
    with pytest.raises(InvalidConfigError):
        CapConfig(2, -1.0, model_factory("iso3"), 3)  # omega0 = -F(E3)


def test_hemisphere_area(mesh_factory):
    mesh = mesh_factory("iso3", 0.0, 3)
    assert mesh.sigma_total == pytest.approx(2 * np.pi, rel=1e-12)


def test_cap_area_convergence(mesh_factory):
    # sigma(S) -> 2 pi (1 - cos theta) at second order
    exact = 2 * np.pi * (1 - 0.5)
    errs = [abs(mesh_factory("iso3", -0.5, L).sigma_total - exact) for L in (2, 3, 4)]
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_arc_measure_n1(mesh_factory):
    mesh = mesh_factory("iso2", 0.0, 3, n=1)
    assert mesh.sigma_total == pytest.approx(np.pi, rel=1e-14)
    assert list(mesh.boundary_loop) == [0, mesh.node_count - 1]


def test_sigma_self_convergence_anisotropic(mesh_factory):
    # no closed form: Richardson self-convergence
    vals = [mesh_factory("ell3", -0.4, L).sigma_total for L in (2, 3, 4)]
    d1, d2 = abs(vals[0] - vals[2]), abs(vals[1] - vals[2])
    assert d1 / max(d2, 1e-16) > 3.0


def test_cap_points(mesh_factory):
    mesh = mesh_factory("ell3", -0.4, 3)
    bd = mesh.boundary_idx
    assert np.max(np.abs(mesh.xi[bd, -1])) < 1e-9
    interior = mesh.interior_idx
    assert np.min(mesh.xi[interior, -1]) > 0
    # isotropic omega0 = 0: xi = x exactly
    m0 = mesh_factory("iso3", 0.0, 2)
    assert np.array_equal(m0.xi, m0.psi)
    assert np.max(np.abs(m0.psi - m0.nodes)) < 1e-15


@pytest.mark.parametrize("name,w0", [("iso3", -0.5), ("ell3", -0.4), ("ell3", 0.3),
                                     ("pert3", -0.35)])
def test_frames_orthonormal_and_normal(mesh_factory, name, w0):
    mesh = mesh_factory(name, w0, 3)
    gram = np.einsum("bki,bij,blj->bkl", mesh.frame, mesh.G, mesh.frame)
    assert np.max(np.abs(gram - np.eye(mesh.n))) < 1e-10
    # anisotropic normality: G(T^-1 xi)(e_k, T^-1 xi) = 0
    normal = np.einsum("bki,bij,bj->bk", mesh.frame, mesh.G, mesh.psi)
    tol = 1e-6 if name == "pert3" else 1e-10
    assert np.max(np.abs(normal)) < tol


def test_frame_determinism(model_factory):
    cfg = CapConfig(2, -0.4, model_factory("ell3"), 2)
    m1 = build_cap_mesh(cfg)
    m2 = build_cap_mesh(CapConfig(2, -0.4, model_factory("ell3"), 2))
    assert np.array_equal(m1.frame, m2.frame)
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.nodes, m2.nodes)


def _snap_one(model, omega0, v_out, v_in, tol):
    """One-vertex reference for the batched boundary snap (same arithmetic)."""
    ang = float(np.arccos(np.clip(v_out @ v_in, -1.0, 1.0)))
    if ang < 1e-14:
        return v_in.copy()

    def gamma(t):
        return (np.sin((1.0 - t) * ang) * v_out + np.sin(t * ang) * v_in) / np.sin(ang)

    def res(t):
        return float(region_residual(model, omega0, gamma(t)[None, :])[0])

    lo, hi = 0.0, 1.0
    assert res(lo) <= 0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if res(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    h = 1e-7
    slope = (res(min(t + h, 1.0)) - res(max(t - h, 0.0))) / (min(t + h, 1.0) - max(t - h, 0.0))
    if slope != 0.0:
        t_new = t - res(t) / slope
        if 0.0 <= t_new <= 1.0 and abs(res(t_new)) <= abs(res(t)):
            t = t_new
    assert abs(res(t)) <= max(tol * 100.0, 1e-10)
    return unit_rows(gamma(t)[None, :])[0]


def test_snap_batch_matches_one_vertex_reference(model_factory):
    model = model_factory("ell3")
    verts, faces = icosphere(3)
    r = region_residual(model, -0.4, verts)
    edges = faces[:, [0, 1]]
    edges = edges[(r[edges[:, 0]] < 0) & (r[edges[:, 1]] > 0)]
    v_out, v_in = verts[edges[:, 0]], verts[edges[:, 1]]
    batch = _snap_to_boundary(model, -0.4, v_out, v_in, 1e-12)
    ref = [_snap_one(model, -0.4, a, b, 1e-12) for a, b in zip(v_out, v_in)]
    assert len(batch) > 0 and np.array_equal(batch, np.array(ref))


@pytest.mark.parametrize("name,omega0", [("ell3", -0.4), ("pert3", -0.35)])
def test_boundary_residual_after_snap(mesh_factory, name, omega0):
    mesh = mesh_factory(name, omega0, 3)
    r = region_residual(mesh.model, mesh.omega0, mesh.nodes[mesh.boundary_idx])
    assert np.max(np.abs(r)) < 1e-10


def test_pullback_density_values(mesh_factory):
    m = mesh_factory("iso3", 0.0, 2)
    assert np.max(np.abs(m.detA - 1.0)) < 1e-12
    # ellipsoid diag(1,1,4) at E3: det of diag(0.5, 0.5)
    model = EllipsoidNorm(np.diag([1.0, 1.0, 4.0]))
    mesh = build_cap_mesh(CapConfig(2, 0.0, model, 2))
    i = int(np.argmax(mesh.nodes[:, 2]))
    assert mesh.nodes[i, 2] == pytest.approx(1.0)
    assert mesh.detA[i] == pytest.approx(0.25, rel=1e-12)


def test_pullback_density_geometric_oracle(mesh_factory):
    # image-triangle area over parameter-triangle area tends to det A_F
    mesh = mesh_factory("ell3", -0.4, 4)
    cells = mesh.cells[:50]
    x = mesh.nodes
    xi = mesh.xi

    def tri_area(p):
        return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=-1)

    ratio = tri_area(xi[cells]) / tri_area(x[cells])
    centroid = x[cells].mean(axis=1)
    centroid /= np.linalg.norm(centroid, axis=1, keepdims=True)
    det_c = np.asarray(mesh.model.anisotropy_matrix(centroid))
    det_c = np.linalg.det(det_c)
    assert np.max(np.abs(ratio - det_c) / det_c) < 5e-3


def test_conormal_points_down(mesh_factory):
    for name, w0 in (("iso3", -0.5), ("ell3", 0.3)):
        mesh = mesh_factory(name, w0, 3)
        assert np.all(mesh.mu[:, -1] < 0)
        assert np.all(mesh.conormal_ok)


def test_region_membership_invariant(mesh_factory):
    mesh = mesh_factory("pert3", -0.35, 3)
    r = region_residual(mesh.model, mesh.omega0, mesh.nodes)
    assert np.all(r[mesh.interior_idx] > 0)
    assert np.max(np.abs(r[mesh.boundary_idx])) < 1e-10


def test_dump_table_format(mesh_factory):
    mesh = mesh_factory("iso3", 0.0, 2)
    table = mesh.dump_table()
    lines = table.strip().split("\n")
    assert lines[0].startswith("# node_index")
    assert len(lines) == mesh.node_count + 1
    fields = lines[1].split()
    assert fields[4] in ("interior", "boundary")


def test_mesh_and_body_state_has_a_reader():
    """Every attribute a CapMesh or CapillaryBody assigns on self is read
    somewhere in the package, the tests or the benchmark (which reads
    mesh.diagnostics): state nothing reads is waste on every build."""
    root = Path(__file__).resolve().parents[1]
    files = [p for d in ("src/capaf", "tests", "perfbench") for p in (root / d).rglob("*.py")]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    read = {n.attr for t in trees.values() for n in ast.walk(t)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    for module, cls in (("capgeom.py", "CapMesh"), ("bodies.py", "CapillaryBody")):
        tree = trees[root / "src/capaf" / module]
        body = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls)
        assigned = {n.attr for n in ast.walk(body)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"}
        assert len(assigned) > 10, cls
        assert assigned <= read, f"{cls} assigns unread {sorted(assigned - read)}"
