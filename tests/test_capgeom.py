from __future__ import annotations

import ast
import hashlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from capaf import capgeom
from capaf.capgeom import (CapConfig, _icosahedron, _snap_to_boundary, _subdivide,
                           _walk_boundary, admissible_range, build_cap_mesh, ef_vector,
                           icosphere, region_residual, spherical_triangle_areas)
from capaf.config import parse_config
from capaf.errors import InvalidConfigError, MeshConstructionError
from capaf.norms import EllipsoidNorm, IsotropicNorm, tangent_basis, unit_rows

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_icosphere_counts(monkeypatch):
    cached = {level: icosphere(level) for level in range(6)}
    for order in (range(6), range(5, -1, -1), (3, 0, 5, 1, 4, 2)):
        monkeypatch.setattr(capgeom, "_ICOSPHERES", {})
        for level in order:
            verts, faces = icosphere(level)
            assert len(faces) == 20 * 4**level
            assert len(verts) == 10 * 4**level + 2
            assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-14)
            again_verts, again_faces = icosphere(level)
            assert again_verts is verts and again_faces is faces
            assert verts.tobytes() == cached[level][0].tobytes()
            assert faces.tobytes() == cached[level][1].tobytes()
            with pytest.raises(ValueError):
                verts[0, 0] = 0.0
            with pytest.raises(ValueError):
                faces[0, 0] = 0


def _subdivide_reference(verts, faces):
    """Scalar reference for _subdivide: one dict lookup and one
    np.linalg.norm per edge midpoint, in face order."""
    verts = list(verts)
    midpoint = {}
    new_faces = []

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            m = verts[a] + verts[b]
            verts.append(m / np.linalg.norm(m))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    return np.asarray(verts), np.asarray(new_faces, dtype=np.int64)


def test_subdivide_matches_scalar_reference():
    verts, faces = _icosahedron()
    for level in range(5):
        got_verts, got_faces = _subdivide(verts, faces)
        verts, faces = _subdivide_reference(verts, faces)
        assert got_verts.dtype == verts.dtype and got_faces.dtype == faces.dtype
        assert got_verts.shape == verts.shape and got_faces.shape == faces.shape
        assert got_verts.tobytes() == verts.tobytes(), level
        assert got_faces.tobytes() == faces.tobytes(), level


# sha256 of icosphere(L) vertex and face bytes (float64, int64), recorded
# with the scalar subdivision on x86-64, numpy 2.4: every mesh, and so every
# report, starts from these arrays
ICOSPHERE_SHA256 = {
    0: ("25c2ce4291cc17ab13b6dc4303a96f09245fc2e636869cc7bd20cc1cae129df8",
        "3db7a1822c9b623934e2e4740412c5fbeb065c97b1d30344bad8fa21007c31dc"),
    1: ("06c7f0252260d8fc7aee150c52687730f6e6b5155419da81ee280e48c7b5a6a0",
        "e0cdbcb335bade58be14276c1a7faf8c7b2b9d10522ca0de92c2bd6db7443d1e"),
    2: ("7de701b5e82e6ee7720d5b5c3cbaba8ceec2aa1e2f7901e80eea82c2254f27c0",
        "b749ec47113ac6dd2fa5788272bee48303d83020354a7b3516876ae6685c404a"),
    3: ("e30eeaa5b2391204db18ad30d68443f2573f17187b99a8a2149acb61dc3f8d88",
        "52ba19c5cda73d335f2e29108333509a800acd29026ae2e6c65c32ec3dd5394b"),
    4: ("0ad2d3b64249546dacbf5ec693366050a9b2b396f11f7b1786beda06a3a1b218",
        "1d19353ebb1a280dd705a884e8db6ef144348417dd5324e62326249995dddb35"),
    5: ("530009fc2d21f6622caac7c547696baca4ab1eb07a25eab7ae06dc0c6f9c9503",
        "6bf33a7fc9429eef8639fd65852d853d10c4399075ba2e6a3789cf2ac7743fd9"),
    6: ("80e495ce10778f367a8d8c531a49599fc2c73803c42e5384ff9d3b23d1151bff",
        "f1fe5dd3aa14ecb18bf1a52f1ef643afff5b90f9688e1c603e127179164e67ae"),
}


@pytest.mark.parametrize("level", sorted(ICOSPHERE_SHA256))
def test_icosphere_pinned_bit_for_bit(level):
    verts, faces = icosphere(level)
    assert verts.dtype == np.float64 and faces.dtype == np.int64
    assert (hashlib.sha256(verts.tobytes()).hexdigest(),
            hashlib.sha256(faces.tobytes()).hexdigest()) == ICOSPHERE_SHA256[level]


# sha256 of the n = 1 arc mesh's node and weight bytes (float64) at levels
# L0-L7, recorded with the scalar root scan and bisection on x86-64, numpy 2.4
ARC_MESH_SHA256 = {
    ("iso2", 0.0): [
        "04e98f8da68f8c47872efda5e87c278d71cccdc89371f1c30a75cbced1d39bb7",
        "8874be0b3aedc11a8c0bef639db79902b2b758d47f92854530029c65e051e254",
        "b9741db73c5ad63cb5398859d11b5fa5f3ce37ccc90234c5621bcce59edda790",
        "b60369d5cf0a7e6f73049f552c5d7c712656550e319e009601867b58b5170c75",
        "00e612ef2e294db773083e74d96ad99704eef1dc6c086050bd164cdae63763d3",
        "a92ae22ed64168d42d1a97d28e73fa5a33e09a58aabe3b5441c4f5e406318fce",
        "50dc5e85ac836e1ea3c4948356cb87a8aca3eab69c323d8f300a0a80e898bed1",
        "54df0f338df7aacef417ce41ae5d47ec0a1f228cad43212d6275bcf3cf37a8d7",
    ],
    ("ell2", 0.3): [
        "eb33c508b8c90a641488d0e4028db5f884af1d5df72613dbfe3c005271b05523",
        "618664ace497402917f828df62cbd8ecbb1e12f4371f8e9dd9471565cfd1f9c1",
        "253bc71f2f97bf8fffd697b6d35b5956995eeecc64bdd64252ff62825dc6fc1d",
        "12864cd35c1419e6bc536277b896c0dcb0281a33865ab977af2660afb17e4323",
        "6aaec5322a658e4cab1bc7a60aca59623209fe4d97fceee598a62a2beb111491",
        "24d52fb08ae6b524dfc52b545ff672a4395d88031254901a00e38e46bed17c71",
        "48815b9a5960e930ea9262c446706b93788b4342f96134aff4d335a38f6a8fc9",
        "ebe7c2a033655229490093622052114f2f96a1769d6099c6bffc3f6d92fdf201",
    ],
    ("pert2", -0.2): [
        "e75c590d504fb85a99e8af3edbc5e09b2e7fa278a56cd3e8c220dd893a592529",
        "3738d236f25e32f1b95064fd4966e1aaf57f8baea247efe505e317f5c21a61f0",
        "f8302ab4a70b8b70b74fbb0fa92ee313c3bb3bc0b0b498c5a472d729d9f0bc89",
        "e4837876f064a70ff94fc2af5e3310e269566e97240ab6f6e4cf2aa877786712",
        "750bb2db68ae47321185c8d3f88aea90558e95f0958112681864d650fac781ee",
        "294ed420081185fa857f1f6b25a998025b5c9905732abebc9a9206de3593ceff",
        "2288dc5d85a801021944ab305dfae4d40d9f41104ae8da4d2461af1c96571db1",
        "1d78939301bbdc7e9467bbe998b9760ceb7b5e9eedd5e66f754e0f99d3dd197d",
    ],
}


@pytest.mark.parametrize("name,w0", sorted(ARC_MESH_SHA256))
def test_arc_mesh_pinned_bit_for_bit(mesh_factory, name, w0):
    got = []
    for level in range(8):
        mesh = mesh_factory(name, w0, level)
        got.append(hashlib.sha256(mesh.nodes.tobytes() + mesh.weights.tobytes()).hexdigest())
    assert got == ARC_MESH_SHA256[(name, w0)]


# the geometry a boundary walk's messages name
WALK_CONFIG = CapConfig(IsotropicNorm(3), 0.0, 2)


def _fan(clockwise):
    """Six rim nodes 1..6 around an interior hub 0, with cells (0, i, i+1)."""
    theta = np.arange(6) * np.pi / 3.0 * (-1.0 if clockwise else 1.0)
    rim = np.stack([np.cos(theta), np.sin(theta), np.zeros(6)], axis=1)
    nodes = np.vstack([[0.0, 0.0, 1.0], rim])
    cells = np.array([[0, i, i % 6 + 1] for i in range(1, 7)], dtype=np.int64)
    return cells, np.arange(7) > 0, nodes


def test_walk_boundary_fan():
    # the walk starts at the lowest boundary node and leaves along its first
    # boundary edge; a clockwise walk is reversed, so it then ends there
    assert _walk_boundary(*_fan(clockwise=False), WALK_CONFIG).tolist() == [1, 2, 3, 4, 5, 6]
    assert _walk_boundary(*_fan(clockwise=True), WALK_CONFIG).tolist() == [6, 5, 4, 3, 2, 1]


@pytest.mark.parametrize("cells,is_boundary,message", [
    ([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], [True] * 4, "no boundary edges found"),
    ([[0, 1, 2], [3, 4, 5]], [True] * 6, "did not close into a single loop"),
    ([[0, 1, 2], [0, 3, 4]], [True] * 5, r"^the region's boundary pinches at a mesh vertex "
     r"at mesh level 2 \(omega0 = 0\); a finer mesh level helps$"),
    ([[0, 1, 2]], [True, True, False], "boundary edge with interior endpoint"),
], ids=["closed", "two-triangles", "bow-tie", "interior-endpoint"])
def test_walk_boundary_rejects_a_broken_boundary(cells, is_boundary, message):
    nodes = np.zeros((len(is_boundary), 3))
    with pytest.raises(MeshConstructionError, match=message):
        _walk_boundary(np.array(cells, dtype=np.int64), np.array(is_boundary), nodes,
                       WALK_CONFIG)


def test_blocked_q_frame_is_the_whole_batch_contraction(mesh_factory):
    # made in 512-row blocks, q_frame is the whole batch's pairwise
    # contraction bit for bit, and within 1e-15 max|Q| of contracting the
    # ambient Q into the frame by one four-operand einsum
    mesh = mesh_factory("pert3", -0.35, 4)
    assert mesh.node_count > 512
    frame = mesh.frame
    assert np.array_equal(mesh.q_frame, mesh.model.q_on_wulff(mesh.nodes, frame))
    q = mesh.model.q_on_wulff(mesh.nodes)
    four = np.einsum("bijk,bpi,bqj,brk->bpqr", q, frame, frame, frame)
    assert np.max(np.abs(mesh.q_frame - four)) <= 1e-15 * np.max(np.abs(q))


def test_q_frame_peak_memory(traced_peak):
    # Q is made in row blocks: the whole-batch order-3 jets of the perturbed
    # config's L4 mesh took about 1.9 MB of transient arrays
    mesh = build_cap_mesh(parse_config(str(CONFIGS / "perturbed.ini")).cap_config())
    assert traced_peak(lambda: mesh.q_frame) <= 1.4e6


@pytest.mark.parametrize("name", ["isotropic_hemisphere.ini", "ellipsoid.ini",
                                  "halfdisk_n1.ini"])
def test_mesh_levels_0_to_7(name):
    cfg = parse_config(str(CONFIGS / name))
    meshes = [build_cap_mesh(cfg.cap_config(level)) for level in range(8)]
    # the nominal spacing is the exact power of two the level names
    assert [m.spacing for m in meshes] == [0.5**level for level in range(8)]
    counts = [m.node_count for m in meshes]
    assert all(a < b for a, b in zip(counts, counts[1:])), counts
    sigma = np.array([m.sigma_total for m in meshes])
    # isotropic at omega0 = 0: the upper hemisphere, or the upper half circle
    exact = {"isotropic_hemisphere.ini": 2.0 * np.pi, "halfdisk_n1.ini": np.pi}
    if name in exact:
        assert np.max(np.abs(sigma - exact[name])) <= 1e-12
    else:
        steps = np.abs(np.diff(sigma))
        assert np.all(steps[1:] < steps[:-1]), steps


def test_spherical_triangle_octant():
    a = np.array([[1.0, 0, 0]])
    b = np.array([[0, 1.0, 0]])
    c = np.array([[0, 0, 1.0]])
    assert spherical_triangle_areas(a, b, c)[0] == pytest.approx(np.pi / 2)


def test_ef_vector_zero_omega(model_factory):
    for name in ("iso3", "ell3"):
        ef = ef_vector(CapConfig(model_factory(name), 0.0, 0))
        assert np.allclose(ef, [0, 0, 1])


def test_ef_vector_isotropic_any_omega(model_factory):
    for w0 in (-0.6, 0.4):
        assert np.allclose(ef_vector(CapConfig(model_factory("iso3"), w0, 0)), [0, 0, 1],
                           atol=1e-15)


def test_ef_vector_ellipsoid_pairing():
    # M E3 = (0.3, 0, 1) with F(E3) = 1: EF = (0.3, 0, 1) for negative omega0
    model = EllipsoidNorm(np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.0], [0.3, 0.0, 1.0]]))
    ef = ef_vector(CapConfig(model, -0.3, 0))
    assert np.allclose(ef, [0.3, 0.0, 1.0], atol=1e-12)
    assert ef[-1] == pytest.approx(1.0, abs=1e-12)
    ef_pos = ef_vector(CapConfig(model, 0.3, 0))
    assert ef_pos[-1] == pytest.approx(1.0, abs=1e-12)


def test_region_residual_values(model_factory):
    iso = model_factory("iso3")
    assert region_residual(iso, 0.0, np.array([[0.0, 0.0, 1.0]]))[0] == pytest.approx(1.0)
    theta = np.pi / 3
    x = np.array([[np.sin(theta), 0.0, np.cos(theta)]])
    assert region_residual(iso, -np.cos(theta), x)[0] == pytest.approx(0.0, abs=1e-15)


def test_config_rejects_bad_values(model_factory):
    with pytest.raises(InvalidConfigError, match=r"^geometry\.n: 3 unsupported \(meshing "
                       r"restricted to n in \{1, 2\}\)$"):
        CapConfig(IsotropicNorm(4), 0.0, 3)
    with pytest.raises(InvalidConfigError, match=r"^geometry\.omega0: -1\.0 outside the "
                       r"admissible open interval \(-1, 1\)$"):
        CapConfig(model_factory("iso3"), -1.0, 3)  # omega0 = -F(E3)
    with pytest.raises(InvalidConfigError, match=r"^mesh\.level: 8 out of range \[0, 7\]$"):
        CapConfig(model_factory("iso3"), 0.0, 8)


ELLIPSOID_MATRIX = np.array([[1.0, 0.0, 0.2], [0.0, 1.2, 0.0], [0.2, 0.0, 0.9]])


def _geometry_cases():
    lo, hi = admissible_range(EllipsoidNorm(ELLIPSOID_MATRIX))
    cases = {"n3": (3, 0.0, 3)}
    cases.update({f"omega0-{k}": (2, w0, 3) for k, w0 in
                  (("lo", lo), ("hi", hi), ("below", lo - 0.5), ("above", hi + 0.5))})
    cases.update({f"level{level}": (2, -0.4, level) for level in (-1, 8)})
    return cases


@pytest.mark.parametrize("case", sorted(_geometry_cases()))
def test_config_file_and_cap_config_give_one_geometry_message(tmp_path, case):
    """parse_config and CapConfig report an inadmissible n, w0 or mesh level
    with the same message, since CapConfig alone words them."""
    n, omega0, level = _geometry_cases()[case]
    if n == 3:
        norm, norm_lines = IsotropicNorm(4), ["family = isotropic"]
    else:
        norm = EllipsoidNorm(ELLIPSOID_MATRIX)
        norm_lines = ["family = ellipsoid",
                      "matrix = " + " ".join(map(repr, ELLIPSOID_MATRIX.ravel().tolist()))]
    path = tmp_path / "geometry.ini"
    path.write_text("\n".join(["[geometry]", f"n = {n}", f"omega0 = {omega0!r}", "[norm]",
                               *norm_lines, "[mesh]", f"level = {level}", ""]),
                    encoding="utf-8")
    with pytest.raises(InvalidConfigError) as parsed:
        parse_config(str(path))
    with pytest.raises(InvalidConfigError) as direct:
        CapConfig(norm, omega0, level)
    assert len(direct.value.errors) == 1
    assert parsed.value.errors == direct.value.errors


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
    mesh = mesh_factory("iso2", 0.0, 3)
    assert mesh.sigma_total == pytest.approx(np.pi, rel=1e-14)
    assert list(mesh.boundary_loop) == [0, mesh.node_count - 1]


def test_sigma_self_convergence_anisotropic(mesh_factory):
    # no closed form: Richardson self-convergence
    vals = [mesh_factory("ell3", -0.4, L).sigma_total for L in (2, 3, 4)]
    d1, d2 = abs(vals[0] - vals[2]), abs(vals[1] - vals[2])
    assert d1 / max(d2, 1e-16) > 3.0


def test_cap_points(mesh_factory):
    mesh = mesh_factory("ell3", -0.4, 3)
    bd = mesh.boundary_loop
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
    assert np.max(np.abs(normal)) < 1e-10


def test_frame_determinism(model_factory):
    cfg = CapConfig(model_factory("ell3"), -0.4, 2)
    m1 = build_cap_mesh(cfg)
    m2 = build_cap_mesh(CapConfig(model_factory("ell3"), -0.4, 2))
    assert np.array_equal(m1.frame, m2.frame)
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.nodes, m2.nodes)


def _snap_one(model, omega0, v_out, v_in):
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
    assert abs(res(t)) <= 100.0 * capgeom.BOUNDARY_RESIDUAL
    return unit_rows(gamma(t)[None, :])[0]


def test_snap_batch_matches_one_vertex_reference(model_factory):
    model = model_factory("ell3")
    verts, faces = icosphere(3)
    r = region_residual(model, -0.4, verts)
    edges = faces[:, [0, 1]]
    edges = edges[(r[edges[:, 0]] < 0) & (r[edges[:, 1]] > 0)]
    v_out, v_in = verts[edges[:, 0]], verts[edges[:, 1]]
    batch = _snap_to_boundary(model, -0.4, v_out, v_in)
    ref = [_snap_one(model, -0.4, a, b) for a, b in zip(v_out, v_in)]
    assert len(batch) > 0 and np.array_equal(batch, np.array(ref))


@pytest.mark.parametrize("name,omega0", [("ell3", -0.4), ("pert3", -0.35), ("iso3", 0.3)])
def test_boundary_residual_after_snap(mesh_factory, name, omega0):
    # 48 bisection steps leave a residual of a few rounding units (at most
    # 6.7e-16 measured at L2-L6), far inside the snap's guard
    mesh = mesh_factory(name, omega0, 3)
    r = region_residual(mesh.model, mesh.omega0, mesh.nodes[mesh.boundary_loop])
    assert np.max(np.abs(r)) < 1e-14


def test_pullback_density_values(mesh_factory):
    m = mesh_factory("iso3", 0.0, 2)
    assert np.max(np.abs(m.detA - 1.0)) < 1e-12
    # ellipsoid diag(1,1,4) at E3: det of diag(0.5, 0.5)
    model = EllipsoidNorm(np.diag([1.0, 1.0, 4.0]))
    mesh = build_cap_mesh(CapConfig(model, 0.0, 2))
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
    tb = tangent_basis(centroid)
    det_c = np.linalg.det(np.einsum("bki,bij,blj->bkl", tb, mesh.model.hess(centroid), tb))
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
    assert np.max(np.abs(r[mesh.boundary_loop])) < 1e-10


def test_dump_table_format(mesh_factory):
    mesh = mesh_factory("iso3", 0.0, 2)
    table = mesh.dump_table()
    lines = table.strip().split("\n")
    assert lines[0].startswith("# node_index")
    assert len(lines) == mesh.node_count + 1
    fields = lines[1].split()
    assert fields[4] in ("interior", "boundary")


# State a body keeps though only the tests read it: the stored
# fault-detection diagnostic of the radii matrices' asymmetry
TEST_ONLY_STATE = {"CapillaryBody.tau_asym"}


def test_mesh_and_body_state_has_a_reader():
    """Every attribute a CapMesh or CapillaryBody assigns on self is read by
    a run: by the package or the benchmark harness (which reads
    mesh.diagnostics), not counting its self-tests.  State nothing runs
    reads is waste on every build; only TEST_ONLY_STATE, read by the tests,
    is kept on purpose."""
    root = Path(__file__).resolve().parents[1]

    def reads(paths):
        return {n.attr for p in paths for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}

    run_read = reads([*(root / "src/capaf").rglob("*.py"), *(root / "perfbench").glob("*.py")])
    test_read = reads((root / "tests").rglob("*.py"))
    unread = set()
    for module, cls in (("capgeom.py", "CapMesh"), ("bodies.py", "CapillaryBody")):
        tree = ast.parse((root / "src/capaf" / module).read_text(encoding="utf-8"))
        body = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls)
        assigned = {n.attr for n in ast.walk(body)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"}
        assert len(assigned) > 10, cls
        unread |= {f"{cls}.{name}" for name in assigned - run_read}
    assert unread == TEST_ONLY_STATE, f"state no run reads: {sorted(unread)}"
    assert {name.split(".")[1] for name in TEST_ONLY_STATE} <= test_read


# Every call capaf makes into LAPACK (np.linalg, less norm, a plain
# reduction), by module, enclosing definition and routine: the independent
# oracles (the mixed discriminant's subset route and transform check, the
# mixdisc suite's diagonal determinant, tau_eigs_secondary's W A_F^-1 and
# the polyfit and Steiner fits) and what a run solves once, on a mesh or a
# norm (the parameter velocities, the ellipsoid's M^-1 and its check).  A
# per-point path takes its small stacks in closed form (norms.sym_eig_det,
# norms.spd_inverse): batched LAPACK on 2x2 and 3x3 stacks costs more in
# set-up than in arithmetic.
LAPACK_SITES = {
    ("bodies", "_eig_pair", "solve"),
    ("capgeom", "parameter_velocities", "solve"),
    ("cli", "_run_mixdisc", "det"),
    ("functionals", "_mv_polyfit", "lstsq"),
    ("functionals", "steiner_check", "lstsq"),
    ("mixdisc", "_subset_route", "det"),
    ("mixdisc", "md_transform_check", "det"),
    ("norms", "EllipsoidNorm.__init__", "eigvalsh"),
    ("norms", "EllipsoidNorm.__init__", "inv"),
}


def _lapack_sites(tree, module):
    """(module, enclosing qualified name, routine) of every np.linalg or
    numpy.linalg attribute read in `tree` but norm; an import of
    numpy.linalg or its names shows as the routine '<import>'."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Attribute)
                  and child.value.attr == "linalg" and isinstance(child.value.value, ast.Name)
                  and child.value.value.id in ("np", "numpy") and child.attr != "norm"):
                sites.add((module, scope, child.attr))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                names = [getattr(child, "module", None) or ""] + [a.name for a in child.names]
                if any("linalg" in name for name in names):
                    sites.add((module, scope, "<import>"))
            visit(child, inner)

    visit(tree, "")
    return sites


def test_lapack_is_called_only_at_its_listed_sites():
    """LAPACK_SITES is exact: a new np.linalg call (inv, solve, det, eig...)
    anywhere in the package, say on a per-point path, fails here, and so
    does a listed site that no longer calls it."""
    root = Path(__file__).resolve().parents[1] / "src/capaf"
    sites = set()
    for path in sorted(root.glob("*.py")):
        sites |= _lapack_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sites == LAPACK_SITES, (f"unlisted: {sorted(sites - LAPACK_SITES)}; "
                                   f"gone: {sorted(LAPACK_SITES - sites)}")


def _powers_of_a_level(tree) -> list:
    """Lines of the `**` expressions whose exponent reads a name or an
    attribute containing `level`."""
    def reads_level(node):
        return any(isinstance(sub, ast.Name) and "level" in sub.id
                   or isinstance(sub, ast.Attribute) and "level" in sub.attr
                   for sub in ast.walk(node))

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and reads_level(node.right)]


def test_only_the_mesh_builders_raise_a_power_to_the_mesh_level():
    """A mesh's resolution has one owner: the builders in capgeom turn the
    level into CapMesh.spacing, and every other module reads the spacing, so
    a step or a scale written as a power of the level fails here."""
    root = Path(__file__).resolve().parents[1] / "src/capaf"
    found = [f"{path.name}:{line}" for path in sorted(root.glob("*.py"))
             if path.stem != "capgeom"
             for line in _powers_of_a_level(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


# capaf's modules in layer order, bottom up, and the imports that reach a
# layer above: the norm's validation sample and the mesh's unit cap body
LAYER_ORDER = ("errors", "norms", "fd", "capgeom", "fields", "bodies", "mixdisc",
               "functionals", "config", "report", "cli")
UPWARD_IMPORTS = {("norms", "capgeom"), ("capgeom", "bodies")}


def test_no_module_imports_a_layer_above_it_but_the_named_two():
    """Relative imports anywhere in a module, function-level ones included."""
    root = Path(__file__).resolve().parents[1] / "src/capaf"
    assert {p.stem for p in root.glob("*.py")} == {"__init__", *LAYER_ORDER}
    rank = {name: k for k, name in enumerate(LAYER_ORDER)}
    upward = set()
    for name in LAYER_ORDER:
        tree = ast.parse((root / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward |= {(name, t) for t in targets if rank[t] > rank[name]}
    assert upward == UPWARD_IMPORTS


def _third_party_imports(paths, local) -> set:
    """Top-level names of every absolute import in `paths`, function-level
    ones included, less the standard library and the names in `local`."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - set(local)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_third_party_imports_are_the_declared_dependencies():
    """The package imports exactly its [project] dependencies, function-level
    imports included, and the tests nothing outside them and the test extra."""
    import tomllib

    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return {re.match(r"[\w.-]+", r).group(0).lower().replace("-", "_") for r in requirements}

    runtime = names(project["dependencies"])
    assert _third_party_imports((root / "src/capaf").glob("*.py"), {"capaf"}) == runtime
    tests = sorted((root / "tests").glob("*.py"))
    allowed = runtime | names(project["optional-dependencies"]["test"])
    assert _third_party_imports(tests, {"capaf", "tests", *(p.stem for p in tests)}) <= allowed


# The one import a module reads none of: bodies.py imports capgeom's
# icosphere_vertices by value for the benchmark harness's self-test
UNREAD_IMPORTS = {"bodies.icosphere_vertices"}


def test_every_imported_name_is_read_in_its_module():
    """Every name a capaf module imports, at module level or in a function,
    is read in that module; the re-exports of __init__.py are exempt, and
    UNREAD_IMPORTS is exact."""
    root = Path(__file__).resolve().parents[1] / "src/capaf"
    unread = set()
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(a.asname or a.name).split(".")[0] for n in ast.walk(tree)
                    if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", None)
                    != "__future__" for a in n.names}
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread |= {f"{path.stem}.{name}" for name in imported - loaded}
    assert unread == UNREAD_IMPORTS, f"imported, never read: {sorted(unread - UNREAD_IMPORTS)}"


# Public, and read by no capaf run: independent routes that the tests compare
# capaf against, and what only they read
REFERENCE_ROUTES = {
    "bodies.CapillaryBody.capillary_support_metric_form",
    "bodies.CapillaryBody.tau_eigs_secondary",
    "bodies.CapillaryBody.reconstruction_residual",
    "fd.central_gradient",
    "fd.central_hessian",
    "functionals.flat_face_measure",
    "functionals.integrand_identity_defect",
    "functionals.polytope_mixed_volume",
    "functionals.quermassintegral_boundary_route",
    "functionals.quermassintegral_mixed_route",
}


def _loads(nodes):
    """Names loaded as a variable or an attribute anywhere in `nodes`."""
    return {getattr(n, "id", None) or getattr(n, "attr", None)
            for node in nodes for n in ast.walk(node)
            if isinstance(getattr(n, "ctx", None), ast.Load)}


def _live_names(package, harness):
    """Names read by live code, to a fixpoint.

    Live code starts as the package's module-level code (class bodies
    outside their methods included), its dunder methods and the whole
    harness; then the body of every definition whose name is read joins,
    until no name is added.  So a function that only dead code reads stays
    unread.
    """
    defs, roots = [], list(harness)
    for tree in package:
        for node in tree.body:
            members = [node]
            if isinstance(node, ast.ClassDef):
                roots += node.decorator_list + node.bases
                members = node.body
            for member in members:
                is_def = isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__"))
                (defs if is_def else roots).append(member)
    read = _loads(roots)
    while True:
        live = [d for d in defs if d.name in read]
        if not live:
            return read
        defs = [d for d in defs if d.name not in read]
        read |= _loads(live)


def _package_and_harness():
    """Parsed modules of the package (without __init__.py) and of the
    benchmark harness (without its self-tests)."""
    root = Path(__file__).resolve().parents[1]
    package = [p for p in sorted((root / "src/capaf").glob("*.py")) if p.name != "__init__.py"]
    harness = [p for p in sorted((root / "perfbench").rglob("*.py"))
               if "tests" not in p.relative_to(root).parts]
    return ({p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in package},
            [ast.parse(p.read_text(encoding="utf-8")) for p in harness])


def _public_functions(package):
    """(qualified name, definition, is a method) of every public module-level
    function and public method of a class."""
    out = []
    for stem, tree in package.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                members = [(node.name, node, False)]
            elif isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.{m.name}", m, True) for m in node.body
                           if isinstance(m, ast.FunctionDef)]
            else:
                continue
            out += [(f"{stem}.{qual}", d, method) for qual, d, method in members
                    if not d.name.startswith("_")]
    return out


def test_every_public_function_has_a_reader():
    """Every public module-level function and every public method of a capaf
    class is read by live code: the package's module-level code, its dunder
    methods, the benchmark harness, and the definitions they read, followed
    to a fixpoint (the re-exports of __init__.py do not count).  The
    reference routes, and what only they read, are read only by the tests;
    the list of them is exact."""
    package, harness = _package_and_harness()
    read = _live_names(list(package.values()), harness)
    public = {qual: d.name for qual, d, _ in _public_functions(package)}
    assert len(public) > 100
    unread = {qual for qual, name in public.items() if name not in read}
    assert unread == REFERENCE_ROUTES, (f"no reader: {sorted(unread - REFERENCE_ROUTES)}; "
                                        f"read now: {sorted(REFERENCE_ROUTES - unread)}")


# Defaulted parameters no package or harness call sets: the benchmark's
# self-test forces backtracking through the amplitude, and the rest belong
# to reference routes
TEST_ONLY_PARAMETERS = {
    "bodies.random_capillary_body(amplitude)",
    "fd.central_gradient(richardson)",
    "fd.central_hessian(richardson)",
}


def _callee(call):
    """The name a call reads its function by: f(...) or obj.f(...)."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _sets(call, position, name) -> bool:
    """Whether a call may set the parameter `name` at `position` (None for
    keyword-only): by keyword, by position, or through a * or ** splat."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return position is not None and k <= position
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_set_by_a_run():
    """Every parameter with a default, of a public function or method, is
    set by some call in the package or the benchmark harness (not counting
    its self-tests) to a function of that name; an option only the tests set
    is a knob no run reads.  The exemptions are exact."""
    package, harness = _package_and_harness()
    calls = [n for tree in [*package.values(), *harness] for n in ast.walk(tree)
             if isinstance(n, ast.Call)]
    unset = set()
    for qual, fdef, method in _public_functions(package):
        bound = method and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in fdef.decorator_list)
        positional = fdef.args.posonlyargs + fdef.args.args
        params = [(arg.arg, k - bound)
                  for k, arg in enumerate(positional)
                  if k >= len(positional) - len(fdef.args.defaults)]
        params += [(arg.arg, None) for arg, default
                   in zip(fdef.args.kwonlyargs, fdef.args.kw_defaults) if default is not None]
        unset |= {f"{qual}({name})" for name, position in params
                  if not any(_callee(c) == fdef.name and _sets(c, position, name)
                             for c in calls)}
    assert unset == TEST_ONLY_PARAMETERS, (
        f"set by no run: {sorted(unset - TEST_ONLY_PARAMETERS)}; "
        f"set now: {sorted(TEST_ONLY_PARAMETERS - unset)}")
