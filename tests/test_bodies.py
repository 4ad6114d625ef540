from __future__ import annotations

import numpy as np
import pytest

import capaf.functionals as fn
from capaf.bodies import (CapillaryBody, make_wulff_cap, minkowski_combine,
                          random_capillary_body, rebind, translate_horizontal)
from capaf.capgeom import CapConfig, build_cap_mesh
from capaf.errors import (ConvexityViolationError, GenerationError,
                          InvalidInputError)
from capaf.fields import (CombinationField, LinearField, SphericalBumpField,
                          WulffCapField, intrinsic_tau, kernel_evaluator,
                          kernel_field, tau_from_generator)
from capaf.norms import PerturbedNorm

CASES = [("iso3", 0.0), ("ell3", -0.4), ("pert3", -0.35)]


def _tol(name, analytic, fallback):
    return analytic if name != "pert3" else fallback


# -- support fields -------------------------------------------------------------


def _support_fields(model):
    ef = np.array([0.0, 0.0, 1.0])
    cap = WulffCapField(model, -0.3, 1.2, ef, ef)
    lin = LinearField(np.array([0.1, -0.2, 0.3]))
    bump = SphericalBumpField(np.array([0.1, 0.0, 1.0]), 0.9, 0.05)
    return {"wulff": cap, "linear": lin, "bump": bump,
            "combination": CombinationField([cap, bump, lin], [1.0, 0.5, -2.0])}


@pytest.mark.parametrize("kind", ["wulff", "linear", "bump", "combination"])
@pytest.mark.parametrize("name", ["ell3", "pert3"])
def test_support_field_single_point_matches_batch_row(model_factory, name, kind):
    field = _support_fields(model_factory(name))[kind]
    pts = np.array([[0.05, 0.1, 0.99], [0.3, -0.2, 0.9], [-0.5, 0.4, 0.7]])
    d = pts.shape[1]
    for method, shape in (("value", ()), ("grad", (d,)), ("hess", (d, d))):
        one = np.asarray(getattr(field, method)(pts[0]))
        batch = np.asarray(getattr(field, method)(pts))
        assert one.shape == shape, method
        assert batch.shape == (len(pts),) + shape, method
        assert np.array_equal(one, batch[0]), method


# -- Wulff caps ---------------------------------------------------------------


def test_hemisphere_cap_support(mesh_factory):
    mesh = mesh_factory("iso3", 0.0, 3)
    cap = make_wulff_cap(mesh, 1.0)
    assert np.max(np.abs(cap.s - 1.0)) < 1e-14
    assert np.max(np.abs(cap.shat - 1.0)) < 1e-14


def test_wulff_scaling_volume(mesh_factory):
    from capaf.functionals import volume

    mesh = mesh_factory("ell3", -0.4, 3)
    v1 = volume(make_wulff_cap(mesh, 1.0))
    v2 = volume(make_wulff_cap(mesh, 2.0))
    assert v2 == pytest.approx(2**3 * v1, rel=1e-12)


def test_wulff_rejects_bad_direction(mesh_factory):
    mesh = mesh_factory("ell3", -0.4, 2)
    with pytest.raises(InvalidInputError):
        make_wulff_cap(mesh, 1.0, e_vec=np.array([0.0, 0.0, 1.5]))
    with pytest.raises(InvalidInputError):
        make_wulff_cap(mesh, -1.0)


@pytest.mark.parametrize("name,w0", CASES)
def test_wulff_support_brute_force_oracle(mesh_factory, name, w0):
    # max over sampled boundary points of the Wulff-cap level set
    mesh = mesh_factory(name, w0, 2)
    r0 = 1.3
    cap = make_wulff_cap(mesh, r0)
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(10000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    level_set = r0 * mesh.omega0 * mesh.EF[None, :] + r0 * np.asarray(
        mesh.model.cahn_hoffman(dirs))
    idx = mesh.interior_idx[:40]
    for i in idx:
        x = mesh.nodes[i]
        coarse_best = np.argmax(level_set @ x)
        # polish: the maximizer over the level set is Psi(y) with y near x
        y = dirs[coarse_best]
        for _ in range(40):
            g = np.asarray(mesh.model.hess(y)) @ (x - (x @ y) * y)
            step = g - (g @ y) * y
            if np.linalg.norm(step) < 1e-14:
                break
            y = y + 0.5 * step
            y /= np.linalg.norm(y)
        z = r0 * mesh.omega0 * mesh.EF + r0 * np.asarray(mesh.model.cahn_hoffman(y))
        oracle = float(z @ x)
        assert cap.s[i] == pytest.approx(oracle, abs=2e-6 * r0)


@pytest.mark.parametrize("name,w0", CASES)
def test_wulff_tau_identity(mesh_factory, name, w0):
    mesh = mesh_factory(name, w0, 3)
    for r0 in (1.0, 2.0):
        cap = make_wulff_cap(mesh, r0)
        assert np.max(np.abs(cap.tau - r0 * np.eye(2))) < 1e-6 * max(1.0, r0)
        kappa, h = cap.anisotropic_curvatures(0)
        assert np.allclose(kappa, 1.0 / r0, atol=1e-6)
        assert h[0] == 1.0 and h[-1] == 0.0
        for k in range(1, mesh.n + 1):
            assert h[k] == pytest.approx(r0 ** (-k), rel=1e-6)


# -- random bodies ------------------------------------------------------------


@pytest.mark.parametrize("name,w0", CASES)
def test_random_body_invariants(body_factory, name, w0):
    body = body_factory(name, w0, 3, seed=11)
    assert body.convex and body.capillary
    assert body.min_w_eig > 0 and body.min_tau_eig > 0
    assert float(np.min(body.shat)) > 0.05
    res, euclid, ok = body.robin_residuals()
    tol = _tol(name, 1e-8, 1e-6)
    assert np.max(np.abs(res[ok])) < tol * np.max(np.abs(body.s))
    assert np.max(np.abs(euclid)) < 1e-9


def test_random_body_determinism(mesh_factory):
    mesh = mesh_factory("ell3", -0.4, 3)
    b1 = random_capillary_body(mesh, 7)
    b2 = random_capillary_body(mesh, 7)
    assert np.array_equal(b1.s, b2.s)
    assert np.array_equal(b1.tau, b2.tau)
    assert np.array_equal(b1.X, b2.X)


def test_random_body_amplitude_zero_is_cap(mesh_factory):
    mesh = mesh_factory("ell3", -0.4, 2)
    body = random_capillary_body(mesh, 5, amplitude=0.0)
    cap = make_wulff_cap(mesh, 1.0)
    assert np.max(np.abs(body.s - cap.s)) < 1e-14


def test_generation_error_reported(mesh_factory):
    mesh = mesh_factory("iso3", 0.0, 2)
    with pytest.raises(GenerationError):
        random_capillary_body(mesh, 3, amplitude=1e9)


@pytest.mark.parametrize("w0", (-0.98, 0.98))
def test_random_body_near_interval_ends(mesh_factory, w0):
    # the unit cap's own min shat is 0.020 at w0 = -0.98 and 0.040 at 0.98,
    # so the generator's support floor scales with it
    mesh = mesh_factory("iso3", w0, 4)
    floor = 0.05 * float(np.min(mesh.cap_body.shat))
    for seed in (1, 2, 3):
        body = random_capillary_body(mesh, seed)
        assert body.convex and body.capillary
        assert float(np.min(body.shat)) > floor


# -- support values -----------------------------------------------------------


@pytest.mark.parametrize("name,w0", CASES)
def test_capillary_support_two_routes(body_factory, name, w0):
    body = body_factory(name, w0, 3, seed=4)
    dev = np.abs(body.shat - body.capillary_support_metric_form())
    assert np.max(dev) < _tol(name, 1e-8, 1e-5)


def test_cap_support_value(mesh_factory):
    # s_hat of the cap body is 1 + w0 G(T^-1 xi)(EF, T^-1 xi)
    mesh = mesh_factory("ell3", -0.4, 3)
    cap = mesh.cap_body
    g_term = np.einsum("bij,i,bj->b", mesh.G, mesh.EF, mesh.psi)
    assert np.max(np.abs(cap.shat - (1.0 + mesh.omega0 * g_term))) < 1e-10


def test_ubar_read_only_view(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=4)
    vals = body.u_bar()
    assert vals.shape == body.shat.shape
    assert np.all(np.isfinite(vals))


# -- robin condition ----------------------------------------------------------


def test_robin_detects_vertical_shift(mesh_factory):
    mesh = mesh_factory("ell3", -0.4, 3)
    cap = make_wulff_cap(mesh, 1.0)
    bad_field = CombinationField([cap.field, LinearField(np.array([0, 0, 0.05]))],
                                 [1.0, 1.0])
    bad = CapillaryBody(mesh, bad_field, {"kind": "custom"}, validate=False)
    res, euclid, ok = bad.robin_residuals()
    assert np.min(np.abs(res[ok])) > 1e-3
    assert np.min(np.abs(euclid)) > 1e-3


def test_robin_horizontal_invariance(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=4)
    moved = translate_horizontal(body, np.array([0.07, -0.04, 0.0]))
    r0, _, ok = body.robin_residuals()
    r1, _, _ = moved.robin_residuals()
    assert np.max(np.abs(r1[ok])) < 1e-8
    assert np.max(np.abs(r1 - r0)) < 1e-8


def test_robin_single_node_api(mesh_factory):
    mesh = mesh_factory("iso3", -0.5, 2)
    cap = make_wulff_cap(mesh, 1.0)
    i = int(mesh.boundary_loop[0])
    res, euclid, ok = cap.robin_residual(i)
    assert ok and abs(res) < 1e-10 and abs(euclid) < 1e-12
    with pytest.raises(InvalidInputError):
        cap.robin_residual(int(mesh.interior_idx[0]))


# -- radii matrices -----------------------------------------------------------


@pytest.mark.parametrize("name,w0", CASES)
def test_tau_two_routes(body_factory, name, w0):
    body = body_factory(name, w0, 3, seed=6)
    e1 = np.sort(body.tau_eigs, axis=1)
    e2 = np.sort(body.tau_eigs_secondary(), axis=1)
    assert np.max(np.abs(e1 - e2)) < 1e-5


def test_tau_symmetrization_diagnostic(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=6)
    assert np.max(body.tau_asym) < 1e-6
    assert np.allclose(body.tau, np.swapaxes(body.tau, 1, 2))


def test_newton_maclaurin(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=8)
    h1, h2 = body.H[:, 1], body.H[:, 2]
    assert np.all(h1 * h1 >= h2 - 1e-12)


def test_curvature_error_on_nonconvex(mesh_factory):
    mesh = mesh_factory("iso3", 0.0, 2)
    saddle = CombinationField(
        [WulffCapField(mesh.model, 0.0, 1.0, mesh.EF, mesh.EF),
         SphericalBumpField(np.array([0.0, 0.0, 1.0]), 0.9, -2.0)], [1.0, 1.0])
    body = CapillaryBody(mesh, saddle, {"kind": "custom"}, validate=False)
    assert not body.convex
    bad = int(np.argmin(body.tau_eigs[:, 0]))
    with pytest.raises(ConvexityViolationError):
        body.anisotropic_curvatures(bad)


# -- kernel fields ------------------------------------------------------------


@pytest.mark.parametrize("name,w0", [("iso3", -0.5), ("ell3", -0.4)])
def test_kernel_tau_generator_route(mesh_factory, name, w0):
    mesh = mesh_factory(name, w0, 3)
    for alpha in range(2):
        tau, _ = tau_from_generator(mesh, kernel_field(mesh, alpha))
        assert np.max(np.abs(tau)) < 1e-12


def test_kernel_tau_intrinsic_route(mesh_factory):
    mesh = mesh_factory("ell3", -0.4, 3)
    ev = kernel_evaluator(mesh)
    idx = mesh.interior_idx[:50]
    tau, _ = intrinsic_tau(mesh, ev, idx, step=0.02)
    assert np.max(np.abs(tau[:, 0])) < 5e-4


def test_kernel_pass_matches_per_field_route(mesh_factory):
    # one pass over every kernel field gives, bit for bit, what one pass per
    # field gives with the metric evaluated afresh at every stencil point
    mesh = mesh_factory("ell3", -0.4, 3)
    idx = mesh.interior_idx[:80]
    tau, grad = intrinsic_tau(mesh, kernel_evaluator(mesh), idx, step=0.05)
    assert tau.shape == (len(idx), 2, 2, 2) and grad.shape == (len(idx), 2, 2)
    for alpha in range(2):
        e = np.eye(3)[alpha]

        def single(z, g):
            g = mesh.model.metric(z)
            return np.einsum("bij,bi,j->b", g, z, e)[:, None]

        tau_a, grad_a = intrinsic_tau(mesh, single, idx, step=0.05)
        assert np.array_equal(tau_a[:, 0], tau[:, alpha])
        assert np.array_equal(grad_a[:, 0], grad[:, alpha])
    maxima, _ = fn.kernel_tau_intrinsic(mesh)
    assert maxima == [fn.kernel_tau_intrinsic(mesh, alpha)[0] for alpha in range(2)]


def _record_dual_solves(monkeypatch):
    """Every PerturbedNorm.dual_value call from now on, as (xi, x_warm)."""
    real = PerturbedNorm.dual_value
    calls = []

    def recording(self, xi, x_warm=None, return_argmax=False):
        calls.append((np.asarray(xi), None if x_warm is None else np.asarray(x_warm)))
        return real(self, xi, x_warm, return_argmax)

    monkeypatch.setattr(PerturbedNorm, "dual_value", recording)
    return calls


def test_mesh_reads_g_and_q_at_its_nodes_without_a_solve(monkeypatch, model_factory):
    # the nodes are the Gauss preimages of the mesh's Wulff points
    calls = _record_dual_solves(monkeypatch)
    mesh = build_cap_mesh(CapConfig(2, -0.35, model_factory("pert3"), 3))
    mesh.q_frame
    assert calls == []


def test_bodies_on_one_mesh_reuse_its_parameter_velocities(monkeypatch, model_factory):
    # v_k = A_F^-1 e_k depends on the mesh alone: one solve at build time
    import capaf.capgeom as capgeom

    real = capgeom.parameter_velocities
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(capgeom, "parameter_velocities", counting)
    mesh = build_cap_mesh(CapConfig(2, -0.35, model_factory("pert3"), 3))
    assert len(calls) == 1
    bodies = [random_capillary_body(mesh, seed) for seed in (1, 2, 3)]
    minkowski_combine(bodies, [0.5, 0.3, 0.2])
    translate_horizontal(bodies[0], np.array([0.05, 0.0, 0.0]))
    assert len(calls) == 1


def test_kernel_pass_solves_once_per_stencil_point(monkeypatch, mesh_factory):
    # n(n+1) projection solves, warm from the nodes; the metric at each
    # projected point is read at the projection's maximizer, with no solve
    mesh = mesh_factory("pert3", -0.35, 3)
    calls = _record_dual_solves(monkeypatch)
    fn.kernel_tau_intrinsic(mesh)
    n = mesh.n
    node_rows = {tuple(r) for r in mesh.nodes}
    assert len(calls) == n * (n + 1)
    for _, warm in calls:
        assert warm is not None and all(tuple(r) in node_rows for r in warm)


def test_cap_support_tau_is_identity(mesh_factory):
    # the cap's own support field has unit radii matrix everywhere
    mesh = mesh_factory("pert3", -0.35, 3)
    tau, _ = tau_from_generator(mesh, mesh.cap_body.field)
    assert np.max(np.abs(tau - np.eye(2))) < 1e-6


# -- reconstruction and covariance --------------------------------------------


@pytest.mark.parametrize("name,w0", CASES)
def test_reconstruction_identity(body_factory, name, w0):
    body = body_factory(name, w0, 3, seed=9)
    assert body.reconstruction_residual() < _tol(name, 1e-9, 1e-6)
    dev = np.abs(np.einsum("bi,bi->b", body.X, body.mesh.nodes) - body.s)
    assert np.max(dev) < 1e-10


def test_horizontal_translation_covariance(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=10)
    v = np.array([0.06, -0.08, 0.0])
    moved = translate_horizontal(body, v)
    assert np.array_equal(moved.W, body.W)
    assert np.max(np.abs(moved.tau - body.tau)) < 1e-11
    assert np.max(np.abs(moved.kappa - body.kappa)) < 1e-9
    assert np.max(np.abs(moved.X - body.X - v)) < 1e-14
    with pytest.raises(InvalidInputError):
        translate_horizontal(body, np.array([0.0, 0.0, 0.1]))


# -- combinations -------------------------------------------------------------


def test_combine_identity_bitwise(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=12)
    combo = minkowski_combine([body], [1.0])
    assert np.array_equal(combo.s, body.s)
    assert np.array_equal(combo.tau, body.tau)
    assert np.array_equal(combo.W, body.W)


def test_combine_wulff_caps(mesh_factory):
    mesh = mesh_factory("ell3", -0.4, 3)
    c1, c2 = make_wulff_cap(mesh, 1.0), make_wulff_cap(mesh, 2.0)
    tot = minkowski_combine([c1, c2], [1.0, 1.0])
    c3 = make_wulff_cap(mesh, 3.0)
    assert np.max(np.abs(tot.s - c3.s)) < 1e-12
    assert np.max(np.abs(tot.tau - c3.tau)) < 1e-12


def test_combine_support_linearity(body_factory):
    b1 = body_factory("ell3", -0.4, 3, seed=13)
    b2 = body_factory("ell3", -0.4, 3, seed=14)
    combo = minkowski_combine([b1, b2], [0.7, 1.4])
    assert np.max(np.abs(combo.shat - 0.7 * b1.shat - 1.4 * b2.shat)) < 1e-14


def test_combination_tau_asym_is_the_summed_raw_asymmetry(body_factory):
    # the radii matrices are symmetrized after summing, not before
    b1 = body_factory("ell3", -0.4, 3, seed=13)
    b2 = body_factory("ell3", -0.4, 3, seed=14)
    combo = minkowski_combine([b1, b2], [0.7, 1.4])
    _, raw = tau_from_generator(combo.mesh, combo.field)
    direct = np.max(np.abs(raw - np.swapaxes(raw, 1, 2)), axis=(1, 2))
    assert np.max(combo.tau_asym) > 0.0
    assert np.max(np.abs(combo.tau_asym - direct)) < 1e-10


def test_combine_validation(body_factory, mesh_factory):
    b1 = body_factory("ell3", -0.4, 3, seed=13)
    other = make_wulff_cap(mesh_factory("ell3", -0.4, 2), 1.0)
    with pytest.raises(InvalidInputError):
        minkowski_combine([b1, other], [1.0, 1.0])
    with pytest.raises(InvalidInputError):
        minkowski_combine([b1], [-1.0])
    with pytest.raises(InvalidInputError):
        minkowski_combine([b1], [0.0])


def test_rebind_preserves_field(body_factory, mesh_factory):
    body = body_factory("ell3", -0.4, 3, seed=15)
    fine = rebind(body, mesh_factory("ell3", -0.4, 4))
    assert fine.mesh.config.mesh_level == 4
    assert fine.convex and fine.capillary


def test_rebind_onto_own_mesh_returns_the_body(body_factory, mesh_factory):
    from capaf.bodies import CapillaryBody

    body = body_factory("ell3", -0.4, 3, seed=15)
    assert rebind(body, body.mesh) is body
    fresh = CapillaryBody(body.mesh, body.field, body.provenance)
    for attr in ("s", "X", "W", "tau", "H", "shat_anchored"):
        assert np.array_equal(getattr(fresh, attr), getattr(body, attr)), attr
    mesh = mesh_factory("ell3", -0.4, 3)
    concave = CapillaryBody(mesh, -1.0 * mesh.cap_body.field, {"kind": "custom"}, validate=False)
    with pytest.raises(ConvexityViolationError):
        rebind(concave, mesh)
    with pytest.raises(ConvexityViolationError):
        rebind(concave, mesh_factory("ell3", -0.4, 2))


def test_record_roundtrip_fields(body_factory):
    body = body_factory("pert3", -0.35, 3, seed=16)
    rec = body.record()
    assert rec["provenance"]["seed"] == 16
    assert rec["norm"]["family"] == "perturbed"
    assert rec["flags"]["convex"] and rec["flags"]["capillary"]
    assert isinstance(body.record_json(), str)


def test_body_record_bitwise_roundtrip(body_factory):
    from capaf.bodies import body_from_record

    body = body_factory("ell3", -0.4, 2, seed=16)
    clone = body_from_record(body.record_json())
    assert np.array_equal(clone.s, body.s)
    assert np.array_equal(clone.tau, body.tau)
    assert np.array_equal(clone.X, body.X)


# -- one construction, linear in the support field -----------------------------


def _linearity_cases(body_factory, mesh_factory, name, w0):
    mesh = mesh_factory(name, w0, 3)
    body = body_factory(name, w0, 3, seed=21)
    other = body_factory(name, w0, 3, seed=22)
    e_vec = mesh.EF + np.array([0.1, -0.05, 0.0])
    return {
        "random": body,
        "translated": translate_horizontal(body, np.array([0.05, -0.03, 0.0])),
        "combined": minkowski_combine([body, other], [0.7, 1.4]),
        "rebound": rebind(body_factory(name, w0, 2, seed=21), mesh),
        "wulff-cap": make_wulff_cap(mesh, 1.4, e_vec),
    }


@pytest.mark.parametrize("name,w0", [("ell3", -0.4), ("pert3", -0.35)])
def test_body_caches_match_direct_evaluation(body_factory, mesh_factory, name, w0):
    # caches built from the mesh's own F caches equal evaluating the field
    for kind, body in _linearity_cases(body_factory, mesh_factory, name, w0).items():
        mesh, field = body.mesh, body.field
        x = mesh.nodes
        w = np.einsum("bki,bij,blj->bkl", mesh.tb, field.hess(x), mesh.tb)
        tau, raw = tau_from_generator(mesh, field)
        asym = np.max(np.abs(raw - np.swapaxes(raw, 1, 2)), axis=(1, 2))
        assert np.max(np.abs(body.s - field.value(x))) < 1e-14, kind
        assert np.max(np.abs(body.X - field.grad(x))) < 1e-14, kind
        assert np.max(np.abs(body.W - w)) < 1e-14, kind
        assert np.max(np.abs(body.tau - tau)) < 1e-10, kind
        assert np.max(np.abs(body.tau_asym - asym)) < 1e-10, kind


def test_body_construction_skips_norm_fd_once_cap_exists(monkeypatch, mesh_factory):
    # the Wulff-cap part of every body, and of every bare operator test
    # field, comes from the mesh, not from F's derivatives
    mesh = mesh_factory("pert3", -0.35, 3)
    coarse = random_capillary_body(mesh_factory("pert3", -0.35, 2), 31)
    other = random_capillary_body(mesh, 32)
    assert mesh.cap_body.convex
    calls = []

    def counting(real):
        def wrapped(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapped

    for name in ("grad", "hess"):
        monkeypatch.setattr(PerturbedNorm, name, counting(getattr(PerturbedNorm, name)))
    body = random_capillary_body(mesh, 33)
    moved = translate_horizontal(body, np.array([0.04, 0.02, 0.0]))
    minkowski_combine([body, moved, other], [0.5, 1.0, 0.25])
    rebind(coarse, mesh)
    assert calls == []
    g = body.field - other.field
    h = moved.field - other.field
    fn.operator_a_apply(g, [other])
    fn.operator_a_energy_check(g, [other])
    fn.operator_selfadjoint_deviation(g, h, [other])
    assert calls == []


@pytest.mark.parametrize("name,w0", [("ell3", -0.4), ("pert3", -0.35)])
def test_operator_test_field_is_built_as_a_body(body_factory, mesh_factory, name, w0):
    # a bare field difference gets the caches of a body built from it, and
    # they match differentiating the whole field directly
    mesh = mesh_factory(name, w0, 3)
    field = body_factory(name, w0, 3, 41).field - body_factory(name, w0, 3, 42).field
    tau, vals = fn._tau_and_values(mesh, field)
    body = CapillaryBody(mesh, field, {"kind": "custom"}, validate=False)
    assert np.max(np.abs(tau - body.tau)) <= 1e-14
    assert np.max(np.abs(vals - body.shat)) <= 1e-14
    assert np.max(np.abs(tau - tau_from_generator(mesh, field)[0])) < 1e-10
    assert np.max(np.abs(vals - field.value(mesh.nodes) / mesh.F_vals)) < 1e-14


def _great_circle_tau(mesh, field, h):
    """Oracle for the raw generator-route radii: central differences of
    field.grad along the parameter great circles through each node, with
    velocity A_F^-1 e_k, step h in arc length."""
    x = mesh.nodes
    nn, d = x.shape
    e_t = np.einsum("bkd,bnd->bkn", mesh.frame, mesh.tb)
    v_t = np.linalg.solve(mesh.A, np.swapaxes(e_t, 1, 2))
    v_amb = np.einsum("bnk,bnd->bkd", v_t, mesh.tb)
    speed = np.linalg.norm(v_amb, axis=-1)
    u = v_amb / speed[..., None]
    gp, gm = (np.asarray(field.grad((np.cos(h) * x[:, None, :] + sgn * np.sin(h) * u)
                                    .reshape(-1, d))).reshape(nn, mesh.n, d)
              for sgn in (1.0, -1.0))
    dx = speed[..., None] * (gp - gm) / (2.0 * h)
    return np.einsum("bkd,bde,ble->bkl", dx, mesh.G, mesh.frame)


@pytest.mark.parametrize("name,w0", [("ell3", -0.4), ("pert3", -0.35)])
def test_generator_tau_matches_great_circle_differences(body_factory, name, w0):
    # the closed form is the limit of the great-circle differences, which
    # converge to it at second order in the step
    body = body_factory(name, w0, 3, seed=21)
    combo = minkowski_combine([body, body_factory(name, w0, 3, seed=22)], [0.7, 1.4])
    for kind, b in (("random", body), ("combined", combo)):
        raw = tau_from_generator(b.mesh, b.field)[1]
        scale = np.max(np.abs(raw))
        errs = [np.max(np.abs(_great_circle_tau(b.mesh, b.field, h) - raw)) / scale
                for h in (4e-3, 2e-3, 1e-3, 1e-4)]
        assert errs[0] / errs[1] > 3.9 and errs[1] / errs[2] > 3.9, kind
        assert errs[3] < 1e-8, kind
