from __future__ import annotations

import numpy as np
import pytest

import capaf.functionals as fn
from capaf.bodies import (CapillaryBody, _leaves, _sigma_means, make_wulff_cap,
                          minkowski_combine, random_capillary_body, rebind,
                          translate_horizontal)
from capaf.capgeom import CapConfig, build_cap_mesh, radii_form
from capaf.errors import (ConvexityViolationError, GenerationError,
                          InvalidInputError)
from capaf.fields import (CombinationField, LinearField, SphericalBumpField,
                          WulffCapField, _geodesic_points, intrinsic_tau,
                          kernel_evaluator, kernel_field, tau_from_generator)
from capaf.norms import EllipsoidNorm, PerturbedNorm, sym_eig_det, unit_rows

CASES = [("iso3", 0.0), ("ell3", -0.4), ("pert3", -0.35)]


# -- support fields -------------------------------------------------------------


def _support_fields(model):
    ef = np.array([0.0, 0.0, 1.0])
    cap = WulffCapField(model, -0.3, 1.2, ef)
    lin = LinearField(np.array([0.1, -0.2, 0.3]))
    bump = SphericalBumpField(np.array([0.1, 0.0, 1.0]), 0.9, 0.05)
    return {"wulff": cap, "linear": lin, "bump": bump,
            "combination": CombinationField([cap, bump, lin], [1.0, 0.5, -2.0])}


@pytest.mark.parametrize("kind", ["wulff", "linear", "bump", "combination"])
@pytest.mark.parametrize("name", ["ell3", "pert3"])
def test_support_field_single_point_matches_batch_row(model_factory, name, kind):
    # a one-row batch answers with the bits of the same row in a larger batch
    field = _support_fields(model_factory(name))[kind]
    pts = np.array([[0.05, 0.1, 0.99], [0.3, -0.2, 0.9], [-0.5, 0.4, 0.7]])
    d = pts.shape[1]
    for method, shape in (("value", ()), ("grad", (d,)), ("hess", (d, d))):
        one = getattr(field, method)(pts[:1])
        batch = getattr(field, method)(pts)
        assert batch.shape == (len(pts),) + shape, method
        assert np.array_equal(one, batch[:1]), method


def test_support_field_jets_do_not_depend_on_the_order_asked_for(model_factory):
    # _derivative(x, k)[j] is bit for bit the same for every k >= j, and the
    # public jet and value/grad/hess return those very entries; the bump's
    # support misses some rows, and the combination nests another
    fields = _support_fields(model_factory("pert3"))
    bump = SphericalBumpField(np.array([0.1, 0.0, 1.0]), 0.3, 0.05)
    nested = CombinationField([fields["combination"], bump, fields["linear"]], [0.5, 2.0, -1.0])
    x = np.random.default_rng(5).normal(size=(40, 3))
    x[:20] = np.array([0.1, 0.0, 1.0]) + 0.2 * x[:20]
    live = x @ bump.center > 0.7 * np.linalg.norm(x, axis=-1)
    assert 0 < np.sum(live) < len(x)
    for field in list(fields.values()) + [bump, nested]:
        jets = [field._derivative(x, k) for k in range(3)]
        for k, jet in enumerate(jets):
            assert len(jet) == k + 1
            for j in range(k + 1):
                assert np.array_equal(jet[j], jets[2][j]), (field, k, j)
        public = field.jet(x, 2)
        for j, method in enumerate((field.value, field.grad, field.hess)):
            assert np.array_equal(public[j], jets[2][j]), (field, j)
            assert np.array_equal(np.asarray(method(x)), jets[2][j]), (field, j)
    assert np.all(bump.value(x[~live]) == 0.0) and np.any(bump.value(x[live]) != 0.0)


def test_body_evaluates_each_non_cap_leaf_once(monkeypatch, mesh_factory):
    # s, Ds and D^2s of the leaves that are not the mesh's own Wulff cap come
    # from one jet; the cap leaf reads the mesh's caches
    mesh = mesh_factory("pert3", -0.35, 3)
    field = CombinationField([random_capillary_body(mesh, 2).field,
                              LinearField(np.array([0.05, -0.02, 0.0]))], [1.0, 1.0])
    leaves = field.fields[0].fields + field.fields[1:]
    assert isinstance(leaves[0], WulffCapField) and len(leaves) >= 4
    calls = {id(leaf): 0 for leaf in leaves}
    for leaf in leaves:
        def counting(x, order, real=leaf._derivative, key=id(leaf)):
            calls[key] += 1
            return real(x, order)
        monkeypatch.setattr(leaf, "_derivative", counting)
    CapillaryBody(mesh, field, {"kind": "test"}, validate=False)
    assert [calls[id(leaf)] for leaf in leaves] == [0] + [1] * (len(leaves) - 1)


def _dense_caches(mesh, field):
    """Oracle for a body's caches: the leaves that are not the mesh's own
    Wulff cap evaluated on every row in one combination jet, W and the raw
    radii taken on every row, and the caches derived from their sums."""
    x = mesh.nodes
    caps, rest = [], []
    for leaf, w in _leaves(field, 1.0):
        own_cap = isinstance(leaf, WulffCapField) and leaf.model is mesh.model
        (caps if own_cap else rest).append((leaf, w))
    parts = [(w * cap.r0 * mesh.F_vals + x @ (w * cap.shift), w * cap.r0 * mesh.psi + w * cap.shift,
              w * cap.r0 * mesh.A, w * cap.r0 * mesh.cap_tau) for cap, w in caps]
    if rest:
        s, ds, hess = CombinationField([f for f, _ in rest], [w for _, w in rest]).jet(x, 2)
        parts.append((s, ds, np.einsum("bki,bij,blj->bkl", mesh.tb, hess, mesh.tb),
                      radii_form(hess, mesh.frame, mesh.G, mesh.vel)))
    s, big_x, w_mat, raw = (sum(col[1:], col[0]) for col in zip(*parts))
    tau = 0.5 * (raw + np.swapaxes(raw, 1, 2))
    radii = sym_eig_det(tau)[0]
    with np.errstate(divide="ignore"):
        kappa = np.where(radii > 0, 1.0 / radii, np.inf)[:, ::-1]
    return {"s": s, "X": big_x, "W": w_mat, "tau": tau,
            "tau_asym": np.max(np.abs(raw - np.swapaxes(raw, 1, 2)), axis=(1, 2)),
            "shat": s / mesh.F_vals, "shat_anchored": (s - x @ field.anchor) / mesh.F_vals,
            "H": _sigma_means(kappa), "detW": sym_eig_det(w_mat)[1]}


@pytest.mark.parametrize("name,w0,level", [(n, w0, 3) for n, w0 in CASES] + [("ell2", 0.3, 4)])
def test_body_caches_match_the_dense_oracle_bit_for_bit(mesh_factory, name, w0, level):
    # W and the raw radii taken only on the rows where the Hessian of the
    # non-cap leaves is nonzero give the bits of taking them on every row; a
    # bump whose Hessian is nonzero on one row alone covers the lone-row rule
    # (norms.tangent_form) and radii_form on one row
    mesh = mesh_factory(name, w0, level)
    b0, b1, b2 = (random_capillary_body(mesh, seed) for seed in (3, 4, 5))
    shift = np.zeros(mesh.dim)
    shift[0] = 0.06
    bodies = {"random": b0, "random-2": b2,
              "combined": minkowski_combine([b0, b1], [0.7, 1.4]),
              "translated": translate_horizontal(b1, shift),
              "difference": CombinationField([b0.field, b1.field], [1.0, -1.0]),
              "kernel-test-field": kernel_field(mesh, 0)}
    cap = mesh.cap_body.field
    rng = np.random.default_rng(0)
    for j, node in enumerate(mesh.interior_idx[::max(1, len(mesh.interior_idx) // 24)]):
        lone = SphericalBumpField(mesh.nodes[node] + 1e-4 * rng.normal(size=mesh.dim), 3e-7, 1e-3)
        assert np.count_nonzero(np.any(lone.hess(mesh.nodes) != 0, axis=(1, 2))) == 1
        bodies[f"lone-row-{j}"] = CombinationField([cap, lone], [1.0, 1.0])
    for kind, body in bodies.items():
        if not isinstance(body, CapillaryBody):  # an operator test field
            body = CapillaryBody(mesh, body, {"kind": "operator-test-field"}, validate=False)
        for key, want in _dense_caches(mesh, body.field).items():
            assert np.array_equal(getattr(body, key), want, equal_nan=True), (kind, key)


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


def test_wulff_rejects_a_nonpositive_radius(mesh_factory):
    mesh = mesh_factory("ell3", -0.4, 2)
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
    level_set = r0 * mesh.omega0 * mesh.EF[None, :] + r0 * mesh.model.grad(dirs)
    idx = mesh.interior_idx[:40]
    for i in idx:
        x = mesh.nodes[i]
        coarse_best = np.argmax(level_set @ x)
        # polish: the maximizer over the level set is Psi(y) with y near x
        y = dirs[coarse_best]
        for _ in range(40):
            g = mesh.model.hess(y[None])[0] @ (x - (x @ y) * y)
            step = g - (g @ y) * y
            if np.linalg.norm(step) < 1e-14:
                break
            y = y + 0.5 * step
            y /= np.linalg.norm(y)
        z = r0 * mesh.omega0 * mesh.EF + r0 * mesh.model.grad(y[None])[0]
        oracle = float(z @ x)
        assert cap.s[i] == pytest.approx(oracle, abs=2e-6 * r0)


@pytest.mark.parametrize("name,w0", CASES)
def test_wulff_tau_identity(mesh_factory, name, w0):
    mesh = mesh_factory(name, w0, 3)
    for r0 in (1.0, 2.0):
        cap = make_wulff_cap(mesh, r0)
        assert np.max(np.abs(cap.tau - r0 * np.eye(2))) < 1e-6 * max(1.0, r0)
        kappa, h = 1.0 / sym_eig_det(cap.tau)[0][0], cap.H[0]
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
    res, ok = body.robin_residuals()
    assert np.max(np.abs(res[ok])) < 1e-8 * np.max(np.abs(body.s))
    assert np.max(np.abs(body.X[body.mesh.boundary_loop, -1])) < 1e-9


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
    assert np.max(dev) < 1e-8


def test_cap_support_value(mesh_factory):
    # s_hat of the cap body is 1 + w0 G(T^-1 xi)(EF, T^-1 xi)
    mesh = mesh_factory("ell3", -0.4, 3)
    cap = mesh.cap_body
    g_term = np.einsum("bij,i,bj->b", mesh.G, mesh.EF, mesh.psi)
    assert np.max(np.abs(cap.shat - (1.0 + mesh.omega0 * g_term))) < 1e-10


# -- robin condition ----------------------------------------------------------


def test_robin_detects_vertical_shift(mesh_factory):
    mesh = mesh_factory("ell3", -0.4, 3)
    cap = make_wulff_cap(mesh, 1.0)
    bad_field = CombinationField([cap.field, LinearField(np.array([0, 0, 0.05]))],
                                 [1.0, 1.0])
    bad = CapillaryBody(mesh, bad_field, {"kind": "custom"}, validate=False)
    res, ok = bad.robin_residuals()
    assert np.min(np.abs(res[ok])) > 1e-3
    assert np.min(np.abs(bad.X[mesh.boundary_loop, -1])) > 1e-3


def test_robin_horizontal_invariance(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=4)
    moved = translate_horizontal(body, np.array([0.07, -0.04, 0.0]))
    r0, ok = body.robin_residuals()
    r1, _ = moved.robin_residuals()
    assert np.max(np.abs(r1[ok])) < 1e-8
    assert np.max(np.abs(r1 - r0)) < 1e-8


def test_robin_single_node_api(mesh_factory):
    # entry b of the residuals belongs to node boundary_loop[b]
    mesh = mesh_factory("iso3", -0.5, 2)
    cap = make_wulff_cap(mesh, 1.0)
    res, ok = cap.robin_residuals()
    assert len(res) == len(ok) == len(mesh.boundary_loop)
    assert ok[0] and abs(res[0]) < 1e-10 and abs(cap.X[mesh.boundary_loop[0], -1]) < 1e-12


# -- radii matrices -----------------------------------------------------------


@pytest.mark.parametrize("name,w0", CASES)
def test_tau_two_routes(body_factory, name, w0):
    body = body_factory(name, w0, 3, seed=6)
    e1 = np.sort(sym_eig_det(body.tau)[0], axis=1)
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
        [WulffCapField(mesh.model, 0.0, 1.0, mesh.EF),
         SphericalBumpField(np.array([0.0, 0.0, 1.0]), 0.9, -2.0)], [1.0, 1.0])
    body = CapillaryBody(mesh, saddle, {"kind": "custom"}, validate=False)
    assert not body.convex and body.min_tau_eig <= 0
    with pytest.raises(ConvexityViolationError):
        CapillaryBody(mesh, saddle, {"kind": "custom"})


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
    # field gives with the metric evaluated afresh at every stencil point, at
    # its Gauss preimage (for the ellipsoid x ~ M^-1 z)
    mesh = mesh_factory("ell3", -0.4, 3)
    model = mesh.model
    idx = mesh.interior_idx[:80]
    tau, grad = intrinsic_tau(mesh, kernel_evaluator(mesh), idx, step=0.05)
    assert tau.shape == (len(idx), 2, 2, 2) and grad.shape == (len(idx), 2, 2)
    for alpha in range(2):
        e = np.eye(3)[alpha]

        def single(z, g):
            g = model.metric_on_wulff(unit_rows(z @ model.matrix_inv))
            return np.einsum("bij,bi,j->b", g, z, e)[:, None]

        tau_a, grad_a = intrinsic_tau(mesh, single, idx, step=0.05)
        assert np.array_equal(tau_a[:, 0], tau[:, alpha])
        assert np.array_equal(grad_a[:, 0], grad[:, alpha])
    # the raw maxima are the step-h pass's and the check's extrapolate the
    # passes at h and h/2 on the same nodes, E_1, E_2 in field order
    step = 0.3 * 0.5**mesh.config.mesh_level
    safe = fn._stencil_safe_interior(mesh, 3.0 * step)
    tau_h, tau_half = (intrinsic_tau(mesh, kernel_evaluator(mesh), safe, s)[0]
                       for s in (step, 0.5 * step))

    def maxima(t):
        return [float(np.max(np.abs(t[:, a]))) for a in range(2)]

    assert fn.kernel_tau_raw(mesh) == maxima(tau_h)
    assert fn.kernel_tau_intrinsic(mesh) == maxima((4.0 * tau_half - tau_h) / 3.0)


@pytest.mark.parametrize("name,w0", [("ell3", -0.4), ("pert3", -0.35)])
def test_stencil_curve_matches_the_geodesic_to_second_order(mesh_factory, name, w0):
    # at random interior nodes and velocities v, each stencil point's jet is
    # F's at its unit preimage, so its Wulff point is DF there; over three
    # steps h, (z+ - z-)/2h tends to v and the G-tangential part of
    # (z+ - 2z + z-)/h^2 to a geodesic's -Q(v, v, .)/2, both at O(h^2)
    mesh = mesh_factory(name, w0, 3)
    rng = np.random.default_rng(37)
    idx = rng.choice(mesh.interior_idx, 20, replace=False)
    vel = rng.normal(size=(len(idx), mesh.n))
    z, g, frame = mesh.psi[idx], mesh.G[idx], mesh.frame[idx]
    v = np.einsum("bk,bkd->bd", vel, frame)
    acc = -0.5 * np.einsum("bijl,bi,bj->bl", mesh.q_frame[idx], vel, vel)
    d3f = mesh.model.jet(mesh.nodes[idx], 3)[3]
    errors = []
    for h in (0.04, 0.02, 0.01):
        (xp, jp), (xm, jm) = _geodesic_points(mesh, idx, vel, h, d3f)
        for x, jet in ((xp, jp), (xm, jm)):
            assert np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0)) < 1e-15
            for got, want in zip(jet, mesh.model.jet(x, 2)):
                assert np.array_equal(got, want)
        velocity = (jp[1] - jm[1]) / (2.0 * h) - v
        tangential = np.einsum("bd,bde,ble->bl", (jp[1] - 2.0 * z + jm[1]) / h**2, g, frame)
        errors.append((np.max(np.abs(velocity)), np.max(np.abs(tangential - acc))))
    for coarse, fine in zip(errors, errors[1:]):
        assert all(c / f > 3.5 for c, f in zip(coarse, fine)), errors


def test_mesh_reads_g_and_q_at_its_nodes_without_a_solve(model_factory):
    # the nodes are the Gauss preimages of the mesh's Wulff points: G and Q
    # are read there by the Legendre route, blocking moving no bit
    mesh = build_cap_mesh(CapConfig(model_factory("pert3"), -0.35, 3))
    model, frame = mesh.model, mesh.frame
    assert np.array_equal(mesh.G, model.metric_on_wulff(mesh.nodes))
    q = np.einsum("bijk,bpi,bqj,brk->bpqr", model.q_on_wulff(mesh.nodes), frame, frame, frame)
    assert np.array_equal(mesh.q_frame, q)


def test_bodies_on_one_mesh_reuse_its_parameter_velocities(monkeypatch, model_factory):
    # v_k = A_F^-1 e_k depends on the mesh alone: one solve at build time
    import capaf.capgeom as capgeom

    real = capgeom.parameter_velocities
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(capgeom, "parameter_velocities", counting)
    mesh = build_cap_mesh(CapConfig(model_factory("pert3"), -0.35, 3))
    assert len(calls) == 1
    bodies = [random_capillary_body(mesh, seed) for seed in (1, 2, 3)]
    minkowski_combine(bodies, [0.5, 0.3, 0.2])
    translate_horizontal(bodies[0], np.array([0.05, 0.0, 0.0]))
    assert len(calls) == 1


@pytest.mark.parametrize("name,w0", CASES)
def test_mesh_and_its_bodies_differentiate_F_at_the_nodes_once(monkeypatch, model_factory,
                                                                  name, w0):
    # the mesh's own jet of F serves its caches and the unit cap's radii, so
    # building a body, the unit cap included, takes no second D^2F there
    model = model_factory(name)
    cls = type(model)
    seen = []

    def recording(self, x, order, real=cls._derivative):
        seen.append((np.array(x), order))
        return real(self, x, order)

    monkeypatch.setattr(cls, "_derivative", recording)
    mesh = build_cap_mesh(CapConfig(model, w0, 3))
    random_capillary_body(mesh, 5)
    assert mesh.cap_body.convex
    at_nodes = [order for x, order in seen if order >= 2 and x.shape == mesh.nodes.shape
                and np.array_equal(x, mesh.nodes)]
    assert at_nodes == [2]


def _record_jets(monkeypatch):
    """Every PerturbedNorm jet from now on, as (x, order)."""
    real = PerturbedNorm._derivative
    seen = []

    def recording(self, x, order):
        seen.append((np.array(x), order))
        return real(self, x, order)

    monkeypatch.setattr(PerturbedNorm, "_derivative", recording)
    return seen


def test_kernel_pass_solves_once_per_stencil_point(monkeypatch, mesh_factory):
    # each of the n(n+1) stencil points of a pass is placed once, in closed
    # form on the unit sphere, and read by one order-2 jet of F; no linear
    # solve is made.  Each +/- pair is symmetric about its nodes to second
    # order: halving the step (the h/2 pass, same nodes and directions)
    # brings the pair's midpoint nearer the nodes by about four
    mesh = mesh_factory("pert3", -0.35, 3)
    mesh.q_frame
    seen = _record_jets(monkeypatch)
    real_solve, solves = np.linalg.solve, []

    def solve(a, b):
        solves.append(np.shape(b))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    fn.kernel_tau_intrinsic(mesh)
    assert solves == []
    n = mesh.n
    safe = mesh.nodes[fn._stencil_safe_interior(mesh, 3.0 * 0.3 * 0.5**mesh.config.mesh_level)]
    points = [x for x, order in seen if order == 2]
    assert len(points) == 2 * n * (n + 1)
    for x in points:
        assert x.shape == safe.shape and np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0)) < 1e-15
    drift = [np.max(np.linalg.norm(0.5 * (plus + minus) - safe, axis=-1))
             for plus, minus in zip(points[::2], points[1::2])]
    half = n * (n + 1) // 2
    for coarse, fine in zip(drift[:half], drift[half:]):
        assert coarse / fine > 3.5, drift


def test_dual_solve_takes_one_jet_of_f_per_newton_step(monkeypatch, mesh_factory):
    # the Gauss preimages the kernel pass needs are built in closed form, so
    # no Newton step is taken: F is differentiated once per pass at order 3
    # at its nodes (the same nodes at h and h/2), which its n(n+1)/2 stencils
    # share, then once at order 2 per stencil point, never at order 0 or 1
    mesh = mesh_factory("pert3", -0.35, 3)
    mesh.q_frame
    seen = _record_jets(monkeypatch)
    fn.kernel_tau_intrinsic(mesh)
    n = mesh.n
    assert [order for _, order in seen] == ([3] + [2, 2] * (n * (n + 1) // 2)) * 2
    safe = mesh.nodes[fn._stencil_safe_interior(mesh, 3.0 * 0.3 * 0.5**mesh.config.mesh_level)]
    for k, (x, order) in enumerate(seen):
        if order == 3:
            assert np.array_equal(x, safe), k


def test_cap_support_tau_is_identity(mesh_factory):
    # the cap's own support field has unit radii matrix everywhere
    mesh = mesh_factory("pert3", -0.35, 3)
    tau, _ = tau_from_generator(mesh, mesh.cap_body.field)
    assert np.max(np.abs(tau - np.eye(2))) < 1e-10


# -- reconstruction and covariance --------------------------------------------


@pytest.mark.parametrize("name,w0", CASES)
def test_reconstruction_identity(body_factory, name, w0):
    body = body_factory(name, w0, 3, seed=9)
    assert body.reconstruction_residual() < 1e-9
    dev = np.abs(np.einsum("bi,bi->b", body.X, body.mesh.nodes) - body.s)
    assert np.max(dev) < 1e-10


def test_a_minkowski_multiple_of_a_capillary_body_is_capillary():
    # one bound, 1e-6 of the body's largest |X|, serves the boundary plane and
    # the half-space, so it scales with the body; on this thin level-1 cap a
    # random screen met a body whose 1.7-fold multiple failed the absolute
    # 1e-9 half-space test that the body itself passed
    matrix = np.array([0.8615931742952361, -0.20129746526993839, 6.64443166272704e-161,
                       -0.20129746526993839, 1.2415972240904647, 3.4420941228478797e-161,
                       6.64443166272704e-161, 3.4420941228478797e-161, 0.7390972240904647])
    mesh = build_cap_mesh(CapConfig(EllipsoidNorm(matrix.reshape(3, 3)),
                                    -0.8587769496868798, 1))
    body = random_capillary_body(mesh, 450)
    assert body.capillary and body.boundary_plane_dev > 1e-9
    for lam in (1e-3, 1.7, 1e3):
        scaled = minkowski_combine([body], [lam])
        assert scaled.capillary
        assert scaled.capillary_bound == pytest.approx(lam * body.capillary_bound, rel=1e-12)
    lifted = CombinationField(
        [body.field, LinearField(np.array([0.0, 0.0, 1e3 * body.capillary_bound]))], [1.0, 1.0])
    with pytest.raises(InvalidInputError, match="boundary plane deviation .* above the bound"):
        CapillaryBody(mesh, lifted, {"kind": "lifted"})


def test_horizontal_translation_covariance(body_factory):
    body = body_factory("ell3", -0.4, 3, seed=10)
    v = np.array([0.06, -0.08, 0.0])
    moved = translate_horizontal(body, v)
    assert np.array_equal(moved.W, body.W)
    assert np.max(np.abs(moved.tau - body.tau)) < 1e-11
    kappa, moved_kappa = (1.0 / sym_eig_det(b.tau)[0] for b in (body, moved))
    assert np.max(np.abs(moved_kappa - kappa)) < 1e-9
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
    concave = CapillaryBody(mesh, CombinationField([mesh.cap_body.field], [-1.0]),
                            {"kind": "custom"}, validate=False)
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


# -- one construction, linear in the support field -----------------------------


def _linearity_cases(body_factory, mesh_factory, name, w0):
    mesh = mesh_factory(name, w0, 3)
    body = body_factory(name, w0, 3, seed=21)
    other = body_factory(name, w0, 3, seed=22)
    return {
        "random": body,
        "translated": translate_horizontal(body, np.array([0.05, -0.03, 0.0])),
        "combined": minkowski_combine([body, other], [0.7, 1.4]),
        "rebound": rebind(body_factory(name, w0, 2, seed=21), mesh),
        "wulff-cap": make_wulff_cap(mesh, 1.4),
        "shifted-wulff-cap": translate_horizontal(make_wulff_cap(mesh, 1.4),
                                                  np.array([0.1, -0.05, 0.0])),
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
    g = CombinationField([body.field, other.field], [1.0, -1.0])
    h = CombinationField([moved.field, other.field], [1.0, -1.0])
    fn.operator_a_apply(g, [other])
    fn.operator_a_energy_check(g, [other], tol=1e-6)
    fn.operator_selfadjoint_deviation(g, h, [other])
    assert calls == []


@pytest.mark.parametrize("name,w0", [("ell3", -0.4), ("pert3", -0.35)])
def test_operator_test_field_is_built_as_a_body(body_factory, mesh_factory, name, w0):
    # a bare field difference gets the caches of a body built from it, and
    # they match differentiating the whole field directly
    mesh = mesh_factory(name, w0, 3)
    field = CombinationField([body_factory(name, w0, 3, 41).field,
                              body_factory(name, w0, 3, 42).field], [1.0, -1.0])
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
