from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import capaf.fd as fd
from capaf.capgeom import CapConfig, build_cap_mesh
from capaf.errors import InvalidInputError, ModelInvalidError
from capaf.norms import (EllipsoidNorm, IsotropicNorm, MinkowskiNorm, PerturbedNorm,
                         PerturbTerm, norm_from_descriptor, tangent_basis,
                         unit_rows)

MODELS = ("iso3", "ell3", "pert3")


def sample_dirs(dim, count, seed=0):
    rng = np.random.default_rng(seed)
    return unit_rows(rng.normal(size=(count, dim)))


def test_eval_norm_unit_isotropic(model_factory):
    assert model_factory("iso3").value(np.array([0.0, 0.0, 1.0])) == 1.0


def test_eval_norm_ellipsoid_axis(model_factory):
    assert model_factory("ell3diag").value(np.array([0.0, 0.0, 1.0])) == pytest.approx(2.0)


@pytest.mark.parametrize("name", MODELS)
def test_homogeneity(model_factory, name):
    model = model_factory(name)
    x = sample_dirs(3, 20, seed=1)
    f1 = np.asarray(model.value(x))
    f2 = np.asarray(model.value(2.0 * x))
    assert np.max(np.abs(f2 / f1 - 2.0)) < 1e-12


def test_zero_vector_rejected(model_factory):
    with pytest.raises(InvalidInputError):
        model_factory("iso3").value(np.zeros(3))
    with pytest.raises(InvalidInputError):
        model_factory("ell3").dual_value(np.zeros(3))
    with pytest.raises(InvalidInputError):
        model_factory("pert3").hess(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    # a zonal term shares the norms' point/batch contract, zero check included
    term = PerturbTerm("bump", (0.0, 0.0, 1.0), 0.3, 0.05)
    for method in (term.value, term.grad, term.hess, term.third):
        with pytest.raises(InvalidInputError):
            method(np.zeros(3))


def test_cahn_hoffman_isotropic_identity(model_factory):
    x = sample_dirs(3, 10, seed=2)
    psi = model_factory("iso3").cahn_hoffman(x)
    assert np.max(np.abs(psi - x)) < 1e-14


def test_cahn_hoffman_ellipsoid_axis(model_factory):
    psi = model_factory("ell3diag").cahn_hoffman(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(psi, [0.0, 0.0, 2.0], atol=1e-14)


def test_cahn_hoffman_nonunit_flag(model_factory):
    model = model_factory("ell3")
    a = model.cahn_hoffman(np.array([0.0, 0.0, 2.0]))
    b = model.cahn_hoffman(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(a, b)


@pytest.mark.parametrize("name,tol", [("iso3", 1e-10), ("ell3", 1e-10), ("pert3", 1e-6)])
def test_euler_relation(model_factory, name, tol):
    model = model_factory(name)
    x = sample_dirs(3, 50, seed=3)
    psi = np.asarray(model.cahn_hoffman(x))
    dev = np.abs(np.einsum("bi,bi->b", psi, x) - np.asarray(model.value(x)))
    assert np.max(dev) < tol


@pytest.mark.parametrize("name", MODELS)
def test_wulff_membership(model_factory, name):
    # F0(Psi(x)) = 1 on the Wulff shape
    model = model_factory(name)
    x = sample_dirs(3, 100, seed=4)
    psi = np.asarray(model.cahn_hoffman(x))
    f0 = np.asarray(model.dual_value(psi))
    assert np.max(np.abs(f0 - 1.0)) < 1e-8


def test_anisotropy_isotropic_identity(model_factory):
    a = model_factory("iso3").anisotropy_matrix(sample_dirs(3, 5, seed=5))
    assert np.max(np.abs(a - np.eye(2))) < 1e-13


def test_anisotropy_ellipsoid_axis(model_factory):
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    a = model_factory("ell3diag").anisotropy_matrix(np.array([0.0, 0.0, 1.0]), basis=basis)
    assert np.allclose(a, 0.5 * np.eye(2), atol=1e-13)


@pytest.mark.parametrize("name", MODELS)
def test_anisotropy_symmetric_positive(model_factory, name):
    model = model_factory(name)
    a = np.asarray(model.anisotropy_matrix(sample_dirs(3, 40, seed=6)))
    assert np.max(np.abs(a - np.swapaxes(a, -1, -2))) < 1e-9
    assert np.min(np.linalg.eigvalsh(a)) > 0


def test_perturbed_fd_hessian_step_halving(model_factory):
    # central differences converge at second order toward the closed form
    model = model_factory("pert3")
    x = sample_dirs(3, 10, seed=7)
    exact = np.asarray(model.hess(x))
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        approx, _ = fd.central_hessian(lambda p: np.asarray(model.value(p)), x, h,
                                       richardson=False)
        errs.append(np.max(np.abs(approx - exact)))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_perturbed_derivatives_row_independent_of_batch(model_factory):
    # every derivative, of every norm family and zonal term kind, works row
    # by row: no companion can move a row, and one point (d,) answers with
    # the shape of a batch row
    terms = [(PerturbTerm(kind, (0.3, 0.2, 0.93), 0.3, 0.05), 3)
             for kind in ("bump", "linear", "quadratic")]
    norms = [(model_factory(name), model_factory(name).dim)
             for name in ("iso3", "ell3", "pert2", "pert3")]
    for func, d in norms + terms:
        x = np.array([0.05, 0.1, 0.99])[-d:]
        batch = np.stack([x, 3.0 * unit_rows(np.array([1.0, -0.5, 0.3])[:d]), -3.0 * np.eye(d)[-1]])
        for order, method in enumerate((func.value, func.grad, func.hess, func.third)):
            one, rows = np.asarray(method(x)), np.asarray(method(batch))
            assert one.shape == (d,) * order, (func, order)
            assert rows.shape == (len(batch),) + (d,) * order, (func, order)
            assert np.array_equal(one, rows[0]), (func, order)


def test_each_homogeneous_function_has_one_derivative_method():
    """Only the two bases define the public derivative methods; every
    concrete norm, zonal term and support field computes its derivatives in
    one `_derivative(x, order)`, and the composites sum their parts'
    `_derivative`, never a part's public method."""
    import ast
    import inspect
    import textwrap

    import capaf.fields as fields
    import capaf.norms as norms

    public = {"value", "grad", "hess", "third"}
    bases = {norms._Homogeneous: public, fields.SupportField: public - {"third"}}
    abstract = set(bases) | {norms.MinkowskiNorm}
    concrete = set()
    for mod in (norms, fields):
        for cls in vars(mod).values():
            if not (inspect.isclass(cls) and cls.__module__ == mod.__name__
                    and issubclass(cls, tuple(bases))):
                continue
            assert public & set(vars(cls)) == bases.get(cls, set()), cls.__name__
            if cls not in abstract:
                assert "_derivative" in vars(cls), cls.__name__
                concrete.add(cls.__name__)
    assert concrete == {"IsotropicNorm", "EllipsoidNorm", "PerturbedNorm", "PerturbTerm",
                        "WulffCapField", "LinearField", "SphericalBumpField",
                        "CombinationField"}
    for cls in (norms.PerturbedNorm, fields.CombinationField):
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls._derivative)))
        called = {n.func.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
        assert called & public == set(), cls.__name__


@pytest.mark.parametrize("name", ("pert3", "pert2"))
def test_perturbed_derivatives_match_fd_oracle(model_factory, name):
    # capaf.fd, Richardson-extrapolated central differences of F, is the oracle
    model = model_factory(name)
    x = sample_dirs(model.dim, 40, seed=8)

    def f(p):
        return np.asarray(model.value(p))

    g, _ = fd.central_gradient(f, x, 1e-4)
    h, _ = fd.central_hessian(f, x, 1e-4)
    assert np.max(np.abs(np.asarray(model.grad(x)) - g)) < 1e-8
    assert np.max(np.abs(np.asarray(model.hess(x)) - h)) < 1e-6


@pytest.mark.parametrize("name", ["pert3", "pert2"])
def test_newton_batch_rows_match_solo_solves(model_factory, name):
    # a converged row is not stepped again, and the rows still ascending step
    # as they would alone: the batch equals the two solo solves bit for bit
    model = model_factory(name)
    d = model.dim
    xi = np.array([[0.2, -0.1, 1.1], [-0.5, 0.3, 0.8]])[:, -d:]
    y0, _ = model._newton_ascend(unit_rows(xi[:1]), xi[:1], 1e-12)
    warm = np.vstack([y0, unit_rows(xi[1:])])
    y, res = model._newton_ascend(warm, xi, 1e-12)
    solo = [model._newton_ascend(warm[i:i + 1], xi[i:i + 1], 1e-12) for i in range(2)]
    assert np.array_equal(y, np.vstack([s[0] for s in solo]))
    assert np.array_equal(res, np.concatenate([s[1] for s in solo]))
    assert np.array_equal(y[0], warm[0]) and not np.array_equal(y[1], warm[1])
    phi, arg = model.dual_value(xi, warm, return_argmax=True)
    for i in range(2):
        phi_i, arg_i = model.dual_value(xi[i:i + 1], warm[i:i + 1], return_argmax=True)
        assert phi[i] == phi_i[0] and np.array_equal(arg[i], arg_i[0])


def test_perturbed_validation_rejects_wild_amplitude():
    with pytest.raises(ModelInvalidError):
        PerturbedNorm(IsotropicNorm(3),
                      [PerturbTerm("bump", (0.0, 0.0, 1.0), 0.05, 0.8)])


def test_dual_norm_isotropic():
    assert IsotropicNorm(3).dual_value(np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0)


def test_dual_norm_ellipsoid_vs_numeric_sup(model_factory):
    # independent oracle: dense sample plus derivative-free polish
    model = model_factory("ell3diag")
    xi = np.array([0.0, 0.0, 1.0])
    dirs = sample_dirs(3, 4000, seed=8)
    phi = dirs @ xi / np.asarray(model.value(dirs))
    best = dirs[int(np.argmax(phi))]

    def neg_phi(ang):
        th, ph = ang
        y = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        return -float(y @ xi) / float(model.value(y))

    th0 = np.arccos(np.clip(best[2], -1, 1))
    ph0 = np.arctan2(best[1], best[0])
    res = minimize(neg_phi, np.array([th0, ph0]), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 600})
    numeric_sup = -res.fun
    assert numeric_sup == pytest.approx(0.5, abs=1e-8)
    assert model.dual_value(xi) == pytest.approx(numeric_sup, abs=1e-8)


@pytest.mark.parametrize("name", MODELS)
def test_dual_homogeneity(model_factory, name):
    model = model_factory(name)
    xi = 1.7 * sample_dirs(3, 20, seed=9)
    f1 = np.asarray(model.dual_value(xi))
    f2 = np.asarray(model.dual_value(3.0 * xi))
    assert np.max(np.abs(f2 / f1 - 3.0)) < 1e-9


def test_metric_isotropic_identity(model_factory):
    g = model_factory("iso3").metric(sample_dirs(3, 4, seed=10))
    assert np.max(np.abs(g - np.eye(3))) < 1e-14


def test_metric_ellipsoid_constant(model_factory):
    model = model_factory("ell3diag")
    g = np.asarray(model.metric(2.0 * sample_dirs(3, 6, seed=11)))
    assert np.max(np.abs(g - np.diag([1.0, 1.0, 0.25]))) < 1e-13
    q = np.asarray(model.q_tensor(sample_dirs(3, 3, seed=12)))
    assert np.max(np.abs(q)) == 0.0


@pytest.mark.parametrize("name", ("iso2", "iso3", "ell2", "ell3"))
def test_legendre_route_reproduces_the_constant_metric(model_factory, name):
    # the base class's G and Q at the Gauss preimages, against the family's
    # constant G and Q = 0
    model = model_factory(name)
    x = sample_dirs(model.dim, 50, seed=19)
    g = np.asarray(model.metric_on_wulff(x))
    q = np.asarray(model.q_on_wulff(x))
    assert np.max(np.abs(MinkowskiNorm.metric_on_wulff(model, x) - g)) < 1e-14
    assert np.max(np.abs(MinkowskiNorm.q_on_wulff(model, x) - q)) < 1e-14


def test_metric_identity_on_wulff_perturbed(model_factory):
    for name in ("pert3", "pert2"):
        model = model_factory(name)
        x = sample_dirs(model.dim, 100, seed=13)
        psi = np.asarray(model.cahn_hoffman(x))
        g = np.asarray(model.metric_on_wulff(x))
        vals = np.einsum("bi,bij,bj->b", psi, g, psi)
        assert np.max(np.abs(vals - 1.0)) < 1e-10


def test_metric_tangent_identity_oracle(model_factory):
    # G(A_F u, A_F v) = <u, A_F v>/F cross-checks the metric route
    model = model_factory("pert3")
    x = sample_dirs(3, 30, seed=14)
    tb = tangent_basis(x)
    a = np.asarray(model.anisotropy_matrix(x, basis=tb))
    g = np.asarray(model.metric_on_wulff(x))
    f = np.asarray(model.value(x))
    au = np.einsum("bkl,bld->bkd", a, tb)
    lhs = np.einsum("bkd,bde,ble->bkl", au, g, au)
    assert np.max(np.abs(lhs - a / f[:, None, None])) < 1e-5


def test_perturbed_metric_and_q_off_the_wulff_shape(model_factory):
    # G(xi) and Q(xi) at arbitrary xi take the cold multistart Gauss preimage
    for name in ("pert3", "pert2"):
        model = model_factory(name)
        x = sample_dirs(model.dim, 20, seed=17)
        z = np.asarray(model.cahn_hoffman(x))
        g = np.asarray(model.metric(z))
        assert np.max(np.abs(g - np.asarray(model.metric_on_wulff(x)))) < 1e-10
        assert np.max(np.abs(np.asarray(model.metric(z[0])) - g[0])) < 1e-10
        q = np.asarray(model.q_tensor(z))
        for t in (0.4, 2.5):
            assert np.max(np.abs(np.asarray(model.metric(t * z)) - g)) < 1e-10
            assert np.max(np.abs(t * np.asarray(model.q_tensor(t * z)) - q)) < 1e-10


def test_q_tensor_radial_contraction_perturbed(model_factory):
    for name in ("pert3", "pert2"):
        model = model_factory(name)
        x = sample_dirs(model.dim, 100, seed=15)
        psi = np.asarray(model.cahn_hoffman(x))
        q = np.asarray(model.q_on_wulff(x))
        contraction = np.einsum("bijk,bk->bij", q, psi)
        assert np.max(np.abs(contraction)) < 1e-9


def test_descriptor_roundtrip(model_factory):
    for name in MODELS:
        model = model_factory(name)
        clone = norm_from_descriptor(model.descriptor())
        x = sample_dirs(model.dim, 10, seed=16)
        assert np.allclose(np.asarray(model.value(x)), np.asarray(clone.value(x)),
                           rtol=0, atol=0)


def test_anisotropy_condition_diagnostic(mesh_factory):
    cond = mesh_factory("ell3", -0.4, 3).anisotropy_condition
    assert 1.0 < cond < 10.0


@settings(max_examples=30, deadline=None)
@given(t=st.floats(min_value=0.01, max_value=50.0))
def test_homogeneity_property(t):
    model = EllipsoidNorm(np.array([[1.0, 0.0, 0.2], [0.0, 1.2, 0.0], [0.2, 0.0, 0.9]]))
    x = np.array([0.3, -0.5, 0.81])
    assert float(model.value(t * x)) == pytest.approx(t * float(model.value(x)), rel=1e-12)


# ---------------------------------------------------------------------------
# closed-form G and Q of the perturbed family (Legendre duality)
# ---------------------------------------------------------------------------


def fd_newton_metric(model, z, x_warm):
    """Independent oracle for G: FD Hessian of (1/2) F0^2 over warm Newton solves.

    One unextrapolated central-difference Hessian stencil; every stencil
    point runs its own warm dual ascent from the matching x_warm row.
    """
    b = z.shape[0]
    h0 = 1e-4
    h = h0 * float(np.median(np.maximum(1.0, np.linalg.norm(z, axis=-1))))

    def half_dual_sq(pts):
        warm = np.repeat(x_warm, pts.shape[0] // b, axis=0)
        val = model.dual_value(pts, warm)
        return 0.5 * val * val

    hess, _ = fd.central_hessian(half_dual_sq, z, h, richardson=False)
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def _wulff_sample(model, count, seed):
    x = sample_dirs(model.dim, count, seed=seed)
    return np.asarray(model.cahn_hoffman(x)), x


@pytest.mark.parametrize("name", ("pert3", "pert2"))
def test_closed_form_metric_matches_fd_newton_oracle(model_factory, name):
    model = model_factory(name)
    z, x = _wulff_sample(model, 40, seed=17)
    g = np.asarray(model.metric_on_wulff(x))
    assert np.max(np.abs(g - fd_newton_metric(model, z, x))) < 1e-6


@pytest.mark.parametrize("name", ("pert3", "pert2"))
def test_closed_form_q_matches_metric_differences(model_factory, name):
    # Q = DG: central differences of the closed-form G in each ambient axis,
    # each off-shape point taking its own Gauss preimage
    model = model_factory(name)
    z, x = _wulff_sample(model, 30, seed=18)
    q = np.asarray(model.q_on_wulff(x))
    k = 1e-5
    eye = np.eye(model.dim)
    for c in range(model.dim):
        dg = (np.asarray(model.metric(z + k * eye[c]))
              - np.asarray(model.metric(z - k * eye[c]))) / (2.0 * k)
        assert np.max(np.abs(q[..., c] - dg)) < 1e-6


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("kind", ("iso", "ellipsoid", "perturbed", "bump", "linear", "quadratic"))
def test_third_derivative_matches_hessian_differences(model_factory, d, kind):
    if kind == "iso":
        obj = IsotropicNorm(d)
    elif kind == "ellipsoid":
        obj = EllipsoidNorm(np.eye(d) + 0.2 * np.ones((d, d)))
    elif kind == "perturbed":
        obj = model_factory(f"pert{d}")
    else:
        obj = PerturbTerm(kind, tuple(np.arange(1.0, d + 1.0)), 0.3, 0.7)
    x = 1.3 * sample_dirs(d, 25, seed=20 + d)
    k = 1e-5
    eye = np.eye(d)
    t = np.asarray(obj.third(x))
    for c in range(d):
        dh = (np.asarray(obj.hess(x + k * eye[c])) - np.asarray(obj.hess(x - k * eye[c]))) / (2.0 * k)
        assert np.max(np.abs(t[..., c] - dh)) < 1e-7
    assert np.max(np.abs(t - np.swapaxes(t, 1, 3))) < 1e-14


def test_perturbed_mesh_never_differences_f(monkeypatch, model_factory):
    # F's derivatives, G and Q at the nodes and the boundary snaps are all
    # closed form: building a perturbed mesh runs no finite difference
    calls = []

    def counting(real):
        def wrapped(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapped

    for name in ("central_gradient", "central_hessian"):
        monkeypatch.setattr(fd, name, counting(getattr(fd, name)))
    mesh = build_cap_mesh(CapConfig(2, -0.35, model_factory("pert3"), mesh_level=3))
    assert mesh.q_frame.shape == (mesh.node_count, 2, 2, 2)
    assert calls == []
