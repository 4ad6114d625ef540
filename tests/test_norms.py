from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import capaf.fd as fd
from capaf.capgeom import CapConfig, build_cap_mesh
from capaf.config import parse_config
from capaf.errors import InvalidInputError, ModelInvalidError, NumericError
from capaf.fields import CombinationField, LinearField, SphericalBumpField, WulffCapField
from capaf.mixdisc import md_transform_check, mixed_disc_gradient, mixed_discriminant_batch
from capaf.norms import (EllipsoidNorm, IsotropicNorm, MinkowskiNorm, PerturbedNorm,
                         PerturbTerm, spd_inverse, sym_eig_det, tangent_basis, tangent_form,
                         unit_rows)

MODELS = ("iso3", "ell3", "pert3")
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def sample_dirs(dim, count, seed=0):
    rng = np.random.default_rng(seed)
    return unit_rows(rng.normal(size=(count, dim)))


def tilted(x, angle, seed=0):
    """Unit rows x each turned by the given angle in a random tangent direction."""
    tb = tangent_basis(x)
    c = unit_rows(np.random.default_rng(seed).normal(size=tb.shape[:2]))
    return np.cos(angle) * x + np.sin(angle) * np.einsum("bk,bkd->bd", c, tb)


def dual_norm(model, xi, x_warm, steps=12):
    """Test oracle for the dual norm F0(xi) = max_y <y, xi>/F(y) and its
    maximizer y, the Gauss preimage of xi / F0(xi): plain Newton steps on
    the unit sphere from x_warm, each row on its own, on the tangential
    gradient of phi(y) = <y, xi>/F(y).  Fails unless every row converges."""
    y = unit_rows(x_warm)
    for k in range(steps + 1):
        f, df, d2f = model.jet(y, 2)
        phi = np.einsum("bi,bi->b", y, xi) / f
        grad = (xi - phi[:, None] * df) / f[:, None]
        tb = tangent_basis(y)
        gt = np.einsum("bkd,bd->bk", tb, grad)
        if k == steps:
            break
        hess = -(df[:, :, None] * grad[:, None, :] + grad[:, :, None] * df[:, None, :]
                 + phi[:, None, None] * d2f) / f[:, None, None]
        step = np.linalg.solve(np.einsum("bki,bij,blj->bkl", tb, hess, tb), -gt[..., None])
        y = unit_rows(y + np.einsum("bk,bkd->bd", step[..., 0], tb))
    res = np.linalg.norm(gt, axis=-1) * f / np.linalg.norm(xi, axis=-1)
    assert np.all(res < 1e-12), float(np.max(res))
    return phi, y


def anisotropy(model, x, basis):
    """A_F: the tangent restriction of D^2F at rows x (B, d), in the tangent
    bases (B, n, d)."""
    return np.einsum("bki,bij,blj->bkl", basis, model.hess(x), basis)


def test_eval_norm_unit_isotropic(model_factory):
    assert model_factory("iso3").value(np.array([[0.0, 0.0, 1.0]]))[0] == 1.0


def test_eval_norm_ellipsoid_axis(model_factory):
    assert model_factory("ell3diag").value(np.array([[0.0, 0.0, 1.0]]))[0] == pytest.approx(2.0)


@pytest.mark.parametrize("name", MODELS)
def test_homogeneity(model_factory, name):
    model = model_factory(name)
    x = sample_dirs(3, 20, seed=1)
    f1 = np.asarray(model.value(x))
    f2 = np.asarray(model.value(2.0 * x))
    assert np.max(np.abs(f2 / f1 - 2.0)) < 1e-12


def test_zero_vector_rejected(model_factory):
    with pytest.raises(InvalidInputError, match="zero vector"):
        model_factory("iso3").value(np.zeros((1, 3)))
    with pytest.raises(InvalidInputError, match="zero vector"):
        model_factory("ell3").jet(np.zeros((1, 3)), 3)
    with pytest.raises(InvalidInputError, match="zero vector"):
        model_factory("pert3").hess(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    # a zonal term shares the norms' rows contract, zero check included
    term = PerturbTerm("bump", (0.0, 0.0, 1.0), 0.3, 0.05)
    for method in (term.value, term.grad, term.hess, lambda x: term.jet(x, 3)):
        with pytest.raises(InvalidInputError, match="zero vector"):
            method(np.zeros((1, 3)))


def test_every_evaluator_rejects_a_single_point_or_matrix(model_factory):
    # the evaluators take rows (B, d) and (B, n, n) batches only: one point
    # (d,) or one matrix (n, n) is an InvalidInputError at every entry, not
    # an answer in kind
    point, row = np.array([0.1, 0.2, 0.97]), np.array([[0.1, 0.2, 0.97]])
    term = PerturbTerm("bump", (0.0, 0.0, 1.0), 0.3, 0.05)
    funcs = [model_factory(name) for name in MODELS] + [
        term, WulffCapField(model_factory("ell3"), -0.4, 1.0, [0.0, 0.0, 1.0]),
        LinearField([0.1, 0.0, 1.0]), SphericalBumpField((0.0, 0.0, 1.0), 0.5, 0.1),
        CombinationField([LinearField([0.1, 0.0, 1.0])], [2.0])]
    entries = [tangent_basis]
    for func in funcs:
        entries += [func.value, func.grad, func.hess, lambda x, f=func: f.jet(x, 2)[2]]
    for entry in entries:
        assert np.asarray(entry(row)).shape[0] == 1
        with pytest.raises(InvalidInputError):
            entry(point)
    mats = [np.eye(2), 2.0 * np.eye(2)]
    for entry in (mixed_discriminant_batch, mixed_disc_gradient,
                  lambda m: md_transform_check(m, [np.eye(2)])):
        assert np.asarray(entry([m[None] for m in mats])).shape[0] == 1
        with pytest.raises(InvalidInputError):
            entry(mats)
    with pytest.raises(InvalidInputError):
        md_transform_check([m[None] for m in mats], np.eye(2))


def test_cahn_hoffman_isotropic_identity(model_factory):
    # the Cahn-Hoffman map DF, which parametrizes the Wulff shape
    x = sample_dirs(3, 10, seed=2)
    psi = model_factory("iso3").grad(x)
    assert np.max(np.abs(psi - x)) < 1e-14


def test_cahn_hoffman_ellipsoid_axis(model_factory):
    psi = model_factory("ell3diag").grad(np.array([[0.0, 0.0, 1.0]]))
    assert np.allclose(psi, [[0.0, 0.0, 2.0]], atol=1e-14)


def test_cahn_hoffman_nonunit_flag(model_factory):
    # DF is 0-homogeneous: a point off the unit sphere maps as its direction
    model = model_factory("ell3")
    a = model.grad(np.array([[0.0, 0.0, 2.0]]))
    b = model.grad(np.array([[0.0, 0.0, 1.0]]))
    assert np.allclose(a, b)


@pytest.mark.parametrize("name,tol", [("iso3", 1e-10), ("ell3", 1e-10), ("pert3", 1e-10)])
def test_euler_relation(model_factory, name, tol):
    model = model_factory(name)
    x = sample_dirs(3, 50, seed=3)
    psi = model.grad(x)
    dev = np.abs(np.einsum("bi,bi->b", psi, x) - np.asarray(model.value(x)))
    assert np.max(dev) < tol


@pytest.mark.parametrize("name", MODELS)
def test_wulff_membership(model_factory, name):
    # F0(Psi(x)) = 1 on the Wulff shape: the oracle's ascent starts 0.1 rad
    # off the preimage x and returns to it
    model = model_factory(name)
    x = sample_dirs(3, 100, seed=4)
    psi = model.grad(x)
    f0, arg = dual_norm(model, psi, tilted(x, 0.1, seed=4))
    assert np.max(np.abs(f0 - 1.0)) < 1e-8
    assert np.max(np.abs(arg - x)) < 1e-8


def test_anisotropy_isotropic_identity(model_factory):
    x = sample_dirs(3, 5, seed=5)
    a = anisotropy(model_factory("iso3"), x, tangent_basis(x))
    assert np.max(np.abs(a - np.eye(2))) < 1e-13


def test_anisotropy_ellipsoid_axis(model_factory):
    basis = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    a = anisotropy(model_factory("ell3diag"), np.array([[0.0, 0.0, 1.0]]), basis)
    assert np.allclose(a, 0.5 * np.eye(2), atol=1e-13)


@pytest.mark.parametrize("name", MODELS)
def test_anisotropy_symmetric_positive(model_factory, name):
    model = model_factory(name)
    x = sample_dirs(3, 40, seed=6)
    a = anisotropy(model, x, tangent_basis(x))
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
    # by row: no companion can move a row, so a one-row batch answers with
    # the bits of the same row in a larger batch
    terms = [(PerturbTerm(kind, (0.3, 0.2, 0.93), 0.3, 0.05), 3)
             for kind in ("bump", "linear", "quadratic")]
    norms = [(model_factory(name), model_factory(name).dim)
             for name in ("iso3", "ell3", "pert2", "pert3")]
    for func, d in norms + terms:
        x = np.array([0.05, 0.1, 0.99])[-d:]
        batch = np.stack([x, 3.0 * unit_rows(np.array([1.0, -0.5, 0.3])[:d]), -3.0 * np.eye(d)[-1]])
        for order, method in enumerate((func.value, func.grad, func.hess,
                                        lambda p: func.jet(p, 3)[3])):
            one, rows = method(x[None]), method(batch)
            assert rows.shape == (len(batch),) + (d,) * order, (func, order)
            assert np.array_equal(one, rows[:1]), (func, order)


def test_ellipsoid_jets_and_dual_row_independent_of_batch():
    # on the 2x2 I + 0.1, contracting x, M and x in one einsum gives some
    # lone rows other last bits than inside a 300-row batch; one x @ M per
    # jet, then a row dot, gives each of 300 standard-normal rows the bits of
    # the whole batch, at every order, in the dual metric G that the Legendre
    # route reads from the jet, and under a perturbed norm on that base
    base = EllipsoidNorm(np.eye(2) + 0.1)
    pert = PerturbedNorm(base, [PerturbTerm("bump", (0.4, 0.92), 0.3, 0.05),
                                PerturbTerm("quadratic", (0.0, 1.0), 0.0, 0.06)])
    x = np.random.default_rng(0).normal(size=(300, 2))
    jets = [model.jet(x, 3) for model in (base, pert)]
    metrics = [MinkowskiNorm.metric_from_jet(model, jet) for model, jet in zip((base, pert), jets)]
    for i in range(len(x)):
        row = x[i:i + 1]
        for model, jet, g in zip((base, pert), jets, metrics):
            one = model.jet(row, 3)
            for order, whole in enumerate(jet):
                assert np.array_equal(one[order], whole[i:i + 1]), (model.family, order, i)
            assert np.array_equal(MinkowskiNorm.metric_from_jet(model, one), g[i:i + 1]), i


@pytest.mark.parametrize("base", (IsotropicNorm(2), EllipsoidNorm(np.eye(2) + 0.1)),
                         ids=("iso", "ell"))
def test_perturbed_dual_row_independent_of_batch(base):
    # the dual side of the perturbed norm is its metric G and tensor Q at the
    # Gauss preimages, the Hessian and third derivative of (1/2) F0^2 by the
    # Legendre route: each of 300 standard-normal rows, alone, gets the bits
    # it has in the whole batch
    pert = PerturbedNorm(base, [PerturbTerm("bump", (0.4, 0.92), 0.3, 0.05),
                                PerturbTerm("quadratic", (0.0, 1.0), 0.0, 0.06)])
    x = np.random.default_rng(0).normal(size=(300, 2))
    g, q = pert.metric_on_wulff(x), pert.q_on_wulff(x)
    for i in range(len(x)):
        row = x[i:i + 1]
        assert np.array_equal(pert.metric_on_wulff(row), g[i:i + 1]), i
        assert np.array_equal(pert.q_on_wulff(row), q[i:i + 1]), i


@pytest.mark.parametrize("d", (2, 3))
def test_closed_form_metric_is_the_lapack_inverse(d, mesh_factory):
    # G = [DF DF^T + F D^2F]^-1 is the adjugate over the determinant: it
    # matches LAPACK's inverse to 1e-13 of each row's largest entry, on 10^4
    # random symmetric positive definite stacks and on the perturbed norm's
    # jets at the nodes of a level-4 mesh, and it is exactly symmetric
    rng = np.random.default_rng(40 + d)
    a = rng.normal(size=(10_000, d, d))
    m = a @ np.swapaxes(a, 1, 2) + np.eye(d)
    mesh = mesh_factory("pert3", -0.35, 4) if d == 3 else mesh_factory("pert2", -0.2, 4)
    f, df, d2f = mesh.model.jet(mesh.nodes, 2)
    legendre = df[:, :, None] * df[:, None, :] + f[:, None, None] * d2f
    for stack, g in ((m, spd_inverse(m)),
                     (legendre, MinkowskiNorm.metric_from_jet(mesh.model, [f, df, d2f]))):
        want = np.linalg.inv(stack)
        rel = np.max(np.abs(g - want), axis=(1, 2)) / np.max(np.abs(want), axis=(1, 2))
        assert np.max(rel) <= 1e-13
        assert np.array_equal(g, np.swapaxes(g, 1, 2))


@pytest.mark.parametrize("d", (2, 3))
def test_closed_form_metric_rejects_a_stack_that_is_not_positive_definite(d):
    # a singular row, or an indefinite one (also one of positive
    # determinant, two negative eigenvalues in 3d), raises NumericError
    # naming the first such row
    good = np.broadcast_to(np.eye(d) + 0.1, (5, d, d)).copy()
    singular = np.ones((d, d))
    indefinite = np.diag([1.0, -1.0, -1.0][:d])
    for row, bad in ((3, singular), (1, indefinite), (4, -np.eye(d))):
        stack = good.copy()
        stack[row] = bad
        with pytest.raises(NumericError, match=f"not positive definite at row {row} "):
            spd_inverse(stack)


@pytest.mark.parametrize("d", (2, 3))
def test_tangent_form_is_the_einsum_and_row_independent_of_batch(d):
    # on rows of two or more it is the literal three-operand einsum, bit for
    # bit; a lone row gets the bits it has inside the 300-row batch
    rng = np.random.default_rng(1)
    x = unit_rows(rng.normal(size=(300, d)))
    m = rng.normal(size=(300, d, d))
    basis = tangent_basis(x)
    whole = tangent_form(basis, m)
    assert np.array_equal(whole, np.einsum("bki,bij,blj->bkl", basis, m, basis))
    assert np.array_equal(tangent_form(basis[:2], m[:2]),
                          np.einsum("bki,bij,blj->bkl", basis[:2], m[:2], basis[:2]))
    assert tangent_form(basis[:0], m[:0]).shape == (0, d - 1, d - 1)
    for i in range(len(x)):
        one = tangent_form(basis[i:i + 1], m[i:i + 1])
        assert one.shape == (1, d - 1, d - 1) and np.array_equal(one, whole[i:i + 1]), i


def test_tangent_form_is_the_one_restriction_to_row_bases():
    """The row-basis restriction `bki,bij,blj->bkl` is written once in the
    package, in norms.tangent_form, so its lone-row rule has one owner."""
    import inspect

    import capaf
    import capaf.norms as norms

    subscripts = "bki,bij,blj->bkl"
    counts = {path.name: path.read_text(encoding="utf-8").count(subscripts)
              for path in Path(capaf.__file__).parent.glob("*.py")}
    assert {name: c for name, c in counts.items() if c} == {"norms.py": 1}
    assert subscripts in inspect.getsource(norms.tangent_form)


@pytest.mark.parametrize("name", ("iso3", "iso2", "ell3", "ell2", "pert3", "pert2",
                                  "bump", "linear", "quadratic"))
def test_jet_entries_do_not_depend_on_the_order_asked_for(model_factory, name):
    # _derivative(x, k)[j] is bit for bit the same for every k >= j, and the
    # public jet and single-order methods return those very entries
    func = (model_factory(name) if name not in ("bump", "linear", "quadratic")
            else PerturbTerm(name, (0.3, 0.2, 0.93), 0.3, 0.05))
    d = func.dim if hasattr(func, "dim") else len(func.center)
    x = np.random.default_rng(4).normal(size=(17, d)) * np.logspace(-2, 2, 17)[:, None]
    jets = [func._derivative(x, k) for k in range(4)]
    for k, jet in enumerate(jets):
        assert len(jet) == k + 1
        for j in range(k + 1):
            assert jet[j].shape == (len(x),) + (d,) * j
            assert np.array_equal(jet[j], jets[3][j]), (k, j)
    public = func.jet(x, 3)
    for j in range(4):
        assert np.array_equal(public[j], jets[3][j]), j
    for j, method in enumerate((func.value, func.grad, func.hess)):
        assert np.array_equal(np.asarray(method(x)), jets[3][j]), j
        assert np.array_equal(func.jet(x[:1], 3)[j], method(x[:1])), j


def test_each_homogeneous_function_has_one_derivative_method():
    """One base defines the public derivative methods of norms, zonal terms
    and support fields alike; every concrete class computes its derivatives
    in one `_derivative(x, order)`, and the composites, with the stacked
    bump pass a combination takes, read their parts' `_derivative` or
    zonal chain, never a part's public method."""
    import ast
    import inspect
    import textwrap

    import capaf.fields as fields
    import capaf.norms as norms

    public = {"value", "grad", "hess", "jet", "third"}
    base = norms._Homogeneous
    abstract = {base, norms.MinkowskiNorm, fields.SupportField}
    concrete = set()
    for mod in (norms, fields):
        for cls in vars(mod).values():
            if not (inspect.isclass(cls) and cls.__module__ == mod.__name__
                    and issubclass(cls, base)):
                continue
            owned = public - {"third"} if cls is base else set()
            assert public & set(vars(cls)) == owned, cls.__name__
            if cls not in abstract:
                assert "_derivative" in vars(cls), cls.__name__
                concrete.add(cls.__name__)
    assert issubclass(fields.SupportField, base) and not hasattr(base, "third")
    assert concrete == {"IsotropicNorm", "EllipsoidNorm", "PerturbedNorm", "PerturbTerm",
                        "WulffCapField", "LinearField", "SphericalBumpField",
                        "CombinationField"}
    for func in (norms.PerturbedNorm._derivative, fields.CombinationField._derivative,
                 fields.WulffCapField._derivative, fields._bump_jets):
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        called = {n.func.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
        assert called & public == set(), func.__qualname__


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("base_family", ("isotropic", "ellipsoid"))
def test_folded_zonal_jet_matches_the_per_term_sum(d, base_family):
    # the perturbed norm folds its zonal terms into one jet; the oracle is the
    # base's jet plus each term's own chain, order by order, on the
    # validation sample at scales 1e-2..1e2, to 1e-13 of each row's largest
    # entry of that order
    rng = np.random.default_rng(30 + d)
    base = (IsotropicNorm(d) if base_family == "isotropic"
            else EllipsoidNorm(np.eye(d) + 0.1 * np.ones((d, d))))
    kinds = (("bump", 0.4, 0.03), ("linear", 0.0, 0.1), ("quadratic", 0.0, -0.05),
             ("bump", 0.9, -0.02))
    terms = [PerturbTerm(kind, tuple(sample_dirs(d, 1, seed=k)[0]), width, amplitude)
             for k, (kind, width, amplitude) in enumerate(kinds)]
    model = PerturbedNorm(base, terms)
    x = model.validation_sample()
    x = x * 10.0 ** rng.uniform(-2.0, 2.0, size=(len(x), 1))
    for order in range(4):
        oracle = base._derivative(x, order)
        for term in terms:
            for acc, part in zip(oracle, term._derivative(x, order)):
                acc += part
        for j, (got, want) in enumerate(zip(model._derivative(x, order), oracle)):
            scale = np.max(np.abs(want).reshape(len(x), -1), axis=1)
            dev = np.max(np.abs(got - want).reshape(len(x), -1), axis=1)
            assert np.all(dev <= 1e-13 * scale), (order, j, float(np.max(dev / scale)))


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


def test_perturbed_validation_rejects_wild_amplitude():
    with pytest.raises(ModelInvalidError):
        PerturbedNorm(IsotropicNorm(3),
                      [PerturbTerm("bump", (0.0, 0.0, 1.0), 0.05, 0.8)])


@pytest.mark.parametrize("amplitude,width,broken", [(0.8, 0.05, "anisotropy matrix"),
                                                   (-1.5, 0.3, "perturbed norm non-positive")])
def test_perturbed_validation_past_the_first_block_matches_a_whole_sample_scan(amplitude, width,
                                                                               broken):
    # a bump centred on a sample node beyond the first block of rows breaks
    # A_F > 0 (resp. F > 0) there: the blocked scan names the node and the
    # eigenvalue a whole-sample scan does
    base = IsotropicNorm(3)
    pts = base.validation_sample()
    term = PerturbTerm("bump", tuple(pts[5000]), width, amplitude)
    f, _, d2f = (a + b for a, b in zip(base.jet(pts, 2), term.jet(pts, 2)))
    tb = tangent_basis(pts)
    lam = sym_eig_det(np.einsum("bki,bij,blj->bkl", tb, d2f, tb))[0][:, 0]
    if np.any(f <= 0):
        i = int(np.argmin(f))
        expected = f"perturbed norm non-positive at sample node {i}"
    else:
        i = int(np.argmin(lam))
        expected = (f"anisotropy matrix not positive definite at sample node {i} "
                    f"(min eigenvalue {lam[i]:.3e})")
    assert expected.startswith(broken) and i >= 512
    with pytest.raises(ModelInvalidError) as err:
        PerturbedNorm(base, [term])
    assert str(err.value) == expected
    assert np.array_equal(err.value.node, pts[i])


def test_perturbed_validation_peak_memory(traced_peak):
    # the validation sample is evaluated in row blocks: its whole-batch jet
    # and tangent Hessians took about 7 MB of transient arrays
    model = parse_config(str(CONFIGS / "perturbed.ini")).norm
    model.validation_sample()  # warm the shared icosphere cache first
    assert traced_peak(lambda: PerturbedNorm(model.base, model.terms)) <= 1.5e6


def test_dual_norm_isotropic():
    # the tests' dual-norm oracle: F0 = |xi|, maximized at xi / |xi|
    f0, arg = dual_norm(IsotropicNorm(3), np.array([[3.0, 4.0, 0.0]]),
                        np.array([[0.5, 0.5, 0.7]]))
    assert f0[0] == pytest.approx(5.0)
    assert np.allclose(arg, [[0.6, 0.8, 0.0]])


def test_dual_norm_ellipsoid_vs_numeric_sup(model_factory):
    # the tests' dual-norm oracle against a dense sample plus derivative-free
    # polish
    model = model_factory("ell3diag")
    xi = np.array([0.0, 0.0, 1.0])
    dirs = sample_dirs(3, 4000, seed=8)
    phi = dirs @ xi / np.asarray(model.value(dirs))
    best = dirs[int(np.argmax(phi))]

    def neg_phi(ang):
        th, ph = ang
        y = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        return -float(y @ xi) / float(model.value(y[None])[0])

    th0 = np.arccos(np.clip(best[2], -1, 1))
    ph0 = np.arctan2(best[1], best[0])
    res = minimize(neg_phi, np.array([th0, ph0]), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 600})
    numeric_sup = -res.fun
    assert numeric_sup == pytest.approx(0.5, abs=1e-8)
    assert dual_norm(model, xi[None], best[None])[0][0] == pytest.approx(numeric_sup, abs=1e-8)


@pytest.mark.parametrize("name", MODELS)
def test_dual_homogeneity(model_factory, name):
    # the tests' dual-norm oracle: both ascents start 0.1 rad off the
    # preimage x of xi
    model = model_factory(name)
    x = sample_dirs(3, 20, seed=9)
    xi = 1.7 * model.grad(x)
    warm = tilted(x, 0.1, seed=9)
    f1, _ = dual_norm(model, xi, warm)
    f2, _ = dual_norm(model, 3.0 * xi, warm)
    assert np.max(np.abs(f2 / f1 - 3.0)) < 1e-9


def test_metric_isotropic_identity(model_factory):
    g = model_factory("iso3").metric_on_wulff(sample_dirs(3, 4, seed=10))
    assert np.max(np.abs(g - np.eye(3))) < 1e-14


def test_metric_ellipsoid_constant(model_factory):
    model = model_factory("ell3diag")
    g = np.asarray(model.metric_on_wulff(sample_dirs(3, 6, seed=11)))
    assert np.max(np.abs(g - np.diag([1.0, 1.0, 0.25]))) < 1e-13
    q = np.asarray(model.q_on_wulff(sample_dirs(3, 3, seed=12)))
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
        psi = model.grad(x)
        g = np.asarray(model.metric_on_wulff(x))
        vals = np.einsum("bi,bij,bj->b", psi, g, psi)
        assert np.max(np.abs(vals - 1.0)) < 1e-10


def test_metric_tangent_identity_oracle(model_factory):
    # G(A_F u, A_F v) = <u, A_F v>/F cross-checks the metric route
    model = model_factory("pert3")
    x = sample_dirs(3, 30, seed=14)
    tb = tangent_basis(x)
    a = anisotropy(model, x, tb)
    g = np.asarray(model.metric_on_wulff(x))
    f = np.asarray(model.value(x))
    au = np.einsum("bkl,bld->bkd", a, tb)
    lhs = np.einsum("bkd,bde,ble->bkl", au, g, au)
    assert np.max(np.abs(lhs - a / f[:, None, None])) < 1e-10


def test_q_tensor_radial_contraction_perturbed(model_factory):
    for name in ("pert3", "pert2"):
        model = model_factory(name)
        x = sample_dirs(model.dim, 100, seed=15)
        psi = model.grad(x)
        q = np.asarray(model.q_on_wulff(x))
        contraction = np.einsum("bijk,bk->bij", q, psi)
        assert np.max(np.abs(contraction)) < 1e-9


def test_anisotropy_condition_diagnostic(mesh_factory):
    cond = mesh_factory("ell3", -0.4, 3).anisotropy_condition
    assert 1.0 < cond < 10.0


@settings(max_examples=30, deadline=None)
@given(t=st.floats(min_value=0.01, max_value=50.0))
def test_homogeneity_property(t):
    model = EllipsoidNorm(np.array([[1.0, 0.0, 0.2], [0.0, 1.2, 0.0], [0.2, 0.0, 0.9]]))
    x = np.array([[0.3, -0.5, 0.81]])
    assert model.value(t * x)[0] == pytest.approx(t * model.value(x)[0], rel=1e-12)


# ---------------------------------------------------------------------------
# closed-form G and Q of the perturbed family (Legendre duality)
# ---------------------------------------------------------------------------


def fd_newton_metric(model, z, x_warm):
    """Independent oracle for G: FD Hessian of (1/2) F0^2 over warm Newton solves.

    One unextrapolated central-difference Hessian stencil; every stencil
    point runs the tests' dual-norm oracle from the matching x_warm row.
    """
    b = z.shape[0]
    h0 = 1e-4
    h = h0 * float(np.median(np.maximum(1.0, np.linalg.norm(z, axis=-1))))

    def half_dual_sq(pts):
        warm = np.repeat(x_warm, pts.shape[0] // b, axis=0)
        val, _ = dual_norm(model, pts, warm)
        return 0.5 * val * val

    hess, _ = fd.central_hessian(half_dual_sq, z, h, richardson=False)
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def _wulff_sample(model, count, seed):
    x = sample_dirs(model.dim, count, seed=seed)
    return model.grad(x), x


@pytest.mark.parametrize("name", ("pert3", "pert2"))
def test_closed_form_metric_matches_fd_newton_oracle(model_factory, name):
    model = model_factory(name)
    z, x = _wulff_sample(model, 40, seed=17)
    g = np.asarray(model.metric_on_wulff(x))
    assert np.max(np.abs(g - fd_newton_metric(model, z, x))) < 1e-6


@pytest.mark.parametrize("name", ("pert3", "pert2"))
def test_closed_form_q_matches_metric_differences(model_factory, name):
    # Q = DG: central differences of the closed-form G in each ambient axis,
    # each off-shape point taking its own Gauss preimage from the tests'
    # dual-norm oracle, warm from x
    # (G is 0-homogeneous, so G(z) is G at the Wulff point z / F0(z))
    model = model_factory(name)
    z, x = _wulff_sample(model, 30, seed=18)
    q = np.asarray(model.q_on_wulff(x))
    k = 1e-5
    eye = np.eye(model.dim)

    def metric(p):
        return np.asarray(model.metric_on_wulff(dual_norm(model, p, x)[1]))

    for c in range(model.dim):
        dg = (metric(z + k * eye[c]) - metric(z - k * eye[c])) / (2.0 * k)
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
    t = obj.jet(x, 3)[3]
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
    mesh = build_cap_mesh(CapConfig(model_factory("pert3"), -0.35, 3))
    assert mesh.q_frame.shape == (mesh.node_count, 2, 2, 2)
    assert calls == []


def test_mesh_evaluates_f_at_its_nodes_in_one_jet(monkeypatch, model_factory):
    # F, DF, D^2F and G at the nodes all come from one jet of F's chain:
    # one pass through the perturbed norm, whose zonal terms are folded into
    # that jet, with no per-term jet
    model = model_factory("pert3")
    seen = []
    for cls in (PerturbedNorm, PerturbTerm):
        def recording(self, x, order, real=cls._derivative, name=cls.__name__):
            seen.append((name, np.array(x), order))
            return real(self, x, order)
        monkeypatch.setattr(cls, "_derivative", recording)
    mesh = build_cap_mesh(CapConfig(model, -0.35, 3))
    at_nodes = [(name, order) for name, x, order in seen
                if x.shape == mesh.nodes.shape and np.array_equal(x, mesh.nodes)]
    assert at_nodes == [("PerturbedNorm", 2)]


def _symmetric_stack(kind):
    """400 symmetric 2x2 matrices of the given kind at each scale 1e-8..1e8."""
    rng = np.random.default_rng(11)
    out = []
    for scale in 10.0 ** np.arange(-8, 9, 2):
        a = rng.normal(size=(400, 2, 2)) * scale
        sym = a + np.swapaxes(a, 1, 2)
        gram = a @ np.swapaxes(a, 1, 2) + 1e-3 * scale**2 * np.eye(2)
        out.append({"random": sym, "positive": gram, "negative": -gram,
                    "diagonal": sym * np.eye(2),
                    "repeated": rng.normal(size=(400, 1, 1)) * scale * np.eye(2),
                    "indefinite": np.abs(sym) * np.array([[1.0, 1.0], [1.0, -1.0]])}[kind])
    return np.concatenate(out)


@pytest.mark.parametrize("kind", ["random", "positive", "negative", "diagonal", "repeated",
                                  "indefinite"])
def test_closed_form_spectrum_matches_lapack(kind):
    m = _symmetric_stack(kind)
    eps = np.finfo(float).eps
    norm = np.linalg.norm(m, ord=2, axis=(1, 2))
    ev, det = sym_eig_det(m)
    assert np.all(ev[:, 0] <= ev[:, 1])
    assert np.all(np.abs(ev - np.linalg.eigvalsh(m)) <= 4 * eps * norm[:, None])
    exact = np.array([float(Fraction(a[0, 0]) * Fraction(a[1, 1]) - Fraction(a[0, 1]) * Fraction(a[1, 0]))
                      for a in m])
    assert np.all(np.abs(det - exact) <= 4 * eps * norm**2)
    # numpy's det is sign * exp(sum log|u_ii|) of an LU factorization, whose
    # rounding grows with |log det|
    lapack = np.linalg.det(m)
    assert np.all(np.abs(det - lapack) <= 4 * eps * norm**2 * (1.0 + np.abs(np.log(np.abs(exact)))))


def test_closed_form_spectrum_reads_the_lower_triangle_and_is_exact_at_n1():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(50, 2, 2))
    lower = np.tril(m) + np.swapaxes(np.tril(m, -1), 1, 2)
    assert np.array_equal(sym_eig_det(m)[0], sym_eig_det(lower)[0])
    one = rng.normal(size=(50, 1, 1)) * np.logspace(-8, 8, 50)[:, None, None]
    ev, det = sym_eig_det(one)
    assert np.array_equal(ev, np.linalg.eigvalsh(one))
    # the entry itself, as numpy's det, through exp(log |a|), is not exact
    assert np.array_equal(det, one[:, 0, 0])

