"""Command-line front end.

Subcommands:
  verify --config P [--out DIR]
  mesh info --config P [--dump FILE]
  body gen --config P --seed K --out FILE
  study converge --config P --check NAME --levels A..B [--out DIR]

`--out` alone names the output directory: `capaf-out` by default for
`verify`, and none for `study converge`, which then writes no file.  Both
make it before they build any mesh, so an unwritable path costs no run.
The config's `[suites] run` alone names the suites `verify` runs, and
report.json echoes it.  Suites run one after another.  The runners write no
threshold: every tolerance, decay ratio and floor a record applies is a
constant in config.TOLERANCES.  The decay suites (minkowski, symmetry,
kernel, operator) and `study converge` share one per-level function per
check, each the worst case over the config's seeds, and one
convergence-table builder.  The kernel suite takes one path for every norm
family: its tau-max records read the Richardson-extrapolated maxima on the
last study level, its decay records and tables (and `study converge
--check kernel`) the raw step-h maxima on every level.  A `RunContext`
owns the study schedule, the strictly increasing mesh levels every decay
study visits: max(1, L-2)..L for `verify` at config level L (just 0 at
L0), exactly A..B for `study converge --levels A..B`.  It generates every
random body on the last of them and rebinds it onto each study level's
mesh, the last one included.

Exit codes: 0 all checks passed, 1 some check failed (or a body could not
be generated), 2 usage or configuration error, or an output path that
cannot be written.  Identical configs produce byte-identical numeric
report fields; per-record wall times (JSON only) are the single
exception.  One timer, in `run_suite`, times each suite's runner and
shares that time evenly among the suite's records (a generation-failure
record included), so the records' times sum to the suites' time; the
runners call the checks and time nothing.  The chain suite checks each
body's chain inequalities by families, which take each slot sum once.

`python -m capaf.cli` and the `capaf` script both run `entry`, the one
exit path: main(), then gc.freeze() once every report is closed, so the
interpreter skips its collection at exit; main() itself freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
import time

import numpy as np

from . import functionals as fn
from .bodies import (CapillaryBody, make_wulff_cap, minkowski_combine,
                     random_capillary_body, rebind, translate_horizontal)
from .capgeom import MAX_MESH_LEVEL, build_cap_mesh
from .config import TOLERANCES, SuiteConfig, parse_config
from .errors import CapafError, GenerationError, InvalidConfigError, InvalidInputError
from .fields import CombinationField, kernel_field, tau_from_generator
from .mixdisc import md_transform_check, mixed_disc_gradient, mixed_discriminant_batch
from .report import CheckRecord, RunReport, digest, emit_report


class RunContext:
    """Lazy caches shared by the suite runners of one run, and its study
    schedule `levels` (see the module docstring), whose last level is the
    default mesh."""

    def __init__(self, cfg: SuiteConfig, levels=None):
        if levels is None:
            levels = list(range(max(1, cfg.mesh_level - 2), cfg.mesh_level + 1)) or [0]
        elif levels[0] < 0 or levels[-1] > MAX_MESH_LEVEL:
            raise InvalidInputError(f"--levels {levels[0]}..{levels[-1]} reaches outside the "
                                    f"mesh levels [0, {MAX_MESH_LEVEL}]")
        self.cfg = cfg
        self.levels = levels
        self._meshes = {}
        self._bodies = {}

    @property
    def analytic(self) -> bool:
        """False for the perturbed norm family.  Its derivatives are closed
        form too, and its kernel check takes the one kernel path, but its
        decay records stay diagnostics, because the benchmark
        (perfbench/run.py) pins `verify-perturbed` at 70 checks."""
        return self.cfg.norm.family != "perturbed"

    def mesh(self, level=None):
        level = self.levels[-1] if level is None else level
        if level not in self._meshes:
            self._meshes[level] = build_cap_mesh(self.cfg.cap_config(level))
        return self._meshes[level]

    def body(self, seed, level=None):
        """Random body `seed`: generated on the default mesh (level None), or
        that body rebound onto the level-`level` mesh of a study."""
        key = (seed, level)
        if key not in self._bodies:
            self._bodies[key] = (random_capillary_body(self.mesh(), seed) if level is None
                                 else rebind(self.body(seed), self.mesh(level)))
        return self._bodies[key]

    def bodies(self, seed, count, level=None):
        """The `count` bodies of a tuple: seeds seed * 101 + j, j < count."""
        return [self.body(seed * 101 + j, level) for j in range(count)]


def _shifted(body, dx):
    """Body translated by dx along the first horizontal axis."""
    v = np.zeros(body.mesh.dim)
    v[0] = dx
    return translate_horizontal(body, v)


def _report_record(suite, name, inputs, rep) -> CheckRecord:
    return CheckRecord(suite, name, digest(inputs), rep.lhs, rep.rhs, rep.gap,
                       rep.relative_gap, rep.tolerance, rep.passed)


def _ratios(values):
    """Decay ratios prev / cur between consecutive levels; None where either
    side is exactly 0, as such a pair carries no decay information."""
    return [prev / max(cur, 1e-300) if prev != 0 and cur != 0 else None
            for prev, cur in zip(values, values[1:])]


def _decay_rows(levels, values, residuals=None):
    """Convergence-table rows [level, value, residual, ratio].

    The residual defaults to the value; the ratio is the previous level's
    residual over this one, nan on the first level and wherever `_ratios`
    can read no decay rate.
    """
    residuals = values if residuals is None else residuals
    ratios = [float("nan")] + [float("nan") if r is None else r for r in _ratios(residuals)]
    return [[level, values[i], residuals[i], ratios[i]] for i, level in enumerate(levels)]


def _decay_record(ctx, suite, name, inputs, values, min_ratio, floor) -> CheckRecord:
    """Record asserting that `values` decrease by >= min_ratio per level.

    Decay assertions only make sense above the scheme's noise floor.  A
    pair of levels with an exact 0 on either side is skipped (see
    `_ratios`); with no ratio left, only the floor can pass the record.  On
    the perturbed norm they are logged as diagnostics (see
    RunContext.analytic): its derivatives are closed form, but the
    benchmark pins its run at 70 checks.
    """
    vals = [float(v) for v in values]
    worst = min((r for r in _ratios(vals) if r is not None), default=float("nan"))
    passed = worst >= min_ratio or vals[-1] <= floor
    kind = "check" if ctx.analytic else "diagnostic"
    return CheckRecord(suite, name, digest(inputs), worst, min_ratio,
                       worst - min_ratio, worst / min_ratio - 1.0, min_ratio,
                       bool(passed) or kind != "check", kind=kind)


def _value_record(suite, name, inputs, value, tolerance) -> CheckRecord:
    value = float(value)
    return CheckRecord(suite, name, digest(inputs), value, tolerance,
                       value - tolerance, value / max(tolerance, 1e-300) - 1.0,
                       tolerance, bool(value <= tolerance))


# ---------------------------------------------------------------------------
# per-level checks, shared by the decay suites and `study converge`; bodies
# are generated on the context's last study level and rebound onto `level`
# ---------------------------------------------------------------------------


def _worst(values):
    """Largest of `values`, folded from 0.0 (so 0.0 when there are none)."""
    return max([0.0, *values])


def _minkowski_residual(ctx, level, k):
    """|Residual of the capillary Minkowski formula of order k|."""
    return _worst(abs(fn.minkowski_formula_residual(ctx.body(seed, level), k))
                  for seed in ctx.cfg.seeds)


def _symmetry_deviations(ctx, level):
    """(swap, trailing-permutation) deviations of the slot form over its scale."""
    outs = [fn.symmetry_check(ctx.bodies(seed, ctx.cfg.n + 1, level))
            for seed in ctx.cfg.seeds]
    return (_worst(o["swap_deviation"] / o["scale"] for o in outs),
            _worst(o["trailing_deviation"] / o["scale"] for o in outs))


def _kernel_tau(ctx, level):
    """Largest intrinsic-route tau entry of each kernel field E_1..E_n, from
    the one step-h pass whose second-order decay the study reads."""
    return fn.kernel_tau_raw(ctx.mesh(level))


def _selfadjoint_deviation(ctx, level):
    """|<f, A g> - <g, A f>| for the operator A of the trailing bodies."""
    def deviation(bods):
        return fn.operator_selfadjoint_deviation(bods[0], bods[1], bods[2:])

    return _worst(deviation(ctx.bodies(seed, ctx.cfg.n + 1, level))
                  for seed in ctx.cfg.seeds)


# ---------------------------------------------------------------------------
# suite runners: each returns (records, convergence tables by name)
# ---------------------------------------------------------------------------


def _run_mixdisc(ctx: RunContext):
    rng = np.random.default_rng(20240)
    count = 200
    worst = {"diag": 0.0, "perm": 0.0, "multi": 0.0, "transform": 0.0,
             "gradient": 0.0, "alexandrov": 0.0}

    def update(key, values):
        worst[key] = max(worst[key], float(np.max(values)))

    def rel(diff, ref):
        return np.abs(diff) / np.maximum(np.abs(ref), 1e-30)

    def spd(a):
        return a @ np.swapaxes(a, -1, -2) + 0.3 * np.eye(a.shape[-1])

    for n in (2, 3):
        # draw the inputs tuple by tuple (the rng call order fixes them) ...
        tuples, perms, alts, als, bes, bmats = [], [], [], [], [], []
        for _ in range(count):
            tuples.append([rng.normal(size=(n, n)) for _ in range(n)])
            perms.append(rng.permutation(n))
            alts.append(rng.normal(size=(n, n)))
            als.append(rng.random())
            bes.append(rng.random())
            bmats.append(rng.normal(size=(n, n)))
        # ... then build them and check each identity once on (count, n, n) stacks
        stack = spd(np.array(tuples))  # (count, n, n, n)
        mats = list(np.swapaxes(stack, 0, 1))
        a_alt = spd(np.array(alts))
        al, be = np.array(als) + 0.2, np.array(bes) + 0.2

        q = mixed_discriminant_batch(mats)
        det0 = np.linalg.det(mats[0])
        update("diag", rel(mixed_discriminant_batch([mats[0]] * n) - det0, det0))
        permuted = np.swapaxes(stack[np.arange(count)[:, None], np.array(perms)], 0, 1)
        update("perm", rel(mixed_discriminant_batch(list(permuted)) - q, q))
        lhs = mixed_discriminant_batch(
            [al[:, None, None] * mats[0] + be[:, None, None] * a_alt] + mats[1:])
        rhs = al * q + be * mixed_discriminant_batch([a_alt] + mats[1:])
        update("multi", rel(lhs - rhs, rhs))
        update("transform", md_transform_check(mats, np.array(bmats) + 2.0 * np.eye(n)))
        grad = mixed_disc_gradient(mats)
        update("gradient", rel(np.sum((mats[0] * grad).reshape(count, -1), axis=1) - q, q))
        # Alexandrov: D(A, B, ...)^2 >= D(A, A, ...) D(B, B, ...), as a
        # relative shortfall (rhs - lhs) / max(|lhs|, |rhs|)
        lhs = mixed_discriminant_batch([mats[0], mats[1]] + mats[2:n]) ** 2
        rhs = (mixed_discriminant_batch([mats[0], mats[0]] + mats[2:n])
               * mixed_discriminant_batch([mats[1], mats[1]] + mats[2:n]))
        update("alexandrov", (rhs - lhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30))
    return [_value_record("mixdisc", key, {"n": [2, 3], "count": count}, val,
                          TOLERANCES["mixdisc"])
            for key, val in sorted(worst.items())], {}


def _run_routes(ctx: RunContext):
    cfg = ctx.cfg
    records = []
    for seed in cfg.seeds:
        bods = ctx.bodies(seed, cfg.n + 1)
        inputs = {"seed": seed, "level": cfg.mesh_level}
        va, ve, vp = (fn.mixed_volume(bods, route=r)
                      for r in ("anisotropic", "euclidean", "polyfit"))
        records += [
            _report_record("routes", f"aniso-vs-euclid.seed{seed}", inputs,
                           fn.InequalityReport.identity(va, ve, TOLERANCES["routes_analytic"])),
            _report_record("routes", f"polyfit-vs-euclid.seed{seed}", inputs,
                           fn.InequalityReport.identity(vp, ve, TOLERANCES["routes_polyfit"]))]
        body = bods[0]
        records.append(_report_record(
            "routes", f"diagonal-consistency.seed{seed}", inputs,
            fn.InequalityReport.identity(fn.mixed_volume([body] * (cfg.n + 1)),
                                         fn.volume(body), TOLERANCES["routes_analytic"])))
        records.append(_report_record(
            "routes", f"translation-invariance.seed{seed}", inputs,
            fn.InequalityReport.identity(fn.volume(_shifted(body, 0.08)),
                                         fn.volume(body), TOLERANCES["routes_translation"])))
        scaled = minkowski_combine([body], [1.7])
        records.append(_report_record(
            "routes", f"scaling.seed{seed}", inputs,
            fn.InequalityReport.identity(
                fn.volume(scaled), 1.7 ** (cfg.n + 1) * fn.volume(body),
                TOLERANCES["routes_scaling"])))
    return records, {}


def _run_af(ctx: RunContext):
    cfg = ctx.cfg
    records = []
    for seed in cfg.seeds:
        bods = ctx.bodies(seed, cfg.n + 1)
        inputs = {"seed": seed, "level": cfg.mesh_level}
        records.append(_report_record("af", f"inequality.seed{seed}", inputs,
                                      fn.af_inequality_check(bods, tol=TOLERANCES["af_gap"])))
        k2 = bods[1]
        k1 = _shifted(minkowski_combine([k2], [2.0]), 0.1)
        records.append(_report_record(
            "af", f"equality-case.seed{seed}", inputs,
            fn.af_inequality_check([k1, k2] + bods[2:], tol=TOLERANCES["af_equality"],
                                   equality_expected=True)))
    return records, {}


def _run_chain(ctx: RunContext):
    cfg = ctx.cfg
    n = cfg.n
    records = []
    mesh = ctx.mesh()
    pairs = [(k, l) for k in range(n + 1) for l in range(k)]
    for seed in cfg.seeds:
        body = ctx.body(seed)
        inputs = {"seed": seed, "level": cfg.mesh_level}
        querm = fn.quermassintegral_chain_family(body, pairs, tol=TOLERANCES["chain_gap"])
        records += [_report_record("chain", f"querm-k{k}-l{l}.seed{seed}", inputs, querm[k, l])
                    for k, l in pairs]
        others = ctx.bodies(seed, n + 1)
        for m in range(2, n + 2):
            trailing = others[2:2 + (n + 1 - m)]
            triples = list(itertools.combinations(range(m + 1), 3))
            gen = fn.generalized_chain_family(others[0], others[1], trailing, m, triples,
                                              tol=TOLERANCES["chain_gap"])
            records += [_report_record("chain", f"gen-m{m}-i{i}-j{j}-k{k}.seed{seed}", inputs,
                                       gen[i, j, k])
                        for i, j, k in triples]
    wulff = make_wulff_cap(mesh, 1.3)
    records.append(_report_record(
        "chain", "wulff-equality", {"r0": 1.3},
        fn.quermassintegral_chain_check(wulff, cfg.n, 0, tol=TOLERANCES["chain_equality"],
                                        equality_expected=True)))
    k1 = ctx.body(max(cfg.seeds) + 977)
    k0 = _shifted(minkowski_combine([k1], [1.4]), 0.07)
    trailing = ctx.bodies(max(cfg.seeds) + 978, cfg.n - 1)
    records.append(_report_record(
        "chain", "gen-equality-case", {"a": 1.4},
        fn.generalized_chain_check(k0, k1, trailing, 2, 0, 1, 2, tol=TOLERANCES["chain_equality"],
                                   equality_expected=True)))
    return records, {}


def _run_minkowski(ctx: RunContext):
    cfg = ctx.cfg
    levels = ctx.levels
    records = []
    tables = {}
    for k in range(cfg.n):
        agg = [_minkowski_residual(ctx, level, k) for level in levels]
        tables[f"minkowski-k{k}"] = _decay_rows(levels, agg)
        records.append(_decay_record(
            ctx, "minkowski", f"residual-decay-k{k}", {"levels": levels, "k": k},
            agg, TOLERANCES["minkowski_ratio"], TOLERANCES["minkowski_floor"]))
    return records, tables


def _run_symmetry(ctx: RunContext):
    cfg = ctx.cfg
    levels = ctx.levels
    swap_agg, trail_agg = zip(*(_symmetry_deviations(ctx, level) for level in levels))
    tables = {"symmetry-swap": _decay_rows(levels, swap_agg)}
    records = [
        _decay_record(ctx, "symmetry", "swap-decay", {"levels": levels}, swap_agg,
                      TOLERANCES["symmetry_ratio"], TOLERANCES["symmetry_floor"]),
        _value_record("symmetry", "trailing-permutation", {"levels": levels},
                      max(trail_agg), TOLERANCES["symmetry_trailing"])]
    # diagnostic (logged only): the swap on a capillary function that is no
    # support, the difference of two random bodies' fields
    *b, other = ctx.bodies(max(cfg.seeds) + 5, cfg.n + 2)
    diff = CapillaryBody(ctx.mesh(), CombinationField([b[0].field, other.field], [1.0, -1.0]),
                         {"kind": "difference"}, validate=False)
    out = fn.symmetry_check([diff] + b[1:])
    records.append(CheckRecord("symmetry", "difference-experiment", digest({"note": "diagnostic"}),
                               out["swap_deviation"], 0.0, out["swap_deviation"],
                               out["swap_deviation"] / out["scale"], float("nan"), True,
                               kind="diagnostic"))
    return records, tables


def _run_steiner(ctx: RunContext):
    cfg = ctx.cfg
    records = [_report_record("steiner", f"coefficients.seed{seed}",
                              {"seed": seed, "level": cfg.mesh_level},
                              fn.steiner_check(ctx.body(seed), tol=TOLERANCES["steiner"]))
               for seed in cfg.seeds]
    records.append(_report_record("steiner", "cap-binomial", {"level": cfg.mesh_level},
                                  fn.steiner_check(ctx.mesh().cap_body,
                                                   tol=TOLERANCES["steiner_cap"])))
    return records, {}


def _run_kernel(ctx: RunContext):
    cfg = ctx.cfg
    levels = ctx.levels
    records = []
    tables = {}
    per_level = [_kernel_tau(ctx, level) for level in levels]
    top = fn.kernel_tau_intrinsic(ctx.mesh())
    for alpha, decay in enumerate(zip(*per_level)):
        tables[f"kernel-E{alpha + 1}"] = _decay_rows(levels, decay)
        records += [
            _value_record("kernel", f"tau-max-E{alpha + 1}", {"levels": levels},
                          top[alpha] * (4.0 ** (levels[-1] - 4)),  # scaled to level 4
                          TOLERANCES["kernel_max"]),
            _decay_record(ctx, "kernel", f"tau-decay-E{alpha + 1}", {"levels": levels},
                          decay, TOLERANCES["kernel_ratio"], TOLERANCES["kernel_floor"])]
    # generator-route kernels are exactly linear: their Hessian, so tau, is 0
    mesh = ctx.mesh()
    taus = (tau_from_generator(mesh, kernel_field(mesh, alpha))[0] for alpha in range(cfg.n))
    worst = _worst(float(np.max(np.abs(tau))) for tau in taus)
    records.append(_value_record(
        "kernel", "generator-route-zero", {"level": cfg.mesh_level}, worst,
        TOLERANCES["kernel_generator"]))
    return records, tables


def _run_operator(ctx: RunContext):
    cfg = ctx.cfg
    records = []
    if cfg.n < 2:
        return records, {}
    levels = ctx.levels
    for seed in cfg.seeds:
        inputs = {"seed": seed, "level": cfg.mesh_level}
        trailing = ctx.bodies(seed, cfg.n - 1)
        f2 = trailing[0]
        ag = fn.operator_a_apply(f2, trailing)
        records.append(_value_record(
            "operator", f"eigenfunction-identity.seed{seed}", inputs,
            float(np.max(np.abs(ag - f2.shat))), TOLERANCES["operator_eigen"]))
        ak = fn.operator_a_apply(kernel_field(ctx.mesh(), 0), trailing)
        records.append(_value_record(
            "operator", f"kernel-annihilation.seed{seed}", inputs,
            float(np.max(np.abs(ak))), TOLERANCES["operator_annihilation"]))
        g = CombinationField([ctx.body(seed + 7919).field, ctx.body(seed + 7920).field],
                             [1.0, -1.0])
        records.append(_report_record(
            "operator", f"energy.seed{seed}", inputs,
            fn.operator_a_energy_check(g, trailing, tol=TOLERANCES["operator_energy"])))
    # self-adjointness decay with refinement (aggregate over seeds)
    devs = [_selfadjoint_deviation(ctx, level) for level in levels]
    records.append(_decay_record(
        ctx, "operator", "selfadjoint-decay", {"levels": levels}, devs,
        TOLERANCES["operator_ratio"], TOLERANCES["operator_floor"]))
    return records, {"operator-selfadjoint": _decay_rows(levels, devs)}


SUITE_RUNNERS = {
    "mixdisc": _run_mixdisc,
    "routes": _run_routes,
    "af": _run_af,
    "chain": _run_chain,
    "minkowski": _run_minkowski,
    "symmetry": _run_symmetry,
    "steiner": _run_steiner,
    "kernel": _run_kernel,
    "operator": _run_operator,
}


def run_suite(cfg: SuiteConfig) -> RunReport:
    """Run the selected suites, one after another, and assemble the report."""
    ctx = RunContext(cfg)
    report = RunReport(config_echo=cfg.echo())
    for name in SUITE_RUNNERS:
        if name not in cfg.suites:
            continue
        t0 = time.perf_counter()
        try:
            records, tables = SUITE_RUNNERS[name](ctx)
        except GenerationError as exc:
            nan = float("nan")
            records, tables = [CheckRecord(name, "generation-failure", digest(str(exc)),
                                           nan, nan, nan, nan, nan, False)], {}
        dt = time.perf_counter() - t0
        for rec in records:  # the suite's wall time, shared evenly
            rec.wall_time_s = dt / len(records)
        report.records.extend(records)
        report.convergence.update(tables)
    report.records.sort(key=lambda r: (r.suite, r.name))
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    cfg = parse_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    report = run_suite(cfg)
    paths = emit_report(report, args.out)
    s = report.summary
    print(f"checks: {s['total']}  passed: {s['passed']}  failed: {s['failed']}  "
          f"diagnostics: {s['diagnostics']}")
    for r in report.records:
        if not r.passed and r.kind == "check":
            print(f"FAIL {r.suite}.{r.name}: gap={r.gap!r} tol={r.tolerance!r}")
    print(f"report: {paths['json']}")
    return 0 if report.all_passed else 1


def _cmd_mesh_info(args) -> int:
    cfg = parse_config(args.config)
    mesh = build_cap_mesh(cfg.cap_config())
    print(f"family: {cfg.norm.family}  n: {cfg.n}  omega0: {cfg.omega0}  "
          f"level: {cfg.mesh_level}")
    print(f"nodes: {mesh.node_count}  interior: {len(mesh.interior_idx)}  "
          f"boundary: {len(mesh.boundary_loop)}  cells: {len(mesh.cells)}")
    print(f"sigma(S) quadrature: {mesh.sigma_total!r}")
    print(f"region residual range: [{float(mesh.region_residuals.min())!r}, "
          f"{float(mesh.region_residuals.max())!r}]")
    print(f"anisotropy condition number: {mesh.anisotropy_condition!r}")
    print(f"frame orthonormality defect: {mesh.frame_orthonormal_defect!r}")
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(mesh.dump_table())
        print(f"node table written to {args.dump}")
    return 0


def _cmd_body_gen(args) -> int:
    cfg = parse_config(args.config)
    mesh = build_cap_mesh(cfg.cap_config())
    body = random_capillary_body(mesh, args.seed)
    res, ok = body.robin_residuals()
    print(f"seed {args.seed}: min W eig {body.min_w_eig!r}, min tau eig "
          f"{body.min_tau_eig!r}, min s_hat {float(np.min(body.shat))!r}")
    print(f"robin residual max {float(np.max(np.abs(res)))!r}, "
          f"degenerate co-normals {int(np.sum(~ok))}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body.record_json())
        print(f"body record written to {args.out}")
    return 0


def _divergence_residual(ctx, level):
    """Divergence identity residual of body seeds[0] against body seeds[0] + 1."""
    seed = ctx.cfg.seeds[0]
    trailing = [ctx.body(seed + 1, level)] * (ctx.cfg.n - 1)
    return fn.divergence_identity_check(ctx.body(seed, level), trailing)


# study check -> per-level value (ctx, level); minkowski and kernel take the
# worst order / kernel field, symmetry the swap deviation
STUDIES = {
    "minkowski": lambda ctx, level: max(
        _minkowski_residual(ctx, level, k) for k in range(ctx.cfg.n)),
    "symmetry": lambda ctx, level: _symmetry_deviations(ctx, level)[0],
    "kernel": lambda ctx, level: max(_kernel_tau(ctx, level)),
    "divergence": _divergence_residual,
    "area": lambda ctx, level: abs(ctx.mesh(level).sigma_total),
    "operator_adjoint": _selfadjoint_deviation,
}


def _cmd_study(args) -> int:
    cfg = parse_config(args.config)
    if args.check not in STUDIES:
        raise InvalidInputError(f"unknown check {args.check!r}; valid: {', '.join(STUDIES)}")
    try:
        lo, hi = (int(v) for v in args.levels.split(".."))
    except ValueError:
        raise InvalidInputError("--levels expects A..B") from None
    if hi < lo:
        raise InvalidInputError(f"--levels {args.levels} is empty; expects A..B with A <= B")
    if args.check == "operator_adjoint" and cfg.n < 2:
        raise InvalidInputError("operator study needs n >= 2")
    ctx = RunContext(cfg, list(range(lo, hi + 1)))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    values = [STUDIES[args.check](ctx, level) for level in ctx.levels]
    residuals = None
    if args.check == "area":
        # Richardson self-convergence of the region measure
        residuals = [abs(v - values[-1]) for v in values[:-1]] + [float("nan")]
    lines = ["level,value,residual,ratio"]
    lines += [",".join(map(repr, row)) for row in _decay_rows(ctx.levels, values, residuals)]
    print("\n".join(lines))
    if args.out:
        path = os.path.join(args.out, f"study-{args.check}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"table written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="capaf",
                                description="anisotropic capillary convex-body checks")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--config", required=True)
    pv.add_argument("--out", default="capaf-out")

    pm = sub.add_parser("mesh", help="mesh utilities")
    pm_sub = pm.add_subparsers(dest="mesh_command", required=True)
    pmi = pm_sub.add_parser("info", help="print mesh summary")
    pmi.add_argument("--config", required=True)
    pmi.add_argument("--dump", default=None)

    pb = sub.add_parser("body", help="body utilities")
    pb_sub = pb.add_subparsers(dest="body_command", required=True)
    pbg = pb_sub.add_parser("gen", help="generate a random body")
    pbg.add_argument("--config", required=True)
    pbg.add_argument("--seed", type=int, required=True)
    pbg.add_argument("--out", default=None)

    ps = sub.add_parser("study", help="convergence studies")
    ps_sub = ps.add_subparsers(dest="study_command", required=True)
    psc = ps_sub.add_parser("converge", help="run a convergence table")
    psc.add_argument("--config", required=True)
    psc.add_argument("--check", required=True)
    psc.add_argument("--levels", required=True, help="A..B")
    psc.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"verify": _cmd_verify, "mesh": _cmd_mesh_info, "body": _cmd_body_gen,
                "study": _cmd_study}
    try:
        return commands[args.command](args)
    except InvalidConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except GenerationError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 1
    except (CapafError, OSError) as exc:  # an OSError names the path
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """main() for a process that exits with its status: the reports are
    closed, so freeze the heap and skip the collection at interpreter exit."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
