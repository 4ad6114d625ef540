from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from capaf.cli import main
from capaf.config import SUITE_NAMES, parse_config
from capaf.errors import InvalidConfigError

MINIMAL = """
[geometry]
n = 2
omega0 = 0.0

[norm]
family = isotropic
"""

ELLIPSOID = """
[geometry]
n = 2
omega0 = -0.4

[norm]
family = ellipsoid
matrix = 1.0 0.0 0.2  0.0 1.2 0.0  0.2 0.0 0.9

[mesh]
level = 2

[seeds]
seeds = 1 2

[suites]
run = mixdisc
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- parsing --------------------------------------------------------------------


def test_parse_minimal_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.n == 2 and cfg.omega0 == 0.0
    assert cfg.mesh_level == 3
    assert cfg.seeds == [1, 2, 3]
    assert "all" not in cfg.suites and "af" in cfg.suites and "mixdisc" in cfg.suites


def test_parse_missing_file():
    with pytest.raises(InvalidConfigError):
        parse_config("/nonexistent/capaf.ini")


def test_parse_rejects_interval_endpoint(tmp_path):
    text = MINIMAL.replace("omega0 = 0.0", "omega0 = -1.0")
    with pytest.raises(InvalidConfigError) as err:
        parse_config(write(tmp_path, text))
    assert any("admissible" in e for e in err.value.errors)


def test_parse_unknown_suite_lists_names(tmp_path):
    text = MINIMAL + "\n[suites]\nrun = nonsense\n"
    with pytest.raises(InvalidConfigError) as err:
        parse_config(write(tmp_path, text))
    msg = "; ".join(err.value.errors)
    for name in SUITE_NAMES:
        assert name in msg


def test_parse_collects_all_errors(tmp_path):
    text = """
[geometry]
n = 5
omega0 = 9.0

[norm]
family = nosuch

[suites]
run = bogus
"""
    with pytest.raises(InvalidConfigError) as err:
        parse_config(write(tmp_path, text))
    assert len(err.value.errors) >= 3


def test_parse_tolerance_overrides(tmp_path):
    text = MINIMAL + "\n[numerics]\ntol_af_gap = 1e-7\n"
    cfg = parse_config(write(tmp_path, text))
    assert cfg.tolerances["af_gap"] == 1e-7
    # routes_fd went with the perturbed family's finite differences
    for name in ("tol_nonsense", "tol_routes_fd"):
        bad = MINIMAL + f"\n[numerics]\n{name} = 1\n"
        with pytest.raises(InvalidConfigError, match="unknown tolerance name"):
            parse_config(write(tmp_path, bad))


def test_parse_names_every_unknown_key(tmp_path, capsys):
    """Typos and keys nothing reads are errors, not silent defaults."""
    text = (ELLIPSOID.replace("omega0 =", "omega =").replace("level =", "levle =")
            + "\n[numerics]\nfd_step = 1e-4\n")
    path = write(tmp_path, text)
    with pytest.raises(InvalidConfigError) as err:
        parse_config(path)
    errors = err.value.errors
    assert len(errors) == 3
    for key, error in zip(("geometry.omega", "mesh.levle", "numerics.fd_step"), errors):
        assert error.startswith(key + ": unknown key")
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.count("unknown key") == 3


@pytest.mark.parametrize("family,extra,stray", [
    ("isotropic", "matrix = 4 0 0  0 1 0  0 0 1\nbase = ellipsoid\nterm1 = linear 1 0 0 0 0.1",
     ("matrix", "base", "term1")),
    ("ellipsoid", "matrix = 1 0 0  0 1 0  0 0 1\nbase_matrix = 1 0 0  0 1 0  0 0 1",
     ("base_matrix",)),
    ("perturbed", "base = isotropic\nbase_matrix = 1 0 0  0 1 0  0 0 1\nmatrix = 1",
     ("base_matrix", "matrix")),
], ids=("isotropic", "ellipsoid", "perturbed"))
def test_parse_rejects_norm_keys_the_family_does_not_read(tmp_path, capsys, family, extra, stray):
    text = MINIMAL.replace("family = isotropic", f"family = {family}\n{extra}")
    path = write(tmp_path, text)
    with pytest.raises(InvalidConfigError) as err:
        parse_config(path)
    errors = err.value.errors
    assert len(errors) == len(stray)
    for key, error in zip(stray, errors):
        assert error.startswith(f"norm.{key}: not read by family {family!r}")
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.count("not read by family") == len(stray)


def test_parse_rejects_unknown_and_default_sections(tmp_path):
    text = "[DEFAULT]\nlevel = 2\n" + MINIMAL + "\n[extra]\n"
    with pytest.raises(InvalidConfigError) as err:
        parse_config(write(tmp_path, text))
    errors = err.value.errors
    assert len(errors) == 2
    assert errors[0].startswith("DEFAULT: unknown section (keys level not read)")
    assert errors[1].startswith("extra: unknown section;")


@pytest.mark.parametrize("seeds", ["", "-3", "1 -2", "2 1 2"])
@pytest.mark.parametrize("suite", ["af", "chain", "symmetry"])
def test_seeds_must_be_a_nonempty_nonnegative_list(tmp_path, capsys, seeds, suite):
    path = write(tmp_path, ELLIPSOID.replace("seeds = 1 2", f"seeds = {seeds}"))
    assert main(["verify", "--config", path, "--suite", suite,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: seeds.seeds: " in err
    assert {"": "no seeds given", "2 1 2": "seed 2 is repeated"}.get(seeds, "is negative") in err


def test_body_gen_rejects_negative_seed(tmp_path, capsys):
    path = write(tmp_path, ELLIPSOID)
    assert main(["body", "gen", "--config", path, "--seed", "-2"]) == 2
    assert "error: seed -2 is negative" in capsys.readouterr().err


def test_parse_perturbed_terms(tmp_path):
    text = """
[geometry]
n = 2
omega0 = -0.3

[norm]
family = perturbed
base = isotropic
term1 = bump 0.3 0.2 0.93 0.3 0.04
term2 = quadratic 0.0 0.0 1.0 0.0 0.05
"""
    cfg = parse_config(write(tmp_path, text))
    assert cfg.norm.family == "perturbed"
    assert len(cfg.norm.terms) == 2


# -- exit codes -----------------------------------------------------------------


def test_exit_code_config_error(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.ini")]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_unknown_suite(tmp_path, capsys):
    path = write(tmp_path, ELLIPSOID)
    assert main(["verify", "--config", path, "--suite", "bogus",
                 "--out", str(tmp_path / "o")]) == 2


def test_mixdisc_suite_runs_fast_and_passes(tmp_path):
    path = write(tmp_path, ELLIPSOID)
    import time

    t0 = time.time()
    code = main(["verify", "--config", path, "--suite", "mixdisc",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert time.time() - t0 < 5.0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] >= 6


def test_exit_code_failure(tmp_path):
    # force a failure with an absurd tolerance override
    text = ELLIPSOID + "\n[numerics]\ntol_mixdisc = 1e-30\n"
    path = write(tmp_path, text)
    code = main(["verify", "--config", path, "--suite", "mixdisc",
                 "--out", str(tmp_path / "out")])
    assert code == 1


def test_thin_cap_stencil_error_names_the_limit(tmp_path, capsys):
    # near the lower end of the w0 interval the kernel study's coarse levels
    # leave no node clear of the boundary: a documented error, not a traceback
    path = write(tmp_path, MINIMAL.replace("omega0 = 0.0", "omega0 = -0.99"))
    assert main(["verify", "--config", path, "--suite", "kernel",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    for part in ("stencil margin 0.45", "mesh level 1", "omega0 = -0.99",
                 "a finer mesh level helps"):
        assert part in err, part


def test_thin_cap_kernel_decay_skips_the_exact_zero(tmp_path):
    # at level 5 the L3 study mesh checks only the pole, where the kernel tau
    # is exactly 0: that level pair shows no ratio, and the check reads L4->L5
    path = write(tmp_path, MINIMAL.replace("omega0 = 0.0", "omega0 = -0.99")
                 + "\n[mesh]\nlevel = 5\n")
    out = tmp_path / "o"
    assert main(["verify", "--config", path, "--suite", "kernel", "--out", str(out)]) == 0
    records = {r[1]: r for r in (line.split(",") for line in
                                 (out / "records.csv").read_text().splitlines()[1:])}
    for alpha in (1, 2):
        rec = records[f"tau-decay-E{alpha}"]
        assert rec[-2] == "True" and float(rec[3]) == pytest.approx(2.66, abs=0.01)
    rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[1:]]
    for check in ("kernel-E1", "kernel-E2"):
        (_, l3, _, r3), (_, _, _, r4), _ = [r[1:] for r in rows if r[0] == check]
        assert float(l3) == 0.0 and np.isnan(float(r3)) and np.isnan(float(r4))


@pytest.mark.parametrize("values,passed", [
    ([0.0, 1e-3, 4e-4], True),   # the 0 pair is skipped; 2.5 >= 2
    ([0.0, 1e-3, 9e-4], False),  # every readable ratio must still reach 2
    ([1e-3, 0.0, 1e-3], False),  # no ratio to read, and above the floor
    ([1e-3, 0.0, 1e-12], True),  # no ratio to read, below the floor
])
def test_decay_record_skips_pairs_with_an_exact_zero(values, passed):
    from capaf.cli import _decay_record

    ctx = type("Ctx", (), {"analytic": True})()
    rec = _decay_record(ctx, "kernel", "decay", {}, values, 2.0, floor=1e-11)
    assert rec.passed is passed


# -- report artifacts -------------------------------------------------------------


def test_report_files_written(tmp_path):
    path = write(tmp_path, ELLIPSOID)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--suite", "mixdisc",
                 "--out", str(out)]) == 0
    for name in ("report.json", "records.csv", "gaps.csv", "convergence.csv"):
        assert (out / name).exists()
    header = (out / "records.csv").read_text().splitlines()[0]
    assert header == "suite,name,inputs_digest,lhs,rhs,gap,relative_gap,tolerance,passed,kind"
    gaps = (out / "gaps.csv").read_text().splitlines()
    assert gaps[0] == "check,gap"
    assert len(gaps) > 1


def test_report_determinism_same_config(tmp_path):
    path = write(tmp_path, ELLIPSOID.replace("run = mixdisc", "run = routes af"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["verify", "--config", path, "--out", str(out1)])
    main(["verify", "--config", path, "--out", str(out2)])
    for name in ("records.csv", "gaps.csv", "convergence.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def strip(p):
        d = json.loads(p.read_text())
        for r in d["records"]:
            r.pop("wall_time_s", None)
        return json.dumps(d, sort_keys=True)

    assert strip(out1 / "report.json") == strip(out2 / "report.json")


def test_report_determinism_under_jobs(tmp_path):
    path = write(tmp_path, ELLIPSOID.replace("run = mixdisc", "run = routes af symmetry"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["verify", "--config", path, "--out", str(out1), "--jobs", "1"])
    main(["verify", "--config", path, "--out", str(out2), "--jobs", "4"])
    for name in ("records.csv", "gaps.csv", "convergence.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_env_override_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CAPAF_OUT", str(tmp_path / "env-out"))
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.out_dir == str(tmp_path / "env-out")
    monkeypatch.setenv("CAPAF_JOBS", "abc")
    with pytest.raises(InvalidConfigError, match="CAPAF_JOBS"):
        parse_config(write(tmp_path, MINIMAL))
    assert main(["verify", "--config", write(tmp_path, MINIMAL)]) == 2


# -- other subcommands -------------------------------------------------------------


def test_mesh_info_and_dump(tmp_path, capsys):
    path = write(tmp_path, ELLIPSOID)
    dump = tmp_path / "mesh.txt"
    assert main(["mesh", "info", "--config", path, "--dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "nodes:" in out and "anisotropy condition" in out
    lines = dump.read_text().splitlines()
    assert lines[0].startswith("# node_index")
    assert len(lines) > 10


def test_body_gen(tmp_path, capsys):
    path = write(tmp_path, ELLIPSOID)
    out = tmp_path / "body.json"
    assert main(["body", "gen", "--config", path, "--seed", "5",
                 "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["provenance"]["seed"] == 5
    assert rec["flags"]["convex"] and rec["flags"]["capillary"]


def test_study_converge(tmp_path, capsys):
    path = write(tmp_path, ELLIPSOID)
    out = tmp_path / "study"
    assert main(["study", "converge", "--config", path, "--check", "area",
                 "--levels", "2..4", "--out", str(out)]) == 0
    table = (out / "study-area.csv").read_text().splitlines()
    assert table[0] == "level,value,residual,ratio"
    assert len(table) == 4


def test_study_ratio_is_nan_at_zero_residual(tmp_path, capsys):
    """The hemisphere's area self-converges to roundoff: its L3 residual is
    exactly 0, where the table must not print a decay ratio of ~1e284."""
    path = write(tmp_path, MINIMAL)
    assert main(["study", "converge", "--config", path, "--check", "area",
                 "--levels", "2..4"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["2", "3", "4"]
    assert float(rows[1][2]) == 0.0
    assert all(np.isnan(float(r[3])) for r in rows)


def test_study_rejects_unknown_check(tmp_path, capsys):
    path = write(tmp_path, ELLIPSOID)
    assert main(["study", "converge", "--config", path, "--check", "bogus",
                 "--levels", "2..3"]) == 2
    assert main(["study", "converge", "--config", path, "--check", "area",
                 "--levels", "oops"]) == 2
    assert main(["study", "converge", "--config", path, "--check", "area",
                 "--levels", "5..3"]) == 2


STUDY = ELLIPSOID.replace("level = 2", "level = 3").replace("run = mixdisc",
                                                           "run = minkowski symmetry operator")
HALFDISK = """
[geometry]
n = 1
omega0 = 0.0

[norm]
family = isotropic

[mesh]
level = 3

[seeds]
seeds = 1 2
"""


def _study_table(out):
    lines = out.strip().splitlines()
    assert lines[0] == "level,value,residual,ratio"
    return {int(row.split(",")[0]): float(row.split(",")[1]) for row in lines[1:]}


@pytest.mark.parametrize("check", ["minkowski", "symmetry", "kernel", "divergence",
                                   "area", "operator_adjoint"])
def test_study_converge_every_check(tmp_path, capsys, check):
    path = write(tmp_path, ELLIPSOID)
    out = tmp_path / "study"
    assert main(["study", "converge", "--config", path, "--check", check,
                 "--levels", "2..3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    table = (out / f"study-{check}.csv").read_text()
    assert printed.startswith(table)
    values = _study_table(table)
    assert sorted(values) == [2, 3]
    assert all(np.isfinite(v) and v >= 0.0 for v in values.values())


def test_study_operator_needs_two_dimensions(tmp_path, capsys):
    path = write(tmp_path, HALFDISK)
    assert main(["study", "converge", "--config", path, "--check", "operator_adjoint",
                 "--levels", "2..3"]) == 2
    assert "needs n >= 2" in capsys.readouterr().err


def test_study_values_match_verify_tables(tmp_path, capsys):
    """`study converge` and the verify decay suites share one per-level path."""
    path = write(tmp_path, STUDY.replace("symmetry operator", "symmetry operator kernel"))
    out = tmp_path / "verify"
    main(["verify", "--config", path, "--out", str(out)])
    tables = {}
    for row in (out / "convergence.csv").read_text().splitlines()[1:]:
        name, level, value = row.split(",")[:3]
        tables.setdefault(name, {})[int(level)] = float(value)
    capsys.readouterr()
    top = parse_config(path).mesh_level
    expected = {
        "minkowski": {lvl: max(tables["minkowski-k0"][lvl], tables["minkowski-k1"][lvl])
                      for lvl in tables["minkowski-k0"]},
        "symmetry": tables["symmetry-swap"],
        "operator_adjoint": tables["operator-selfadjoint"],
        "kernel": {lvl: max(tables["kernel-E1"][lvl], tables["kernel-E2"][lvl])
                   for lvl in tables["kernel-E1"]},
    }
    for check, table in expected.items():
        assert sorted(table) == [1, 2, top]
        assert main(["study", "converge", "--config", path, "--check", check,
                     "--levels", f"1..{top}"]) == 0
        assert _study_table(capsys.readouterr().out) == table, check


def test_decay_suites_rebind_each_body_once_per_level(tmp_path, monkeypatch):
    import capaf.cli as cli

    made = []
    real_rebind = cli.rebind

    def counting(body, mesh):
        out = real_rebind(body, mesh)
        if out is not body:
            made.append((body.provenance["seed"], mesh.config.mesh_level))
        return out

    monkeypatch.setattr(cli, "rebind", counting)
    cfg = parse_config(write(tmp_path, STUDY))
    cli.run_suite(cfg)
    seeds = set(cfg.seeds) | {s * 101 + j for s in cfg.seeds for j in range(cfg.n + 1)}
    assert sorted(made) == sorted((s, lvl) for s in seeds for lvl in (1, 2))


def test_generation_failure_exits_1(tmp_path, capsys, monkeypatch):
    # bumps no backtracking can shrink to convexity; at the default amplitude
    # every admissible w0 generates, as the support floor scales with the cap
    import capaf.cli as cli

    monkeypatch.setattr(cli, "random_capillary_body",
                        functools.partial(cli.random_capillary_body, amplitude=1e9))
    path = write(tmp_path, MINIMAL)
    assert main(["study", "converge", "--config", path, "--check", "symmetry",
                 "--levels", "2..3"]) == 1
    assert "generation failed: random body generation exhausted" in capsys.readouterr().err
    assert main(["body", "gen", "--config", path, "--seed", "1"]) == 1
    assert "generation failed" in capsys.readouterr().err


# -- shipped configs --------------------------------------------------------------

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED_CHECKS = {"ellipsoid.ini": 76, "perturbed.ini": 70,
                  "isotropic_hemisphere.ini": 76, "halfdisk_n1.ini": 45}


def test_every_shipped_config_is_covered():
    assert sorted(f for f in os.listdir(CONFIGS) if f.endswith(".ini")) == sorted(SHIPPED_CHECKS)


@pytest.mark.parametrize("name", sorted(SHIPPED_CHECKS))
def test_shipped_config_verifies(tmp_path, monkeypatch, name):
    """Every shipped config passes every check, and every derivative its
    run takes is closed form: capaf.fd's differences are made to raise.
    The radii are closed form too, so the routes that compare volumes
    through tau agree to round-off, at `routes_analytic` on every family."""
    import capaf.fd as fd

    def refuse(*args, **kwargs):
        raise AssertionError("finite differences at run time")

    for fd_name in ("central_gradient", "central_hessian"):
        monkeypatch.setattr(fd, fd_name, refuse)
    out = tmp_path / "out"
    assert main(["verify", "--config", os.path.join(CONFIGS, name), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    summary = report["summary"]
    assert summary["total"] == summary["passed"] == SHIPPED_CHECKS[name]
    assert summary["failed"] == 0
    routes = [r for r in report["records"] if r["suite"] == "routes"
              and r["name"].startswith(("aniso-vs-euclid.", "diagonal-consistency."))]
    assert routes
    route_tol = parse_config(os.path.join(CONFIGS, name)).tolerances["routes_analytic"]
    for r in routes:
        assert abs(r["relative_gap"]) <= 1e-12, r["name"]
        assert r["tolerance"] == route_tol, r["name"]


def _fresh_python(script):
    """Run `script` in a new interpreter on this checkout's src/."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_loads_fd_module():
    """No capaf path differences F any more, but the traced benchmark's
    install() (perfbench/layers.py) looks up sys.modules["capaf.fd"] after
    `import capaf.cli`; ROADMAP item F removes both that lookup and the
    import that keeps it working."""
    assert _fresh_python("import sys\nimport capaf.cli\nprint('capaf.fd' in sys.modules)") == "True"


def test_benchmark_layer_groups_name_capaf_definitions():
    """Every group the traced benchmark's metrics and hooks read
    (perfbench/layers.py) names a public function, method or property that
    its capaf module defines, or a suite runner: a rename in capaf would
    otherwise zero a benchmark metric without failing tier-1."""
    import importlib
    import importlib.util
    import inspect

    import capaf.cli

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    def defined(layer, name):
        mod = importlib.import_module(f"capaf.{layer}")
        obj = vars(mod).get(name)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            return True
        return any(isinstance(vars(cls).get(name), (property, staticmethod))
                   or inspect.isfunction(vars(cls).get(name))
                   for cls in vars(mod).values()
                   if inspect.isclass(cls) and cls.__module__ == mod.__name__)

    groups = layers.referenced_groups()
    assert "norms.metric_on_wulff" in groups and "norms.q_on_wulff" in groups
    for group in sorted(groups):
        layer, name = group.split(".", 1)
        if layer == "cli" and name.startswith("suite."):
            assert name[len("suite."):] in capaf.cli.SUITE_RUNNERS, group
        else:
            assert defined(layer, name), group


def test_no_capaf_process_imports_numpy_ma(tmp_path):
    """numpy.ma costs about 20-40 ms and 3.5 MB to import, and np.unique
    without optional outputs imports it on first use: no capaf step may."""
    path = os.path.join(CONFIGS, "perturbed.ini")
    script = "\n".join([
        "import sys",
        "from capaf.capgeom import build_cap_mesh",
        "from capaf.cli import main",
        "from capaf.config import parse_config",
        f"build_cap_mesh(parse_config({path!r}).cap_config())",
        f"assert main(['verify', '--config', {path!r}, '--suite', 'mixdisc',"
        f" '--out', {str(tmp_path)!r}]) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    assert _fresh_python(script) == "False"


class _ReadLog(dict):
    """A tolerance table that notes in `seen` every name read from it."""

    def __init__(self, table, seen):
        super().__init__(table)
        self.seen = seen

    def __getitem__(self, name):
        self.seen.add(name)
        return super().__getitem__(name)


def test_every_tolerance_has_a_reader(monkeypatch):
    """Every suite, on an analytic and on the perturbed config at level 2,
    reads each tolerance name between them: kernel_* is read only on the
    analytic ones."""
    import capaf.cli as cli
    from capaf.capgeom import DEFAULT_TOLERANCES
    from capaf.config import SuiteConfig

    seen = set()
    cap_config = SuiteConfig.cap_config

    def logged_cap_config(self, level=None):
        cap = cap_config(self, level)
        cap.tolerances = _ReadLog(cap.tolerances, seen)
        return cap

    monkeypatch.setattr(SuiteConfig, "cap_config", logged_cap_config)
    for name in ("ellipsoid.ini", "perturbed.ini"):
        cfg = parse_config(os.path.join(CONFIGS, name))
        cfg.mesh_level = 2
        cfg.tolerances = _ReadLog(cfg.tolerances, seen)
        cli.run_suite(cfg)
    assert sorted(set(DEFAULT_TOLERANCES) - seen) == []
