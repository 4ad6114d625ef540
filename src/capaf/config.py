"""Config file parsing for the verification tool.

INI-style configuration with sections [geometry], [norm], [mesh],
[suites] and [seeds]; see the repository README for the full key
reference.  The file alone fixes the configuration; the output directory
is the command line's (`--out`).  TOLERANCES holds every bound a `verify`
record applies (each tolerance, decay ratio and floor) as constants that
no config sets.
Parsing is whole-file: every problem found is collected and reported
together, not just the first one.  An unknown section or key is one such
problem; [DEFAULT] is an unknown section.  So is a [norm] key that the
chosen family does not read, and a repeated seed or suite.
The geometry's rules (n, w0 and the mesh level) and their messages belong
to capgeom.CapConfig, whose list of problems joins the file's.
"""

from __future__ import annotations

import configparser
import os
from fnmatch import fnmatchcase
from dataclasses import dataclass

import numpy as np

from .capgeom import SUPPORTED_N, CapConfig
from .errors import InvalidConfigError
from .norms import (EllipsoidNorm, IsotropicNorm, MinkowskiNorm,
                    PerturbedNorm, PerturbTerm)

SUITE_NAMES = ("af", "chain", "minkowski", "steiner", "symmetry", "mixdisc",
               "kernel", "operator", "routes", "all")

# the [norm] keys each family reads, as patterns (termK uses a *)
NORM_KEYS = {
    "isotropic": ("family",),
    "ellipsoid": ("family", "matrix"),
    "perturbed": ("family", "base", "base_matrix", "term*"),
}

# the keys of each section, as patterns: only termK uses a *
SECTION_KEYS = {
    "geometry": ("n", "omega0"),
    "norm": tuple(dict.fromkeys(k for keys in NORM_KEYS.values() for k in keys)),
    "mesh": ("level",),
    "suites": ("run",),
    "seeds": ("seeds",),
}

# every bound a verify record applies, which report.json echoes: a
# tolerance, or for a decay record its minimum ratio (*_ratio) and the
# floor below which its last value passes it (*_floor)
TOLERANCES = {
    "mixdisc": 1e-10,
    "routes_analytic": 1e-8,
    "routes_polyfit": 1e-4,
    "routes_translation": 1e-10,
    "routes_scaling": 1e-11,
    "kernel_max": 1e-4,
    "kernel_ratio": 2.0,
    "kernel_floor": 1e-11,
    "kernel_generator": 1e-10,
    "minkowski_ratio": 2.0,
    "minkowski_floor": 1e-9,
    "symmetry_ratio": 2.0,
    "symmetry_floor": 1e-12,
    "symmetry_trailing": 1e-12,
    "steiner": 1e-4,
    "steiner_cap": 1e-7,
    "af_gap": 1e-8,
    "af_equality": 1e-6,
    "chain_gap": 1e-7,
    "chain_equality": 1e-6,
    "operator_eigen": 1e-8,
    "operator_annihilation": 1e-8,
    "operator_energy": 1e-6,
    "operator_ratio": 2.0,
    "operator_floor": 1e-10,
}


@dataclass
class SuiteConfig(CapConfig):
    """Validated run configuration: the geometry, the suites and their seeds."""

    seeds: list
    suites: list

    def cap_config(self, level: int | None = None) -> CapConfig:
        return CapConfig(self.norm, self.omega0,
                         self.mesh_level if level is None else level)

    def echo(self) -> dict:
        return {
            "n": self.n,
            "omega0": self.omega0,
            "norm": self.norm.descriptor(),
            "mesh_level": self.mesh_level,
            "tolerances": dict(sorted(TOLERANCES.items())),
            "seeds": list(self.seeds),
            "suites": list(self.suites),
        }


def resolve_suites(names, errors: list) -> list:
    """The suites `names` run, `all` expanded in SUITE_NAMES order (report.json
    echoes it); one `suites.run` problem per unknown name and per repeated one
    joins errors."""
    errors += [f"suites.run: unknown suite {s!r}; valid names: {', '.join(SUITE_NAMES)}"
               for s in names if s not in SUITE_NAMES]
    errors += [f"suites.run: suite {s} is repeated; each suite runs once"
               for s in dict.fromkeys(s for s in names if names.count(s) > 1)]
    return [s for s in SUITE_NAMES if s != "all"] if "all" in names else list(names)


def _parse_floats(text: str) -> list:
    return [float(v) for v in text.replace(",", " ").split()]


def _matches(key: str, patterns) -> bool:
    return any(fnmatchcase(key, pat) for pat in patterns)


def _unknown_keys(parser) -> list:
    """One error per unknown section and per unknown key of a known one."""
    errors = []
    for name in parser.sections():
        if name not in SECTION_KEYS:
            keys = ", ".join(parser[name])
            errors.append(f"{name}: unknown section{f' (keys {keys} not read)' if keys else ''}; "
                          f"valid sections: {', '.join(SECTION_KEYS)}")
            continue
        errors += [f"{name}.{key}: unknown key; valid keys: {', '.join(SECTION_KEYS[name])}"
                   for key in parser[name] if not _matches(key, SECTION_KEYS[name])]
    return errors


def _build_norm(section, dim: int | None, errors: list) -> MinkowskiNorm | None:
    """The [norm] model, or None with its problems added to errors; a valid
    key the family does not read is one.  dim None checks only the keys."""
    family = section.get("family", "").strip().lower()
    if family not in NORM_KEYS:
        errors.append(f"norm.family: unknown family {family!r} "
                      "(expected isotropic, ellipsoid, or perturbed)")
        return None
    base_name = section.get("base", "isotropic").strip().lower()
    read = [k for k in NORM_KEYS[family] if k != "base_matrix" or base_name != "isotropic"]
    # an unknown key is _unknown_keys' to report
    errors += [f"norm.{key}: not read by family {family!r}; its keys: {', '.join(read)}"
               for key in section
               if _matches(key, SECTION_KEYS["norm"]) and not _matches(key, read)]
    if dim is None:
        return None

    def closed_form(name, key):
        """The isotropic or ellipsoid norm `name`, its matrix read from `key`."""
        if name == "isotropic":
            return IsotropicNorm(dim)
        try:
            return EllipsoidNorm(np.asarray(
                _parse_floats(section.get(key, "")), dtype=float).reshape(dim, dim))
        except Exception as exc:  # noqa: BLE001 - aggregated into error list
            errors.append(f"norm.{key}: {exc}")
            return None

    if family != "perturbed":
        return closed_form(family, "matrix")
    if base_name not in ("isotropic", "ellipsoid"):
        errors.append(f"norm.base: unknown base family {base_name!r}")
        return None
    base = closed_form(base_name, "base_matrix")
    if base is None:
        return None
    terms = []
    for key in sorted(k for k in section if k.startswith("term")):
        parts = section[key].split()
        if len(parts) != dim + 3:
            errors.append(f"norm.{key}: expected 'kind cx ... width amplitude' "
                          f"({dim + 3} fields), got {len(parts)}")
            continue
        try:
            terms.append(PerturbTerm(parts[0],
                                     tuple(float(v) for v in parts[1:1 + dim]),
                                     float(parts[-2]), float(parts[-1])))
        except Exception as exc:  # noqa: BLE001
            errors.append(f"norm.{key}: {exc}")
    if errors:
        return None
    try:
        return PerturbedNorm(base, terms)
    except Exception as exc:  # noqa: BLE001
        errors.append(f"norm: {exc}")
        return None


def parse_config(path: str) -> SuiteConfig:
    """Parse and validate a config file; raises InvalidConfigError with the
    full list of problems on failure."""
    if not os.path.exists(path):
        raise InvalidConfigError(f"config file not found: {path}")
    # no section header can be empty, so [DEFAULT] reads as an ordinary
    # section and its keys reach no other section
    parser = configparser.ConfigParser(default_section="")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise InvalidConfigError(f"config syntax: {exc}") from exc

    errors = _unknown_keys(parser)

    def get(section, key, default=None, cast=str):
        if section not in parser or key not in parser[section]:
            return default
        try:
            return cast(parser[section][key])
        except (TypeError, ValueError) as exc:
            errors.append(f"{section}.{key}: {exc}")
            return default

    n = get("geometry", "n", 2, int)
    omega0 = get("geometry", "omega0", 0.0, float)
    level = get("mesh", "level", 3, int)

    norm = None
    if "norm" not in parser:
        errors.append("norm: missing [norm] section")
    else:
        norm = _build_norm(parser["norm"], n + 1 if n in SUPPORTED_N else None, errors)
    errors += CapConfig.problems(n, omega0, level, norm)

    suites_raw = get("suites", "run", "all")
    suites = resolve_suites(suites_raw.replace(",", " ").split(), errors)

    seeds_raw = get("seeds", "seeds", "1 2 3")
    try:
        seeds = [int(v) for v in seeds_raw.replace(",", " ").split()]
    except ValueError as exc:
        errors.append(f"seeds.seeds: {exc}")
    else:
        if not seeds:
            errors.append("seeds.seeds: no seeds given")
        errors += [f"seeds.seeds: seed {s} is negative; seeds are nonnegative integers"
                   for s in seeds if s < 0]
        errors += [f"seeds.seeds: seed {s} is repeated; each seed runs once"
                   for s in sorted({s for s in seeds if seeds.count(s) > 1})]

    if errors:
        raise InvalidConfigError("; ".join(errors), errors=errors)
    return SuiteConfig(norm=norm, omega0=omega0, mesh_level=level,
                       seeds=seeds, suites=suites)
