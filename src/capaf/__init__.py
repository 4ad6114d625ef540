"""Anisotropic capillary convex bodies in the half-space.

Construction of capillary convex bodies from Minkowski norms and numerical
verification of the mixed-volume calculus: mixed-volume symmetry,
quermassintegral correspondence, Steiner formula, Minkowski integral
formula, kernel characterization, the associated elliptic operator, and
the Alexandrov-Fenchel inequalities with their equality cases.

Exports resolve on first use (PEP 562): `capaf.mixed_volume` imports its owning
module and what that needs, no more.  `fd` is the one eager submodule: no layer
imports it, yet the traced benchmark's install() (perfbench/layers.py) reads
sys.modules["capaf.fd"] after `import capaf.cli`.
"""

import importlib

from . import fd  # noqa: F401  -- eager on purpose, as the docstring says

_EXPORTS = {  # export name -> owning module
    **dict.fromkeys(("CapillaryBody", "make_wulff_cap", "minkowski_combine",
                     "random_capillary_body", "rebind", "translate_horizontal"), "bodies"),
    **dict.fromkeys(("CapConfig", "CapMesh", "admissible_range", "build_cap_mesh", "ef_vector",
                     "icosphere", "region_residual"), "capgeom"),
    **dict.fromkeys(("SuiteConfig", "parse_config"), "config"),
    **dict.fromkeys(("CapafError", "ConvexityViolationError", "GenerationError",
                     "InvalidConfigError", "InvalidInputError", "MeshConstructionError",
                     "ModelInvalidError", "NumericError"), "errors"),
    **dict.fromkeys(("CombinationField", "LinearField", "SphericalBumpField", "SupportField",
                     "WulffCapField", "kernel_field"), "fields"),
    **dict.fromkeys(("InequalityReport", "af_inequality_check", "divergence_identity_check",
                     "generalized_chain_check", "minkowski_formula_residual", "mixed_volume",
                     "operator_a_apply", "operator_a_energy_check", "polytope_mixed_volume",
                     "quermassintegral", "quermassintegral_chain_check", "steiner_check",
                     "symmetry_check", "volume"), "functionals"),
    **dict.fromkeys(("md_transform_check", "mixed_disc_gradient",
                     "mixed_discriminant_batch"), "mixdisc"),
    **dict.fromkeys(("EllipsoidNorm", "IsotropicNorm", "MinkowskiNorm", "PerturbedNorm",
                     "PerturbTerm"), "norms"),
    **dict.fromkeys(("RunReport", "emit_report"), "report"),
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS.values():  # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__version__":
        return __getattr__("report").TOOL_VERSION
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(__getattr__(_EXPORTS[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values(), "__version__"})
