"""Anisotropic capillary convex bodies in the half-space.

Construction of capillary convex bodies from Minkowski norms and numerical
verification of the mixed-volume calculus: mixed-volume symmetry,
quermassintegral correspondence, Steiner formula, Minkowski integral
formula, kernel characterization, the associated elliptic operator, and
the Alexandrov-Fenchel inequalities with their equality cases.
"""

# No runtime path differences F any more; fd stays loaded for its two
# readers: the tests' finite-difference oracle, and the traced benchmark
# (perfbench/layers.py), whose install() looks up sys.modules["capaf.fd"].
from . import fd  # noqa: F401
from .bodies import (CapillaryBody, make_wulff_cap, minkowski_combine,
                     random_capillary_body, rebind, translate_horizontal)
from .capgeom import (CapConfig, CapMesh, admissible_range, build_cap_mesh,
                      ef_vector, icosphere, region_residual)
from .config import SuiteConfig, parse_config
from .errors import (CapafError, ConvexityViolationError, GenerationError,
                     InvalidConfigError, InvalidInputError,
                     MeshConstructionError, ModelInvalidError, NumericError)
from .fields import (CombinationField, LinearField, SphericalBumpField,
                     SupportField, WulffCapField, kernel_field)
from .functionals import (InequalityReport, af_inequality_check,
                          divergence_identity_check, generalized_chain_check,
                          minkowski_formula_residual, mixed_volume,
                          operator_a_apply, operator_a_energy_check,
                          polytope_mixed_volume, quermassintegral,
                          quermassintegral_chain_check, steiner_check,
                          symmetry_check, volume)
from .mixdisc import (md_transform_check, mixed_disc_gradient,
                      mixed_discriminant_batch)
from .norms import (EllipsoidNorm, IsotropicNorm, MinkowskiNorm,
                    PerturbedNorm, PerturbTerm)
from .report import TOOL_VERSION as __version__
from .report import RunReport, emit_report
