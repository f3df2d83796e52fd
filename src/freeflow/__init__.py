"""freeflow: numerical free additive convolution and free Levy flows."""

from .errors import (DomainError, EvaluatorFailure, ExtrapolationUnstable,
                     FreeflowError, MissingTailMetadata, NewtonDivergence,
                     NotContaining, NotNevanlinna, OutsideImage,
                     OutsideInversionDomain, PoleOnPath, QuadratureFailure,
                     StepUnderflow)
from .measures import (Atom, DensityPiece, Measure, atomic, cauchy_law, dirac,
                       semicircle_measure, table_density)
from .nevanlinna import (AnalyticFn, NevanlinnaSpec, PowerForm,
                         RationalNevanlinna, RecoveryResult, Verdict,
                         const_fn, constant_spec, halfplane_grid,
                         is_nevanlinna_numeric, neg_pow, parse_named_form,
                         pow_fn, rational_fn, rational_to_canonical,
                         recover_parameters, spec_fn, to_analytic)
from .cauchy import (CauchySampler, DensityTable, InversionDomain,
                     estimate_inversion_domain, free_convolve,
                     reconstruct_cauchy, semigroup_marginal, stieltjes_invert,
                     subordinate, voiculescu_transform)
from .conformal import (ConformalPair, ContainmentCertificate, SlitImage,
                        contains_halfplane_translate, normalize_for_halfplane,
                        primitive_eval, slit_image)
from .ode import OdeConfig, integrate_halfplane
from .levyflow import (FlowField, KernelSlice, build_fal2, fal2_check,
                       flow_conformal, flow_inverse, flow_ode,
                       increment_transform, marginal_law, transition_kernel,
                       vanishing_at_infinity)

__version__ = "0.1.0"
