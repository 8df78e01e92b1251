"""levylab: a Monte Carlo laboratory for SDEs driven by pure-jump noise.

Subsystems: driver measures and jump sampling (measures), coefficient sets
and families (coefficients), the jump-adapted ensemble engine (engine), the
non-local generator with its martingale/forward-equation residual tests
(generator, testfunctions), the limit-experiment toolkit (psi, convergence),
the jump-contaminated particle filter (filtering), and manifest-driven
experiment bundles with bitwise replay (manifests, experiments, cli).
"""

from .coefficients import (CoefficientFamily, CoefficientSet,
                           coefficients_from_config, family_from_config)
from .convergence import (EmpiricalDistanceConfig, bl_distance,
                          default_bl_dictionary, gronwall_check,
                          lyapunov_moment, tightness_diagnostics)
from .engine import (CadlagPath, EnsembleLaw, GaussianLaw, PathEnsemble,
                     PointMass, simulate_coupled_family, simulate_ensemble,
                     simulate_path)
from .filtering import (FilterState, ObservationModel, ObservationRecord,
                        ObservationSetup, filter_run, log_likelihood,
                        robustness_experiment, simulate_observation)
from .generator import (GeneratorContext, eval_generator, fpe_weak_residual,
                        martingale_residual, validate_hypotheses)
from .manifests import RunManifest
from .measures import (AtomicLevyMeasure, JumpEvent, JumpEvents, LevyMeasure,
                       TruncationConfig, compensator_drift,
                       exponential_tails_1d, power_law_tails_1d,
                       sample_jump_events, zero_measure)
from .psi import PsiFunction, construct_psi
from .testfunctions import (TestFunction, default_dictionary, plateau_bump,
                            windowed_monomial)

__version__ = "0.1.0"
