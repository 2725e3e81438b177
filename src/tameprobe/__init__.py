"""Numerical laboratory for graded seminorms, metric P-norms, and
oscillatory-probe falsification of uniform directional-derivative
estimates on smooth-function spaces."""

from .driver import (
    GrowthRecord,
    PrecisionBudgetError,
    SweepResult,
    estimate_residual_bound,
    find_s0,
    find_t0,
    fix_m,
    growth_sweep,
    residual_tz,
)
from .functions import (
    PERIODIC,
    UNIT_INTERVAL,
    GridSpec,
    SmoothFunction,
    constant,
    probe,
    seminorm_profile,
    zero,
)
from .jets import MAX_ORDER
from .maps import (
    CirclePullback,
    DomainViolation,
    PostComposition,
    SampledFunction,
    gateaux_fd,
)
from .primitives import Cos, Exp, Polynomial, ScalarPrimitive, Sin
from .tameness import PNormSpec, TameCheckReport, check_tame_estimate, pnorm_eval

__version__ = "0.1.0"
