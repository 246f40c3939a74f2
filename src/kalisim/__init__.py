"""kalisim: simulation of multivariate counting processes whose intensities are
decomposed as probability mixtures of finite-neighborhood components.

Two simulators share the decomposition machinery: a forward thinning loop
from empty past on finite networks (valid for unbounded intensities), and a
perfect simulator of the stationary regime on possibly infinite networks
(backward clans of ancestors with a shared region ledger, forward acceptance
in time order). A branching-process toolkit predicts the algorithmic cost.
"""

from .analysis import (
    BranchingSummary,
    LogLaplaceState,
    OffspringModel,
    branching_matrix,
    branching_summary,
    expected_clan_size,
    fixed_point_jacobian,
    log_laplace_fixed_point,
    subcriticality_gamma,
)
from .core import (
    ActivityCap,
    AtomND,
    Configuration,
    EmptyND,
    EMPTY_ND,
    Neighborhood,
    NestedND,
    NoGuard,
    RefractoryGap,
    SubspaceGuard,
    TaylorND,
    evaluate_decomposition,
    shift_to_origin,
)
from .errors import (
    BudgetExhausted,
    ConfigError,
    DivergenceError,
    ExplosionGuardError,
    GuardViolation,
    KalisimError,
    LedgerError,
    NonMonotoneModelError,
    NonSummableError,
)
from .forward import ForwardRun, forward_simulate
from .kernels import AffineRate, ExponentialKernel, StepKernel
from .models import (
    AgeHawkesModel,
    AnalyticHawkesModel,
    AtomLattice,
    GLModel,
    KalikowModel,
    LinearHawkesModel,
    PsiSeries,
    TableEntry,
    TableModel,
    lattice_preset,
)
from .perfect import (
    AncestorGraph,
    BackwardBudget,
    PerfectRunStats,
    backward_clan,
    forward_accept,
    perfect_sample,
    perfect_sample_window,
)
from .sampling import (
    PointRecord,
    RandomStream,
    RegionLedger,
    sample_poisson_region,
)
from .weights import AtomicWeights, GeometricLevels, TaylorWeights
from .config import RunConfig, build_model, load_config, parse_config

__version__ = "0.1.0"
