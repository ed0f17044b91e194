"""Design and certification toolkit for delayed boundary feedback control
of diagonal (modal) infinite-dimensional systems.

Workflow: build a modal plant, validate the truncation and controllability
assumptions, synthesize a delay-compensating gain, compute an explicit
stability certificate, and simulate the interconnected closed loop.
"""

from .config import (
    RunConfig,
    case_study_run_config,
    load_config,
    loads_config,
)
from .certificates import (
    CertificateBundle,
    CouplingConstants,
    SearchConfig,
    compute_constants,
    coupling_constants,
    evaluate_V,
    nelder_mead,
    no_blowup_margin,
    optimize_parameters,
    parse_certificate,
    render_certificate,
    small_gain_margin,
)
from .errors import (
    AssumptionViolatedError,
    CertificateParameterError,
    ConfigError,
    InfeasibleCertificateError,
    InsufficientDataError,
    InvalidParameterError,
    SimulationDivergedError,
    SynthesisFailureError,
    ToolkitError,
)
from .predictor import (
    PredictorDesign,
    TransitionSignal,
    artstein_state,
    control_input,
    design_predictor,
    diagonal_exponential,
    invert_artstein,
    place_poles,
    solve_lyapunov,
    transition_value,
    zero_gain_design,
)
from .simulate import (
    CouplingFields,
    SimConfig,
    Trajectory,
    case_study_disturbance,
    case_study_fields,
    case_study_initial_profile,
    coupling_f1,
    coupling_f2,
    decay_fit,
    decoupled_fields,
    iss_envelope_check,
    simulate,
    step,
    write_csv,
)
from .spectral import (
    SpectralSystem,
    TruncationSpec,
    build_heat_system,
    check_kalman,
    check_truncation,
    pbh_controllable,
    project_profile,
    reconstruct,
)

__version__ = "0.1.0"
