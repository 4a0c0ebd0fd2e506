"""Line percolation on [n]^d.

A line saturates once it carries threshold-many infected points, infecting
every point on it; the closure of an initial set is the fixed point of that
rule.  The package provides the exact cascade engine, the synchronous /
alternating / sequential process schedules with instrumentation, reproducible
Monte Carlo estimation of the percolation probability and the critical
density, closed-form threshold theory, and exact-arithmetic certificates for
minimal percolating sets.
"""

__version__ = "0.1.0"

from .engine import (
    Cascade2D,
    InfectionState,
    Trace,
    closure,
    naive_closure,
    percolates,
)
from .estimator import (
    SUPERCRITICAL,
    PcEstimate,
    SlopeFit,
    ThetaEstimate,
    estimate_pc,
    estimate_theta,
    fit_exponent,
    regime_of,
    wilson_interval,
)
from .grid import (
    GridSpec,
    InputError,
    LineId,
    Point,
    all_lines,
    decode_line,
    decode_point,
    encode_line,
    encode_point,
    format_line,
    format_point,
    lines_through,
    parse_line,
    parse_point,
    points_on,
)
from .minset import (
    MinSetResult,
    NonPercolationCertificate,
    VanishingPolynomial,
    certify_non_percolation,
    eval_matrix,
    eval_rank,
    min_percolating_size,
    vanishing_polynomial,
)
from .processes import (
    LineCount2D,
    LineCountClass,
    PlaneStats,
    Preface,
    classify_line_count,
    is_slow,
    plane_statistics,
    preface_of,
    run_alternating_2d,
    run_sequential,
    run_synchronous,
)
from .sampling import (
    CoupledSample,
    PcSample,
    TrialSeed,
    critical_p_of_sample,
    sample_initial,
)
from .theory import (
    TheoryReport,
    check_binomial_bounds,
    gamma_of_r,
    lambda_r,
    predicted_theta2,
    s_of_r,
    theory_report,
)
