"""Niching evolutionary algorithms and a budgeted benchmark harness."""

from .algorithms import (
    ALGORITHMS,
    AlgorithmConfig,
    RunResult,
    crowding_de,
    crowding_ga,
    crowding_replacement,
    conserve_species_seeds,
    determine_species_seeds,
    get_algorithm,
    preselection_ga,
    scga,
    sde,
    sharing_de,
    sharing_ga,
)
from .core import (
    Evaluator,
    Individual,
    Population,
    binary_tournament,
    blend_crossover,
    de_trial_vector,
    gaussian_mutation,
)
from .draws import de_draws, de_generation_draws, mutation_draws
from .grating import (
    GratingParams,
    SyntheticRecordingModel,
    grating_problem,
    integrated_square_error,
    make_default_problem,
    residuals,
)
from .harness import (
    ConfigError,
    ExperimentSpec,
    ResultTable,
    RunError,
    emit_reports,
    run_experiment,
)
from .metrics import avg_min_distance, best_fitness, distinct_peaks, peak_ratio
from .problems import (
    PROBLEM_FACTORIES,
    BoundedProblem,
    branin,
    deb1,
    himmelblau,
    rosenbrock,
    six_hump_camel,
)
from .stats import (
    ks_two_sample,
    mann_whitney_u,
    pairwise_matrix,
    welch_t,
)

__version__ = "0.1.0"
