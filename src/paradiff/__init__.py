"""Parallel-in-time solver for high-contrast multiscale diffusion.

Pipeline: assemble fine bilinear FEM operators, build a split NLMC coarse
space (implicit channel directions, explicit matrix directions), integrate
with a partially explicit scheme, and accelerate over time with parareal
whose fine propagator is an alpha-circulant all-at-once solve refreshed by
waveform relaxation.
"""

from .allatonce import (
    ImplicitAllAtOnce,
    TimeMatrixB,
    WaveformRelaxation,
    WRResult,
    apply_S,
    apply_S_inverse,
    build_rhs,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    Pipeline,
    build_pipeline,
    example1_config,
    example2_config,
    load_config,
    relative_error,
    run_experiment,
    run_single,
)
from .fem import (
    Channel,
    FineGrid,
    FineOperators,
    PermeabilityField,
    SourceSpec,
    assemble_fine,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_fine_grid,
    generate_field,
    node_values_on_grid,
    reference_solve,
)
from .msbasis import (
    BlockBasis,
    CoarsePartition,
    CoarseSystem,
    ContinuumDecomposition,
    MultiscaleSpace,
    build_coarse_partition,
    build_multiscale_space,
    build_nlmc_basis,
    detect_continua,
    project_coarse,
    project_load,
    split_spaces,
    subspace_angle,
)
from .parareal import (
    AllAtOnceFine,
    ParerealConfig,
    ParerealRun,
    SequentialFine,
    build_fine_propagator,
    check_stop,
    initial_sweep,
    max_state_diff,
    run_parareal,
)
from .stepping import (
    ConstantLoads,
    SplitPropagators,
    SplitState,
    SplitTrajectory,
    TimeGrid,
    project_initial,
    split_energy,
    w_modes,
)

__version__ = "0.1.0"
