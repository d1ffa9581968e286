"""carpetlab: desk-scale analysis of cell graphs on 3D unconstrained carpets.

The package is organized around the pipeline

    config -> geometry (exact validation) -> cellgraph -> spectral constants
           -> walks (kernels + Monte Carlo) -> bricks (certified functions)
           -> heat (kernel shape diagnostics)

with :mod:`carpetlab.cli` as the orchestration surface.
"""

from importlib import resources

from .geometry import (
    Box,
    IfsSpec,
    Isometry,
    SpecError,
    ValidationReport,
    cell_box,
    edge_threshold_constants,
    isometry_group,
    parse_spec,
    separation_constant,
    validate,
)
from .cellgraph import (
    BudgetError,
    CellGraph,
    WallGraph,
    build_graph,
    build_wall,
    counting_measure,
    graph_ball,
    graph_distance,
    neighborhood,
    walk_measure,
)
from .spectral import (
    ConstantsTable,
    ScalingFit,
    SolveOptions,
    dirichlet_energy,
    effective_resistance,
    face_resistance,
    poincare_constant,
    scaling_fit,
)
from .walks import (
    WalkKernel,
    build_kernel,
    build_wall_kernel,
    coupling_check,
    mean_hitting,
    oscillation_bound,
    simulate,
)
from .bricks import BrickWorkspace, build_cutoff
from .heat import ball_checks, besov_energy, heat_rows, subgaussian_fit

__version__ = "0.1.0"


def builtin_config(name: str) -> str:
    """Text of a bundled carpet config (carpet26, menger, diagonal_demo)."""
    return (
        resources.files("carpetlab") / "configs" / f"{name}.json"
    ).read_text()


def builtin_spec(name: str) -> IfsSpec:
    return parse_spec(builtin_config(name))
