"""carpetlab: desk-scale analysis of cell graphs on 3D unconstrained carpets.

The package is organized around the pipeline

    config -> geometry (exact validation) -> cellgraph -> spectral constants
           -> walks (kernels + Monte Carlo) -> bricks (certified functions)
           -> heat (kernel shape diagnostics)

with :mod:`carpetlab.cli` as the orchestration surface.  The public surface
is the CLI plus these modules, imported by name (``carpetlab.spectral`` and
so on); the package root re-exports nothing, so importing it loads no scipy.
"""

from importlib import resources

__version__ = "0.1.0"


def builtin_config(name: str) -> str:
    """Text of a bundled carpet config (carpet26, menger, diagonal_demo)."""
    return (
        resources.files("carpetlab") / "configs" / f"{name}.json"
    ).read_text()


def builtin_spec(name: str):
    """A bundled config parsed into a :class:`carpetlab.geometry.IfsSpec`."""
    from .geometry import parse_spec

    return parse_spec(builtin_config(name))
