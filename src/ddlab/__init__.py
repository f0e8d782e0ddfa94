"""ddlab: a numerical laboratory for diffusive-dispersive regularizations
of scalar conservation laws on periodic boxes."""

from .grids import Field, GridSpec, Trajectory, gradient, lp_norm, \
    spacetime_integral
from .model import (
    DiffusionSpec,
    EntropyPair,
    FluxSpec,
    kruzkov_entropy,
    make_entropy_pair,
)
from .solver import InitialData, SolveParams, solve
from .reference import lax_oleinik_reference, reference_solve
from .harness import SweepConfig, classify_regime, compare_to_reference, \
    run_sweep

__version__ = "0.1.0"
