"""Slice-sum scaling of nonnegative matrices and tensors.

Scales a nonnegative tensor entrywise by per-mode exponent vectors so that
every mode's slice sums hit prescribed positive targets, by greedily
partially minimizing a strictly convex mass objective one block at a time.
Includes geometric-rate certificates, an LP scalability test for patterned
tensors, and the reduction of discrete Schrodinger-bridge style matrix
problems to this scaling.
"""

from .blockmin import (BlockProblem, BlockVector, IterateTrace,
                       NumericalOverflowError, QuadraticBlockProblem,
                       estimate_alpha_beta, rate_certificate, run)
from .bridge import BridgeProblem, BridgeResult, solve_bridge
from .feasibility import (FeasibilityReport, InfeasibleScalingError,
                          check_scalable, verify_witness)
from .numerics import null_space, symmetric_eigs
from .objective import ScalingProblem, build_frame
from .scaler import ScalingSolution, closed_form_block_update, normalize, solve
from .tensor import (DenseTensor, ScalingOverflowError, SliceTargets,
                     rank_one_target, scale, slice_sums)

__version__ = "0.1.0"
