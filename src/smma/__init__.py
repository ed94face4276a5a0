"""Chance-constrained topology optimization with the stochastic MMA.

Submodules:
    mesh_fem      structured plane-stress FEM (meshes, assembly, solves)
    design_field  density filter, SIMP interpolation, volume measures
    smoothing     smoothed indicator family and constraint aggregation
    csg_weights   sample store and nearest-neighbor integration weights
    mma_core      moving-asymptote approximations and subproblem solver
    driver        one MMA loop for sMMA, limited-memory sMMA and the
                  fixed-quadrature baseline, and dense-quadrature
                  ground-truth evaluation
    benchmarks    wheel and plate problem builders
    cli           command-line entry point (run as python -m smma or
                  the smma script, which enter through __main__)
"""

__version__ = "0.1.0"

# the thread counts of the BLAS and OpenMP libraries numpy and scipy may
# load; the command line sets each to 1 unless its caller set it (see
# __main__), and a run manifest records them
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
