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
    cli           command-line entry point
"""

__version__ = "0.1.0"
