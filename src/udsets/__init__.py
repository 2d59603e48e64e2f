"""Pair correlations, unit-distance graphs, and certified density bounds
for distance-1-avoiding sets on square tori.

Library layout:

* ``bessel``        J0 with certified error bounds and tail envelopes
* ``torus``         GridSet, radial spectra, pair correlations (two pipelines)
* ``gridio``        GridSet files and CSV curves
* ``constructions`` disk-packing / tortoise patterns and certified rasters
* ``udgraph``       the cell graph, samplers, exact search, block structure
* ``registry``      constraint graphs and their Bessel profiles
* ``witness``       the dual LP, witness verification, density certificates
* ``cli``           reproducible command-line experiments
"""

from .bessel import BesselEval, j0, j0_envelope, j0_values
from .constructions import (
    PlanarPattern,
    croft_tortoise,
    hex_disk_packing,
    optimize_croft,
    rasterize,
    rasterize_report,
)
from .gridio import load_gridset, save_gridset, write_paircorr_csv
from .registry import Registry, builtin_registry, load_registry
from .torus import (
    GridSet,
    PairCorrEval,
    Spectrum,
    checkerboard,
    linf_unit_pair_density,
    pair_correlation,
    pair_correlation_direct,
    random_gridset,
    s,
    spectrum,
    spectrum_auto,
)
from .udgraph import (
    IndepSet,
    UDGraph,
    block_decomposition,
    build,
    glauber_sample,
    greedy_mis,
    max_is_exact,
    subset_stats,
)
from .witness import (
    CertificateReport,
    WitnessCoefficients,
    certify_bound,
    gamma_extract,
    kappa_constraint_audit,
    quadratic_root,
    solve_feasibility,
    verify_certificate_file,
    verify_witness,
    witness_eval,
    witness_lipschitz,
    write_certificate,
)

__version__ = "0.1.0"
