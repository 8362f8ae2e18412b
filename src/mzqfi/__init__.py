"""Quantum Fisher information of a coherent-plus-cat Mach-Zehnder probe.

Port A carries a phase-rotated coherent state, port B an even/odd cat
superposition; the package computes the interferometric QFI of that
probe with and without photon loss, by closed-form expressions and by
truncated-Fock numerics, and ships the sweep/figure machinery plus a
self-validation suite behind the ``mzqfi`` command line tool.

The names imported here are the public API.  Everything else, the
tolerance constants and result record types included, stays reachable
through its module (``mzqfi.analytic.EPS_GAP``).
"""
import types as _types

from ._version import __version__
from .errors import (
    DegenerateCat,
    DimensionMismatch,
    DomainError,
    HarmonicMismatch,
    MzqfiError,
    NotDensityMatrix,
    TailTooLarge,
)
from .fock import (
    CatParams,
    DensityMatrix,
    FockCutoff,
    SchwingerOps,
    TwoModeState,
    cat_state,
    coherent_amplitudes,
    fock_basis,
    input_state,
    pure_density,
    schwinger_ops,
    two_mode_basis,
)
from .channels import loss_kraus_coefficients
from .qfi import (
    EPS_RANK,
    QfiResult,
    qfi_mixed,
    qfi_pure,
    spectral_decomposition,
)
from .oracle import (
    BeamSplitterSpec,
    beam_splitter_unitary,
    expectation,
    hop_operator,
    loss_channel,
    loss_kraus_operators,
    lowering_power,
    number_conserving_expm,
    phase_shift_unitary,
    uhlmann_fidelity,
)
from .analytic import (
    LossyRho2x2,
    branch_amplitudes,
    branch_jz_moments,
    eigensystem_2x2,
    lossless_moments,
    qfi_lossless,
    qfi_lossless_max_in_n,
    qfi_lossy,
    qfi_lossy_max,
    qfi_lossy_parts,
    total_photon_number,
)
from .simulate import (
    lossy_probe_density,
    probe_cutoff,
    probe_state,
    qfi_numeric,
)
from .experiments import (
    CSV_COLUMNS,
    SweepGrid,
    compare_numeric_analytic,
    default_omega_grid,
    default_phi_grid,
    evaluate_point,
    figure_dataset,
    golden_section_max,
    loss_sensitivity_report,
    read_records,
    resolve_jobs,
    run_grid,
    scan_phi,
    write_records_csv,
    write_records_json,
)
from .validation import run_checks

# every name imported above; the submodules are attributes, not API
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
