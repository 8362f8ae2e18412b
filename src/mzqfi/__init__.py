"""Quantum Fisher information of a coherent-plus-cat Mach-Zehnder probe.

Port A carries a phase-rotated coherent state, port B an even/odd cat
superposition; the package computes the interferometric QFI of that
probe with and without photon loss, by closed-form expressions and by
truncated-Fock numerics, and ships the sweep/figure machinery plus a
self-validation suite behind the ``mzqfi`` command line tool.
"""
from ._version import __version__
from .errors import (
    BasisDegenerate,
    DegenerateCat,
    DimensionMismatch,
    DomainError,
    MzqfiError,
    NotDensityMatrix,
    TailTooLarge,
)
from .fock import (
    EPS_CAT,
    EPS_TAIL,
    CatParams,
    DensityMatrix,
    FockBasis,
    FockCutoff,
    SchwingerOps,
    TwoModeState,
    cat_state,
    coherent_amplitudes,
    default_cutoff,
    expectation,
    fock_basis,
    hop_operator,
    input_state,
    lowering_power,
    pure_density,
    schwinger_ops,
    two_mode_basis,
)
from .channels import (
    PRUNE_NORM,
    BeamSplitterSpec,
    LossSpec,
    apply_loss,
    beam_splitter_unitary,
    loss_channel,
    loss_channel_ancilla,
    loss_kraus_coefficients,
    loss_kraus_operators,
    mz_unitary,
    number_conserving_expm,
    number_conserving_expm_apply,
    pair_jx,
    partial_trace,
    phase_shift_unitary,
)
from .qfi import (
    EIG_FLOOR,
    EPS_RANK,
    GeneratorChoice,
    QfiResult,
    SpectralDecomposition,
    qfi_fidelity_estimate,
    qfi_mixed,
    qfi_pure,
    qfi_unitary_invariance_check,
    spectral_decomposition,
    uhlmann_fidelity,
)
from .analytic import (
    EPS_BASIS,
    EPS_GAP,
    EPS_Z,
    BranchMoments,
    Eigensystem2x2,
    LosslessMoments,
    LossyQfiParts,
    LossyQfiTerms,
    LossyRho2x2,
    branch_amplitudes,
    branch_jz_moments,
    eigensystem_2x2,
    lossless_moments,
    lossy_qfi_terms,
    qfi_lossless,
    qfi_lossless_max,
    qfi_lossless_max_in_n,
    qfi_lossy,
    qfi_lossy_even,
    qfi_lossy_max,
    qfi_lossy_parts,
    reduced_density,
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
    FIGURE_IDS,
    NUMERIC_ALPHA_MAX,
    OMEGA_POINTS,
    PHI_POINTS,
    PHI_REFINE_TOL,
    ComparisonReport,
    FigureDataset,
    LossSensitivityReport,
    LossSensitivityRow,
    PhiScan,
    SweepGrid,
    SweepRecord,
    analytic_qfi,
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
from .validation import CheckResult, all_passed, run_checks

__all__ = [
    "__version__",
    # errors
    "MzqfiError", "DomainError", "TailTooLarge", "DegenerateCat",
    "DimensionMismatch", "NotDensityMatrix", "BasisDegenerate",
    # fock
    "EPS_TAIL", "EPS_CAT", "FockCutoff", "default_cutoff", "FockBasis",
    "fock_basis", "two_mode_basis", "hop_operator", "lowering_power",
    "SchwingerOps", "schwinger_ops", "coherent_amplitudes", "CatParams",
    "cat_state", "TwoModeState", "DensityMatrix", "pure_density",
    "input_state", "expectation",
    # channels
    "BeamSplitterSpec", "LossSpec", "number_conserving_expm",
    "number_conserving_expm_apply", "pair_jx", "beam_splitter_unitary",
    "phase_shift_unitary", "mz_unitary", "loss_kraus_coefficients",
    "loss_kraus_operators", "apply_loss", "loss_channel", "partial_trace",
    "loss_channel_ancilla", "PRUNE_NORM",
    # qfi
    "EPS_RANK", "EIG_FLOOR", "GeneratorChoice", "SpectralDecomposition",
    "spectral_decomposition", "QfiResult", "qfi_pure", "qfi_mixed",
    "qfi_unitary_invariance_check", "uhlmann_fidelity",
    "qfi_fidelity_estimate",
    # analytic
    "EPS_BASIS", "EPS_GAP", "EPS_Z", "LosslessMoments", "lossless_moments",
    "qfi_lossless", "total_photon_number", "qfi_lossless_max",
    "qfi_lossless_max_in_n", "LossyRho2x2", "reduced_density",
    "Eigensystem2x2", "eigensystem_2x2", "LossyQfiTerms", "lossy_qfi_terms",
    "qfi_lossy", "qfi_lossy_max", "qfi_lossy_even", "branch_amplitudes",
    "BranchMoments", "branch_jz_moments", "LossyQfiParts", "qfi_lossy_parts",
    # simulate
    "probe_cutoff", "probe_state", "lossy_probe_density", "qfi_numeric",
    # experiments
    "NUMERIC_ALPHA_MAX", "PHI_POINTS", "OMEGA_POINTS", "PHI_REFINE_TOL",
    "CSV_COLUMNS", "FIGURE_IDS", "default_phi_grid", "default_omega_grid",
    "SweepGrid", "SweepRecord", "analytic_qfi", "evaluate_point",
    "resolve_jobs", "run_grid", "golden_section_max", "PhiScan", "scan_phi",
    "FigureDataset", "figure_dataset", "ComparisonReport",
    "compare_numeric_analytic", "LossSensitivityRow", "LossSensitivityReport",
    "loss_sensitivity_report", "write_records_csv", "write_records_json",
    "read_records",
    # validation
    "CheckResult", "run_checks", "all_passed",
]
