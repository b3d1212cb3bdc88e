"""Two-qubit Bell-violation analysis, local filtering, and QKD simulation.

The package covers the pipeline from a two-qubit density matrix to a
usability verdict for CHSH-certified key distribution: correlation
spectra and optimal CHSH settings, QBER and key-rate thresholds, the
Lorentz normal form behind optimal single-copy filtering, and a seeded
Monte Carlo of the filter-then-measure protocol.
"""

from .states import (FamilySpec, InvalidStateError, MuellerMatrix,
                     StateFileError, TwoQubitState, ValidityReport,
                     bell_state, depolarize, from_mueller, from_pauli,
                     load_state_file, make_family, parse_state_spec,
                     to_mueller, validate)
from .metrics import (ChshSettings, CorrelationSpectrum, KeyMetrics, Region,
                      chsh_max, chsh_value, classify, correlation_spectrum,
                      key_rate_symmetric, optimal_chsh_settings, q_crit,
                      q_crit_symmetric, qber)
from .filtering import (BatchOutcome, EntanglementReport, FilterOutcome,
                        FilterPair, LorentzTransform, MetricsSummary,
                        NormalForm, TrivialNormalFormError, XFormError,
                        apply_filters, concurrence, entanglement_of_formation,
                        entanglement_report, filter_to_lorentz,
                        filtered_key_rate, filtered_key_rate_batch,
                        lorentz_to_filter, normal_form, optimal_filters,
                        summarize_metrics)
from .protocol_sim import (SimConfig, SimReport, born_joint_distribution,
                           run_protocol)

__version__ = "0.1.0"

__all__ = [
    "FamilySpec", "InvalidStateError", "MuellerMatrix", "StateFileError",
    "TwoQubitState", "ValidityReport", "bell_state", "depolarize",
    "from_mueller", "from_pauli", "load_state_file", "make_family",
    "parse_state_spec", "to_mueller", "validate",
    "ChshSettings", "CorrelationSpectrum", "KeyMetrics", "Region",
    "chsh_max", "chsh_value", "classify", "correlation_spectrum",
    "key_rate_symmetric", "optimal_chsh_settings", "q_crit",
    "q_crit_symmetric", "qber",
    "BatchOutcome", "EntanglementReport", "FilterOutcome", "FilterPair",
    "LorentzTransform",
    "MetricsSummary", "NormalForm", "TrivialNormalFormError", "XFormError",
    "apply_filters", "concurrence", "entanglement_of_formation",
    "entanglement_report", "filter_to_lorentz", "filtered_key_rate",
    "filtered_key_rate_batch",
    "lorentz_to_filter", "normal_form", "optimal_filters",
    "summarize_metrics",
    "SimConfig", "SimReport", "born_joint_distribution", "run_protocol",
    "__version__",
]
