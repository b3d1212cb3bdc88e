"""The package namespace: each module's public names, re-exported."""

import bellqkd
from bellqkd import filtering, metrics, protocol_sim, states

MODULES = (states, metrics, filtering, protocol_sim)


def test_package_all_is_the_modules_all():
    """bellqkd.__all__ is the modules' __all__ lists plus __version__, with
    no name twice, and each name is the module's own object."""
    assert bellqkd.__all__ == [name for mod in MODULES
                               for name in mod.__all__] + ["__version__"]
    assert len(set(bellqkd.__all__)) == len(bellqkd.__all__)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(bellqkd, name) is getattr(mod, name), name
    assert bellqkd.__version__ == "0.1.0"


# The public API, in order: a change to it is a change to this list.
PUBLIC = [
    # states
    "PAULI", "InvalidStateError", "StateFileError", "TwoQubitState",
    "MuellerMatrix", "FamilySpec", "ValidityReport", "from_pauli",
    "validate", "to_mueller", "make_family", "depolarize", "bell_state",
    "load_state_file", "parse_state_spec",
    # metrics
    "CorrelationSpectrum", "ChshSettings", "KeyMetrics", "Region",
    "correlation_spectrum", "chsh_max", "optimal_chsh_settings", "qber",
    "key_rate_symmetric", "q_crit", "q_crit_symmetric", "classify",
    # filtering
    "MINKOWSKI_G", "FilterPair", "FilterOutcome", "MetricsSummary",
    "XFormError", "TrivialNormalFormError", "DIAGONAL", "XFORM",
    "concurrence", "entanglement_of_formation", "summarize_metrics",
    "filtered_key_rate", "BatchOutcome", "filtered_key_rate_batch",
    # protocol_sim
    "SimConfig", "SimReport", "run_protocol",
    "__version__",
]


def test_public_api_is_frozen():
    assert bellqkd.__all__ == PUBLIC
