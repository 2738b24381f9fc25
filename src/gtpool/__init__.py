"""Randomized pool designs for non-adaptive group testing.

Build a binary test matrix under one of four random models, size it so
that a chosen defective set is identified with probability at least
1 - delta, decode pooled answers by elimination, and measure all of it
empirically with seeded Monte Carlo runs.

The names below are loaded from their module on first use, so that
``import gtpool`` (and a command that needs only ``theory``) does not
import numpy.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "decoding": ("decode_eliminate", "is_disjunct", "is_separable"),
    "designs": ("DesignSpec", "MODELS", "SizingResult", "generate",
                "lower_bound_m", "optimal_param", "upper_bound_m"),
    "errors": ("CapacityError", "DimensionError", "GroupTestError",
               "InfeasibleError", "MatrixParseError", "ParameterError",
               "SizeGuardError"),
    "matrices": ("AnswerVector", "BitMatrix", "DefectiveSet", "QaryMatrix",
                 "expand_qary", "or_columns", "read_answers", "read_matrix",
                 "write_answers", "write_matrix"),
    "sim": ("SearchResult", "TrialReport", "find_min_m", "run_sweep",
            "run_trials", "slope_fit", "wilson_interval"),
    "theory": ("ASYMPTOTIC_CONSTANT", "ConstantsRow", "c_constant", "entropy",
               "ln_p_qd", "r_qdi", "rssd_alpha_star", "surjections",
               "table1", "table1_csv", "utdq_q_star"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "rng")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it here as an attribute
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_HOME})
