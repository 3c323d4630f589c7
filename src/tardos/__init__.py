"""Probabilistic fingerprinting codes with collusion tracing.

The package covers the full pipeline: biased binary codeword generation
(:mod:`.codegen`), accusation scoring and tracing (:mod:`.tracer`), coalition
attack models (:mod:`.attacks`), provable length/threshold constants and the
randomized search that minimizes them (:mod:`.bounds`), the Gaussian score
model with its design formulas (:mod:`.gaussian`), and a Monte Carlo
validation harness (:mod:`.simulate`). The ``tardos`` console script exposes
all of it as subcommands.
"""

from .attacks import KINDS, Strategy, forge, strategy_psi
from .bounds import (ClosedFormInputs, ClosedFormOutputs, ConditionCheck,
                     GeneralConditionInputs, SearchResult, SearchTable,
                     WindowResult, check_general_condition,
                     check_tardos_condition, closed_form_params,
                     emit_search_table, length_window, search_min_A)
from .codegen import (BiasVector, Codebook, CodebookFile, crc64, gen_matrix,
                      generate_codebook, load_codebook, row_bits, sample_bias,
                      save_codebook)
from .errors import (CapacityError, CodebookChecksumError, CodebookFormatError,
                     CodebookTruncatedError, CodebookVersionError,
                     EmptyWindowError, InfeasibleError, ParameterError,
                     QuadratureError, TardosError)
from .gaussian import (CltReport, GaussianPlan, MomentSummary, ZInterval,
                       clt_report, conservative_plan, erfc, erfc_inv,
                       format_report, log_erfc, m_min, moments, normal_cdf,
                       z_interval)
from .model import (ARCSINE, BETA, BiasDistribution, DerivedConstants,
                    SchemeParams, bias_density, default_cutoff, expectation,
                    g0, g1, nu, tprime)
from .simulate import (Histogram, HistogramBundle, SimConfig, SimReport, run,
                       score_histograms, wilson_interval)
from .tracer import (AccusationReport, PirateCopy, coalition_score,
                     score_user, trace)

__version__ = "0.1.0"

__all__ = [
    "ARCSINE", "BETA", "AccusationReport", "BiasDistribution", "BiasVector",
    "CapacityError", "CltReport", "ClosedFormInputs", "ClosedFormOutputs",
    "Codebook", "CodebookChecksumError", "CodebookFile", "CodebookFormatError",
    "CodebookTruncatedError", "CodebookVersionError", "ConditionCheck",
    "DerivedConstants", "EmptyWindowError", "GaussianPlan",
    "GeneralConditionInputs", "Histogram", "HistogramBundle",
    "InfeasibleError", "KINDS", "MomentSummary", "ParameterError",
    "PirateCopy", "QuadratureError", "SchemeParams", "SearchResult",
    "SearchTable", "SimConfig", "SimReport", "Strategy", "TardosError",
    "WindowResult", "ZInterval", "bias_density", "check_general_condition",
    "check_tardos_condition", "closed_form_params", "clt_report",
    "coalition_score", "conservative_plan", "crc64", "default_cutoff",
    "emit_search_table", "erfc", "erfc_inv", "expectation", "forge",
    "format_report", "g0", "g1", "gen_matrix", "generate_codebook", "length_window",
    "load_codebook", "log_erfc", "m_min", "moments", "normal_cdf", "nu",
    "row_bits", "run", "sample_bias", "save_codebook", "score_histograms",
    "score_user", "search_min_A", "strategy_psi", "tprime", "trace",
    "wilson_interval", "z_interval",
]
