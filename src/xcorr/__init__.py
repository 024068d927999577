"""Differential-correlation auditing toolkit.

Detects which user inputs an opaque service uses to target its outputs,
by spreading the inputs over randomized shadow accounts and correlating
where each output shows up.  Ships the account-placement design, a
service simulator, three detection algorithms (set intersection, a
Bayesian model, and combinatorial core-family search), the threshold
calculus that sizes them, input matching for overlapping workloads, and
a Monte Carlo experiment harness with a CLI.
"""

__version__ = "0.1.0"

from .core_model import (  # noqa: F401
    Combination,
    Family,
    TruthTable,
    check_axioms,
    eval_targeting,
    explains,
    extract_core_family,
)
from .placement import (  # noqa: F401
    PlacementConfig,
    PlacementMatrix,
    bernoulli_placement,
    grouped_placement,
    sized_account_count,
    spawn_rngs,
)
from .prediction import Prediction, Verdict, Verdicts  # noqa: F401
from .simulator import (  # noqa: F401
    ObservationSet,
    SimulationTrace,
    SpecTable,
    TargetingSpec,
    simulate_behavioral,
    simulate_contextual,
)
from .set_intersection import (  # noqa: F401
    SetIntersectionConfig,
    predict_set_intersection,
    set_intersection_verdicts,
)
from .bayes import (  # noqa: F401
    ModelParams,
    bayes_predict,
    bayes_verdicts,
    learn_contextual_params,
    learn_params,
)
from .threshold_analysis import (  # noqa: F401
    admissible,
    max_ratio,
    phi,
    recommend_config,
    theoretical_account_constant,
)
from .core_family_search import (  # noqa: F401
    AdFamily,
    DetectionConfig,
    agglomerative_core_search,
    core_family_verdicts,
    detect_targeting,
    predict_core_family,
    removal_core_search,
)
from .input_matching import (  # noqa: F401
    build_signatures,
    cluster_inputs,
    cluster_purity,
)
from .experiment import (  # noqa: F401
    CorrelationStore,
    Report,
    ScenarioConfig,
    detect_knee,
    precision_recall,
    run_scenario,
    scaling_sweep,
    scenario_hash,
    wilson_interval,
)
