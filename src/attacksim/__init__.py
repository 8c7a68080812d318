"""attacksim: probabilistic attacker-behavior simulation for modeled
cyber-physical systems.

Simulates an attacker's decision cycle (knowledge, target selection,
action filtering, profile-distance scoring, weighted sampling) over seeded
Monte Carlo episodes, producing per-decision probability traces and
aggregate vulnerability reports.
"""

from attacksim.actions import (
    Action,
    ActionDatabase,
    TargetCriteria,
    criteria_match,
    load_action_db,
    scaled_action_profiles,
)
from attacksim.engine import (
    AttackState,
    DecisionContext,
    DecisionRecord,
    distance,
    filter_valid,
    initial_state,
    probabilities,
    sample_action,
    scores,
    select_target,
    step,
)
from attacksim.errors import ValidationFailure
from attacksim.harness import (
    AggregateReport,
    EpisodeTrace,
    SimConfig,
    export_report,
    export_trace_dot,
    run_episode,
    run_monte_carlo,
)
from attacksim.model import (
    EXTERNAL_ORIGIN,
    CpsKnowledge,
    CpsSystem,
    Edge,
    Node,
    ValidationReport,
    initial_knowledge,
    load_system,
    reveal_on_compromise,
    validate_system,
)
from attacksim.profiles import (
    AttackerProfile,
    ProfilePmf,
    ProfileSchema,
    ProfileSet,
    PropertySchema,
    ScaledProfile,
    load_profiles,
    match_unordered,
    pmf_probabilities,
    sample_profile,
    scale_bounded,
    scale_ordered_set,
    scale_unbounded,
)

__version__ = "0.1.0"

# The kernels have one implementation; the benchmark still records this
# name in its environment line.
KERNEL_BACKEND = "python"
