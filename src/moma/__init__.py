"""Multi-objective model checking for Markov automata and MDPs.

Computes achievable points and Pareto fronts for mixtures of expected
long-run average and expected total reward objectives, by iterative
weighted-sum refinement with certified value brackets.
"""

from .model import (InfeasibleError, MarkovAutomaton, MDStrategy, ModelError,
                    Objective, RewardAssignment, SolverError, ValidationReport,
                    embed_mdp, induced_chain, validate_model, weighted_reward_sum)
from .components import (EndComponent, QuotientModel, almost_sure_reach,
                         decode_quotient_strategy, mec_decomposition, quotient,
                         sub_ma, zero_mecs)
from .solvers import (ChainEvaluation, ScalarSolution, bscc_gain,
                      evaluate_strategy, max_total_reward, mec_lra,
                      reach_to_total)
from .weighted import (NormalizedProblem, WeightedPrep, WeightedSolution,
                       normalize_query, optimize_weighted, prepare_weighted,
                       validate_assumptions)
from .pareto import (AchievabilityQuery, ApproximationState, HalfSpace, ParetoQuery,
                     QuantitativeQuery, QueryResult, answer_query, downward_hull, refine,
                     select_weight)
from .modelio import (dumps, parse_model, parse_query, plot_csv,
                      result_document, serialize_model)

__version__ = "0.1.0"

__all__ = [
    "AchievabilityQuery", "ApproximationState", "ChainEvaluation",
    "EndComponent", "HalfSpace", "InfeasibleError", "MDStrategy",
    "MarkovAutomaton", "ModelError", "NormalizedProblem", "Objective",
    "ParetoQuery", "QuantitativeQuery", "QueryResult", "QuotientModel",
    "RewardAssignment", "ScalarSolution", "SolverError", "ValidationReport",
    "WeightedPrep", "WeightedSolution", "almost_sure_reach", "answer_query",
    "bscc_gain", "decode_quotient_strategy", "downward_hull", "dumps",
    "embed_mdp", "evaluate_strategy", "induced_chain", "max_total_reward",
    "mec_decomposition", "mec_lra", "normalize_query", "optimize_weighted",
    "parse_model", "parse_query", "plot_csv", "prepare_weighted", "quotient",
    "reach_to_total", "refine", "result_document", "select_weight",
    "serialize_model", "sub_ma", "validate_assumptions", "validate_model",
    "weighted_reward_sum", "zero_mecs",
]
