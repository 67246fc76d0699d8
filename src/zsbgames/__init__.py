"""Finite-horizon two-player zero-sum stochastic Bayesian games:
sequence-form LP solvers, sufficient-statistic updates, window-by-window
play with a provable performance bound, and a seeded game simulator."""

from .best_response import best_response_vs_p1, best_response_vs_p2
from .bounds import oracle_value, window_bound
from .dual_solver import DualResult, solve_dual1, solve_dual2
from .errors import (CapacityError, DomainError, NumericalError, ParseError,
                     SolverError, ValidationError, ZsbgError)
from .game_model import (GameSpec, g_bar, load_case_study, load_spec,
                         save_spec, validate)
from .history_index import HistoryIndex, build_index
from .primal_solver import (BehavioralStrategy, PrimalResult, RealizationPlan,
                            extract_strategy, solve_primal)
from .simulator import EpisodeTrace, McResult, run_episode, run_monte_carlo
from .stat_updater import (UpdateResult, update_belief_p, update_belief_q,
                           update_mu, update_nu)
from .window_agent import (FixedPolicyAgent, OptimalAgent, SolverCache,
                           WindowAgent, WindowConfig)

__all__ = [
    "BehavioralStrategy", "CapacityError", "DomainError", "DualResult",
    "EpisodeTrace", "FixedPolicyAgent", "GameSpec", "HistoryIndex",
    "McResult", "NumericalError", "OptimalAgent", "ParseError",
    "PrimalResult", "RealizationPlan", "SolverCache", "SolverError",
    "UpdateResult", "ValidationError", "WindowAgent", "WindowConfig",
    "ZsbgError", "best_response_vs_p1", "best_response_vs_p2",
    "build_index", "extract_strategy", "g_bar",
    "load_case_study", "load_spec", "oracle_value", "run_episode",
    "run_monte_carlo", "save_spec", "solve_dual1", "solve_dual2",
    "solve_primal", "update_belief_p", "update_belief_q", "update_mu",
    "update_nu", "validate", "window_bound",
]
