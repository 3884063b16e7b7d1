"""relac: relationship-based access control over labelled system graphs.

Policies name paths, not people: a request (subject, object, action) is
mapped to principals by matching path conditions between subject and object
in the system graph, and the principals' authorization rules decide the
request. Decisions can feed back into the graph as typed history edges,
which is enough to express caching, separation of duty and Chinese Wall.
"""

from .errors import RelacError
from .graph import (
    Caching,
    DecisionAudit,
    InterestAudit,
    SystemGraph,
    SystemModel,
)
from .pathcond import ALL, NONE, PathTarget, parse, simplify, to_text
from .automata import Nfa, compile_condition, matches
from .policy import (
    AuthRule,
    Crs,
    Decision,
    DefaultTable,
    ExtendedAuthPolicy,
    PmRule,
    Pmp,
    PmpShape,
    match_principals,
)
from .engine import (
    ChineseWallConfig,
    EvalResult,
    Evaluator,
    HistoryConfig,
    Request,
    build_chinese_wall_rules,
    build_sod_policy,
    warm_cache,
)

__version__ = "0.1.0"

__all__ = [
    "RelacError",
    "SystemModel",
    "SystemGraph",
    "Caching",
    "DecisionAudit",
    "InterestAudit",
    "parse",
    "simplify",
    "to_text",
    "ALL",
    "NONE",
    "PathTarget",
    "Nfa",
    "compile_condition",
    "matches",
    "Decision",
    "Crs",
    "PmpShape",
    "PmRule",
    "Pmp",
    "AuthRule",
    "ExtendedAuthPolicy",
    "DefaultTable",
    "match_principals",
    "Request",
    "EvalResult",
    "Evaluator",
    "HistoryConfig",
    "ChineseWallConfig",
    "build_sod_policy",
    "build_chinese_wall_rules",
    "warm_cache",
    "__version__",
]
