"""relac: relationship-based access control over labelled system graphs.

Policies name paths, not people: a request (subject, object, action) is
mapped to principals by matching path conditions between subject and object
in the system graph, and the principals' authorization rules decide the
request. Decisions can feed back into the graph as typed history edges,
which is enough to express caching, separation of duty and Chinese Wall.

The package exports the names the README's example imports, plus
:class:`RelacError`; everything else lives in its submodule.
"""

from .errors import RelacError
from .graph import SystemGraph, SystemModel
from .pathcond import ALL, NONE, PathTarget, parse
from .policy import (
    AuthRule,
    Crs,
    Decision,
    DefaultTable,
    ExtendedAuthPolicy,
    PmRule,
    Pmp,
    PmpShape,
)
from .engine import Evaluator, HistoryConfig, Request

__version__ = "0.1.0"

__all__ = [
    "RelacError",
    "SystemModel",
    "SystemGraph",
    "parse",
    "ALL",
    "NONE",
    "PathTarget",
    "Decision",
    "Crs",
    "PmpShape",
    "PmRule",
    "Pmp",
    "AuthRule",
    "ExtendedAuthPolicy",
    "DefaultTable",
    "Request",
    "Evaluator",
    "HistoryConfig",
    "__version__",
]
