"""ReWeb: reactive ECA rules for the Web.

A full reproduction of the system designed in Bry & Eckert, *Twelve Theses on
Reactive Rules for the Web* (EDBT 2006): an XChange-style reactive rule
language with an Xcerpt-style query substrate, a composite-event algebra with
incremental evaluation, a simulated Web messaging layer, an update language,
rule structuring, identity monitoring, meta-circular rule exchange, and AAA
support.

Quickstart::

    from repro import Simulation, parse_data

    sim = Simulation()
    shop = sim.reactive_node("http://shop.example")
    shop.install('''
        RULE greet
        ON ping{{ sender[var F] }}
        DO RAISE TO var F pong{}
    ''')
    franz = sim.node("http://franz.example")
    franz.raise_event("http://shop.example",
                      parse_data('ping{ sender["http://franz.example"] }'))
    sim.run()
    assert franz.events_received == 1          # the pong came back
    assert shop.stats.rule_firings == 1

See ``examples/quickstart.py`` for a complete runnable scenario.
"""

from repro import errors
from repro.api import EngineConfig, NodeStats, ReactiveNode, RuleBuilder, rule
from repro.core.rulesets import (
    FirstMatchGroup,
    PriorityGroup,
    RuleSet,
    SpecificityGroup,
    first_match,
    priority_group,
    specificity_override,
)
from repro.errors import ReproError
from repro.events import register_evaluator, resolve_evaluator
from repro.ingest import IngestConfig, IngestGateway, IngestStats
from repro.sharding import ShardRouter
from repro.store import (
    DurableResourceStore,
    StoreConfig,
    open_store,
    register_backend,
)
from repro.terms import (
    Bindings,
    Data,
    d,
    match,
    matches,
    parse_construct,
    parse_data,
    parse_query,
    to_text,
    u,
)
from repro.web.node import Simulation

__version__ = "2.0.0"

__all__ = [
    "Bindings",
    "Data",
    "DurableResourceStore",
    "EngineConfig",
    "FirstMatchGroup",
    "IngestConfig",
    "IngestGateway",
    "IngestStats",
    "NodeStats",
    "PriorityGroup",
    "ReactiveNode",
    "ReproError",
    "RuleBuilder",
    "RuleSet",
    "ShardRouter",
    "Simulation",
    "SpecificityGroup",
    "StoreConfig",
    "d",
    "errors",
    "first_match",
    "match",
    "matches",
    "open_store",
    "parse_construct",
    "parse_data",
    "parse_query",
    "priority_group",
    "register_backend",
    "register_evaluator",
    "resolve_evaluator",
    "rule",
    "specificity_override",
    "to_text",
    "u",
    "__version__",
]
