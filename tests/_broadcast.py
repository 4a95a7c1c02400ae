"""The broadcast reference: every event and every wake-up reaches every rule.

The engine routes an event only to the rules its discrimination trie
reaches, and advances only a wake-up instant's deadline owners.  The
equivalence suites check both against this reference, which is the
semantics they must preserve: each event is handed to every active
evaluator in installation order, and each wake-up advances every active
evaluator.  :func:`use_broadcast` patches one engine, or every shard engine
behind a node's :class:`~repro.sharding.ShardRouter`, in place.
"""

from __future__ import annotations


def use_broadcast(node):
    """Patch *node* (a ``ReactiveNode`` or a bare engine) to broadcast."""
    router = getattr(node, "router", None)
    if router is not None:
        engines = router.engines
    else:
        engines = (getattr(node, "engine", None) or node,)
    for engine in engines:
        _patch(engine)
    return node


def _patch(engine) -> None:
    def everyone():
        ordered = sorted(engine._eval_entry.items(), key=lambda kv: kv[1][0])
        return [(entry[2], evaluator) for evaluator, entry in ordered]

    take_due = engine.take_due

    def take_all(when):
        take_due(when)  # still retire the instant's owner bookkeeping
        return {evaluator for _rule, evaluator in everyone()}

    engine._interested = lambda event: everyone()
    engine.take_due = take_all
