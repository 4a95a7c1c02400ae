"""Dump a live engine's discrimination trie, node by node.

Walks each root label's trie (see :class:`repro.core.engine.ReactiveEngine`
and its ``_TrieNode``), printing one line per node — depth, split axis,
child/residual fan-out, leaf bucket size — plus the wildcard side list and
the combinator suppression sets compiled into dispatch.  Works against a
live node (single-engine or sharded: every shard's trie is reported) in
the spirit of ``walinspect.py``: read-only, never mutates engine state.

Usage (library, against a live node)::

    from tools.triedump import dump
    dump(node)                 # or dump(node, verbose=True)

Usage (CLI, synthetic demo trie)::

    PYTHONPATH=src python tools/triedump.py --rules 64
    PYTHONPATH=src python tools/triedump.py --rules 64 --depth 2 --verbose

Exit status: 0 on success, 2 for a usage error.  ``--verbose``
additionally prints each leaf's rule names in trie order.
"""

from __future__ import annotations

import argparse
import sys

from repro.terms.ast import canonical_str


def describe_trie(engine) -> dict:
    """Structural summary of *engine*'s dispatch trie (plain data).

    Returns ``{label: {"depth": int, "nodes": int, "leaves": int,
    "rules": int, "residuals": int, "max_bucket": int}}`` plus the
    pseudo-labels ``"*"`` (wildcard rows) when present.
    """
    report: dict = {}
    for label, root in sorted(engine._index.items()):
        stats = {"depth": 0, "nodes": 0, "leaves": 0, "rules": 0,
                 "residuals": 0, "max_bucket": 0}
        stack = [(root, 0)]
        while stack:
            node, depth = stack.pop()
            stats["nodes"] += 1
            stats["depth"] = max(stats["depth"], depth)
            if node.axis is None:
                stats["leaves"] += 1
                stats["rules"] += len(node.entries)
                stats["max_bucket"] = max(stats["max_bucket"],
                                          len(node.entries))
                continue
            for child in node.children.values():
                stack.append((child, depth + 1))
            if node.residual is not None:
                stats["residuals"] += 1
                stack.append((node.residual, depth + 1))
        report[label] = stats
    if engine._wildcard_rows:
        report["*"] = {"depth": 0, "nodes": 0, "leaves": 0,
                       "rules": len(engine._wildcard_rows),
                       "residuals": 0,
                       "max_bucket": len(engine._wildcard_rows)}
    return report


def _dump_node(node, depth: int, slot: str, out, verbose: bool) -> None:
    pad = "  " * (depth + 1)
    if node.axis is None:
        names = [engine_row_name(row) for row in node.entries]
        print(f"{pad}[{depth}] {slot} leaf rules={len(node.entries)}",
              file=out)
        if verbose and names:
            print(f"{pad}    {', '.join(names)}", file=out)
        return
    kind, key = node.axis
    residual = "yes" if node.residual is not None else "no"
    print(f"{pad}[{depth}] {slot} split axis={kind}:{key} "
          f"values={len(node.children)} residual={residual}", file=out)
    for value in sorted(node.children, key=lambda v: canonical_str(v)):
        _dump_node(node.children[value], depth + 1,
                   f"= {canonical_str(value)}", out, verbose)
    if node.residual is not None:
        _dump_node(node.residual, depth + 1, "residual", out, verbose)


def engine_row_name(row) -> str:
    """The installed name of one trie row (via the engine's seq tuple)."""
    seq, rule, _evaluator, _discs = row
    return rule.name if seq[0] == 0 else f"…/{rule.name}"


def dump_engine(engine, out=None, verbose: bool = False,
                title: str = "engine") -> None:
    """Print one engine's trie, label by label, node by node."""
    if out is None:
        out = sys.stdout
    config = engine.config
    cap = ("unbounded" if config.trie_depth is None
           else "0 (root-label ablation)" if config.trie_depth == 0
           else str(config.trie_depth))
    print(f"{title}: {len(engine.rules())} rule(s), "
          f"{len(engine._index)} label trie(s), depth cap {cap}", file=out)
    for label, root in sorted(engine._index.items()):
        stats = describe_trie(engine)[label]
        print(f"  {label}: depth={stats['depth']} nodes={stats['nodes']} "
              f"leaves={stats['leaves']} residual_nodes={stats['residuals']} "
              f"max_bucket={stats['max_bucket']}", file=out)
        _dump_node(root, 0, "root", out, verbose)
    if engine._wildcard_rows:
        names = [engine_row_name(row) for row in engine._wildcard_rows]
        print(f"  * (wildcard): rules={len(names)}", file=out)
        if verbose:
            print(f"      {', '.join(names)}", file=out)
    if engine._groups:
        print(f"  suppression sets ({len(engine._groups)} grouped rule(s)):",
              file=out)
        by_group: dict = {}
        for name, (gid, kind, prec) in sorted(engine._groups.items()):
            by_group.setdefault((gid, kind), []).append((prec, name))
        for (gid, kind), members in sorted(by_group.items()):
            ranked = sorted(members, key=lambda m: (-m[0], m[1]))
            listing = ", ".join(f"{name}@{prec:g}" for prec, name in ranked)
            print(f"    {gid} [{kind}]: {listing}", file=out)


def dump(node, out=None, verbose: bool = False) -> None:
    """Dump the dispatch trie(s) of a live reactive node.

    Accepts a :class:`repro.api.ReactiveNode` (single-engine or sharded)
    or a bare :class:`~repro.core.engine.ReactiveEngine`.
    """
    if out is None:
        out = sys.stdout
    engines = getattr(node, "shards", None)
    if engines is None:
        dump_engine(node, out=out, verbose=verbose)
    elif len(engines) == 1:
        dump_engine(engines[0], out=out, verbose=verbose)
    else:
        for si, engine in enumerate(engines):
            dump_engine(engine, out=out, verbose=verbose,
                        title=f"shard {si}")


def _demo_node(rules: int, depth: "int | None", shards: int):
    from repro import EngineConfig, Simulation
    from repro.core import eca, first_match
    from repro.core.actions import PyAction
    from repro.events import EAtom
    from repro.terms import Var, q

    sim = Simulation(latency=0.0)
    node = sim.reactive_node(
        "http://triedump.example",
        config=EngineConfig(shards=shards, trie_depth=depth),
    )
    action = PyAction(lambda n, b: None, "noop")
    symbols = max(2, int(rules ** 0.5))
    node.install(*(
        eca(f"r{i}",
            EAtom(q("stock", q("venue", f"V{i % 3}"), sym=f"S{i % symbols}")),
            action)
        for i in range(rules)
    ))
    overlap = first_match("overlap")
    overlap.add(eca("specific", EAtom(q("stock", sym="S0")), action))
    overlap.add(eca("fallback", EAtom(q("stock", Var("X"))), action))
    node.install(overlap)
    return node


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Dump a live engine's discrimination trie.")
    parser.add_argument("--rules", type=int, default=32,
                        help="synthetic demo rules to install (default 32)")
    parser.add_argument("--depth", type=int, default=None,
                        help="trie depth cap (default: unbounded)")
    parser.add_argument("--shards", type=int, default=1,
                        help="shard count for the demo node (default 1)")
    parser.add_argument("--verbose", action="store_true",
                        help="print each leaf's rule names")
    args = parser.parse_args(argv)
    if args.rules < 1 or args.shards < 1 or (
            args.depth is not None and args.depth < 1):
        print("error: --rules/--shards/--depth must be >= 1",
              file=sys.stderr)
        return 2
    node = _demo_node(args.rules, args.depth, args.shards)
    dump(node, verbose=args.verbose)
    return 0


if __name__ == "__main__":
    sys.exit(main())
