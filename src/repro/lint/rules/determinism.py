"""Determinism rules: DET001 (wall clock), DET002 (unseeded randomness),
DET003 (unordered iteration), DET004 (shared RNG streams).

The simulation's claims — exact IFI results, reproducible cost curves,
replayable JSONL traces — hold only if every run is a pure function of
its seed.  These rules flag the four ways Python code silently breaks
that: reading the wall clock, drawing from a global RNG, iterating an
unordered collection where the order reaches a message, a schedule, or
a trace, and two protocol modules interleaving draws on one stream.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.facts import (
    ProjectFacts,
    dotted_name,
    is_protocol_path,
    path_parts,
    rng_stream_calls,
)
from repro.lint.findings import Finding
from repro.lint.registry import Rule, rule


#: Call targets that read the wall clock, by dotted name.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

#: Bare names that, when imported from ``time``, read the wall clock.
_WALL_CLOCK_TIME_NAMES = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
    }
)


@rule
class WallClockRule(Rule):
    """DET001: wall-clock reads in simulation/protocol code.

    Simulated components must take time from ``sim.now``; a wall-clock
    read anywhere in a sim or protocol path makes traces non-replayable.
    The ``telemetry`` package is exempt — measuring wall time is its job
    (spans report ``wall_elapsed`` alongside the simulated duration).
    """

    id = "DET001"
    summary = "wall-clock call (time.time / datetime.now / perf_counter) in sim code"

    def applies_to(self, path: str) -> bool:
        return "telemetry" not in path_parts(path)

    def check(
        self, tree: ast.Module, source: str, path: str, facts: ProjectFacts
    ) -> Iterator[Finding]:
        time_imports: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_CLOCK_TIME_NAMES:
                        time_imports.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted in _WALL_CLOCK_CALLS or (
                isinstance(node.func, ast.Name) and node.func.id in time_imports
            ):
                yield self.finding(
                    path,
                    node,
                    f"wall-clock call {dotted or dotted_name(node.func)}() in "
                    "simulation code; use sim.now (simulated time) or move the "
                    "measurement into telemetry",
                )


#: ``np.random.<name>`` targets that construct seeded machinery rather
#: than drawing from the global stream.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
        "SeedSequence",
    }
)


@rule
class UnseededRandomnessRule(Rule):
    """DET002: module-level randomness instead of a passed Generator.

    Every random draw must flow through a named stream of the
    simulation's :class:`~repro.sim.rng.RngRegistry` (or an explicitly
    seeded ``np.random.Generator``).  ``random.*`` and ``np.random.*``
    module-level calls share hidden global state: importing a new module
    that also draws from it reshuffles every experiment.
    """

    id = "DET002"
    summary = "global RNG call (random.* / np.random.*) instead of a passed Generator"

    def check(
        self, tree: ast.Module, source: str, path: str, facts: ProjectFacts
    ) -> Iterator[Finding]:
        # Track how the random modules are actually bound in this module,
        # so `rng.random()` on a *passed Generator* is never confused with
        # `np.random.random()` on the *module*.
        stdlib_random_names: set[str] = set()  # from random import choice
        np_random_names: set[str] = set()  # from numpy.random import shuffle
        stdlib_module_aliases: set[str] = set()  # import random [as r]
        np_module_aliases: set[str] = set()  # import numpy [as np]
        np_random_module_aliases: set[str] = set()  # import numpy.random as nr
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        stdlib_random_names.add(alias.asname or alias.name)
                elif node.module == "numpy.random":
                    for alias in node.names:
                        np_random_names.add(alias.asname or alias.name)
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            np_random_module_aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        stdlib_module_aliases.add(alias.asname or alias.name)
                    elif alias.name == "numpy":
                        np_module_aliases.add(alias.asname or alias.name)
                    elif alias.name == "numpy.random":
                        np_random_module_aliases.add(alias.asname or "numpy")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            parts = dotted.split(".") if dotted else []
            finding = None
            if len(parts) == 2 and parts[0] in stdlib_module_aliases:
                tail = parts[1]
                if tail == "Random" and node.args:
                    continue  # random.Random(seed): explicitly seeded
                finding = f"{dotted}() draws from the global stdlib RNG"
            elif (
                len(parts) == 3
                and parts[0] in np_module_aliases
                and parts[1] == "random"
            ) or (len(parts) == 2 and parts[0] in np_random_module_aliases):
                tail = parts[-1]
                if tail in _NP_RANDOM_ALLOWED:
                    continue
                if tail == "default_rng":
                    if node.args or node.keywords:
                        continue  # default_rng(seed): explicitly seeded
                    finding = "np.random.default_rng() without a seed"
                else:
                    finding = f"{dotted}() draws from numpy's global RNG"
            elif isinstance(node.func, ast.Name):
                name = node.func.id
                if name in stdlib_random_names or name in np_random_names:
                    if name == "default_rng" and (node.args or node.keywords):
                        continue
                    if name == "Random" and node.args:
                        continue
                    finding = f"{name}() draws from a global RNG"
            if finding is not None:
                yield self.finding(
                    path,
                    node,
                    f"{finding}; take an np.random.Generator parameter or use a "
                    "named stream from sim.rng",
                )


#: Builtins whose result does not depend on argument iteration order —
#: a generator expression fed straight into one of these is exempt.
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sum", "len", "max", "min", "any", "all", "set", "frozenset", "sorted", "Counter"}
)


@rule
class UnorderedIterationRule(Rule):
    """DET003: iterating a set (or set-typed state) without sorted().

    Set iteration order depends on element hashes — stable for one run,
    but not across Python versions, platforms, or hash randomization for
    str keys.  When the order feeds messages, schedules, or trace output,
    replays diverge.  Wrap the iterable in ``sorted(...)``; note that
    ``list(a_set)`` merely freezes the unordered order and is still
    flagged.
    """

    id = "DET003"
    summary = "iteration over a set/unordered collection without sorted(...)"

    def check(
        self, tree: ast.Module, source: str, path: str, facts: ProjectFacts
    ) -> Iterator[Finding]:
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_sets = self._local_set_names(scope, facts)
            for node in ast.walk(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node is not scope:
                        continue  # inner functions get their own scope pass
                if isinstance(node, ast.For):
                    if self._is_unordered(node.iter, local_sets, facts):
                        yield self._finding_at(path, node.iter)
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                    if isinstance(node, ast.GeneratorExp) and self._feeds_reducer(node):
                        continue
                    for generator in node.generators:
                        if self._is_unordered(generator.iter, local_sets, facts):
                            yield self._finding_at(path, generator.iter)

    # -- helpers -------------------------------------------------------
    def _finding_at(self, path: str, node: ast.expr) -> Finding:
        return self.finding(
            path,
            node,
            "iterating an unordered set; wrap in sorted(...) so message, "
            "schedule, and trace order is reproducible",
        )

    def _feeds_reducer(self, node: ast.GeneratorExp) -> bool:
        parent = getattr(node, "parent", None)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE_CONSUMERS
        )

    def _local_set_names(
        self, scope: ast.FunctionDef | ast.AsyncFunctionDef, facts: ProjectFacts
    ) -> set[str]:
        """Names bound to set-ish values anywhere in this function."""
        from repro.lint.facts import annotation_is_set

        names: set[str] = set()
        for arg in [
            *scope.args.posonlyargs,
            *scope.args.args,
            *scope.args.kwonlyargs,
        ]:
            if arg.annotation is not None and annotation_is_set(arg.annotation):
                names.add(arg.arg)
        # Fixed-point over assignments: `a = {...}; b = a` needs two passes.
        changed = True
        while changed:
            changed = False
            for node in ast.walk(scope):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if annotation_is_set(node.annotation):
                        if node.target.id not in names:
                            names.add(node.target.id)
                            changed = True
                        continue
                    targets, value = [node.target], node.value
                if value is None or not self._is_unordered(value, names, facts):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name) and target.id not in names:
                        names.add(target.id)
                        changed = True
        return names

    def _is_unordered(
        self, node: ast.expr, local_sets: set[str], facts: ProjectFacts
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in local_sets
        if isinstance(node, ast.Attribute):
            return node.attr in facts.set_attributes
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_unordered(node.left, local_sets, facts) or self._is_unordered(
                node.right, local_sets, facts
            )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return True
                if func.id in ("sorted",):
                    return False
                if func.id in ("list", "tuple", "reversed", "iter"):
                    # Order-preserving wrappers keep the unordered order.
                    return bool(node.args) and self._is_unordered(
                        node.args[0], local_sets, facts
                    )
                return func.id in facts.set_returning_functions
            if isinstance(func, ast.Attribute):
                if func.attr == "keys":
                    # dict.keys() is insertion-ordered, but it is a *view
                    # with set semantics* and reads as one; iteration that
                    # cares about order should say sorted(d) explicitly.
                    return True
                if func.attr in ("union", "intersection", "difference",
                                 "symmetric_difference"):
                    return self._is_unordered(func.value, local_sets, facts)
                return func.attr in facts.set_returning_functions
        return False


@rule
class SharedRngStreamRule(Rule):
    """DET004: one named RNG stream acquired by two protocol modules.

    ``sim.rng.stream("name")`` hands every caller the same generator, so
    two protocol modules that acquire one name interleave their draws:
    a change in how often one draws reshuffles the other, and neither
    component replays independently.  The cross-file table is
    :attr:`ProjectFacts.rng_streams`; only literal names are tracked.
    """

    id = "DET004"
    summary = "RNG stream shared across protocol modules"

    def applies_to(self, path: str) -> bool:
        return is_protocol_path(path)

    def check(
        self, tree: ast.Module, source: str, path: str, facts: ProjectFacts
    ) -> Iterator[Finding]:
        for name, node in rng_stream_calls(tree):
            modules = sorted(facts.rng_streams.get(name, ()))
            if len(modules) < 2:
                continue
            yield self.finding(
                path,
                node,
                f"RNG stream '{name}' is consumed from {len(modules)} "
                f"protocol modules ({', '.join(modules)}): their draw "
                "sequences interleave, so neither component replays "
                "independently — derive a per-component stream name",
            )
