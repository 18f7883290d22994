"""Spans recorded from outside the program, around the public functions of
each domelim layer.

`install` replaces every reference to a wrapped function in every loaded
`domelim` module, because the modules import each other's functions by name:
`dominance` holds its own binding of the `lp` oracles, `reduction` of
`dominated_set` and `is_dominated`, `cli` of the `reduction` entry points.
Patching only the defining module would miss those calls.

A span records its name, start, end, parent span and job.  Its self time is
its duration minus the time its child spans cover.  Spans stay in memory
(compact arrays) until `write` at the end of the run.  `Game.__hash__` runs
millions of times per pass, so its spans are aggregated (count and time, the
time still subtracted from the enclosing span) instead of stored one by one;
`lp._pivot` is only counted.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

from domelim import dominance, lp
from domelim.game import BeliefMode, Game

# (module, function, span name).  The three step checkers share one span name.
SPANS = (
    ("lp", "solve", "lp.solve"),
    ("lp", "max_min_advantage", "lp.max_min_advantage"),
    ("lp", "best_response_feasible", "lp.best_response_feasible"),
    ("dominance", "dominated_set", "dominance.dominated_set"),
    ("dominance", "is_dominated", "dominance.is_dominated"),
    ("dominance", "is_inherently_dominated", "dominance.is_inherently_dominated"),
    ("dominance", "verify_certificate", "dominance.verify_certificate"),
    ("reduction", "all_outcomes", "reduction.all_outcomes"),
    ("reduction", "normal_form", "reduction.normal_form"),
    ("reduction", "check_hereditary_step", "reduction.check"),
    ("reduction", "check_monotonic_pair", "reduction.check"),
    ("reduction", "check_proof_shape", "reduction.check"),
    ("tracedoc", "dump_trace", "tracedoc.dump_trace"),
    ("tracedoc", "verify_trace_document", "tracedoc.verify_trace_document"),
    ("gamefile", "parse_game", "gamefile.parse_game"),
    ("cli", "main", "cli.main"),
    ("ars", "newman_experiment", "ars.newman_experiment"),
)
GENERATOR_SPANS = (("reduction", "reachable_steps", "reduction.reachable_steps"),)
JOB = "job"
BOOKKEEPING = "trace.bookkeeping"  # the tracer's own work, kept out of layer self times
HASH = "game.Game.hash"
# Counters each hook writes, set to 0 when the hook is installed so that a
# layer the workload never reaches reads 0 and a hook that is gone is absent.
HOOK_COUNTS = {
    "lp.solve": ("lp.tableau_cells",),
    "lp.max_min_advantage": ("lp.max_min_advantage.positive", "lp.oracle.lp_calls", "lp.oracle.pure_witness"),
    "lp.best_response_feasible": ("lp.best_response_feasible.witness", "lp.oracle.lp_calls", "lp.oracle.pure_witness"),
    "dominance.dominated_set": ("dominance.dominated_set.distinct",),
    "reduction.all_outcomes": ("reduction.restrictions_explored",),
    "tracedoc.dump_trace": ("tracedoc.dump_trace.bytes",),
    "reduction.reachable_steps": ("reduction.reachable_steps.steps",),
    "lp.pivots": ("lp.pivots",),
}


def domelim_modules():
    return [m for name, m in sys.modules.items() if name == "domelim" or name.startswith("domelim.")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.job = array("l")
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.job_id = -1
        self.counts: Counter = Counter()
        self.hash_calls = 0
        self.hash_s = 0.0
        self.job_hash_s: dict[int, float] = {}
        self.installed: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        self._game_keys: dict[int, tuple[Game, int]] = {}
        self._game_ids: dict[tuple, int] = {}

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.job.append(self.job_id)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(perf_counter())

    def finish(self) -> None:
        t = perf_counter()
        idx, covered = self._stack.pop()
        duration = t - self.start[idx]
        self.end[idx] = t
        self.self_s[idx] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def begin_job(self, job_id: int) -> None:
        self.job_id = job_id
        self._job_hash0 = self.hash_s
        self.begin(JOB)

    def finish_job(self) -> None:
        self.finish()
        self.job_hash_s[self.job_id] = self.hash_s - self._job_hash0

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name, after=None):
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish()
            if after is not None:
                self.begin(BOOKKEEPING)
                try:
                    after(args, kwargs, result)
                finally:
                    self.finish()
            return result

        return wrapper

    def _generator_span(self, fn, name, after=None):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.finish()
                self.counts[name + ".steps"] += 1
                yield item

        return wrapper

    def _hash(self, fn):
        def wrapper(game):
            t = perf_counter()
            try:
                return fn(game)
            finally:
                d = perf_counter() - t
                self.hash_calls += 1
                self.hash_s += d
                if self._stack:
                    self._stack[-1][1] += d

        return wrapper

    def _counter(self, fn, name, after=None):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- bookkeeping after a call, timed as BOOKKEEPING -----------------------

    def _game_key(self, game: Game) -> int:
        """Canonical id of a game by content, computed once per object, so
        equal games parsed twice share memo keys as they do in the program."""
        entry = self._game_keys.get(id(game))
        if entry is None:
            content = (game.labels, game.payoffs)
            gid = self._game_ids.setdefault(content, len(self._game_ids))
            entry = self._game_keys[id(game)] = (game, gid)  # keeps id(game) valid
        return entry[1]

    def _after_hooks(self):
        pure_witness = lp.best_response_feasible  # the original: not counted as a call
        mma_sig = inspect.signature(lp.max_min_advantage)
        brf_sig = inspect.signature(lp.best_response_feasible)
        ds_sig = inspect.signature(dominance.dominated_set)
        distinct: set = set()

        def oracle_lp_call(r, i, s, compare):
            self.counts["lp.oracle.lp_calls"] += 1
            if pure_witness(r, i, s, BeliefMode.PURE, compare) is not None:
                self.counts["lp.oracle.pure_witness"] += 1

        def solve(args, kwargs, result):
            program = kwargs.get("lp", args[0] if args else None)
            self.counts["lp.tableau_cells"] += len(program.constraints) * len(program.objective)

        def max_min_advantage(args, kwargs, result):
            bound = mma_sig.bind(*args, **kwargs).arguments
            self.counts["lp.max_min_advantage.positive"] += result[0] > 0
            oracle_lp_call(bound["r"], bound["i"], bound["s"], list(bound["pool"]))

        def best_response_feasible(args, kwargs, result):
            bound = brf_sig.bind(*args, **kwargs).arguments
            self.counts["lp.best_response_feasible.witness"] += result is not None
            if bound["mode"] is not BeliefMode.PURE:
                oracle_lp_call(bound["r"], bound["i"], bound["s"], bound.get("compare"))

        def dominated_set(args, kwargs, result):
            bound = ds_sig.bind(*args, **kwargs).arguments
            r = bound["r"]
            distinct.add((bound["rel"], r.kept, self._game_key(r.game)))
            self.counts["dominance.dominated_set.distinct"] = len(distinct)

        def all_outcomes(args, kwargs, result):
            self.counts["reduction.restrictions_explored"] += result.explored

        def dump_trace(args, kwargs, result):
            self.counts["tracedoc.dump_trace.bytes"] += len(result.encode("utf-8"))

        return {
            "lp.solve": solve,
            "lp.max_min_advantage": max_min_advantage,
            "lp.best_response_feasible": best_response_feasible,
            "dominance.dominated_set": dominated_set,
            "reduction.all_outcomes": all_outcomes,
            "tracedoc.dump_trace": dump_trace,
        }

    # -- install / uninstall ------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> int:
        replaced = 0
        for module in domelim_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    replaced += 1
        return replaced

    def install(self) -> dict[str, int]:
        """Wrap every layer; returns references replaced per span name.

        A function the program no longer has is skipped, so its metrics are
        absent rather than zero.
        """
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in domelim_modules()}
        hooks = self._after_hooks()
        targets = [(mod, fn, span, self._span) for mod, fn, span in SPANS]
        targets += [(mod, fn, span, self._generator_span) for mod, fn, span in GENERATOR_SPANS]
        targets.append(("lp", "_pivot", "lp.pivots", self._counter))
        replaced: Counter = Counter()
        for mod, fn_name, span, make in targets:
            original = getattr(modules[mod], fn_name, None)
            if original is None:
                continue
            replaced[span] += self._replace_everywhere(original, make(original, span, hooks.get(span)))
            self.installed.add(span)
            for name in HOOK_COUNTS.get(span, ()):
                self.counts.setdefault(name, 0)
        self._restore.append((Game, "__hash__", Game.__dict__["__hash__"]))
        Game.__hash__ = self._hash(Game.__dict__["__hash__"])
        self.installed.add(HASH)
        replaced[HASH] += 1
        return dict(replaced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict:
        """Calls and self time per span name, the counters, and per job the
        wall time next to the summed self times that must account for it."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for nid, s in zip(self.name, self.self_s):
            calls[nid] += 1
            self_s[nid] += s
        spans = {name: [0, 0.0] for name in self.installed if name != "lp.pivots"}
        spans.update({self.names[nid]: [calls[nid], self_s[nid]] for nid in calls})
        spans[HASH] = [self.hash_calls, self.hash_s]
        job_nid = self._name_ids.get(JOB)
        wall: dict[int, float] = {}
        summed: Counter = Counter(self.job_hash_s)
        for j, nid, a, b, s in zip(self.job, self.name, self.start, self.end, self.self_s):
            summed[j] += s
            if nid == job_nid:
                wall[j] = b - a
        worst = max((abs(summed[j] - w) for j, w in wall.items()), default=0.0)
        return {"spans": spans, "counts": dict(self.counts), "self_sum_error_s": worst}

    def write(self, path: str) -> None:
        """Every stored span, one tab-separated line each, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tjob\tparent\tname\tstart_s\tend_s\tself_s\n")
            for k, (j, p, nid, a, b, s) in enumerate(
                zip(self.job, self.parent, self.name, self.start, self.end, self.self_s)
            ):
                fh.write(f"{k}\t{j}\t{p}\t{self.names[nid]}\t{a:.9f}\t{b:.9f}\t{s:.9f}\n")
            fh.write(f"# {HASH}: {self.hash_calls} calls, {self.hash_s:.9f} s, aggregated\n")
