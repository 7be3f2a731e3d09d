"""Span tracer that times twistlab's public functions from outside the program.

A wrapper is installed by rebinding the name wherever a twistlab module (or
class) holds the original function object, so calls made through
``from .x import y`` are traced too.  Spans stay in memory until the run ends.

Deliberately not wrapped, because they are too hot and their cost belongs in
their callers' self time: ``Group.compose``, ``Group.sort_key`` and
``Cocycle.evaluate``.

This module imports nothing but the standard library, so the CLI launcher can
import it after ``twistlab.cli`` without changing what the program loads.
"""

from __future__ import annotations

import functools
import importlib.machinery
import inspect
import sys
import time
from collections import Counter

# work counts kept at the layer boundaries, computed from arguments or results
COUNTS = ("groups.ball_elements", "cocycles.validate.triples", "algebra.convolve.pairs",
          "linalg.hermitian_eigen.n3", "normspectra.trunc_nnz",
          "normspectra.semigroup.products")
NEST_TOL_S = 1e-9
SUM_TOL_S = 1e-6


def _bind(fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bound


def _ball_size(G, r):
    """|B_r| without enumerating it: closed form on free groups, |G| if finite."""
    if G.kind == "free":
        k = G.rank
        return 2 * r + 1 if k == 1 else 1 + k * ((2 * k - 1) ** r - 1) // (k - 1)
    if G.is_finite:
        return len(G.elements())
    return 0


def _count_ball(counts, fn):
    def count(args, kwargs, result):
        counts["groups.ball_elements"] += len(result)
    return count


def _count_triples(counts, fn):
    bound = _bind(fn)

    def count(args, kwargs, result):
        a = bound(args, kwargs)
        G = a["G"]
        n = len(G.elements()) ** 3 if G.is_finite else a.get("sampled_triples", 0)
        counts["cocycles.validate.triples"] += n
    return count


def _count_pairs(counts, fn):
    def count(args, kwargs, result):
        counts["algebra.convolve.pairs"] += len(args[0]) * len(args[1])
    return count


def _count_n3(counts, fn):
    def count(args, kwargs, result):
        counts["linalg.hermitian_eigen.n3"] += len(args[0]) ** 3
    return count


def _count_trunc_nnz(counts, fn):
    bound = _bind(fn)

    def count(args, kwargs, result):
        a = bound(args, kwargs)
        counts["normspectra.trunc_nnz"] += len(a["a"]) * _ball_size(a["G"], a["r"])
    return count


def _count_products(counts, fn):
    def count(args, kwargs, result):
        counts["normspectra.semigroup.products"] += result.products_checked
    return count


# (module, attribute path, span name, counter factory or None).  A target
# whose module or attribute no longer exists is skipped; its metrics read 0.
TARGETS = (
    ("groups", "Group.check_same", "groups.check_same", None),
    ("groups", "Group.enumerate_ball", "groups.enumerate_ball", _count_ball),
    ("groups", "FiniteTableGroup.enumerate_ball", "groups.enumerate_ball", _count_ball),
    ("groups", "FreeGroup.enumerate_ball", "groups.enumerate_ball", _count_ball),
    ("groups", "IntLattice.enumerate_ball", "groups.enumerate_ball", _count_ball),
    ("groups", "ExtensionGroup.enumerate_ball", "groups.enumerate_ball", _count_ball),
    ("cocycles", "validate", "cocycles.validate", _count_triples),
    ("algebra", "convolve", "algebra.convolve", _count_pairs),
    ("algebra", "involute", "algebra.involute", None),
    ("linalg", "hermitian_eigen", "linalg.hermitian_eigen", _count_n3),
    ("linalg", "operator_norm", "linalg.operator_norm", None),
    ("linalg", "rank_eps", "linalg.rank_eps", None),
    ("linalg", "gauss_solve", "linalg.gauss_solve", None),
    ("normspectra", "regular_rep", "normspectra.regular_rep", None),
    ("normspectra", "truncated_norm_lower", "normspectra.truncated_norm_lower",
     _count_trunc_nnz),
    ("normspectra", "exact_spectrum", "normspectra.exact_spectrum", None),
    ("normspectra", "transfer_check", "normspectra.transfer_check", None),
    ("normspectra", "l2_spectral_radius", "normspectra.l2_spectral_radius", None),
    ("normspectra", "certify_free_subsemigroup",
     "normspectra.certify_free_subsemigroup", _count_products),
    ("crossed", "induced_action_data", "crossed.induced_action_data", None),
    ("crossed", "verify_twisted_action", "crossed.verify_twisted_action", None),
    ("crossed", "decompose_blocks", "crossed.decompose_blocks", None),
    ("crossed", "orbit_decomposition", "crossed.orbit_decomposition", None),
    ("crossed", "assemble_crossed_product", "crossed.assemble_crossed_product", None),
    ("crossed", "attribute_blocks_to_summands",
     "crossed.attribute_blocks_to_summands", None),
    ("crossed", "crossed_product_pipeline", "crossed.crossed_product_pipeline", None),
    ("serialize", "load_json", "serialize.load", None),
    ("serialize", "group_from_json", "serialize.load", None),
    ("serialize", "cocycle_from_json", "serialize.load", None),
    ("serialize", "element_from_json", "serialize.load", None),
    ("serialize", "element_set_from_json", "serialize.load", None),
    ("cli", "main", "cli.main", None),
)

# scipy's sparse eigensolver, wrapped where normspectra reaches it
EIGSH_MODULE = "scipy.sparse.linalg"
EIGSH_SPAN = "normspectra.eigsh"


class Tracer:
    """Records spans (name, start, end, parent index) on one thread."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self._finder = None

    def span(self, name, start, end):
        """Record a span measured by the caller, at the current nesting level."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent))

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _rebind(self, original, wrapper):
        """Point every twistlab module global bound to ``original`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "twistlab" or modname.startswith("twistlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every target; spans and counts start empty.

        A module not imported yet (the CLI imports ``crossed`` lazily, and
        scipy may be imported lazily too) is wrapped the moment it loads, so
        tracing neither forces an import nor misses one."""
        self.spans = []
        self.counts = Counter()
        hooks = {"twistlab." + modname: self._install_module
                 for modname in dict.fromkeys(t[0] for t in TARGETS)}
        hooks[EIGSH_MODULE] = self._patch_eigsh
        pending = {}
        for fullname, hook in hooks.items():
            mod = sys.modules.get(fullname)
            if mod is None:
                pending[fullname] = hook
            else:
                hook(mod)
        self._finder = _PatchOnImport(pending)
        sys.meta_path.insert(0, self._finder)

    def _install_module(self, mod):
        modname = mod.__name__.rpartition(".")[2]
        for target_mod, path, name, counter in TARGETS:
            if target_mod != modname:
                continue
            *owner_path, attr = path.split(".")
            owner = mod
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            # a method counts only where its own class defines it
            original = vars(owner).get(attr)
            if original is None or not callable(original):
                continue
            wrapper = self.wrap(name, original,
                                counter(self.counts, original) if counter else None)
            if owner is mod:
                self._rebind(original, wrapper)
            else:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def _patch_eigsh(self, mod):
        original = getattr(mod, "eigsh", None)
        if original is None:
            return
        self._patches.append((mod, "eigsh", original))
        mod.eigsh = self.wrap(EIGSH_SPAN, original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        self._finder = None


class _PatchOnImport:
    """Meta-path finder that calls ``hooks[name](module)`` right after a
    watched module has executed."""

    def __init__(self, hooks):
        self.hooks = hooks

    def find_spec(self, fullname, path, target=None):
        hook = self.hooks.pop(fullname, None)
        if hook is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_hook(module):
            exec_module(module)
            hook(module)

        spec.loader.exec_module = exec_and_hook
        return spec


def self_times(spans, wall_start, wall_end):
    """Per-name self time and call count of one traced pass, plus the check.

    ``spans`` is a list of (name, start, end, parent index).  Self time is a
    span's duration minus the time its direct children cover.  Unattributed
    time is the pass wall time not covered by any top-level span.  Returns
    (self_s by name, calls by name, unattributed_s, problems); ``problems``
    lists every way the spans fail to account for the pass wall time.
    """
    problems = []
    self_s = [end - start for _, start, end, _ in spans]
    tops = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent < 0:
            tops.append((start, end))
            if start < wall_start - NEST_TOL_S or end > wall_end + NEST_TOL_S:
                problems.append(f"top-level span {i} {name} lies outside the pass")
            continue
        _, pstart, pend, _ = spans[parent]
        if start < pstart - NEST_TOL_S or end > pend + NEST_TOL_S:
            problems.append(f"span {i} {name} is not inside its parent {parent}")
        self_s[parent] -= end - start
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(tops):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    wall = wall_end - wall_start
    unattributed = wall - covered
    by_name = Counter()
    calls = Counter()
    for (name, _, _, _), s in zip(spans, self_s):
        by_name[name] += s
        calls[name] += 1
        if s < -NEST_TOL_S:
            problems.append(f"span {name} has negative self time {s:.3e}")
    total = sum(self_s) + unattributed
    if abs(total - wall) > SUM_TOL_S + 1e-9 * wall:
        problems.append(f"self times + unattributed = {total:.6f}s, pass wall = {wall:.6f}s")
    return by_name, calls, unattributed, problems
