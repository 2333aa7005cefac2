"""Spans and counts around mskit's public functions, installed from outside.

The library imports by name (``from .cg import cg_transform``), so a public
function is replaced at every module attribute that is bound to it, and public
methods are replaced on their class.  Each call records a span
``[name, start_ns, end_ns, parent, op]`` in memory; the spans are written out
once, when the run ends.  Functions called about 10^4 times per op or more
are in COUNT_ONLY and record a call count without a span.

Per-layer figures come from the spans: ``s`` is the wall time covered by the
outermost calls of a function (recursion is not counted twice), ``self_s``
subtracts the time covered by child spans, ``calls`` counts calls.  Hooks
derive exact counts (flops, bytes, nonzeros, cache misses) from argument and
result shapes; those counts are computed, not measured.  A hook runs inside
a ``bench.hook`` span so its cost is never charged to a library layer.

CG memo hits and misses are followed from process start (``watch_cg``), so
keys the library returned during set-up or untraced passes count as hits.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("staircase", "gelfand", "bratteli", "brauer", "wigner", "cg",
          "schur", "channels", "io", "cli")

# cli's command handlers are glue inside cli.main, so cli.main.self_s holds
# argument parsing, dispatch and printing.
CLI_ENTRY_POINTS = ("main",)

# Called ~10^4 times per op or more: a span each would distort the timings.
COUNT_ONLY = frozenset({
    "staircase.is_valid", "staircase.validate", "staircase.dim",
    "staircase.interlaces", "staircase.add_box_set", "staircase.remove_box_set",
    "staircase.format_staircase", "staircase.parse_staircase",
    "gelfand.interlacing_set", "gelfand.pattern_weight", "gelfand.subduce",
})

HOOK = "bench.hook"

# Exact counts the hooks compute; reported as 0 where a workload never
# reaches them.
COUNTERS = ("schur.apply_legs.flops_computed", "schur.W.bytes",
            "brauer.represent.nnz", "io.bytes_written", "io.bytes_read",
            "cg.bytes_built")


def _public_callables(module):
    """(owner, attribute, qualified span name, function) for one layer."""
    layer = module.__name__.rsplit(".", 1)[1]
    names = CLI_ENTRY_POINTS if layer == "cli" else sorted(vars(module))
    for name in names:
        obj = getattr(module, name)
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for meth, fn in sorted(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield obj, meth, f"{layer}.{meth}", fn
        elif callable(obj):
            yield module, name, f"{layer}.{name}", obj


def _bindings(package):
    """(module, attribute, value) for every attribute of the package's modules."""
    for name, module in sorted(sys.modules.items()):
        if name == package.__name__ or name.startswith(package.__name__ + "."):
            for attr, val in list(vars(module).items()):
                yield module, attr, val


def _apply_legs_flops(args, kwargs) -> int:
    """Real flops of the complex GEMMs apply_legs performs (8 per multiply-add).

    Mirrors its grouping: legs are fused greedily while the group stays at or
    under max(16, sqrt(rows)) rows; each group of size a costs rows * a
    multiply-adds per column.
    """
    X = args[0] if args else kwargs["X"]
    factors = args[1] if len(args) > 1 else kwargs["factors"]
    sizes = [f.shape[0] for f in factors]
    rows = math.prod(sizes)
    target = max(16, int(math.sqrt(rows)))
    groups, cur = [], None
    for a in sizes:
        nxt = a if cur is None else cur * a
        if cur is not None and nxt > target:
            groups.append(cur)
            cur = a
        else:
            cur = nxt
    if cur is not None:
        groups.append(cur)
    return 8 * X.shape[1] * rows * sum(groups)


class Tracer:
    """Install with ``install(package)``; remove with ``uninstall()``."""

    def __init__(self):
        self.names: list[str] = [HOOK]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self.on = False  # True while installed, except while results are checked
        self._stack: list[int] = []
        self._active: dict[int, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._methods: list[tuple[type, str, object]] = []
        self._archive: list[list[list]] = []
        self._counted: list[str] = []

    # -- installation ---------------------------------------------------------

    def install(self, package) -> None:
        if not self._wrappers:
            self._build_wrappers(package)
        for owner, attr, fn in self._methods:
            self._patch(owner, attr, self._wrappers[id(fn)][1])
        for module, attr, val in _bindings(package):
            hit = self._wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                self._patch(module, attr, hit[1])
        self.on = True

    def _build_wrappers(self, package) -> None:
        seen = set()
        hooks, pre_hooks = self._hooks(), self._pre_hooks()
        for layer in LAYERS:
            for owner, attr, name, fn in _public_callables(getattr(package, layer)):
                if name in seen:
                    raise ValueError(f"two public callables trace as {name}")
                seen.add(name)
                wrapper = self._wrap(name, fn, hooks.get(name), pre_hooks.get(name))
                self._wrappers[id(fn)] = (fn, wrapper)
                if inspect.isclass(owner):
                    self._methods.append((owner, attr, fn))
                if name in COUNT_ONLY:
                    self._counted.append(name)

    def uninstall(self) -> None:
        self.on = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, hook=None, pre=None):
        if name in COUNT_ONLY:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.on:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        idx = len(self.names)
        self.names.append(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            state = pre(args, kwargs) if pre else None
            rec = [idx, clock(), 0, stack[-1] if stack else -1, self.op,
                   active[idx] == 0]
            pos = len(spans)
            spans.append(rec)
            stack.append(pos)
            active[idx] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                active[idx] -= 1
            if hook:
                self._run_hook(hook, args, kwargs, result, state)
            return result
        return spanned

    def _run_hook(self, hook, args, kwargs, result, state) -> None:
        rec = [0, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
               self.op, True]
        self.spans.append(rec)
        hook(args, kwargs, result, state)
        rec[2] = time.perf_counter_ns()

    # -- computed counters ----------------------------------------------------

    def watch_cg(self, package) -> None:
        """Follow the CG memo for the rest of the process; call before set-up.

        Wraps ``cg.dual_cg``, ``cg.defining_cg`` and ``cg.clear_cache`` at
        every binding, for good.  A (kind, gamma) key is a miss the first time
        it is returned after the last ``clear_cache()``, a hit after that;
        only calls while the tracer is on are counted.  ``install`` wraps
        these watchers like any other public function, so the set lookup is
        charged to the cg span (about a microsecond per call).
        """
        cg = package.cg
        seen: set = set()
        c = self.counters

        def lookup(kind, fn):
            @functools.wraps(fn)
            def watched(gamma, *args, **kwargs):
                result = fn(gamma, *args, **kwargs)
                key = (kind, tuple(gamma))
                if key in seen:
                    if self.on:
                        c["cg.hits"] += 1
                else:
                    seen.add(key)
                    if self.on:
                        c["cg.misses"] += 1
                        c["cg.bytes_built"] += result.matrix.nbytes
                return result
            return watched

        def cleared(fn):
            @functools.wraps(fn)
            def clear_cache(*args, **kwargs):
                seen.clear()
                return fn(*args, **kwargs)
            return clear_cache

        replace = {id(cg.dual_cg): lookup("dual", cg.dual_cg),
                   id(cg.defining_cg): lookup("defining", cg.defining_cg),
                   id(cg.clear_cache): cleared(cg.clear_cache)}
        for module, attr, val in _bindings(package):
            if id(val) in replace:
                setattr(module, attr, replace[id(val)])

    def _pre_hooks(self):
        def tell(args, kwargs):
            return args[0].tell()
        return {name: tell for name in (
            "io.write_schur", "io.write_choi", "io.write_matrix",
            "io.read_schur", "io.read_choi", "io.read_matrix")}

    def _hooks(self):
        c = self.counters

        def flops(args, kwargs, result, state):
            c["schur.apply_legs.flops_computed"] += _apply_legs_flops(args, kwargs)

        def transform(args, kwargs, result, state):
            w = result.matrix
            c["schur.W.bytes"] = max(c["schur.W.bytes"], w.nbytes)
            c["schur.W.entries"] += w.size
            c["schur.W.nonzeros"] += int((w != 0).sum())

        def nnz(args, kwargs, result, state):
            c["brauer.represent.nnz"] += result.nnz

        def moved(key):
            def hook(args, kwargs, result, state):
                c[key] += args[0].tell() - state
            return hook

        hooks = {
            "schur.apply_legs": flops,
            "schur.build_mixed_schur": transform,
            "brauer.represent": nnz,
        }
        for name in ("io.write_schur", "io.write_choi", "io.write_matrix"):
            hooks[name] = moved("io.bytes_written")
        for name in ("io.read_schur", "io.read_choi", "io.read_matrix"):
            hooks[name] = moved("io.bytes_read")
        return hooks

    # -- results --------------------------------------------------------------

    def archive(self) -> None:
        """Keep this pass's spans for write_spans and start the next pass."""
        self._archive.append(list(self.spans))
        self.spans.clear()
        self.counts.clear()
        self.counters.clear()

    def layer_figures(self, wall_s: float) -> dict[str, float]:
        """Aggregate the recorded spans and counters into flat figures."""
        n = len(self.names)
        incl = [0] * n
        own = [0] * n
        calls = [0] * n
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        library = 0
        lib_names = [not (nm.startswith("cli.") or nm == HOOK) for nm in self.names]
        roots = self._library_roots(lib_names)
        for pos, (idx, start, end, parent, _op, outer) in enumerate(self.spans):
            dur = end - start
            calls[idx] += 1
            own[idx] += dur - child[pos]
            if outer:
                incl[idx] += dur
            if roots[pos]:
                library += dur
        out: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.s"] = incl[idx] / 1e9
            out[f"{name}.self_s"] = own[idx] / 1e9
            out[f"{name}.calls"] = calls[idx]
        for name in self._counted:
            out[f"{name}.calls"] = self.counts.get(name, 0)
        c = self.counters
        out.update({k: c.get(k, 0) for k in COUNTERS})
        looked_up = c["cg.hits"] + c["cg.misses"]
        out["cg.misses"] = c["cg.misses"]
        out["cg.hit_ratio"] = c["cg.hits"] / looked_up if looked_up else 0.0
        out["schur.W.nnz_frac"] = (c["schur.W.nonzeros"] / c["schur.W.entries"]
                                   if c["schur.W.entries"] else 0.0)
        out["trace.span_coverage"] = library / 1e9 / wall_s if wall_s else 0.0
        return out

    def _library_roots(self, lib_names: list[bool]) -> list[bool]:
        """True for library spans with no library span above them."""
        roots = [False] * len(self.spans)
        under_lib = [False] * len(self.spans)
        for pos, rec in enumerate(self.spans):
            parent = rec[3]
            above = parent >= 0 and (under_lib[parent] or lib_names[self.spans[parent][0]])
            under_lib[pos] = above
            roots[pos] = lib_names[rec[0]] and not above
        return roots

    def write_spans(self, path) -> None:
        """One header line with the span names, then [pass, name, start_ns,
        end_ns, parent, op] per span; parent indexes spans of the same pass."""
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names}) + "\n")
            for k, spans in enumerate(self._archive):
                for rec in spans:
                    f.write(json.dumps([k] + rec[:5]) + "\n")
