"""Out-of-tree tracer for sgclab: wraps public functions from the outside.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each traced
function with a wrapper and rebinds *every* ``sgclab.*`` module attribute
that refers to the original, because ``cli`` imports ``enumerate_ideals``
and friends by name and ``invsgp``/``fock`` import ``from_trace`` by name:
patching only the defining module would miss those calls.  ``uninstall``
restores every binding it changed.

Two kinds of wrapper:

* span: counts calls and times them.  Spans nest on a stack; a span's self
  time is its duration minus the time its child spans cover.  Spans are
  aggregated in memory while the pass runs (per name, and per
  ``(parent, name)`` edge) and written out afterwards.
* count: counts calls only.  Used for per-element primitives called
  millions of times, whose time stays in the calling span's self time.
  These wrappers pass positional arguments only, the cheapest call path;
  a keyword argument would fail loudly.
"""

import importlib
import itertools
import sys
import time

# (module, function or Class.method, kind).  A method is wrapped on every
# class of its module that defines it, so ``Model.mul`` covers each family.
TRACED = (
    ("models", "build_model", "span"),
    ("models", "Model.enumerate_p", "span"),
    ("models", "Model.mul", "count"),
    ("models", "Model.in_p", "count"),
    ("models", "Model.validate", "count"),
    ("ideals", "from_trace", "span"),
    ("ideals", "intersect", "span"),
    ("ideals", "enumerate_ideals", "span"),
    ("ideals", "independence_test", "span"),
    ("ideals", "independence_rank_oracle", "span"),
    ("ideals", "ore_test", "span"),
    ("invsgp", "make_vword", "span"),
    ("invsgp", "compose", "span"),
    ("invsgp", "enumerate_vwords", "span"),
    ("invsgp", "semilattice", "span"),
    ("spectrum", "Fragment.from_lattice", "span"),
    ("spectrum", "Fragment.position_of_ideal", "span"),
    ("spectrum", "Fragment.meet_pos", "count"),
    ("spectrum", "Fragment.is_filter", "count"),
    ("spectrum", "ThetaContext.carriers", "span"),
    ("spectrum", "enumerate_characters", "span"),
    ("spectrum", "theta_apply", "span"),
    ("spectrum", "invariant_closure", "span"),
    ("spectrum", "boundary", "span"),
    ("spectrum", "topological_freeness_probe", "span"),
    ("fock", "rep_vword", "span"),
    ("fock", "mul_op", "span"),
    ("fock", "projection_op", "span"),
    ("fock", "check_projection_identity", "span"),
    ("fock", "cond_expectation", "span"),
    ("fock", "generator_covariance_terms", "span"),
    ("fock", "build_frame", "span"),
    ("fock", "sc_norm", "span"),
    ("fock", "sc_limit_probe", "span"),
    ("exactla", "bareiss_rank", "span"),
    ("exactla", "operator_norm_enclosure", "span"),
    ("cli", "run", "span"),
)

# Traced names that no workload is expected to reach: the bisection norm
# stack is unreachable because compressed matrices are always diagonal.
EXPECTED_UNCALLED = frozenset({"exactla.operator_norm_enclosure"})


def metric_name(module, target):
    return f"{module}.{target.rsplit('.', 1)[-1]}"


def _sgclab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "sgclab" or n.startswith("sgclab."))]


class Tracer:
    """Call counts, span times and result observations for one traced pass."""

    def __init__(self):
        self.calls = {}       # name -> call count
        self.total_s = {}     # name -> inclusive span seconds
        self.child_s = {}     # name -> seconds covered by child spans
        self.edges = {}       # (parent name, name) -> span count
        self.observed = {"theta_images": 0, "distinct_words": 0,
                         "lattice_ideals": 0}
        self._stack = []
        self._patches = []
        self._counters = {}   # count-only name -> itertools.count

    # -- wrappers ----------------------------------------------------------
    def _count(self, fn, name):
        tick = self._counters.setdefault(name, itertools.count()).__next__

        def counted(*args):
            tick()
            return fn(*args)
        return counted

    def _span(self, fn, name):
        calls, total_s, child_s, edges = (self.calls, self.total_s,
                                          self.child_s, self.edges)
        stack = self._stack
        observe = self._observers().get(name)
        perf = time.perf_counter

        def spanned(*args, **kwargs):
            edge = (stack[-1][0] if stack else None, name)
            edges[edge] = edges.get(edge, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                calls[name] += 1
                total_s[name] += dt
                child_s[name] += frame[1]
                if stack:
                    stack[-1][1] += dt
            if observe is not None:
                observe(out)
            return out
        return spanned

    def _observers(self):
        obs = self.observed

        def theta(res):
            obs["theta_images"] += res.status == "image"

        def words(fam):
            obs["distinct_words"] += len(fam.members)

        def lattice(lat):
            obs["lattice_ideals"] += len(lat.ideals)
        return {"spectrum.theta_apply": theta,
                "invsgp.enumerate_vwords": words,
                "ideals.enumerate_ideals": lattice}

    # -- install / uninstall -----------------------------------------------
    def install(self):
        """Wrap every traced function; raise if one no longer exists."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _sgclab_modules()
        try:
            for module, target, kind in TRACED:
                name = metric_name(module, target)
                self.calls[name] = 0
                self.total_s[name] = self.child_s[name] = 0.0
                mod = importlib.import_module(f"sgclab.{module}")
                make = self._span if kind == "span" else self._count
                if "." in target:
                    self._wrap_method(mod, target, name, make)
                else:
                    self._wrap_function(mod, target, name, make, modules)
        except BaseException:
            self.uninstall()
            raise

    def _wrap_function(self, mod, target, name, make, modules):
        orig = getattr(mod, target, None)
        if not callable(orig):
            raise AttributeError(f"traced function {mod.__name__}."
                                 f"{target} no longer exists")
        wrapper = make(orig, name)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    self._patches.append((m, attr, orig))
                    setattr(m, attr, wrapper)

    def _wrap_method(self, mod, target, name, make):
        cls_name, attr = target.split(".")
        base = getattr(mod, cls_name, None)
        if not isinstance(base, type):
            raise AttributeError(f"traced class {mod.__name__}.{cls_name} "
                                 "no longer exists")
        owners = [c for c in vars(mod).values()
                  if isinstance(c, type) and issubclass(c, base)
                  and attr in vars(c)]
        if not owners:
            raise AttributeError(f"traced method {mod.__name__}.{target} "
                                 "no longer exists")
        for cls in owners:
            raw = vars(cls)[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(make(raw.__func__, name))
            else:
                wrapped = make(raw, name)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        for name, counter in self._counters.items():
            self.calls[name] = next(counter)
        self._counters.clear()

    # -- results -----------------------------------------------------------
    def self_s(self, name):
        return self.total_s[name] - self.child_s[name]

    def module_self_s(self, module):
        return sum(self.self_s(n) for n in self.total_s
                   if n.startswith(module + "."))

    def dump(self):
        """The aggregated span tree, for writing out after the run."""
        return {
            "spans": {n: {"calls": self.calls[n], "total_s": self.total_s[n],
                          "self_s": self.self_s(n)}
                      for n in sorted(self.calls)},
            "edges": sorted([p or "", n, c] for (p, n), c in self.edges.items()),
            "observed": dict(self.observed),
        }
