"""Spans around the package's module-level entry points.

The tracer replaces module attributes with timing wrappers for the
length of a `with` block and restores them afterwards; nothing under
`src/` is edited.  Each call becomes a `Span` (name, start, end,
parent, thread) kept in memory.  Counts are read from the wrapped
call's arguments and return value.  An entry point that no longer
exists is listed in `Tracer.missing` instead of failing the run.
"""

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: object  # parent span id, or None
    thread: int
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Map span id -> duration minus the part of it covered by children.

    Children may overlap one another (pool workers under one grid
    span), so the covered part is the length of the union of their
    intervals clipped to the parent's interval.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


# ---------------------------------------------------------------------------
# counts read from the wrapped calls
# ---------------------------------------------------------------------------


def _count_run_em(args, kwargs, res):
    return {
        "iters": res.n_iter,
        "nonconverged": int(not res.converged),
        "degenerate": int(bool(res.diagnostics["degenerate"])),
    }


def _count_sigma_guard(args, kwargs, res):
    # returns (lam, psi, sig_inv, sig_logdet, info, backtracks, rejected)
    return {"backtracks": int(res[5]), "rejects": int(bool(res[6]))}


def _count_s_step(args, kwargs, res):
    # args: (sig_inv, logc, m, s, ...); returns (..., clamps, n_guarded)
    n, g, d = args[2].shape
    return {
        "pairs": n * g,
        "bytes": n * g * d * d * 8,
        "clamps": int(res[5]),
        "guarded": int(res[6]),
    }


def _count_m_step(args, kwargs, res):
    return {"guarded": int(res[6])}


def _count_inner(args, kwargs, res):
    info = res[2]
    return {
        "sweeps": int(info["sweeps"]),
        "capped": int(not info["converged"]),
        "psi_floored": int(info["psi_floored"]),
    }


# (module, attribute, span name, count function).  Functions are replaced
# in every package module that bound the same object by name (the command
# line imports `grid_search` and the io helpers directly); classes only in
# the module named here.
TARGETS = (
    ("mplnfa.io", "read_counts", "io.read", None),
    ("mplnfa.io", "write_report", "io.write", None),
    ("mplnfa.io", "write_assignments", "io.write", None),
    ("mplnfa.io", "write_posteriors", "io.write", None),
    ("mplnfa.io", "write_traces", "io.write", None),
    ("mplnfa.io", "write_plot_data", "io.write", None),
    ("mplnfa.em", "grid_search", "em.grid", None),
    ("mplnfa.em", "_kmeans", "em.kmeans", None),
    ("mplnfa.em", "_init_params", "em.init", None),
    ("mplnfa.em", "_run_em", "em.run_em", _count_run_em),
    ("mplnfa.em", "_guarded_sigma_step", "em.sigma_guard", _count_sigma_guard),
    ("mplnfa.em", "_make_caches", "em.bound", None),
    ("mplnfa.em", "_assemble_f", "em.bound", None),
    ("mplnfa.em", "_total_elbo", "em.bound", None),
    ("mplnfa.em", "VariationalState", "core.state", None),
    ("mplnfa.stage1", "_update_s_guarded", "stage1.s_step", _count_s_step),
    ("mplnfa.stage1", "_update_m_guarded", "stage1.m_step", _count_m_step),
    ("mplnfa.stage1", "update_responsibilities", "stage1.resp", None),
    ("mplnfa.stage1", "update_pi_mu", "stage1.pi_mu", None),
    ("mplnfa.stage1", "_quad_batch", "stage1.bound_terms", None),
    ("mplnfa.stage1", "_trace_batch", "stage1.bound_terms", None),
    ("mplnfa.stage2", "make_stage2_stats", "stage2.stats", None),
    ("mplnfa.stage2", "run_inner_loop", "stage2.inner", _count_inner),
)


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.missing = []
        self.count_errors = 0
        self._ids = itertools.count()
        self._stacks = {}
        self._home = None
        self._patched = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        return self._stacks.setdefault(threading.get_ident(), [])

    def _parent(self, stack):
        if stack:
            return stack[-1].id
        # A pool worker's first span belongs to whatever the installing
        # thread has open (the grid span).
        home = self._stacks.get(self._home)
        return home[-1].id if home else None

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), name, tracer._parent(stack),
                        threading.get_ident(), time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if count is not None:
                try:
                    span.counts = count(args, kwargs, result)
                except Exception:  # a changed return shape must not stop the run
                    tracer.count_errors += 1
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        self._home = threading.get_ident()
        for mod_name, attr, name, count in self.targets:
            module = sys.modules.get(mod_name)
            orig = getattr(module, attr, None) if module is not None else None
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self.wrap(name, orig, count)
            if isinstance(orig, type):
                holders = [module]
            else:
                holders = [
                    m for key, m in list(sys.modules.items())
                    if (key == "mplnfa" or key.startswith("mplnfa."))
                    and getattr(m, attr, None) is orig
                ]
            for m in holders:
                setattr(m, attr, wrapper)
                self._patched.append((m, attr, orig))
        return self

    def __exit__(self, *exc):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched = []
        return False

    # -- summaries ----------------------------------------------------------

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def total(self, name):
        return sum(s.duration for s in self.named(name))

    def total_self(self, name, selfs):
        return sum(selfs[s.id] for s in self.named(name))

    def count_sum(self, name, key):
        return sum(s.counts.get(key, 0) for s in self.named(name))

    def rejected_sweeps(self):
        """Inner-loop sweeps whose result the sigma guard threw away."""
        rejecting = {s.id for s in self.named("em.sigma_guard") if s.counts.get("rejects")}
        return sum(s.counts.get("sweeps", 0) for s in self.named("stage2.inner")
                   if s.parent in rejecting)


def layer_metrics(tracer, workers):
    """Per-layer figures of one traced round (everything except io bytes,
    set-up, overhead and the known-fault timing, which the caller adds)."""
    t = tracer
    selfs = self_times(t.spans)
    run_em = t.named("em.run_em")
    fits = [s for s in run_em if not s.error]
    iters = sum(s.counts.get("iters", 0) for s in fits)
    run_em_s = sum(s.duration for s in run_em)
    grid_s = t.total("em.grid")
    return {
        "io.read.s": t.total("io.read"),
        "io.write.s": t.total("io.write"),
        "em.grid.s": grid_s,
        "em.grid.busy_ratio": run_em_s / (workers * grid_s) if grid_s > 0 else 0.0,
        "em.kmeans.s": t.total("em.kmeans"),
        "em.kmeans.calls": len(t.named("em.kmeans")),
        "em.init.s": t.total("em.init"),
        "em.fits": len(fits),
        "em.outer_iters": iters,
        "em.ms_per_outer_iter": 1000.0 * sum(s.duration for s in fits) / iters if iters else 0.0,
        "em.run_em.self_s": t.total_self("em.run_em", selfs),
        "em.bound.s": t.total("em.bound"),
        "em.nonconverged_fits": sum(s.counts.get("nonconverged", 0) for s in fits),
        "em.failed_triples": len(run_em) - len(fits),
        "em.degenerate_triples": sum(s.counts.get("degenerate", 0) for s in fits),
        "em.sigma_guard.self_s": t.total_self("em.sigma_guard", selfs),
        "em.sigma_guard.backtracks": t.count_sum("em.sigma_guard", "backtracks"),
        "em.sigma_guard.rejects": t.count_sum("em.sigma_guard", "rejects"),
        "stage1.s_step.s": t.total("stage1.s_step"),
        "stage1.s_step.calls": len(t.named("stage1.s_step")),
        "stage1.s_step.pairs": t.count_sum("stage1.s_step", "pairs"),
        "stage1.s_step.guarded": t.count_sum("stage1.s_step", "guarded"),
        "stage1.s_step.clamps": t.count_sum("stage1.s_step", "clamps"),
        "stage1.s_step.bytes": t.count_sum("stage1.s_step", "bytes"),
        "stage1.m_step.s": t.total("stage1.m_step"),
        "stage1.m_step.guarded": t.count_sum("stage1.m_step", "guarded"),
        "stage1.resp.s": t.total("stage1.resp"),
        "stage1.pi_mu.s": t.total("stage1.pi_mu"),
        "stage1.bound_terms.s": t.total("stage1.bound_terms"),
        "stage2.stats.s": t.total("stage2.stats"),
        "stage2.inner.s": t.total("stage2.inner"),
        "stage2.inner.calls": len(t.named("stage2.inner")),
        "stage2.inner.sweeps": t.count_sum("stage2.inner", "sweeps"),
        "stage2.inner.capped": t.count_sum("stage2.inner", "capped"),
        "stage2.inner.rejected_sweeps": t.rejected_sweeps(),
        "stage2.inner.psi_floored": t.count_sum("stage2.inner", "psi_floored"),
        "core.state.s": t.total("core.state"),
        "trace.spans": len(t.spans),
        "trace.missing_entry_points": len(t.missing),
        "trace.count_errors": t.count_errors,
    }
