"""Tracing of the doublezeta layers from outside the package.

``install()`` wraps every function named in a module's ``__all__``, plus
``BernoulliCache.__init__``/``get`` and ``cli.main``, and rebinds each
wrapper wherever the original was imported by name (for example
``matrices.binomial`` and ``numerics.build_a``).  The package's source is
not touched.

A call makes a span: name, start, end, parent span and op id.  Calls to the
per-entry leaf functions in ``FOLDED`` run millions of times in an exact
sweep, so they are folded into one (count, total time) record per parent
span and name instead.  A folded function must call no wrapped function;
otherwise its time would be counted twice and ``covered_frac`` would
exceed 1.  The counters (matrix product sizes, P entry sizes, Bernoulli
caches made) are taken inside the span of the call they observe, so their
cost lands in that function's self time, never in its caller's.  Spans
stay in memory until ``export()``.
"""

from __future__ import annotations

import functools
import inspect
import time

import doublezeta.bernoulli as bernoulli
import doublezeta.cli as cli
import doublezeta.matrices as matrices
import doublezeta.numerics as numerics
import doublezeta.rationals as rationals
import doublezeta.reductions as reductions
import doublezeta.series as series

MODULES = (rationals, bernoulli, matrices, series, reductions, numerics, cli)

FOLDED = frozenset(
    {
        "rationals.binomial",
        "rationals.factorial",
        "rationals.format_rational",
        "rationals.parse_rational",
        "bernoulli.BernoulliCache.__init__",
        "bernoulli.BernoulliCache.get",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.folded: dict[tuple[int, int], list] = {}
        self.stack = [-1]
        self.op = -1
        self.caches: list[bernoulli.BernoulliCache] = []
        self.scalar_mults = 0
        self.p_entry_max_bits = 0

    def wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        perf_counter, stack = time.perf_counter, self.stack

        if name in FOLDED:
            folded = self.folded

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    if observe is not None:
                        observe(args, result)
                    return result
                finally:
                    dt = perf_counter() - t0
                    key = (stack[-1], nid)
                    rec = folded.get(key)
                    if rec is None:
                        folded[key] = [1, dt]
                    else:
                        rec[0] += 1
                        rec[1] += dt

            return leaf

        spans = self.spans

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op)

        return span

    def export(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "folded": [[p, n, c, t] for (p, n), (c, t) in self.folded.items()],
            "caches": len(self.caches),
            "numbers_computed": sum(c.high_water for c in self.caches),
            "scalar_mults": self.scalar_mults,
            "p_entry_max_bits": self.p_entry_max_bits,
        }


def install() -> Tracer:
    """Wrap the package's layers in this process and return the tracer."""
    tracer = Tracer()

    def on_cache(args, _result):
        tracer.caches.append(args[0])

    def on_multiply(args, _result):
        a, b = args[0], args[1]
        tracer.scalar_mults += a.rows * b.cols * a.cols

    def on_build_p(_args, result):
        bits = max(
            max(x.numerator.bit_length(), x.denominator.bit_length())
            for x in result.entries
        )
        tracer.p_entry_max_bits = max(tracer.p_entry_max_bits, bits)

    observers = {
        "bernoulli.BernoulliCache.__init__": on_cache,
        "matrices.matrix_multiply": on_multiply,
        "matrices.build_p": on_build_p,
    }

    wrappers = {}
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        names = ["main"] if mod is cli else mod.__all__
        for attr in names:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn):
                name = f"{short}.{attr}"
                wrappers[fn] = tracer.wrap(name, fn, observers.get(name))
    cls = bernoulli.BernoulliCache
    for attr in ("__init__", "get"):
        name = f"bernoulli.BernoulliCache.{attr}"
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), observers.get(name)))

    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])

    # caches made at import time, before the wrappers existed
    for mod in MODULES:
        tracer.caches += [v for v in vars(mod).values() if isinstance(v, cls)]
    return tracer
