"""Spans around calls into the library, recorded from the benchmark's side.

A :class:`Tracer` replaces public functions of the ``cosamp`` modules, in the
module namespaces their callers look them up in, with wrappers that record a
span (name, start, end, parent) each.  Operators are wrapped in
:class:`TracedOperator`, which delegates every product to the real operator.
Nothing in ``src/`` is edited; :meth:`Tracer.active` restores every
replaced attribute on exit.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import math
import time
from collections import Counter, defaultdict

import numpy as np

from cosamp import experiment, lsq, models, operators, prng, recovery, rip, signals

# Module -> attributes to wrap there.  A function is wrapped in every module
# whose namespace its callers use, and named after the module defining it.
PATCH_SITES = (
    (experiment, ("run_sweep", "run_cell", "run_trial", "build_operator", "build_signal",
                  "build_noise", "parse_recovery", "recover", "make_sparse",
                  "make_compressible")),
    (recovery, ("recover", "initial_state", "identify", "merge_support", "check_halt",
                "best_s_approx", "support_of", "embed", "solve")),
    (lsq, ("richardson_solve", "cg_solve", "direct_solve")),
    (operators, ("embed",)),
    (models, ("make_sparse", "make_compressible", "best_s_approx")),
    (prng, ("mix_seed", "raw_words", "uniforms", "normals", "complex_normals", "shuffled",
            "sample_without_replacement", "signs")),
    (rip, ("rip_estimate", "gram_deviation")),
)

# SupportSet methods, wrapped on the class so that the validation recovery
# triggers through them (``omega.union(prev)`` and the like) counts as
# signals time, not as its caller's.
SUPPORT_SET_METHODS = ("__post_init__", "union", "complement")

LAYERS = ("operators", "signals", "lsq", "recovery", "rip", "prng", "models", "experiment")
PRODUCTS = ("apply", "adjoint", "apply_sub", "adjoint_sub")


class Tracer:
    """In-memory span recorder.  Spans are lists ``[name, start_ns, end_ns, parent]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.recording = False
        self.fft_flops = 0
        self.dense_bytes = 0
        self.eig_matrices = 0

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call while the tracer is active."""
        # Inlined rather than built on span(): a traced sweep call records
        # about 10^5 spans, so per-span cost is most of the tracing overhead.
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1]])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1]])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    @contextlib.contextmanager
    def active(self):
        """Wrap the patch sites, the SupportSet methods and
        ``experiment.build_operator``'s results."""
        saved = []
        wrappers: dict[int, object] = {}
        try:
            for module, names in PATCH_SITES:
                for attr in names:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    key = id(original)
                    if key not in wrappers:
                        layer = original.__module__.rsplit(".", 1)[-1]
                        wrappers[key] = self.wrap(f"{layer}.{attr}", original)
                    setattr(module, attr, wrappers[key])
            for attr in SUPPORT_SET_METHODS:
                original = getattr(signals.SupportSet, attr)
                saved.append((signals.SupportSet, attr, original))
                setattr(signals.SupportSet, attr, self.wrap(f"signals.SupportSet.{attr}", original))
            build = experiment.build_operator
            saved.append((experiment, "build_operator", build))
            experiment.build_operator = lambda desc: TracedOperator(build(desc), self)
            saved.append((rip, "np", rip.np))
            rip.np = _EigCountingNumpy(self)
            self.recording = True
            yield self
        finally:
            self.recording = False
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "name", "start_ns", "end_ns", "parent"))
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow((index, name, start, end, parent))

    # -- aggregation -------------------------------------------------------

    def self_ns_by_layer(self) -> dict[str, int]:
        """Each layer's span time minus the part covered by its child spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name.split(".", 1)[0]] += end - start - covered
        return out

    def counts(self) -> Counter:
        return Counter(name for name, _, _, _ in self.spans)

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for n, start, end, _ in self.spans if n == name]


class TracedOperator(operators.SamplingOperator):
    """Delegates to ``inner``; records a span and the computed cost per product.

    Computed cost: 5 N log2 N flops per FFT for partial Fourier, and 8 m c
    bytes of matrix read per dense product touching c columns (16 when
    complex).  Both are computed from sizes, not measured.
    """

    def __init__(self, inner: operators.SamplingOperator, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.m, self.n, self.is_complex = inner.m, inner.n, inner.is_complex
        self._fft = isinstance(inner, operators.PartialFourierOperator)
        self._dense = isinstance(inner, operators.DenseOperator)
        self._itemsize = 16 if inner.is_complex else 8
        for attr in PRODUCTS + ("materialize",):
            setattr(self, attr, tracer.wrap(f"operators.{attr}", getattr(self, "_" + attr)))

    def _cost(self, columns: int) -> None:
        if not self.tracer.recording:
            return
        if self._fft:
            self.tracer.fft_flops += int(5 * self.n * math.log2(self.n))
        elif self._dense:
            self.tracer.dense_bytes += self._itemsize * self.m * columns

    def _apply(self, x):
        self._cost(self.n)
        return self.inner.apply(x)

    def _adjoint(self, v):
        self._cost(self.n)
        return self.inner.adjoint(v)

    def _apply_sub(self, T, coeffs):
        self._cost(len(T))
        return self.inner.apply_sub(T, coeffs)

    def _adjoint_sub(self, T, v):
        self._cost(len(T))
        return self.inner.adjoint_sub(T, v)

    def _materialize(self):
        return self.inner.materialize()

    # The instance attributes set in __init__ shadow these two, which exist
    # because the base class declares them abstract.
    def apply(self, x):
        return self._apply(x)

    def adjoint(self, v):
        return self._adjoint(v)

    def __getattr__(self, name):
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


class _EigCountingNumpy:
    """Stands in for ``numpy`` inside ``cosamp.rip`` and counts the Gram
    submatrices handed to ``linalg.eigvalsh`` (supports evaluated)."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self.linalg = _EigCountingLinalg(tracer)

    def __getattr__(self, name):
        return getattr(np, name)


class _EigCountingLinalg:
    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(np.linalg, name)

    def eigvalsh(self, a, *args, **kwargs):
        a = np.asarray(a)
        self._tracer.eig_matrices += a.size // (a.shape[-1] * a.shape[-2])
        return np.linalg.eigvalsh(a, *args, **kwargs)
