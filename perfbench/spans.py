"""Span recording for the benchmark's traced runs.

The program has no spans at every layer boundary yet, so the traced run
records them from the outside: :func:`instrument` swaps each layer's
public entry point (a module function or a class method) for a thin
wrapper that times the call on a :class:`Recorder`, and puts the
originals back on exit.  Spans nest through a stack, so every span's
*self* time (its duration minus the part its child spans cover) is
known, and the self times of one root span partition that root exactly.

Only the process that created the recorder records: a forked worker
inherits the wrappers but they pass straight through, because
attribution inside workers needs spans inside the program.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple, Union

#: (module, attribute, span name) for module-level entry points.  The
#: module is where the caller looks the name up, which is where a
#: replacement has to go.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.em_ext", "staged_initialisation", "init"),
    ("repro.sparse.em", "staged_initialisation", "init"),
    ("repro.engine.batched", "run_batched_lanes", "lanes.run"),
    ("repro.eval.harness", "exact_bound", "bound.exact"),
    ("repro.eval.harness", "gibbs_bound", "bound.gibbs"),
    ("repro.eval.harness", "run_simulation", "harness.point"),
    ("repro.serve.service", "plan_batches", "serve.plan"),
    ("repro.pipeline.grading", "grade_top_k", "pipeline.grade"),
)

#: (module, class, method, span name) for class-level entry points.
METHOD_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.engine.backends", "DenseBackend", "e_step", "em.e_step"),
    ("repro.engine.backends", "DenseBackend", "m_step", "em.m_step"),
    ("repro.engine.backends", "CSRBackend", "e_step", "em.e_step"),
    ("repro.engine.backends", "CSRBackend", "m_step", "em.m_step"),
    ("repro.engine.backends", "MaskedDenseBackend", "e_step", "em.e_step"),
    ("repro.engine.backends", "MaskedDenseBackend", "m_step", "em.m_step"),
    ("repro.engine.batched", "BatchedDenseBackend", "e_step", "em.e_step"),
    ("repro.engine.batched", "BatchedDenseBackend", "m_step", "em.m_step"),
    ("repro.engine.batched", "BatchedDenseBackend", "from_backends", "lanes.pack"),
    ("repro.engine.driver", "EMDriver", "run", "em.run"),
    ("repro.synthetic.generator", "SyntheticGenerator", "generate", "synthetic.generate"),
    ("repro.serve.service", "EstimationService", "submit", "serve.submit"),
    ("repro.serve.service", "EstimationService", "drain", "serve.drain"),
)


class Recorder:
    """Per-name call counts, total and self times of nested spans.

    ``fits`` collects ``(iterations, converged)`` per EM run (scalar
    driver runs and stacked lanes alike); ``exact_patterns`` sums the
    ``2**n`` patterns each exact-bound call enumerates.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.fits: List[Tuple[int, bool]] = []
        self.lane_packs: List[int] = []
        self.exact_patterns = 0
        self.parallel_tasks = 0
        self._stack: List[List[float]] = []
        self._pid = os.getpid()

    @property
    def live(self) -> bool:
        return os.getpid() == self._pid

    def open(self) -> List[float]:
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, name: str, frame: List[float]) -> None:
        duration = perf_counter() - frame[0]
        self._stack.pop()
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self.open()
        try:
            yield
        finally:
            self.close(name, frame)

    def wrap(self, name: Union[str, Callable[..., str]], function: Callable) -> Callable:
        """``function`` timed as span ``name`` (a string, or a callable of the args)."""
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.live:
                return function(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args)
            frame = recorder.open()
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(label, frame)
            recorder._observe(label, args, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def wrap_iterator(self, name: str, function: Callable) -> Callable:
        """A generator-returning ``function`` whose every ``next`` is span ``name``."""
        recorder = self
        timed = self.wrap(name, function)

        def wrapper(*args, **kwargs):
            iterator = iter(timed(*args, **kwargs))
            if not recorder.live:
                return iterator
            return recorder._timed(name, iterator)

        wrapper.__wrapped__ = function
        return wrapper

    def _timed(self, name: str, iterator: Iterator) -> Iterator:
        while True:
            frame = self.open()
            try:
                item = next(iterator)
            except StopIteration:
                self.close(name, frame)
                return
            self.close(name, frame)
            self.parallel_tasks += 1
            yield item

    def _observe(self, name: str, args: tuple, result: object) -> None:
        if name == "em.run":
            self.fits.append((result.n_iterations, bool(result.converged)))
        elif name == "lanes.run":
            self.lane_packs.append(len(result))
            for lane in result:
                if lane.outcome is not None:
                    self.fits.append(
                        (lane.outcome.n_iterations, bool(lane.outcome.converged))
                    )
        elif name == "bound.exact":
            self.exact_patterns += 1 << int(args[0].shape[0])


def _fit_label(finder, *_args) -> str:
    return f"fit.{finder.algorithm_name}"


@contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Route every layer entry point through ``recorder`` for the block."""
    undo: List[Tuple[object, str, object]] = []

    def _swap(owner: object, attribute: str, replacement: object) -> None:
        undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    try:
        for module_name, attribute, name in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            _swap(module, attribute, recorder.wrap(name, getattr(module, attribute)))
        harness = importlib.import_module("repro.eval.harness")
        _swap(
            harness,
            "parallel_imap",
            recorder.wrap_iterator("parallel.wait", harness.parallel_imap),
        )
        for module_name, class_name, method, name in METHOD_TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                _swap(owner, method, classmethod(recorder.wrap(name, raw.__func__)))
            else:
                _swap(owner, method, recorder.wrap(name, raw))
        from repro.baselines import ALGORITHM_REGISTRY

        owners = {
            klass
            for finder_class in ALGORITHM_REGISTRY.values()
            for klass in finder_class.__mro__
            if "fit" in klass.__dict__
            and not getattr(klass.__dict__["fit"], "__isabstractmethod__", False)
        }
        for owner in owners:
            _swap(owner, "fit", recorder.wrap(_fit_label, owner.__dict__["fit"]))
        yield recorder
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


