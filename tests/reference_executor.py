"""The per-unit reference for the fused batch driver.

:class:`PerUnitExecutor` restores the per-unit plan-batch stream the
burst log replaced: every pulled unit opens its task at the pull
(through the ``table_units`` adapter) and runs in place (unfused) or as
a fused-macro constituent when its buffer flushes
(``SisaContext.fused_count_burst``), each in its own attributed slice.
The exactness tests hold :class:`~repro.session.plan.PlanExecutor` to
it.
"""

from contextlib import contextmanager

from repro.session import PlanExecutor


class PerUnitExecutor(PlanExecutor):
    """:class:`PlanExecutor` with the per-unit burst hooks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._buffer = []

    @contextmanager
    def _attribute(self, run):
        engine = self.session.ctx.engine
        engine.set_tenant(run.tag)
        try:
            yield
        finally:
            engine.set_tenant(None)

    def _begin_bursts(self, run, stage):
        with self._attribute(run):
            run.gen = stage.units(self.session, run.state)

    def _pull(self, run):
        with self._attribute(run):
            unit = next(run.gen, None)
        if unit is None:
            run.gen = None
            return False
        if self._fuse_bursts:
            self._buffer.append((unit, run))
            if len(self._buffer) >= self.fuse_width:
                self._flush()
        else:
            with self._slice(run):
                counts = getattr(self.session.ctx, f"{unit.kind}_count_batch")(
                    unit.a, unit.bs
                )
                unit.sink(counts)
        return True

    def _end_bursts(self, run):
        pass

    def _sync(self):
        self._flush()

    def _drain(self):
        if not self._buffer:
            return False
        self._flush()
        return True

    def _abort(self):
        self._buffer.clear()

    def _flush(self):
        ctx = self.session.ctx
        buffer = self._buffer
        kind = None
        for unit, run in buffer:
            with self._slice(run), ctx.on_lane(unit.lane):
                counts = ctx.fused_count_burst(
                    unit.a, unit.bs, kind=unit.kind, include_decode=unit.kind != kind
                )
                unit.sink(counts)
            kind = unit.kind
        buffer.clear()
