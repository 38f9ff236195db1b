"""Composing sentinels into pipelines (paper §3).

"Larger applications are constructed by composing these actions in
different ways."  A :class:`PipelineSentinel` stacks filter sentinels:
the application talks to the outermost stage, each stage sees the next
stage as *its* data part, and the innermost stage operates on the real
data part (or on a remote source, if it is e.g. a
:class:`~repro.sentinels.remotefile.RemoteFileSentinel`).

Examples this enables with zero new code:

* ``cipher(compress(null))`` — an encrypted, compressed local file;
* ``audit(remotefile)`` — an access-logged view of a remote file;
* ``cipher(remotefile)`` — client-side encryption over an untrusted
  server (the server only ever sees ciphertext).

Stage order in params is outermost-first, matching how reads flow.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.core.datapart import DataPart
from repro.core.sentinel import Sentinel, SentinelContext
from repro.core.spec import SentinelSpec
from repro.errors import SpecError

__all__ = ["PipelineSentinel", "StageDataPart", "pipeline_spec"]


def pipeline_spec(*stages: SentinelSpec) -> SentinelSpec:
    """Build a pipeline spec from outermost to innermost stage."""
    if len(stages) < 2:
        raise SpecError("a pipeline needs at least two stages")
    return SentinelSpec(
        target="repro.sentinels.compose:PipelineSentinel",
        params={"stages": [stage.to_dict() for stage in stages]},
    )


class StageDataPart(DataPart):
    """Presents the next pipeline stage as a data part.

    Every call the outer stage makes against "its file" becomes a
    handler call on the inner sentinel — which is exactly how the paper
    composes actions: each sentinel believes it is filtering a plain
    file.
    """

    def __init__(self, sentinel: Sentinel, ctx: SentinelContext) -> None:
        self._sentinel = sentinel
        self._ctx = ctx

    def read_at(self, offset: int, size: int) -> bytes:
        return self._sentinel.on_read(self._ctx, offset, size)

    def write_at(self, offset: int, data: bytes) -> int:
        # Handlers receive bytes; a cache installing a window hands its
        # store memoryview slices.
        return self._sentinel.on_write(self._ctx, offset, bytes(data))

    @property
    def size(self) -> int:
        return self._sentinel.on_size(self._ctx)

    def truncate(self, size: int = 0) -> None:
        self._sentinel.on_truncate(self._ctx, size)

    def getvalue(self) -> bytes:
        return self.read_at(0, self.size)

    def setvalue(self, data: bytes) -> None:
        self.truncate(0)
        self.write_at(0, data)

    def flush(self) -> None:
        self._sentinel.on_flush(self._ctx)

    def close(self) -> None:
        # pipeline teardown runs through PipelineSentinel.on_close; a
        # stage's view of "its file" closing must not close the stack
        self.flush()


class PipelineSentinel(Sentinel):
    """Stacks sentinels; stage N's data part is stage N+1.

    Params: ``stages`` — a list of spec dicts, outermost first.  The
    innermost stage receives the pipeline's real context (data part,
    network, shared state); every other stage gets a shallow context
    copy whose ``data`` is the next stage.
    """

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        super().__init__(params)
        stage_dicts = self.params.get("stages") or []
        if len(stage_dicts) < 2:
            raise SpecError("pipeline sentinel needs a 'stages' list of >= 2")
        self.stages = [SentinelSpec.from_dict(stage).instantiate()
                       for stage in stage_dicts]
        self._contexts: list[SentinelContext] = []

    # -- wiring -----------------------------------------------------------------------

    def _wire(self, ctx: SentinelContext) -> None:
        """Build per-stage contexts, innermost first."""
        self._contexts = [None] * len(self.stages)
        inner_ctx = ctx
        for index in range(len(self.stages) - 1, -1, -1):
            self._contexts[index] = inner_ctx
            if index > 0:
                stage_view = StageDataPart(self.stages[index], inner_ctx)
                inner_ctx = replace(ctx, data=stage_view)

    @property
    def _outer(self) -> tuple[Sentinel, SentinelContext]:
        return self.stages[0], self._contexts[0]

    # -- sentinel interface ---------------------------------------------------------------

    def on_open(self, ctx: SentinelContext) -> None:
        self._wire(ctx)
        # open innermost-first so outer stages can read through on open
        for index in range(len(self.stages) - 1, -1, -1):
            self.stages[index].on_open(self._contexts[index])

    def on_close(self, ctx: SentinelContext) -> None:
        # close outermost-first so outer flushes land before inner ones
        for index in range(len(self.stages)):
            self.stages[index].on_close(self._contexts[index])

    def on_read(self, ctx: SentinelContext, offset: int, size: int) -> bytes:
        sentinel, stage_ctx = self._outer
        return sentinel.on_read(stage_ctx, offset, size)

    def on_write(self, ctx: SentinelContext, offset: int, data: bytes) -> int:
        sentinel, stage_ctx = self._outer
        return sentinel.on_write(stage_ctx, offset, data)

    def on_size(self, ctx: SentinelContext) -> int:
        sentinel, stage_ctx = self._outer
        return sentinel.on_size(stage_ctx)

    def on_truncate(self, ctx: SentinelContext, size: int) -> None:
        sentinel, stage_ctx = self._outer
        sentinel.on_truncate(stage_ctx, size)

    def on_flush(self, ctx: SentinelContext) -> None:
        for index in range(len(self.stages)):
            self.stages[index].on_flush(self._contexts[index])

    def on_control(self, ctx: SentinelContext, op: str, args: dict[str, Any],
                   payload: bytes) -> tuple[dict[str, Any], bytes]:
        """Control ops route to the first stage that accepts them.

        ``pipeline_stages`` is answered by the pipeline itself; a
        ``stage`` argument pins the op to one stage index.
        """
        from repro.errors import UnsupportedOperationError

        if op == "pipeline_stages":
            return {"stages": [type(stage).__name__
                               for stage in self.stages]}, b""
        if "stage" in args:
            index = int(args["stage"])
            rest = {k: v for k, v in args.items() if k != "stage"}
            return self.stages[index].on_control(self._contexts[index], op,
                                                 rest, payload)
        for index, stage in enumerate(self.stages):
            try:
                return stage.on_control(self._contexts[index], op, args,
                                        payload)
            except UnsupportedOperationError:
                continue
        raise UnsupportedOperationError(
            f"no pipeline stage implements control op {op!r}"
        )
