"""Pipelined reads on one session channel, one frame per op.

Ops used to be coalesced into multi-op frames unless the host ran
with ``REPRO_NO_BATCH=1``.  Coalescing is gone and the variable is no
longer read, so the two legs below (named for the two environments)
must serve a deep wave of reads identically: the ``no-batch`` leg
spawns its host with the retired variable still set and pins that a
leftover setting changes nothing.
"""

import pytest

from repro.core.container import Container
from repro.core.control import raise_for_response
from repro.core.spec import SentinelSpec
from tests.conftest import open_dedicated_session

SPEC = SentinelSpec("repro.sentinels.null:NullFilterSentinel")


class TestSessionIntegration:
    """A real sentinel host (wire transport + hostloop)."""

    DEPTH = 40
    DATA = bytes((i * 31) % 256 for i in range(DEPTH * 4096))

    @pytest.mark.parametrize("env", [(), (("REPRO_NO_BATCH", "1"),)],
                             ids=["batched", "no-batch"])
    def test_pipelined_reads_are_byte_identical(self, tmp_path, env,
                                                monkeypatch):
        for key, value in env:
            monkeypatch.setenv(key, value)
        container = Container.create(str(tmp_path / "wave.af"), SPEC,
                                     data=self.DATA)
        # A dedicated host, so it is spawned with this leg's environment.
        session = open_dedicated_session(container)
        try:
            offsets = [i * 4096 for i in range(self.DEPTH)]
            pendings = [session._lease.request_async(
                {"cmd": "read", "offset": offset, "size": 4096})
                for offset in offsets]
            for offset, pending in zip(offsets, pendings):
                fields, chunk = pending.wait(10.0)
                raise_for_response(fields)
                assert chunk == self.DATA[offset:offset + 4096]
        finally:
            session.close()
