"""Live-service names for the region server.

Pull workers — heartbeat delivery, answer staleness, liveness culling — are
served by :class:`~repro.platform.server.REACTServer` itself; a worker added
without a simulated behaviour is a pull worker.  ``LiveRegionServer`` is kept
as that class's service-side name.
"""

from ..platform.server import AnswerOutcome, DispatchNotice, REACTServer

LiveRegionServer = REACTServer

__all__ = ["AnswerOutcome", "DispatchNotice", "LiveRegionServer"]
