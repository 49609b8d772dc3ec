"""Plain forms of the simulator's fast paths, for whole-run comparisons.

Each twin computes what the fast path it replaces computes, the slow way.
A test swaps one in by monkeypatching the name `dtnsim.runner` builds
runs with, so `src/` needs no hook for it.
"""

from dtnsim.netsim import NodeTransport, RadioNetwork


class ExactRadio(RadioNetwork):
    """A radio whose range certificates are off: every range decision of a
    completing transmission is the exact check."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # in_range writes no certificate with a speed bound of 0, so every
        # certificate keeps its initial empty interval.
        self._speed_bound = 0.0


class PerPacketTransport(NodeTransport):
    """A transport that hands a message's packets to the radio one
    `unicast` at a time, each its own hand-over."""

    def unicast_message(self, dst, port, headers, kind, msg_dst, payloads):
        for data, payload in zip(headers, payloads):
            self.unicast(dst, port, data, kind, msg_dst, payload)
