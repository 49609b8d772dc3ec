"""Epidemic DTN routing over an IP-style convergence layer, with a
deterministic discrete-event simulator, ns-2 mobility traces, and CSV
metric reports."""

__version__ = "0.1.0"
