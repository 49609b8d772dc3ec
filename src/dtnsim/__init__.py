"""Epidemic DTN routing over an IP-style convergence layer, with a
deterministic discrete-event simulator, ns-2 mobility traces, and CSV
metric reports."""

from .buffer import MessageBuffer, QueueEntry
from .metrics import RunReport, compute
from .netsim import LinkModel, RadioNetwork, Simulator
from .protocol import EpidemicNode, ProtocolConfig, build_summary_fragments
from .records import RunTrace
from .runner import run_once, run_seeds
from .scenario import Scenario, ScenarioError, load_scenario
from .wire import MessageId, MsgType, make_message_id

__version__ = "0.1.0"

__all__ = [
    "EpidemicNode",
    "LinkModel",
    "MessageBuffer",
    "MessageId",
    "MsgType",
    "ProtocolConfig",
    "QueueEntry",
    "RadioNetwork",
    "RunReport",
    "RunTrace",
    "Scenario",
    "ScenarioError",
    "Simulator",
    "build_summary_fragments",
    "compute",
    "load_scenario",
    "make_message_id",
    "run_once",
    "run_seeds",
]
