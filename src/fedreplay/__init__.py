"""Deterministic simulator for online federated class-incremental learning.

Clients consume single-pass streams of mini-batches, fight forgetting with
class-balanced replay memories whose admission is driven by predictive
uncertainty (variance in logit space or confidence-based scores), and
periodically average parameters through a central server.
"""

__version__ = "0.1.0"
