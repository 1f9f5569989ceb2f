"""Qutrit ping-pong protocol. Import from its modules, which the package does
not re-export: qutrit, attack, information, protocol, comparison and cli."""

__version__ = "0.1.0"
