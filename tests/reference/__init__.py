"""Frozen copies of earlier implementations, kept as test oracles.

Nothing under `src/` may import from here.
"""
