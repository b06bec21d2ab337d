"""Simulation and analysis toolkit for a surface-assisted full-duplex
NOMA cell: closed-form ergodic rates, a Monte-Carlo cross-validator,
phase/amplitude optimization, and a CSV experiment runner.
"""

__version__ = "0.7.1"
