"""Exact homology, character, and filtration computations over prime fields."""

__version__ = "0.1.0"
