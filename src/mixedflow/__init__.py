"""Pseudospectral simulator for volume-constrained curvature flows of radial graphs."""

__version__ = "0.1.0"
