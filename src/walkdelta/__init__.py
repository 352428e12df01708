"""Compile small quantum circuits into string-rewriting walk instances.

Subpackages are organized by responsibility:

- rewriting: generic substring-rewriting graphs and exact walk counting
- circuits: exact simulation of {H, Swap, Toffoli, barrier} circuits
- clock: the circuit-to-rewriting compiler and its cell alphabet
- spectral: path-graph eigenstructure and corner entries of its powers
- verifier: certificate checks tying compiled instances to circuit output
- estimator: classical sampling model for the sign decision
- cli: command-line entry points
"""

__version__ = "0.1.0"
