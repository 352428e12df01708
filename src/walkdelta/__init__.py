"""Compile small quantum circuits into string-rewriting walk instances.

Modules, by responsibility:

- rewriting: generic substring-rewriting graphs, string-keyed walk spaces
  and the exact integer step A w - 2 prev
- circuits: exact simulation of {H, Swap, Toffoli} circuits
- clock: the circuit-to-rewriting compiler and its cell alphabet
- spectral: path-graph eigenstructure and corner entries of its powers
- verifier: certificate checks tying compiled instances to circuit output
- estimator: classical sampling model for the sign decision
- cli: command-line entry points
"""

__version__ = "0.1.0"
