"""Quadratic unconstrained binary optimization (QUBO) substrate.

A QUBO problem minimises ``sum_{i<=j} w_ij x_i x_j`` over binary
variables.  This package provides the sparse model container used by the
logical and physical mappings, QUBO/Ising conversions, an exact
brute-force solver for small instances and random-instance generators.
"""

from repro.qubo.model import QUBOModel
from repro.qubo.ising import IsingModel, ising_to_qubo, qubo_to_ising
from repro.qubo.bruteforce import solve_bruteforce
from repro.qubo.random_qubo import random_qubo, random_chimera_qubo

__all__ = [
    "QUBOModel",
    "IsingModel",
    "qubo_to_ising",
    "ising_to_qubo",
    "solve_bruteforce",
    "random_qubo",
    "random_chimera_qubo",
]
