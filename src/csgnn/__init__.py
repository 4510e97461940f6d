"""Coupled contractive graph dynamics for robust node classification.

A graph network built from two explicit-Euler dynamical systems that evolve
node features and the adjacency matrix side by side, with step-size bounds
that keep each system nonexpansive, plus the attack generators, training
engine, property suites, and certificates around it. The package exports
nothing: import its modules (`csgnn.graph`, `csgnn.cli`, ...) by name.
"""
