"""Coupled contractive graph dynamics for robust node classification.

A graph network built from two explicit-Euler dynamical systems that evolve
node features and the adjacency matrix side by side, with step-size bounds
that keep each system nonexpansive, plus the attack generators, training
engine, property suites, and certificates around it.
"""

from .graph import (Graph, PerturbationBudget, frobenius_distance, l0_distance,
                    l1_vec_distance, load_graph, save_graph)
from .equivariant import (AdjacencyStepConfig, EquivariantCoeffs, adjacency_step,
                          build_T, equivariant_linear, max_step_adjacency, operator_l1_norm)
from .dynamics import LayerParams, energy, feature_step, max_feature_step
from .network import (CoupledLayer, ForwardTrace, NetworkParams, certificate, evolve, forward,
                      load_checkpoint, save_checkpoint, weighted_distance)
from .training import (AdamState, TrainConfig, adam_step, backward,
                       masked_cross_entropy, train)
from .attacks import (AttackKind, AttackSpec, evaluate_robustness, feature_noise_attack,
                      gcn_baseline_forward, random_edge_attack)
from .sbm import gen_sbm

__version__ = "0.1.0"
