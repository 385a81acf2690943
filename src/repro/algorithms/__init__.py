"""Algorithm layer: classic GE baselines, GNNs, and the six in-house models.

Everything is a plugin over the system layers below: samplers feed
aggregate/combine operators (or skip-gram objectives), trained by the
autograd engine. Models share the :class:`~repro.algorithms.base.
EmbeddingModel` interface — ``fit`` then ``embeddings()`` — so the
evaluation harness treats the whole zoo uniformly.
"""

from repro.algorithms.anrl import ANRL
from repro.algorithms.autoencoders import DAE, BetaVAE
from repro.algorithms.automl import AutoGNN
from repro.algorithms.base import EmbeddingModel
from repro.algorithms.bayesian_gnn import BayesianGNN
from repro.algorithms.deepwalk import DeepWalk
from repro.algorithms.dynamic_baselines import DANE, TNE
from repro.algorithms.evolving_gnn import EvolvingGNN
from repro.algorithms.framework import GNNFramework
from repro.algorithms.gatne import GATNE
from repro.algorithms.graphsage import GraphSAGE
from repro.algorithms.hep import AHEP, HEP
from repro.algorithms.hierarchical_gnn import HierarchicalGNN
from repro.algorithms.line import LINE
from repro.algorithms.metapath2vec import Metapath2Vec
from repro.algorithms.mixture_gnn import MixtureGNN
from repro.algorithms.mne import MNE
from repro.algorithms.mve import MVE
from repro.algorithms.netmf import NetMF
from repro.algorithms.node2vec import Node2Vec
from repro.algorithms.pmne import PMNE
from repro.algorithms.sign import SIGN

__all__ = [
    "EmbeddingModel",
    "GNNFramework",
    "AutoGNN",
    "DeepWalk",
    "Node2Vec",
    "LINE",
    "NetMF",
    "Metapath2Vec",
    "ANRL",
    "PMNE",
    "MVE",
    "MNE",
    "GraphSAGE",
    "SIGN",
    "HEP",
    "AHEP",
    "GATNE",
    "MixtureGNN",
    "HierarchicalGNN",
    "EvolvingGNN",
    "BayesianGNN",
    "TNE",
    "DANE",
    "DAE",
    "BetaVAE",
]
