"""Computational invariants of number rings: unit and K3 regulators via the
Bloch-Wigner dilogarithm, arithmetic degrees of metrized line bundles, and
the graded real model of the K-theory of rings of integers."""

__version__ = "0.1.0"

from .arakelov import (FractionalIdeal, Metric, MetrizedLineBundle, arithmetic_degree,
                       index_quotient, standard_metric, tensor, transport, twist_metric)
from .dilog import bloch_wigner, li2
from .heights import c_hat_height, height, height_scaled_trivial, scaling_alpha
from .kmodel import build_model, generator_labels, rank_in_degree
from .nf import EmbeddingSet, FieldElement, NumberField, embeddings, evaluate, parse_field
from .regulator import k3_regulator, unit_regulator
from .relations import (ExteriorSquare, MultiplicativePresentation, bloch_kernel,
                        exterior_square, relation_lattice, steinberg_image,
                        torsion_only_kernel, verify_bloch_element)

__all__ = [
    # number field core
    "NumberField", "FieldElement", "EmbeddingSet", "parse_field", "embeddings",
    "evaluate",
    # relation lattices and the wedge-map kernel
    "MultiplicativePresentation", "ExteriorSquare",
    "relation_lattice", "exterior_square", "steinberg_image", "bloch_kernel",
    "torsion_only_kernel", "verify_bloch_element",
    # dilogarithm
    "li2", "bloch_wigner",
    # regulators
    "unit_regulator", "k3_regulator",
    # metrized bundles
    "FractionalIdeal", "Metric", "MetrizedLineBundle", "index_quotient", "arithmetic_degree", "tensor", "twist_metric",
    "transport", "standard_metric",
    # heights
    "height", "height_scaled_trivial", "scaling_alpha", "c_hat_height",
    # graded model
    "build_model", "rank_in_degree", "generator_labels",
]
