"""Exact lattice invariants of two- and three-component L-space links.

The package computes multivariable Alexander polynomials of two-bridge links
from all-even continued fractions, evaluates the coefficient obstructions
that L-space links must satisfy, builds the edge-labeled lattice graph that
encodes the tower inclusions, tabulates the graded corner homology it
determines, and reproduces the classification of two-bridge L-space links by
an exhaustive sweep.
"""

from .bridge import (EvenExpansion, TwoBridge, alexander, alexander_of,
                     even_expansion, F_poly, fraction_of, linking_number,
                     signature)
from .cubes import (CubeLabeling, GradedVS, complete_subgraph,
                    corner_homology, enumerate_valid_labelings, euler_char,
                    oracle_corner_homology, validate)
from .floer import (HFLTable, TGraph, alternating_cross_check, build_tgraph,
                    hfl_hat, hfl_minus)
from .laurent import MultiLaurent, TailPoly, diagonal, exact_div, restrict
from .lspace import (LinkProfile, NormalizedFamily, cor_alex2_check,
                     m_vector, normalized_family, r_sum, theorem_alex_check,
                     two_bridge_profile, unknot_profile, unlink_profile)

__version__ = "0.1.0"
