"""Exact computations in the tied braid algebra of type B.

The package computes, without any floating point:

- arithmetic in the algebra's normal-form basis (pairs of a set partition of
  {0..n} and a signed permutation), driven by the defining relations;
- the faithful tensor representation, used as an independent oracle;
- the relative traces and the Markov trace built from them;
- the derived isotopy invariant of links in the solid torus, evaluated on
  type-B braid words (one loop generator plus the usual braid generators).

See the ``cli`` module (console script ``btb``) for the command-line surface.
"""

from .coeff import LaurentPoly, parse_poly, var
from .partitions import SetPartition0
from .coxeter import BraidWordB, parse_braid_word, exponent_sum
from .algebra import AlgebraElement, RingParams, SYMBOLIC, specialized_params
from .trace import markov_trace, theta
from .invariant import InvariantValue, delta_b, invariant_eq, pi_natural, word_trace

__all__ = [
    "LaurentPoly", "parse_poly", "var",
    "SetPartition0",
    "BraidWordB", "parse_braid_word", "exponent_sum",
    "AlgebraElement", "RingParams", "SYMBOLIC", "specialized_params",
    "markov_trace", "theta",
    "InvariantValue", "delta_b", "invariant_eq", "pi_natural", "word_trace",
]
