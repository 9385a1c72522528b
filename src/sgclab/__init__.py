"""sgclab: exact desk-scale calculus for monoid ideal lattices, word
semigroups of partial bijections, character boundaries, and truncated
matrix verification."""

__version__ = "0.1.0"

from .models import build_model, FreeAbelianModel, FreeMonoidModel, NumericalModel
from .ideals import (WordTrace, ConstructibleIdeal, IdealLattice,
                     from_trace, full_ideal, empty_ideal, intersect,
                     enumerate_ideals, independence_test,
                     independence_rank_oracle, ore_test)
from .invsgp import (VWord, make_vword, compose, star, vword_eq,
                     idempotent_vword, semilattice, enumerate_vwords)
from .spectrum import (Fragment, ThetaContext, enumerate_characters,
                       theta_apply, invariant_closure, boundary,
                       topological_freeness_probe)
from .fock import (TruncOp, rep_vword, projection_op,
                   check_projection_identity, cond_expectation, build_frame,
                   sc_norm, sc_limit_probe, default_f_chain)

__all__ = [name for name in dir() if not name.startswith("_")]
