"""Finite-group centralizer structure, non-centralizer graphs, and the
regularity verification toolkit."""

from .core import (FiniteGroup, Subgroup, NotAGroup,
                   NotNormal, TooLarge, TRIVIAL, from_table,
                   from_permutations, direct_product, fingerprint,
                   is_isomorphic, all_subgroups)
from .families import (cyclic, elementary_abelian, dihedral,
                       generalized_quaternion, modular_M, heisenberg)
from .presentation import (Presentation, ParseError, UndeclaredGenerator,
                           CosetLimitExceeded, parse, enumerate_presentation)
from .analysis import (RegularityReport, AbelianGroup, NotMaximal,
                       NotASubgroup, beta_partition,
                       is_regular, is_induced_regular, maximal_centralizers,
                       h_subgroup, is_reduced_regular, build_report)
from .graph import NonCentralizerGraph, UnknownFormat, build_graph, export
from .checks import CheckResult, CHECK_IDS, run_check, run_suite
from .catalog import (CatalogEntry, FormatError, DuplicateLabel, OrderMismatch,
                      load, load_many, table1_search)

__version__ = "0.1.0"
