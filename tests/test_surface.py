"""The library surface: `noncent` exports exactly the names below, and the
test oracles and unused API taken out of src/ do not come back there."""

from types import ModuleType

import noncent
import oracles
from noncent import analysis, catalog, checks, core, families, graph, presentation

EXPORTED = {
    # core
    "FiniteGroup", "Subgroup", "NotAGroup", "NotNormal", "TooLarge", "TRIVIAL",
    "from_table", "from_permutations", "direct_product", "fingerprint", "is_isomorphic",
    "all_subgroups",
    # families
    "cyclic", "elementary_abelian", "dihedral", "generalized_quaternion", "modular_M",
    "heisenberg",
    # presentation
    "Presentation", "ParseError", "UndeclaredGenerator", "CosetLimitExceeded", "parse",
    "enumerate_presentation",
    # analysis
    "RegularityReport", "AbelianGroup", "NotMaximal", "NotASubgroup", "beta_partition", "is_regular", "is_induced_regular", "maximal_centralizers",
    "h_subgroup", "is_reduced_regular", "build_report",
    # graph
    "NonCentralizerGraph", "UnknownFormat", "build_graph", "export",
    # checks
    "CheckResult", "CHECK_IDS", "run_check", "run_suite",
    # catalog
    "CatalogEntry", "FormatError", "DuplicateLabel", "OrderMismatch", "load", "load_many",
    "table1_search",
}

# names that live in tests/oracles.py now, by their old owner
MOVED = {
    analysis: ["brute_force_abelian_factor", "_find_complement", "BRUTE_FACTOR_CAP"],
    graph: ["oracle_graph", "ORACLE_CAP"],
    graph.NonCentralizerGraph: ["edges", "part_of"],
    core.FiniteGroup: ["frattini_by_maximal_subgroups"],
    checks: ["_product_map_is_isomorphism", "_abelian_embeds"],
    core: ["_extend_map"],
}

DELETED = {
    core: ["TrivialGroup", "Coset"],
    core.FiniteGroup: ["mul", "inv", "power", "element_order", "is_elementary_p",
                       "is_elementary_abelian"],
    core.Subgroup: ["member_set"],
    analysis: ["cent_count", "NotRegular2Group"],
    graph: ["degree_sequence"],
    graph.NonCentralizerGraph: ["edge_count", "vertex_count"],
    checks: ["direct_product"],
    catalog: ["dedup"],
}


def test_noncent_exports_exactly_these_names():
    names = {n for n, v in vars(noncent).items()
             if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert names == EXPORTED


def test_every_module_all_resolves():
    for mod in (core, analysis, graph, checks, catalog, families, presentation):
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == [], mod.__name__


def test_moved_and_deleted_names_stay_out_of_src():
    for table in (MOVED, DELETED):
        for owner, names in table.items():
            assert [n for n in names if hasattr(owner, n)] == [], owner.__name__
            assert not set(names) & set(getattr(owner, "__all__", ())), owner.__name__
    for name in ("brute_force_abelian_factor", "oracle_graph", "edges",
                 "frattini_by_maximal_subgroups", "product_map_is_isomorphism",
                 "abelian_embeds", "_extend_map", "parent_is_isomorphic", "part_of"):
        assert callable(getattr(oracles, name)), name
