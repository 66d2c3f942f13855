import pytest

from noncent import catalog, core, families
from noncent.presentation import enumerate_presentation, parse


@pytest.fixture(scope="session")
def order8_entries():
    return catalog.load(catalog.shipped_path("order8.cat"))


@pytest.fixture(scope="session")
def order16_entries():
    return catalog.load(catalog.shipped_path("order16.cat"))


@pytest.fixture(scope="session")
def order32_entries():
    return catalog.load(catalog.shipped_path("order32.cat"))


@pytest.fixture(scope="session")
def order64_entries():
    return catalog.load(catalog.shipped_path("order64.cat"))


@pytest.fixture(scope="session")
def small_corpus():
    """Hand-built groups spanning the structural cases the suite leans on."""
    return [
        ("C1", families.cyclic(1)),
        ("C6", families.cyclic(6)),
        ("C2xC2", families.elementary_abelian(2, 2)),
        ("S3", families.dihedral(3)),
        ("D8", families.dihedral(4)),
        ("Q8", families.generalized_quaternion(8)),
        ("D16", families.dihedral(8)),
        ("Q16", families.generalized_quaternion(16)),
        ("M16", families.modular_M(16)),
        ("M32", families.modular_M(32)),
        ("H27", families.heisenberg(3)),
        ("D8xC3", core.direct_product(families.dihedral(4), families.cyclic(3))),
        ("D8xC2", core.direct_product(families.dihedral(4), families.cyclic(2))),
        ("D8xC4", core.direct_product(families.dihedral(4), families.cyclic(4))),
    ]


@pytest.fixture(scope="session")
def split_corpus(small_corpus, order16_entries, order32_entries, order64_entries):
    """small_corpus and the shipped groups of order 16, 32 and 64."""
    entries = list(order16_entries) + list(order32_entries) + list(order64_entries)
    return list(small_corpus) + [(e.label, e.group()) for e in entries]


@pytest.fixture(scope="session")
def d8_central_product_c8():
    """D8 o C8 (order 32): regular and reduced, though its center is cyclic of
    order 8 and the image of that center in G/G' is a direct summand of order 4."""
    return enumerate_presentation(parse(
        "< a,b,c | a^4, b^2, b*a*b = a^-1, c^8, c^4 = a^2, a*c = c*a, b*c = c*b >"))
