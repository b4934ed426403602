import pytest
from hypothesis import settings

from skewcodes.fields import (
    FieldEmbedding,
    FieldSpec,
    FrobeniusAut,
    get_field,
    preset_names,
)
from skewcodes.skewpoly import SkewRing

# Property tests draw the same examples on every run and stay within a
# bounded share of the suite's time.
settings.register_profile(
    "skewcodes", derandomize=True, deadline=None, max_examples=80, database=None
)
settings.load_profile("skewcodes")


@pytest.fixture(scope="session")
def F2():
    return get_field("F2")


@pytest.fixture(scope="session")
def F4():
    return get_field("F4")


@pytest.fixture(scope="session")
def F8():
    return get_field("F8")


@pytest.fixture(scope="session")
def F9():
    return get_field("F9")


@pytest.fixture(scope="session")
def F16():
    return get_field("F16")


@pytest.fixture(scope="session")
def F27():
    return get_field("F27")


@pytest.fixture(scope="session")
def F64():
    return get_field("F2_6")


@pytest.fixture(scope="session")
def F4096():
    return get_field("F2_12")


@pytest.fixture(scope="session")
def R2(F2):
    return SkewRing(F2, 1)


@pytest.fixture(scope="session")
def R4(F4):
    """F4[x; sigma], sigma the squaring map."""
    return SkewRing(F4, 1)


@pytest.fixture(scope="session")
def R8(F8):
    return SkewRing(F8, 1)


@pytest.fixture(scope="session")
def R9(F9):
    return SkewRing(F9, 1)


@pytest.fixture(scope="session")
def R16(F16):
    return SkewRing(F16, 1)


@pytest.fixture(scope="session")
def R27(F27):
    return SkewRing(F27, 1)


@pytest.fixture(scope="session")
def R64(F64):
    return SkewRing(F64, 1)


@pytest.fixture(scope="session")
def mirror_rings(R8, R16, F16, F64):
    """Rings for the left-sided tests.  For R8 and R16 the mirror twist d - e
    does not divide d, so the mirror is no SkewRing; F16 with e = 2 and
    F2_6 with e = 2, 3 cover the other twists."""
    return [R8, R16, SkewRing(F16, 2), SkewRing(F64, 2), SkewRing(F64, 3)]


@pytest.fixture(scope="session")
def tower(F64, F4096):
    """The embedding F_2^6 -> F_2^12 used by the designed-distance examples."""
    return FieldEmbedding(F64, F4096)


@pytest.fixture(scope="session")
def aut4(F4):
    return FrobeniusAut(F4, 1)


# Table fields beyond the presets: the largest table field (XOR addition),
# odd fields past one chunk with even degree (the half-width addition table),
# with p^ceil(d/2) > 256 (digit-by-digit addition) and of degree 1 (addition
# mod p); F_5^4, a half-width field too, has scalars in F_p other than +-1.
EXTRA_FIELDS = {
    "F2_16": (2, (1, 1, 0, 1) + (0,) * 8 + (1, 0, 0, 0, 1)),
    "F3_10": (3, (1, 0, 2) + (0,) * 7 + (1,)),
    "F3_6": (3, (2, 1, 0, 0, 0, 0, 1)),
    "F7_5": (7, (3, 1, 0, 0, 0, 1)),
    "F37_3": (37, (2, 0, 0, 1)),
    "F4099": (4099, (1, 1)),
    "F5_4": (5, (2, 0, 0, 0, 1)),
}
# Fields above the 2^16 table limit, served by the polynomial kernel: the
# carry-less product (p = 2) and Kronecker products for odd p, with slot
# widths that grow with p, a dense modulus whose x^6 term makes the reduction
# fold six times (F5_7) and p^2 > 256, one digit per chunk (F17_4).
BIG_FIELDS = {
    "F2_17": (2, (1, 0, 0, 1) + (0,) * 13 + (1,)),
    "F3_11": (3, (2, 0, 1) + (0,) * 8 + (1,)),
    "F5_7": (5, (1, 0, 0, 0, 0, 1, 4, 1)),
    "F17_4": (17, (8, 0, 1, 16, 1)),
}
PRESETS = preset_names()


def held_tables(F):
    """name -> list for each table F's kernel holds: the antilog, log and
    Frobenius tables of a table kernel and the digit-add table its adder
    reads, if any (none for p = 2, a prime field, or p^ceil(d/2) > 256).
    The kernel is the tables' one owner, so this is {} before the first
    operation and, with no table of the field, above 2^16 elements."""
    kern = F._kernel
    tables = {name: getattr(kern, name) for name in ("exp", "log", "frob") if hasattr(kern, name)}
    cells = getattr(getattr(kern, "add", None), "__closure__", None) or ()
    tables.update(("add", cell.cell_contents) for cell in cells
                  if isinstance(cell.cell_contents, list))
    return tables


@pytest.fixture(scope="session")
def field_named():
    """name -> FieldSpec for a preset or an EXTRA_FIELDS or BIG_FIELDS entry,
    one per session."""
    cache = {}

    def get(name):
        if name not in cache:
            if name in EXTRA_FIELDS or name in BIG_FIELDS:
                p, mod = {**EXTRA_FIELDS, **BIG_FIELDS}[name]
                cache[name] = FieldSpec(p, mod, name=name)
            else:
                cache[name] = get_field(name)
        return cache[name]

    return get
