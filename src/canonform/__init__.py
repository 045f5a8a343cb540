"""canonform: canonical-form construction functions for relational data types.

Declare an inductive type, tag constructors with equational attributes
(associativity, commutativity, neutral element, inverse, idempotence,
nilpotence) or give rewrite rules, and get back construction functions that
only ever build canonical representatives, plus oracles that check them.
"""

from .acnf import build_comb, comb, is_ac_normal, leaves, sort_combs
from .builder import (
    CompiledClause,
    CompiledFamily,
    compile_family,
    compile_rules,
    construct,
    delete,
    insert,
    insert_inv,
    inverse_cf,
    linearize,
    normalize,
)
from .errors import (
    CanonError,
    OracleError,
    ParseError,
    PositionError,
    ShapeError,
    SignatureError,
    SortError,
    TheoryError,
)
from .hashcons import HashConsTable
from .oracle import (
    ClosureBudget,
    ValidationReport,
    algebraic_equal,
    closure_classes,
    closure_equal,
    find_redex,
    semantic_key,
    validate_family,
    validate_terms,
)
from .syntax import parse_definition, parse_ground_term
from .terms import (
    EQ,
    GT,
    LT,
    App,
    ConstructorDecl,
    Prim,
    Signature,
    Term,
    Var,
    compare,
    enumerate_ground,
    format_term,
    is_ground,
    positions,
    replace_at,
    size,
    sort_of,
    subterm_at,
    well_sorted,
)
from .theory import (
    Assoc,
    Classification,
    Com,
    Idem,
    Inv,
    Neu,
    Nil,
    RewriteRule,
    TheorySpec,
    Type2Theory,
    Variant,
    builtin_presentation,
    classify,
    equations_of,
)

__version__ = "0.1.0"
