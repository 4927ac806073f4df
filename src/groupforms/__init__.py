"""groupforms: exact subgroup-predicate engine for small permutation groups.

Core surface: permutation groups with full element enumeration
(``permgroup``), subgroup enumeration up to conjugacy and the full lattice of
the ``lattice`` command (``lattice``), formations and residuals
(``formations``), the chain predicates (``subnormal``), structure checkers
(``structure``), named constructors and the catalog (``catalog``), group
files and lattice caches (``groupfile``), and the CLI (``cli``).
"""

from .permgroup import (
    Budgets,
    FiniteGroup,
    GroupBudgetError,
    GroupError,
    GroupHom,
    SubgroupRef,
    core,
    derived_series,
    derived_subgroup,
    direct_product,
    fitting,
    is_abelian,
    is_elementary_abelian,
    is_nilpotent,
    is_soluble,
    lower_central_series,
    normal_closure,
    normalizer,
    perm_from_cycle_text,
    perm_to_cycle_text,
    prime_divisors,
    quotient,
    semidirect_product,
    sylow_subgroup,
)
from .lattice import (
    SubgroupLattice,
    all_subgroups,
    interval,
    minimal_overgroups,
    normal_subgroups,
)
from .formations import (
    ABELIAN,
    BUILT_IN,
    Formation,
    FormationVerificationError,
    NILPOTENT,
    NILPOTENT_DERIVED,
    SOLUBLE,
    SUPERSOLUBLE,
    formation_by_name,
    residual,
)
from .subnormal import (
    ChainWitness,
    f_subnormal_witness,
    is_abnormal,
    is_absolutely_f_subnormal,
    is_f_abnormal,
    is_f_subnormal,
    is_self_normalizing,
)
from .structure import (
    TheoremVerdict,
    carter_subgroups,
    check_corollary1,
    check_corollary2,
    check_lemma_suite,
    check_theorem1,
    check_theorem2,
    is_ef_group,
    primary_cyclic_subgroups,
    verify_paper_example,
)
from .catalog import build_named, catalog_groups, load_example864
from .groupfile import (
    CacheMismatchError,
    GroupFileError,
    cache_load,
    cache_save,
    emit_group_text,
    parse_group_file,
    parse_group_text,
    write_group_file,
)
from .reports import TOOL_VERSION as __version__
from .reports import VerdictReport
