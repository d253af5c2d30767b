"""Unitals, their confluence graphs, and mechanical theorem checks.

Library layout:

  algebra      GF(q) addition and multiplication tables
  incidence    incidence structures, classical constructions, O'Nan search
  confluence   block-intersection graphs, strong regularity, ratio bound
  cliques      maximal-clique enumeration and pencil/near-pencil tags
  linspace     q^2-point linear space classification and embeddings
  reconstruct  unital reconstruction from the bare graph, isomorphism
  cli          command-line interface (`unitals ...`)
"""

from .algebra import Field, field_create
from .cliques import (
    CliqueClassification,
    classify_clique,
    enumerate_maximal_cliques,
    max_clique_size,
)
from .confluence import (
    ConfluenceGraph,
    SrgParams,
    build_confluence,
    expected_unital_params,
    hoffman_bound,
    infer_order,
    read_dimacs,
    srg_check,
)
from .incidence import (
    DesignReport,
    IncidenceStructure,
    OnanConfiguration,
    affine_plane,
    conic_points,
    count_onan,
    find_onan,
    hermitian_unital,
    projective_plane,
    puncture,
    read_json,
    validate,
    validate_unital,
)
from .linspace import (
    EmbeddingWitness,
    LinSpaceClass,
    check_assumptions,
    classify,
    complete_to_plane,
    embedding_errors,
    projective_lines,
    thin_points,
)
from .reconstruct import (
    extend_graph_isomorphism,
    isomorphic,
    reconstruct_unital,
)

__version__ = "0.1.0"
