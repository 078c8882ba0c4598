"""Consecutive edge-magic labelings: constructions, transforms, verification, search."""

from .graphs import (Bipartition, CaterpillarSpec, FamilyHandle, Graph, GraphError,
                     bipartition_of, build_caterpillar, build_complete_bipartite,
                     build_cycle, build_double_star, build_lobster, build_path,
                     build_star, graph_from_dict, graph_of, is_connected)
from .labelings import (LabelingClassification, LabelingError, TotalLabeling,
                        VertexLabeling, check_total_labeling, classify,
                        is_graceful, magic_constant_of, neighbor_block_holds)
from .constructions import (ConstructionError, caterpillar_beta_labeling,
                            caterpillar_super_labeling, double_star_consecutive, dual,
                            lambda_star, to_graceful, to_super_edge_magic)
from .search import (DEFAULT_BUDGET, BudgetExceeded, SearchError, SearchQuery,
                     SearchReport, compute_automorphisms, count_canonical,
                     feasible_b_set, feasible_k_set, find_consecutive, find_edge_magic,
                     find_graceful)
from .analysis import (ConstantFormWitness, TheoremReport, caterpillar_suite,
                       classify_trichotomy, closing_claims_suite, constant_form_check,
                       double_star_suite, format_report_table, lobster_b_set,
                       lobster_suite, predicted_b_candidates)

__version__ = "0.1.0"
