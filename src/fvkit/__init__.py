"""fvkit: compositional model checking on finite relational structures.

Decompose formulas over sum-like binary operations into component reductions,
decide prefix and tree-prefix comparison games, and enumerate semantic
formula classes over finite test beds.
"""

from .errors import (BudgetExceeded, CapExceeded, FvError, ParseError,
                     ValidationError)
from .formula import (And, Classification, Exists, Forall, Formula,
                      Literal, Or, PI, PVar, PropFormula, SIGMA, TOP, BOT,
                      Vocabulary,
                      alpha_normalize, block_uniform, classify, formula_size,
                      free_variables, in_pi, in_sigma, is_quantifier_free,
                      negate_dual,
                      parse_formula, print_formula, quantifier_rank,
                      random_formula, substitute, vocabulary_from_json,
                      vocabulary_to_json)
from .structure import (MARK, Structure, annotated_disjoint_union,
                        is_partial_isomorphism, load_structure,
                        save_structure, structure_from_json,
                        structure_to_json)
from .modelcheck import assignment_from_json, assignment_to_json, evaluate
from .interp import (Interpretation, SumLikeOp, apply_interpretation,
                     apply_sum_like, builtin, interpretation_from_json,
                     interpretation_to_json, load_interpretation,
                     transform_formula)
from .decompose import (ReductionSequence, VarPartition,
                        decompose, decompose_over_op, eval_prop,
                        eval_reduction, normalize_pairs, prop_from_json,
                        prop_to_json, reduction_from_json, reduction_stats,
                        reduction_to_json, simplify_reduction)
from .efgame import (GameConfig, Player, find_separator, prefix_game_winner,
                     tree_prefix_game_winner)
from .enumeration import (EnumerationCaps, SemanticClass, TestBed,
                          count_bound_check, enumerate_classes, tower,
                          transfer_oracle)
from .cli import run

__version__ = "0.1.0"

__all__ = [
    "And", "BudgetExceeded", "BOT", "CapExceeded", "Classification",
    "EnumerationCaps", "Exists", "Forall",
    "Formula", "FvError", "GameConfig", "Interpretation", "Literal", "MARK",
    "Or", "PVar",
    "ParseError", "PI", "Player", "PropFormula", "ReductionSequence",
    "SIGMA", "SemanticClass", "Structure", "SumLikeOp",
    "TOP", "TestBed", "ValidationError", "VarPartition",
    "Vocabulary", "alpha_normalize", "annotated_disjoint_union",
    "apply_interpretation", "apply_sum_like", "assignment_from_json",
    "assignment_to_json", "block_uniform", "builtin", "classify",
    "count_bound_check", "decompose", "decompose_over_op",
    "enumerate_classes", "eval_prop", "eval_reduction", "evaluate",
    "find_separator", "formula_size", "free_variables",
    "in_pi", "in_sigma", "interpretation_from_json", "interpretation_to_json",
    "is_partial_isomorphism", "is_quantifier_free", "load_interpretation",
    "load_structure", "negate_dual", "normalize_pairs", "parse_formula",
    "prefix_game_winner", "print_formula", "prop_from_json",
    "prop_to_json", "quantifier_rank", "random_formula",
    "reduction_from_json", "reduction_stats", "reduction_to_json", "run",
    "save_structure", "simplify_reduction", "structure_from_json",
    "structure_to_json", "substitute", "tower", "transfer_oracle",
    "transform_formula", "tree_prefix_game_winner", "vocabulary_from_json",
    "vocabulary_to_json",
]
