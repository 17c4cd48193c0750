"""Simulation and equilibrium analysis of twice-played 2x2 quantum games.

The package models a 2x2 stage game (a dilemma or a coordination game)
played twice through bit-flip protocols on small qubit registers:

- ``mw``: the one-stage protocol on a shared two-qubit state, the
  building block everything else reduces to.
- ``repeated10``: the ten-qubit protocol for two stages: 32x32
  strategy tables, extensive-form trees and the subgame tables.
- ``iqbaltoor``: the rival four-qubit protocol that writes both stages
  before measuring, plus the analysis showing it cannot sustain
  first-stage cooperation in a dilemma.
- ``equilibria``: pure Nash enumeration, strict dominance,
  subgame perfection by backward induction over per-outcome subgames,
  and the cooperation threshold of the entangled stage game.
- ``reference``: the dense paths every table is checked against (ten-qubit
  batch and measure-in-the-middle plays, the four-qubit batch read).
- ``qstate``/``stagegames``: dense state vectors, flips, projective
  pair measurements, ensembles, payoff tables, strategy encodings.
- ``claims``: the nine headline claims, run by ``qrgames paper-repro``
  and the acceptance tests (import it as ``qrgames.claims``).
- ``cli``: the ``qrgames`` command.
"""

from .qstate import (
    OUTCOMES,
    DiagonalObservable,
    Ensemble,
    PureState,
    apply_flips,
    basis_index,
    expectation,
    measure_pair,
    random_state,
    tensor_all,
)
from .stagegames import (
    STRATEGY_LABELS,
    Bimatrix,
    ExpectedPayoffs,
    RepStrategy,
    StageGame,
    all_strategies,
    classical_twice_repeated,
    make_bos,
    make_pd,
    qubit_count,
)
from .mw import MWGame, mw_bimatrix, pair_table
from .iqbaltoor import (
    IT_PURE_STRATEGIES,
    IT_STRATEGY_LABELS,
    ITGame,
    ITStrategy,
    NoCooperationVerdict,
    Stage1Pattern,
    it_expected,
    it_no_cooperation_check,
    it_pure_bimatrix,
    it_stage1_pattern,
    sample_dilemma_state,
)
from .repeated10 import (
    ExtensiveTree,
    RepGame,
    TreeNode,
    build_extensive,
    factor_pairs,
    rep_bimatrix,
    rep_component_tables,
)
from .reference import (
    OutcomeBranch,
    PlayTranscript,
    it_batch_expected,
    outcome_qubit_pair,
    payoff_observable,
    play_batch,
    play_sequential,
    sequential_component_tables,
    strategy_qubit_map,
)
from .equilibria import (
    CooperationAnalysis,
    Equilibrium,
    EquilibriumReport,
    cooperation_bound,
    cooperation_scan,
    pure_nash,
    spe_pair_product,
    strictly_dominated,
)

__version__ = "0.1.0"

__all__ = [
    "OUTCOMES",
    "DiagonalObservable",
    "Ensemble",
    "PureState",
    "apply_flips",
    "basis_index",
    "expectation",
    "measure_pair",
    "random_state",
    "tensor_all",
    "STRATEGY_LABELS",
    "Bimatrix",
    "ExpectedPayoffs",
    "RepStrategy",
    "StageGame",
    "all_strategies",
    "classical_twice_repeated",
    "make_bos",
    "make_pd",
    "qubit_count",
    "MWGame",
    "mw_bimatrix",
    "pair_table",
    "IT_PURE_STRATEGIES",
    "IT_STRATEGY_LABELS",
    "ITGame",
    "ITStrategy",
    "NoCooperationVerdict",
    "Stage1Pattern",
    "it_expected",
    "it_no_cooperation_check",
    "it_pure_bimatrix",
    "it_stage1_pattern",
    "sample_dilemma_state",
    "ExtensiveTree",
    "RepGame",
    "TreeNode",
    "build_extensive",
    "factor_pairs",
    "rep_bimatrix",
    "rep_component_tables",
    "OutcomeBranch",
    "PlayTranscript",
    "it_batch_expected",
    "outcome_qubit_pair",
    "payoff_observable",
    "play_batch",
    "play_sequential",
    "sequential_component_tables",
    "strategy_qubit_map",
    "CooperationAnalysis",
    "Equilibrium",
    "EquilibriumReport",
    "cooperation_bound",
    "cooperation_scan",
    "pure_nash",
    "spe_pair_product",
    "strictly_dominated",
    "__version__",
]
