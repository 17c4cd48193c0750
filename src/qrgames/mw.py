"""Single-stage 2x2 quantum game in the bit-flip protocol.

Both players share a two-qubit state; player 1 may flip qubit 1 and
player 2 qubit 2.  Payoffs are expectations of the diagonal observables
carrying the stage game's payoff entries, so the whole game collapses
to a 2x2 bimatrix over the operator choices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import PureState
from .stagegames import Bimatrix, StageGame


def stage_weights(stage: StageGame) -> np.ndarray:
    """Both players' payoffs as weights over a qubit pair's four patterns.

    Row ``player - 1`` holds the payoffs at bit patterns 00, 01, 10, 11
    of the pair (first qubit most significant), the layout
    :func:`pair_table` permutes.  A read-only view of ``stage.array``.
    """
    return stage.array.reshape(4, 2).T


# The read-only index ``[f, z] -> z ^ f`` over a qubit pair's four patterns.
_XOR_PATTERNS = np.arange(4)[:, None] ^ np.arange(4)
_XOR_PATTERNS.setflags(write=False)


def pair_table(stage: StageGame) -> np.ndarray:
    """Both players' payoffs on a qubit pair under every flip of the pair.

    Entry ``[player - 1, f, z]`` is the payoff at pattern ``z ^ f``: what
    the pair pays when it is found at pattern z after flips f.  Flips
    only permute amplitudes, so ``pair_table(stage) @ marginal`` is the
    (player, f) table of expected payoffs under every flip f, where
    ``marginal`` is the pair's Born distribution before the flips.  On a
    basis state the marginal is one-hot, so every entry is a payoff read
    exactly.
    """
    return stage_weights(stage)[..., _XOR_PATTERNS]


@dataclass(frozen=True)
class MWGame:
    """One stage game played through a shared two-qubit state."""

    initial: PureState
    stage: StageGame

    def __post_init__(self) -> None:
        if self.initial.num_qubits != 2:
            raise ValueError("the single-stage game runs on exactly 2 qubits")


def mw_bimatrix(game: MWGame) -> Bimatrix:
    """The 2x2 bimatrix the protocol induces over operator choices.

    Cell (k1, k2) holds both players' expected payoffs after applying
    flip bits k1 and k2 to qubits 1 and 2.  On a basis initial state
    this is a relabeling of the stage table; on a superposition each
    cell mixes outcome entries with the Born weights.
    """
    values = pair_table(game.stage) @ game.initial.probabilities
    u1, u2 = values.reshape(2, 2, 2)
    return Bimatrix(u1, u2, row_labels=("0", "1"), col_labels=("0", "1"))
