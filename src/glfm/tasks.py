"""Model-backed tasks on fitted states: fill in missing cells, score
held-out cells, and summarize the feature patterns a state assigns to rows.

The states come from `engine.run_chain` (`heldout_benchmark` runs one chain
per split itself): completing a table is
`impute_from_states(run_chain(data, hp, keep_last=m).saved, data)`, the path
the CLI runs. All three prediction tasks read one batched predictive,
`_log_predictive`: log p(x | z) of one attribute under one state, for a block
of feature rows and encoded values at once. Each task makes one array pass
per attribute. Imputation and held-out scoring share its mean over the
states, `_log_mean_predictive`, by one rule at any number of states:
imputation takes the mean of the states' mapped means for a continuous
attribute and otherwise the value of highest mean predictive mass (among
every level, or for a count among the values within 2 of some state's mapped
mean); scoring evaluates it at each held-out cell, every cell-state pair
once (categorical ones once per distinct predictor and value), and
aggregates the per-cell scores per attribute and per split. A pdf evaluates
its whole table at once, a count's spanning the predictive itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from glfm.data import AttributeKind, AttributeSpec, DataMatrix, fit_transforms
from glfm.data import invert_preprocess, preprocess_jacobian
from glfm.engine import Hyperparams, LatentState, run_chain
from glfm.likelihoods import (
    log_prob_count,
    log_prob_ordinal,
    loglik_continuous,
    map_forward,
    prob_categorical,
)
from glfm.randkit import RngState, spawn_seeds

__all__ = [
    "Pattern",
    "as_all_real",
    "compute_pdf",
    "extract_patterns",
    "feature_activation_probs",
    "heldout_benchmark",
    "impute_from_states",
    "make_heldout_masks",
    "predictive_loglik_by_dim",
]

TINY_PROB = 1e-300


@dataclass(frozen=True)
class Pattern:
    """One observed feature-activation pattern (bias column included)."""

    bits: tuple[int, ...]
    count: int
    empirical_prob: float

    @property
    def label(self) -> str:
        return "(" + "".join(str(b) for b in self.bits) + ")"


def _log_predictive(state: LatentState, d: int, Z: np.ndarray, x) -> np.ndarray:
    """log p(x | z) of attribute d under one state, batched over rows.

    Z is an (n, K) matrix of feature rows and x an (n, J) array of encoded
    values, or a length-J sequence shared by every row. Returns (n, J): log
    masses for discrete kinds, log densities on the encoded scale for
    continuous ones. The rows' linear predictors come from one product of Z
    with the attribute's weight columns.
    """
    spec = state.specs[d]
    kind = spec.kind
    B_d = state.B[:, state.dim_cols(d)]
    var_d = float(state.sigma2[d])
    if kind is AttributeKind.CATEGORICAL:
        p = prob_categorical(x, Z, B_d, math.sqrt(var_d))
        return np.log(np.maximum(p, TINY_PROB))
    m = Z @ B_d  # one column: every other kind has a single pseudo-observation
    if kind.is_continuous:
        return loglik_continuous(x, m, var_d + state.hp.sigma_u2, spec, kind)
    if kind is AttributeKind.ORDINAL:
        return log_prob_ordinal(x, m, state.theta[d], math.sqrt(var_d))
    return log_prob_count(x, m, spec, math.sqrt(var_d))


def _count_window(center: np.ndarray) -> np.ndarray:
    """Count candidates center - 2 .. center + 2, ascending along a new last axis;
    values below 0 become 0, and an argmax over their equal scores takes the first."""
    return np.maximum(center[..., None] + np.arange(-2, 3), 0)


def _log_mean_predictive(states: list[LatentState], d: int, rows: np.ndarray, x) -> np.ndarray:
    """log of the states' mean predictive probability of attribute d at `rows`,
    with x as in `_log_predictive`: (len(rows), J), -inf where every state
    gives -inf."""
    lls = np.stack([_log_predictive(s, d, s.Z[rows], x) for s in states])
    top = lls.max(axis=0)
    with np.errstate(invalid="ignore"):
        avg = top + np.log(np.mean(np.exp(lls - top), axis=0))
    return np.where(np.isneginf(top), -np.inf, avg)


def _impute(states: list[LatentState], d: int, rows: np.ndarray) -> np.ndarray:
    """Encoded completions of attribute d at `rows` under the states: the mean
    of their mapped means for a continuous kind, else the candidate of highest
    mean predictive mass, ties going to the lowest. The candidates are every
    level, or for a count each row's union of the states' windows."""
    spec = states[0].specs[d]
    kind = spec.kind
    if kind is AttributeKind.CATEGORICAL or kind is AttributeKind.ORDINAL:
        xs = np.broadcast_to(np.arange(1, spec.R_d + 1), (len(rows), spec.R_d))
    else:
        centers = [map_forward((s.Z[rows] @ s.B[:, s.dim_cols(d)])[:, 0], spec, kind)
                   for s in states]
        if kind.is_continuous:
            return np.mean(centers, axis=0)
        # ascending, so that ties go low
        xs = np.sort(_count_window(np.transpose(centers)).reshape(len(rows), -1), axis=1)
    best = np.argmax(_log_mean_predictive(states, d, rows, xs), axis=1)
    return xs[np.arange(len(rows)), best]


def impute_from_states(states: list[LatentState], data: DataMatrix) -> np.ndarray:
    """Encoded cell matrix with every missing entry filled from the states,
    in one batched pass per attribute."""
    filled = data.cells.copy()
    for d in range(data.n_cols):
        rows = np.flatnonzero(data.missing[:, d])
        if rows.size:
            filled[rows, d] = _impute(states, d, rows)
    return filled


def _cell_scores(
    states: list[LatentState], data: DataMatrix, mask: np.ndarray
) -> dict[int, np.ndarray]:
    """Log predictive of each encoded cell selected by `mask`, averaging
    per-cell probabilities over the states: for every attribute with selected
    cells, one array in ascending row order. Each cell-state pair is
    evaluated once."""
    scores = {}
    for d in range(data.n_cols):
        rows = np.flatnonzero(mask[:, d])
        if rows.size:
            scores[d] = _log_mean_predictive(states, d, rows, data.cells[rows, d][:, None])[:, 0]
    return scores


def predictive_loglik_by_dim(
    states: list[LatentState], data: DataMatrix, mask: np.ndarray
) -> dict[str, dict]:
    """Log predictive of the encoded cells selected by `mask`, averaging
    per-cell probabilities over the states, per attribute in attribute order:
    sum, cell count, mean and kind. Attributes with no selected cell are
    left out."""
    out = {}
    for d, scores in _cell_scores(states, data, np.asarray(mask, dtype=bool)).items():
        spec = data.specs[d]
        total = float(scores.sum())
        out[spec.name] = {
            "sum": total,
            "count": scores.size,
            "mean": total / scores.size,
            "kind": spec.kind.value,
        }
    return out


def make_heldout_masks(
    data: DataMatrix, n_splits: int, rate: float, seed: int = 0
) -> list[np.ndarray]:
    """Random hold-out masks over the observed cells, one per split."""
    if not 0 < rate < 1:
        raise ValueError("rate must be in (0, 1)")
    if n_splits < 1:
        raise ValueError("n_splits must be >= 1")
    observed = ~data.missing
    if not observed.any():
        raise ValueError("the table has no observed cell to hold out")
    masks = []
    for child_seed in spawn_seeds(seed, n_splits):
        gen = RngState(int(child_seed)).gen
        mask = (gen.random(data.cells.shape) < rate) & observed
        if not mask.any():
            first = np.argwhere(observed)[0]
            mask[first[0], first[1]] = True
        masks.append(mask)
    return masks


def heldout_benchmark(
    data: DataMatrix,
    hp: Hyperparams,
    rate: float,
    n_splits: int = 5,
    seed: int = 0,
    average_last: int = 1,
) -> dict:
    """Hide a fraction of the observed cells, refit, and score the hidden
    cells. Transform parameters are refit per split from the visible cells
    only. Returns per-split and averaged log predictive scores."""
    masks = make_heldout_masks(data, n_splits, rate, seed)
    chain_seeds = spawn_seeds(seed + 1, n_splits)
    splits = []
    for i, mask in enumerate(masks):
        train = DataMatrix(
            cells=data.cells,
            missing=data.missing | mask,
            specs=data.specs,
            raw=data.raw,
        )
        try:
            train = fit_transforms(train)
        except ValueError as exc:
            raise ValueError(f"split {i}: {exc}") from None
        chain = run_chain(train, replace(hp, seed=int(chain_seeds[i])), keep_last=average_last)
        scored = DataMatrix(
            cells=data.cells, missing=data.missing, specs=train.specs, raw=data.raw
        )
        by_dim = predictive_loglik_by_dim(chain.saved, scored, mask)
        total = sum(v["sum"] for v in by_dim.values())
        n_cells = int(mask.sum())
        splits.append(
            {
                "total": total,
                "mean": total / n_cells,
                "n_cells": n_cells,
                "per_dim": by_dim,
            }
        )
    return {
        "rate": rate,
        "splits": splits,
        "mean_per_cell": float(np.mean([s["mean"] for s in splits])),
    }


def as_all_real(data: DataMatrix) -> DataMatrix:
    """Reinterpret every attribute as real-valued on its encoded scale.

    This is the degenerate configuration of the model in which category
    indices, levels, and counts are treated as plain Gaussian observations.
    Useful as a baseline against the typed treatment.
    """
    specs = tuple(
        AttributeSpec(
            name=s.name, kind=AttributeKind.REAL, external_preprocess=s.external_preprocess
        )
        for s in data.specs
    )
    return DataMatrix(cells=data.cells, missing=data.missing, specs=specs, raw=data.raw)


def extract_patterns(state: LatentState, top: int | None = None) -> list[Pattern]:
    """Distinct rows of Z with empirical frequencies, most common first.

    Ordering is deterministic: ties keep the lexicographic order of the
    patterns themselves. `top`, when given, keeps that many of the first.
    """
    if top is not None and top < 0:
        raise ValueError(f"top must be >= 0, got {top}")
    Z = state.Z.astype(np.uint8)
    # each row packed into bytes, most significant bit first and zero-padded,
    # so that comparing the bytes compares the rows lexicographically
    packed = np.packbits(Z, axis=1)
    width = packed.shape[1]
    # a state with no feature column has one, empty, pattern
    keys = packed.view(f"V{width}").ravel() if width else np.zeros(state.N, dtype=np.uint8)
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    N = state.N
    patterns = [
        Pattern(
            bits=tuple(Z[first[i]].tolist()),
            count=int(counts[i]),
            empirical_prob=float(counts[i] / N),
        )
        for i in order
    ]
    return patterns[:top] if top is not None else patterns


def feature_activation_probs(state: LatentState) -> np.ndarray:
    """Fraction of rows using each non-bias feature column."""
    return state.col_sums[state.n_bias :] / state.N


def compute_pdf(
    state: LatentState,
    d: int,
    z: np.ndarray,
    n_points: int = 101,
) -> tuple[np.ndarray, np.ndarray]:
    """Predictive distribution of attribute d for feature vector z.

    Discrete kinds return (encoded support, probability mass). Continuous
    kinds return (values in original units, density in original units):
    densities include the mapping change of variables and, when the attribute
    was loaded through a preprocess transform, that transform's Jacobian.
    Categorical and ordinal tables hold every level. A count table holds the
    counts that m +- 8.3 sd maps to (m = z B_d; Phi rounds to 1 beyond 8.3, so
    about 1e-16 of the mass is left out), thinned evenly to n_points with both
    ends kept when there are more. A continuous attribute is evaluated on
    n_points >= 2 points spanning 4 predictive standard deviations either side
    of the mean.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    spec = state.specs[d]
    kind = spec.kind
    Z = np.asarray(z, dtype=float)[None]
    B_d = state.B[:, state.dim_cols(d)]
    var_d = float(state.sigma2[d])
    if kind is AttributeKind.CATEGORICAL:
        # the masses themselves: the TINY_PROB floor belongs to log scores
        xs = np.arange(1, spec.R_d + 1)
        return xs, prob_categorical(xs, Z, B_d, math.sqrt(var_d))[0]
    m = float((Z @ B_d)[0, 0])
    if kind.is_continuous:
        half = 4.0 * math.sqrt(var_d + state.hp.sigma_u2)
        x_enc = map_forward(np.linspace(m - half, m + half, n_points), spec, kind)
        dens = np.exp(_log_predictive(state, d, Z, x_enc)[0])
        return invert_preprocess(spec, x_enc), dens * preprocess_jacobian(spec, x_enc)
    if kind is AttributeKind.ORDINAL:
        xs = np.arange(1, spec.R_d + 1)
    else:
        half = 8.3 * math.sqrt(var_d)
        lo, hi = map_forward(np.array([m - half, m + half]), spec, kind).astype(np.int64)
        n = min(n_points, hi - lo + 1)
        xs = lo + np.arange(n) * (hi - lo) // max(n - 1, 1)
    return xs, np.exp(_log_predictive(state, d, Z, xs)[0])
