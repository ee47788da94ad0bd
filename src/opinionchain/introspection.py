"""Read-only analyses of a trained sequence model.

Everything here resolves parameter indices through the feature schema,
so reports speak in feature names and words rather than raw positions.
Under a context window, pass the schema's ``windowed`` layout: names
then carry the neighbour offset, and activation words read the centre.
The rankings are deterministic: weight ties fall back to ascending
feature index, score ties to lexicographic word order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LABEL_NAMES
from .errors import ConfigurationError, InvalidInputError
from .features.embeddings import EmbeddingTable
from .features.pipeline import FeatureSchema
from .model import HcrfParameters


def _check_schema(theta: HcrfParameters, schema: FeatureSchema):
    if schema.dim != theta.feature_dim:
        raise ConfigurationError(
            f"schema dimension {schema.dim} != model feature dimension {theta.feature_dim}"
        )


def top_features_per_state(
    theta: HcrfParameters, schema: FeatureSchema, k: int = 30
) -> list[list[tuple[str, float]]]:
    """Per hidden state, the k largest strictly positive observation
    weights as (feature name, weight), descending."""
    _check_schema(theta, schema)
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    out = []
    for row in theta.theta_obs:
        order = sorted(range(len(row)), key=lambda i: (-row[i], i))
        ranked = [
            (schema.feature_names[i], float(row[i])) for i in order if row[i] > 0.0
        ]
        out.append(ranked[:k])
    return out


def _embedding_weight_rows(theta: HcrfParameters, schema: FeatureSchema) -> np.ndarray:
    """Observation weights restricted to the embedding vector dimensions
    (the trailing coverage flag is excluded)."""
    _check_schema(theta, schema)
    try:
        block = schema.block_slice("embedding")
    except KeyError:
        raise ConfigurationError(
            "model was trained without an embedding block; activation words need one"
        ) from None
    vec_dims = slice(block.start, block.stop - 1)  # last dim is the coverage flag
    return theta.theta_obs[:, vec_dims]


def activation_words(
    theta: HcrfParameters,
    schema: FeatureSchema,
    state: int,
    table: EmbeddingTable,
    corpus_vocab,
    k: int = 10,
) -> list[tuple[str, float]]:
    """Corpus words whose embeddings project largest onto a state's
    embedding-block weights, descending; ties lexicographic."""
    weights = _embedding_weight_rows(theta, schema)
    if not 0 <= state < theta.num_hidden_states:
        raise InvalidInputError(f"state {state} out of range")
    if weights.shape[1] != table.dim:
        raise ConfigurationError(
            f"embedding block width {weights.shape[1]} != table dimension {table.dim}"
        )
    direction = weights[state]
    scored = {}
    for word in corpus_vocab:
        key = word.lower() if table.lowercase else word
        if key in scored:
            continue
        vec = table.lookup(word)
        if vec is not None:
            scored[key] = float(vec @ direction)
    ranked = sorted(scored.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


@dataclass(frozen=True)
class StateCharacter:
    alignments: tuple[int | None, ...]  # label index per state, None = neutral
    margin: float
    transitions: tuple  # per label, the raw transition weight matrix


def state_character(theta: HcrfParameters, margin: float | None = None) -> StateCharacter:
    """Classify each state as aligned to one label or neutral.

    A state is aligned to label y when its compatibility advantage
    θ_s(y,h) − θ_s(y',h) strictly exceeds the margin; the default margin
    is one standard deviation of all compatibility entries, so an
    all-zero table yields all-neutral states.
    """
    if theta.num_labels != 2:
        raise InvalidInputError("state alignment is defined for two-label models")
    if margin is None:
        margin = float(np.std(theta.theta_state))
    if margin < 0:
        raise InvalidInputError("margin must be >= 0")
    alignments = []
    for h in range(theta.num_hidden_states):
        advantage = float(theta.theta_state[0, h] - theta.theta_state[1, h])
        if advantage > margin:
            alignments.append(0)
        elif -advantage > margin:
            alignments.append(1)
        else:
            alignments.append(None)
    transitions = tuple(
        tuple(tuple(float(v) for v in row) for row in theta.theta_trans[y])
        for y in range(theta.num_labels)
    )
    return StateCharacter(
        alignments=tuple(alignments), margin=margin, transitions=transitions
    )


@dataclass(frozen=True)
class StateSummary:
    state: int
    label_compatibilities: tuple[float, ...]  # θ_s(y, h) per label
    alignment: int | None
    top_features: tuple[tuple[str, float], ...]
    top_words: tuple[tuple[str, float], ...]  # empty without an embedding table


@dataclass(frozen=True)
class StateReport:
    states: tuple[StateSummary, ...]
    label_names: tuple[str, ...]
    margin: float
    transitions: tuple

    def render_text(self) -> str:
        lines = ["state-report/v1", ""]
        lines.append(f"neutral margin: {self.margin:.4f}")
        for summary in self.states:
            lines.append("")
            tag = (
                "neutral"
                if summary.alignment is None
                else f"aligned:{self.label_names[summary.alignment]}"
            )
            lines.append(f"state {summary.state} [{tag}]")
            compat = "  ".join(
                f"{name}={value:+.3f}"
                for name, value in zip(self.label_names, summary.label_compatibilities)
            )
            lines.append(f"  compatibility: {compat}")
            if summary.top_features:
                lines.append("  top features:")
                for name, weight in summary.top_features:
                    lines.append(f"    {weight:+.4f}  {name}")
            else:
                lines.append("  top features: (none positive)")
            if summary.top_words:
                lines.append("  activation words:")
                for word, score in summary.top_words:
                    lines.append(f"    {score:+.4f}  {word}")
        lines.append("")
        lines.append("transition weights by label (rows from-state, columns to-state)")
        for y, name in enumerate(self.label_names):
            lines.append(f"  label {name}:")
            for row in self.transitions[y]:
                lines.append("    " + "  ".join(f"{v:+.3f}" for v in row))
        return "\n".join(lines) + "\n"

    def to_jsonable(self) -> dict:
        return {
            "format": "state-report/v1",
            "margin": self.margin,
            "label_names": list(self.label_names),
            "states": [
                {
                    "state": s.state,
                    "label_compatibilities": list(s.label_compatibilities),
                    "alignment": None
                    if s.alignment is None
                    else self.label_names[s.alignment],
                    "top_features": [[n, w] for n, w in s.top_features],
                    "activation_words": [[w, v] for w, v in s.top_words],
                }
                for s in self.states
            ],
            "transitions": [
                [list(row) for row in self.transitions[y]]
                for y in range(len(self.label_names))
            ],
        }


def build_state_report(
    theta: HcrfParameters,
    schema: FeatureSchema,
    k: int = 10,
    embedding_table: EmbeddingTable | None = None,
    corpus_vocab=(),
    label_names: tuple[str, ...] = LABEL_NAMES,
) -> StateReport:
    if len(label_names) != theta.num_labels:
        raise InvalidInputError("label_names must match the model's label count")
    character = state_character(theta)
    features = top_features_per_state(theta, schema, k)
    summaries = []
    for h in range(theta.num_hidden_states):
        words: list[tuple[str, float]] = []
        if embedding_table is not None:
            words = activation_words(theta, schema, h, embedding_table, corpus_vocab, k)
        summaries.append(
            StateSummary(
                state=h,
                label_compatibilities=tuple(
                    float(theta.theta_state[y, h]) for y in range(theta.num_labels)
                ),
                alignment=character.alignments[h],
                top_features=tuple(features[h]),
                top_words=tuple(words),
            )
        )
    return StateReport(
        states=tuple(summaries),
        label_names=label_names,
        margin=character.margin,
        transitions=character.transitions,
    )
