"""Shared helpers for the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.angel import AngelConfig, initialize
from repro.nn.data import lm_synthetic_batches
from repro.nn.layers import Module
from repro.nn.optim import MixedPrecisionAdam


@dataclass
class Report:
    """A printable table: title, column headers, rows of cells."""

    title: str
    columns: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        self.rows.append([str(c) for c in cells])

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

        lines = [self.title, "=" * len(self.title), fmt(self.columns)]
        lines.append("-" * len(lines[-1]))
        lines += [fmt(row) for row in self.rows]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)


def train_and_validate(
    model: Module,
    update_interval: int,
    num_batches: int,
    vocab_size: int,
    seq_len: int,
    batch_size: int,
    seed: int,
    lr: float,
) -> tuple[list[float], float]:
    """Train ``model`` on the engine with one update sweep per
    ``update_interval`` steps (Algorithm 2's staleness; 1 is synchronous),
    then evaluate it on ten held-out batches drawn from the training
    chain. Returns (training losses, mean validation loss)."""
    optimizer = MixedPrecisionAdam(model.parameters(), lr=lr)
    config = AngelConfig(lock_free=update_interval > 1, update_interval=update_interval)
    losses = []
    with initialize(model, optimizer, config) as engine:
        for batch in lm_synthetic_batches(
            vocab_size, seq_len, batch_size, num_batches,
            seed=seed + 1, chain_seed=seed,
        ):
            loss = engine(batch)
            engine.backward(loss)
            engine.step()
            losses.append(loss.item())
        valid = [
            engine(batch).item()
            for batch in lm_synthetic_batches(
                vocab_size, seq_len, batch_size, 10, seed=seed + 2, chain_seed=seed
            )
        ]
    return losses, float(np.mean(valid))
