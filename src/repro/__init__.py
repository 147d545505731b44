"""Reproduction of Angel-PTM (VLDB 2023).

A page-based hierarchical-memory training system: fine-grained Page memory
management, a unified life-time-based scheduler (Algorithm 1), a lock-free
SSD update mechanism (Algorithm 2), ZeRO-style data parallelism, and the
discrete-event and functional substrates needed to reproduce the paper's
evaluation without GPU hardware.

Quickstart (the paper's Figure 6 interface, via the unified facade)::

    from repro import api, nn

    model = nn.TinyTransformerLM(vocab_size=64, d_model=32, d_ffn=64,
                                 num_heads=4, num_layers=2)
    optimizer = nn.MixedPrecisionAdam(model.parameters(), lr=3e-3)
    engine = api.initialize(model, optimizer, api.AngelConfig(pipeline=True))
    for batch in nn.lm_synthetic_batches(64, 16, 8, 100):
        loss = engine(batch)
        engine.backward(loss)
        engine.step()

``repro.api`` also fronts profiling (``api.profile``), chaos testing
(``api.chaos``), run reports (``api.report``) and static verification
(``api.check``).
"""

from repro import api, errors, units

__version__ = "1.0.0"

__all__ = ["api", "errors", "units", "__version__"]
