"""Names, units and directions of every metric the benchmark prints.

A *call* is what the benchmark times as one unit and repeats unchanged: a
train() run, a restore round over the held-out split, or one request. An
*operation* (op) is a train step on train_synth and one restored sample on
the two restore workloads. Per-layer figures are per op unless the
description says otherwise; a layer a workload never calls reads 0.
BENCHMARK.json at the repository root repeats the names, units and
directions, and smoke.py checks that the two agree.
"""

# (name, unit, better, description)
END_TO_END = (
    ("setup_s", "s", "lower",
     "median wall time of one set-up (inputs, labels, vocabulary, model)"),
    ("samples_per_s", "1/s", "higher",
     "samples processed per second of call time, over the whole run"),
    ("peak_rss_mb", "MB", "lower",
     "peak resident set size of the benchmark process"),
)

PER_LAYER = (
    ("autodiff.backward_ms", "ms", "lower", "model.backward via training"),
    ("autodiff.graph_nodes", "count", "lower", "Tensor objects created"),
    ("model.encode_ms", "ms", "lower", "encoder forward"),
    ("model.decode_forward_ms", "ms", "lower", "decoder forward"),
    ("model.decode_forward_calls", "count", "lower", "decoder forward calls"),
    ("model.decoder_positions", "count", "lower",
     "sum of rows x prefix length fed to decode_forward"),
    ("model.picker_forward_ms", "ms", "lower", "picker head forward"),
    ("model.save_checkpoint_ms", "ms", "lower", "checkpoint writes"),
    ("training.loss_ms", "ms", "lower",
     "generator_loss + picker_loss + joint_loss"),
    ("training.clip_gradients_ms", "ms", "lower", "global-norm clipping"),
    ("training.optimizer_step_ms", "ms", "lower", "AdamW update"),
    ("training.train_self_ms", "ms", "lower",
     "train() minus every timed call it makes"),
    ("training.skipped_steps", "count", "lower",
     "non-finite steps skipped in the traced phase (total, not per op)"),
    ("encoding.encode_sample_ms", "ms", "lower", "sample serialization"),
    ("encoding.collate_ms", "ms", "lower", "batch padding"),
    ("encoding.build_input_ms", "ms", "lower", "restore-time serialization"),
    ("decoding.beam_self_ms", "ms", "lower",
     "beam_search minus encode and decoder forward: candidates, sort, prune"),
    ("decoding.restore_self_ms", "ms", "lower",
     "restore() minus build_input and beam_search"),
    ("decoding.candidates", "count", "lower",
     "sum over beam rounds of live hypotheses x vocabulary size"),
    ("decoding.candidate_keep_ratio", "ratio", "higher",
     "surviving hypotheses / candidates built"),
    ("metrics.evaluate_ms", "ms", "lower", "evaluate(), label_sample included"),
    ("labeling.label_sample_ms", "ms", "lower", "labels derived by evaluate()"),
    ("labeling.label_corpus_s", "s", "lower",
     "label_corpus in set-up, median over set-ups (not per op)"),
    ("trace.samples_per_s", "1/s", "higher", "samples_per_s with tracing on"),
    ("trace.overhead_pct", "%", "lower",
     "untraced samples_per_s of the same run over the traced one, minus 1"),
    ("trace.top_span_coverage", "ratio", "higher",
     "sum of top-level spans / wall time of the traced phase"),
)
