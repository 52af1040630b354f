"""Time-domain speech separation with dual-path transformers and pluggable
efficient self-attention (full, sliding-window/global, low-rank projected,
and LSH-bucketed), plus the cost profiler that checks their complexity."""

from .attention import (AttentionSpec, SequenceTooLongError,
                        multi_head_dispatch, positional_encoding)
from .datagen import (MixSpec, Signal, WavFormatError, dynamic_mix,
                      speed_perturb, synth_sources, wav_read, wav_write)
from .dualpath import chunk, overlap_add
from .model import (CheckpointError, SeparationOutput, Sepformer,
                    SepformerConfig, load_checkpoint, parameter_census,
                    save_checkpoint)
from .ndkernel import (InputTooShortError, ShapeError, Tape, Tensor,
                       record_macs, set_debug_checks, track_memory)
from .objectives import (OptimState, PitResult, TrainingDivergedError,
                         UndefinedTargetError, adam_step, clip_gradients,
                         pit_loss, si_snr, si_snr_db, si_snr_improvement,
                         train_toy)
from .profiler import (CostReport, bench_forward, count_macs,
                       count_macs_detailed)

__version__ = "0.1.0"
