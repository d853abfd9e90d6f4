"""Vibration-based structural health monitoring with masked-autoencoder
foundation models: signal preprocessing, self-supervised pretraining,
anomaly-detection and traffic-estimation fine-tuning, distillation, and the
classic baselines they are compared against.
"""

from .errors import (
    CalibrationError,
    ConfigError,
    DataError,
    DivergenceError,
    EmptyInputError,
    FormatError,
    ShmFomoError,
)
from .signal_pipeline import (
    DatasetBuildResult,
    PipelineConfig,
    RawRecording,
    SpectrogramWindow,
    TimeWindow,
    build_dataset,
    chronological_split,
    compute_target,
    energy_keep,
    make_windows,
    normalize,
    spectrogram,
)
from .mae_model import (
    MaeModel,
    ModelConfig,
    SIZE_FAMILY,
    attach_regression_head,
    build_model,
    forward_regress,
    load_model,
    patchify,
    reconstruction_error,
    sample_mask,
    save_model,
)
from .trainer import (
    KDConfig,
    TrainLog,
    TrainPlan,
    clip_gradients,
    finetune_ad,
    finetune_kd,
    finetune_tle,
    kd_loss,
    lr_at,
    pretrain,
)

__version__ = "0.1.0"
