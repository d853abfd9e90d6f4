"""Vibration-based structural health monitoring with masked-autoencoder
foundation models: signal preprocessing, self-supervised pretraining,
anomaly-detection and traffic-estimation fine-tuning, distillation, and the
classic baselines they are compared against.

Every name lives in the module that defines it (``from shm_fomo import
mae_model``, ``from shm_fomo.io_formats import load_recording``); the package
itself holds only ``__version__``.
"""

__version__ = "0.1.0"
