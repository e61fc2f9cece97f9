"""Speech-emotion analysis pipeline.

Trains a small from-scratch 1-D CNN on MFCC-family features of acted
emotional speech (6 classes), evaluates it, and aggregates per-session
emotion distributions over labeled segment corpora.
"""

from .audio_io import (EMOTIONS, EMOTION_INDEX, RavdessMeta, parse_ravdess_name, read_wav,
                       resample, scan_corpus, wav_bytes)
from .checkpoint import Checkpoint, FeatureSettings, load_checkpoint, save_checkpoint
from .config import RunConfig
from .features import (FeatureMatrix, NormalizationProfile, assemble_features,
                       delta, frame_signal, mfcc, rms, zcr)
from .nn import Model, ModelSpec, RmsProp, softmax_xent
from .session import (SegmentRecord, SessionReport, classify_session,
                      filter_fan, load_manifest, render_report,
                      synthesize_session)
from .train_eval import Metrics, TrainConfig, evaluate, split_dataset, train

__version__ = "0.1.0"
