"""Classifier families, training, prediction and model files.

Each family is one module (``knn``, ``mlp``, ``tree``, ``forest``, ``svm``,
``bayes``) defining ``ALIAS`` (its CLI name), ``SCALED`` (min-max scaled
inputs or raw), ``Params`` (frozen hyperparameter dataclass with a
``seed``), ``CHECKS`` (``(predicate, message)`` range checks),
``fit(x, y, hp) -> state``, ``scores(state, queries)`` (positive-class
scores in [0, 1]) and ``params_out(state)``/``params_in(obj, hp)``, which
map the state to the model file's ``params`` JSON and back.  ``params_in``
reads every float through ``_arrays`` (finite, of the expected shape) and
rejects a structure by raising ``KeyError``, ``TypeError``, ``ValueError``,
``OverflowError`` or ``InvalidHyperparams``; the reader reports it as
``MalformedModel``.
Adding a family takes its module, a ``ClassifierKind`` member and a
``base.FAMILIES`` entry; ``ALL_KINDS``, ``SCALED_KINDS``, ``KIND_ALIASES``,
training, prediction and model files follow from that table.
"""

from .base import (
    ALL_KINDS,
    KIND_ALIASES,
    SCALED_KINDS,
    ClassifierKind,
    Hyperparams,
    Prediction,
    TrainedModel,
    default_hyperparams,
    kind_from_name,
    predict,
    predict_many,
    train,
    validate_hyperparams,
)
from .bayes import BayesParams
from .forest import ForestParams
from .knn import KnnParams
from .mlp import MlpParams
from .model_io import (
    MODEL_FORMAT_VERSION,
    MODEL_MAGIC,
    load_model,
    model_fingerprint,
    read_model,
    save_model,
    write_model,
)
from .svm import SvmParams
from .tree import TreeParams

__all__ = [
    "ALL_KINDS",
    "KIND_ALIASES",
    "MODEL_FORMAT_VERSION",
    "MODEL_MAGIC",
    "SCALED_KINDS",
    "BayesParams",
    "ClassifierKind",
    "ForestParams",
    "Hyperparams",
    "KnnParams",
    "MlpParams",
    "Prediction",
    "SvmParams",
    "TrainedModel",
    "TreeParams",
    "default_hyperparams",
    "kind_from_name",
    "load_model",
    "model_fingerprint",
    "predict",
    "predict_many",
    "read_model",
    "save_model",
    "train",
    "validate_hyperparams",
    "write_model",
]
