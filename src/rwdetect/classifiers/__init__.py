"""Classifier families, training, prediction and model files.

Each family is one module (``knn``, ``mlp``, ``tree``, ``forest``, ``svm``,
``bayes``) defining ``ALIAS`` (its CLI name), ``SCALED`` (min-max scaled inputs
or raw), ``Params`` (frozen hyperparameter dataclass with a ``seed``),
``CHECKS`` (``(predicate, message)`` range checks), ``fit(x, y, hp) -> params``
(the model file's ``params`` JSON), ``params_in(params, hp) -> state`` (the one
constructor of a state, trained or loaded), ``params_out(state) -> params`` and
``scores(state, queries)`` (positive-class scores in [0, 1]); ``KEYS`` names the
keys of ``params``, and the reader rejects any other.  A state is a dict of the
``params`` as arrays, which ``_arrays.lists`` writes back, or for J48 and the
forest a ``tree.Nodes`` scoring table.  ``params_in`` reads every float through
``_arrays`` (a finite JSON float, in the expected shape) and rejects a structure
by raising ``KeyError``, ``TypeError``, ``ValueError``, ``OverflowError`` or
``InvalidHyperparams``; the reader reports it as ``MalformedModel``.  A
``SCALED`` family needs a scaler, others take none, and its ``params_in``
rejects values that could overflow on queries in [0, 1].
Adding a family takes its module, a ``ClassifierKind`` member and a
``base.FAMILIES`` entry; ``ALL_KINDS``, ``SCALED_KINDS``, ``KIND_ALIASES``,
training, prediction and model files follow from that table.
``predict_many``, the one prediction path, scores an (n, 13) batch and
returns its 0/1 (uint8) labels and float64 scores.
"""

from .base import (
    ALL_KINDS,
    KIND_ALIASES,
    SCALED_KINDS,
    ClassifierKind,
    Hyperparams,
    TrainedModel,
    default_hyperparams,
    kind_from_name,
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
    "SvmParams",
    "TrainedModel",
    "TreeParams",
    "default_hyperparams",
    "kind_from_name",
    "load_model",
    "model_fingerprint",
    "predict_many",
    "read_model",
    "save_model",
    "train",
    "validate_hyperparams",
]
