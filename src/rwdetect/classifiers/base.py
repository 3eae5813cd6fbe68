"""Shared classifier surface: kinds, hyperparameters, train and predict.

Every family trains on a labeled dataset and scores an (n, 13) batch of
feature vectors.  Distance- and gradient-based families (KNN, MLP, SVM)
get min-max scaling fitted on the training set and replayed at predict
time; tree and Bayes families consume raw features.  A score is the
positive-class degree of confidence in [0, 1]; the decision rule is
everywhere ``score >= 0.5 -> 1 (ransomware)`` so exact ties fail safe.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import MISSING, astuple, dataclass, fields
from typing import Union

import numpy as np

from ..errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidHyperparams,
    NonFiniteFeature,
    SingleClassDataset,
)
from ..features import (
    N_FEATURES,
    Dataset,
    ScalingParams,
    apply_scaler,
    dataset_fingerprint,
    fit_scaler,
    zero_address_vector,
)
from . import bayes, forest, knn, mlp, svm, tree


class ClassifierKind(enum.Enum):
    KNN = "KNearestNeighbor"
    MLP = "MultilayerPerceptron"
    J48 = "DecisionTreeJ48"
    RANDOM_FOREST = "RandomForest"
    SVM = "SupportVectorMachine"
    BAYES = "BayesNetwork"


#: The one family table, in the canonical order of reports and the CLI.
#: Each module follows the contract in the package docstring.
FAMILIES = {
    ClassifierKind.KNN: knn,
    ClassifierKind.MLP: mlp,
    ClassifierKind.J48: tree,
    ClassifierKind.RANDOM_FOREST: forest,
    ClassifierKind.SVM: svm,
    ClassifierKind.BAYES: bayes,
}

ALL_KINDS: tuple[ClassifierKind, ...] = tuple(FAMILIES)

#: Families whose geometry is distance- or gradient-based.
SCALED_KINDS = frozenset(kind for kind, family in FAMILIES.items() if family.SCALED)

KIND_ALIASES = {family.ALIAS: kind for kind, family in FAMILIES.items()}

Hyperparams = Union[tuple(family.Params for family in FAMILIES.values())]


def kind_from_name(text: str) -> ClassifierKind:
    """Resolve a canonical kind name or short alias."""
    try:
        return KIND_ALIASES.get(text) or ClassifierKind(text)
    except ValueError:
        raise InvalidHyperparams(f"unknown classifier kind: {text!r}") from None


def check_seed(seed: int) -> None:
    """The seed rule of every hyperparameter set and split spec."""
    if not 0 <= seed <= 2 ** 64 - 1:
        raise InvalidHyperparams("seed must fit an unsigned 64-bit int")


def check_types(spec) -> None:
    """Each field of a dataclass with a default holds a value of the
    default's exact type: a bool is no int, and an int given for a float is
    stored as the float it equals, or raises if it is past the float range."""
    for f in fields(spec):
        got, wanted = type(getattr(spec, f.name)), type(f.default)
        if (got, wanted) == (int, float):
            try:
                object.__setattr__(spec, f.name, float(getattr(spec, f.name)))
            except OverflowError:
                raise InvalidHyperparams(f"{f.name} is an int past the float range") from None
        elif f.default is not MISSING and got is not wanted:
            raise InvalidHyperparams(f"{f.name} must be {wanted.__name__}, got {got.__name__}")


#: The largest integer hyperparameter but the seed.  Numpy takes any count up to
#: it as a size, so a fit too large for the host fails with MemoryError, except
#: for ``trees``: the forest first spawns a seed sequence per tree, one Python
#: object each, and runs out of memory slowly.
MAX_COUNT = 2 ** 31 - 1


def default_hyperparams(kind: ClassifierKind, seed: int = 42) -> Hyperparams:
    return FAMILIES[kind].Params(seed=seed)


def validate_hyperparams(kind: ClassifierKind, hp: Hyperparams) -> None:
    family = FAMILIES[kind]
    if type(hp) is not family.Params:
        raise InvalidHyperparams(
            f"{kind.value} expects {family.Params.__name__}, got {type(hp).__name__}"
        )
    check_types(hp)
    for f in fields(hp):
        if type(f.default) is int and f.name != "seed" and getattr(hp, f.name) > MAX_COUNT:
            raise InvalidHyperparams(f"{f.name} must be at most {MAX_COUNT}")
    check_seed(hp.seed)
    if not all(math.isfinite(v) for v in astuple(hp) if isinstance(v, float)):
        raise InvalidHyperparams("hyperparameters must be finite")
    for holds, message in family.CHECKS:
        if not holds(hp):
            raise InvalidHyperparams(message)


@dataclass(frozen=True)
class TrainedModel:
    kind: ClassifierKind
    hyperparams: Hyperparams
    state: object
    scaler: ScalingParams | None
    training_time: float            # seconds; excluded from serialization
    train_fingerprint: str
    blob: bytes                     # the model file: sealed by ``train``, or as loaded
    zero_addresses: bool = False


def train(kind: ClassifierKind, dataset: Dataset,
          hyperparams: Hyperparams | None = None, *,
          zero_addresses: bool = False) -> TrainedModel:
    """Fit one classifier family on a labeled dataset.

    ``training_time`` covers only the fit and the building of its state,
    not scaling, validation or the sealing of the model file, so repeated
    runs differ only in that field.
    """
    hp = hyperparams if hyperparams is not None else default_hyperparams(kind)
    validate_hyperparams(kind, hp)
    if len(dataset) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    fingerprint = dataset_fingerprint(dataset)
    if zero_addresses:
        dataset = Dataset(zero_address_vector(dataset.x), dataset.y)
    x, y = dataset.x, dataset.y
    if not np.isfinite(x).all():
        raise NonFiniteFeature("training features must be finite")
    positives, negatives = dataset.class_counts()
    if positives == 0 or negatives == 0:
        raise SingleClassDataset(
            f"need both classes, got {positives} positive / {negatives} negative"
        )

    scaler = None
    if kind in SCALED_KINDS:
        scaler = fit_scaler(dataset)
        x = apply_scaler(scaler, x)

    family = FAMILIES[kind]
    started = time.perf_counter()
    params = family.fit(x, y, hp)
    try:    # the model file's reader builds every state, trained or loaded
        state = family.params_in(params, hp)
    except ValueError as exc:
        raise InvalidHyperparams(f"{kind.value} fitted no loadable model: {exc}") from exc
    elapsed = time.perf_counter() - started
    from .model_io import seal     # model_io imports this module
    return TrainedModel(kind=kind, hyperparams=hp, state=state, scaler=scaler,
                        training_time=elapsed, train_fingerprint=fingerprint,
                        blob=seal(kind, hp, params, scaler, fingerprint, zero_addresses),
                        zero_addresses=zero_addresses)


def predict_many(model: TrainedModel,
                 vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score a (n, 13) batch; returns (labels01 uint8, scores float64)."""
    queries = np.asarray(vectors, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != N_FEATURES:
        raise DimensionMismatch(
            f"expected (n, {N_FEATURES}) queries, got {queries.shape}"
        )
    if not np.isfinite(queries).all():
        raise NonFiniteFeature("query features must be finite")
    if model.zero_addresses:
        queries = zero_address_vector(queries)
    if model.scaler is not None:
        queries = apply_scaler(model.scaler, queries)
    scores = FAMILIES[model.kind].scores(model.state, queries)
    labels01 = (scores >= 0.5).astype(np.uint8)
    return labels01, scores
