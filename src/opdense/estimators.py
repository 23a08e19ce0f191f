"""Array-facing estimators wrapping the functional core.

These follow the fit/transform/predict convention so they compose with
pipelines and cloning utilities; the heavy lifting lives in the kernels,
smo, svm and featsel modules.
"""

from __future__ import annotations

import numpy as np

from .base import ParamsMixin, check_fitted, check_matrix, check_X_y
from .errors import SchemaMismatch, SingleClass
from .featsel.evaluators import score_attributes
from .featsel.search import ranker_select
from .kernels import KernelSpec
from .smo import TrainerConfig
from .svm import MulticlassSvmModel, predict_matrix, train_pairwise


class SmoSvmClassifier(ParamsMixin):
    """Pairwise (one-vs-one) SVM trained by sequential minimal optimization.

    Class labels are taken in sorted order; every unordered pair gets a
    binary machine whose positive side is the later label. Prediction is
    by majority vote, confidence-then-order on ties.
    """

    def __init__(
        self,
        kernel: str = "puk",
        C: float = 1.0,
        exponent: float = 1.0,
        use_lower_order: bool = False,
        gamma: float = 0.01,
        sigma: float = 1.0,
        omega: float = 1.0,
        tolerance: float = 1e-3,
        epsilon: float = 1e-12,
        max_iterations: int = 1_000_000,
        calibrate: bool = False,
    ):
        self.kernel = kernel
        self.C = C
        self.exponent = exponent
        self.use_lower_order = use_lower_order
        self.gamma = gamma
        self.sigma = sigma
        self.omega = omega
        self.tolerance = tolerance
        self.epsilon = epsilon
        self.max_iterations = max_iterations
        self.calibrate = calibrate

    def _spec(self) -> KernelSpec:
        return KernelSpec(
            family=self.kernel,
            exponent=self.exponent,
            use_lower_order=self.use_lower_order,
            gamma=self.gamma,
            sigma=self.sigma,
            omega=self.omega,
            C=self.C,
        )

    def _config(self) -> TrainerConfig:
        return TrainerConfig(
            tolerance=self.tolerance,
            epsilon=self.epsilon,
            max_iterations=self.max_iterations,
            calibrate=self.calibrate,
        )

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        classes = tuple(sorted({str(v) for v in y}))
        if len(classes) < 2:
            raise SingleClass(f"need two classes, found {classes}")
        spec = self._spec()
        labels = np.array([str(v) for v in y], dtype=object)
        machines, warnings = train_pairwise(X, labels, classes, spec, self._config())
        self.classes_ = classes
        self.n_features_in_ = X.shape[1]
        self.model_ = MulticlassSvmModel(
            machines=machines,
            classes=self.classes_,
            attributes=tuple(f"x{k}" for k in range(X.shape[1])),
            scheme=None,  # array API carries no label scheme
            kernel=spec,
            scaling=None,
            warnings=warnings,
        )
        return self

    def predict(self, X):
        check_fitted(self, "model_")
        X = check_matrix(X)
        return np.array(predict_matrix(self.model_, X, already_scaled=True), dtype=object)

    def decision_function(self, X):
        """Binary problems only: the signed margin of the single machine."""
        check_fitted(self, "model_")
        if len(self.classes_) != 2:
            raise SchemaMismatch("decision_function is defined for two classes")
        return self.model_.machines[0].decision_function(check_matrix(X))

    def score(self, X, y) -> float:
        predictions = self.predict(X)
        y = np.asarray(y, dtype=object).ravel()
        return float((predictions == y.astype(str)).mean())


class MinMaxDensityScaler(ParamsMixin):
    """Per-column linear (0, 1) scaling; constant columns map to zero and
    transforms of unseen data clamp into [0, 1]."""

    def __init__(self, clamp: bool = True):
        self.clamp = clamp

    def fit(self, X, y=None):
        X = check_matrix(X)
        self.min_ = X.min(axis=0)
        self.max_ = X.max(axis=0)
        return self

    def transform(self, X):
        check_fitted(self, "min_")
        X = check_matrix(X)
        span = self.max_ - self.min_
        safe = np.where(span == 0, 1.0, span)
        out = (X - self.min_) / safe
        out[:, span == 0] = 0.0
        if self.clamp:
            out = np.clip(out, 0.0, 1.0)
        return out

    def fit_transform(self, X, y=None):
        return self.fit(X).transform(X)


class RankedAttributeSelector(ParamsMixin):
    """Score columns with a ranking evaluator, keep those above the
    threshold (optionally capped at num_to_select), project on transform."""

    def __init__(
        self,
        evaluator: str = "correlation",
        threshold: float = 0.0,
        num_to_select: int | None = None,
        bins: int = 10,
        min_bucket: int = 6,
        relieff_k: int = 10,
        seed: int = 42,
    ):
        self.evaluator = evaluator
        self.threshold = threshold
        self.num_to_select = num_to_select
        self.bins = bins
        self.min_bucket = min_bucket
        self.relieff_k = relieff_k
        self.seed = seed

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        names = [f"x{j:04d}" for j in range(X.shape[1])]
        scores = score_attributes(X, y, names, self.evaluator, bins=self.bins, min_bucket=self.min_bucket,
                                  relieff_k=self.relieff_k, seed=self.seed)
        self.selection_ = ranker_select(scores, self.threshold, self.num_to_select,
                                        evaluator=self.evaluator)
        retained = set(self.selection_.retained)
        self.scores_ = np.array([s.score for s in scores])
        self.support_ = np.array([name in retained for name in names])
        return self

    def transform(self, X):
        check_fitted(self, "support_")
        X = check_matrix(X)
        if X.shape[1] != len(self.support_):
            raise SchemaMismatch("transform width differs from fit width")
        return X[:, self.support_]

    def fit_transform(self, X, y):
        return self.fit(X, y).transform(X)

    def get_support(self) -> np.ndarray:
        check_fitted(self, "support_")
        return self.support_.copy()
