"""opdense: opcode-density datasets, SMO support vector machines and
attribute selection for executable classification."""

from . import errors, featsel
from .dataset import (
    Dataset,
    IqrFlags,
    ScalingParams,
    apply_scaling,
    assemble,
    build_master_list,
    iqr_flag,
    minmax_scale,
    shuffle,
    sort_attributes_by_mean_density,
    split_percentage,
)
from .dataio import read_dataset, write_dataset
from .evaluation import (
    ConfusionMatrix,
    EvalReport,
    class_metrics,
    confusion_matrix,
    cross_validate,
    default_grid,
    grid_search,
    holdout_evaluate,
)
from .kernels import KernelSpec, gram_matrix
from .labels import BINARY_LABELS, FAMILY_LABELS, ClassLabel, LabelScheme
from .pe import PeImage, parse_pe
from .reports import OpcodeHistogram, LabeledHistogram, format_report, parse_report, scan_directory
from .smo import TrainerConfig, smo_solve
from .svm import (
    BinarySvmModel,
    MulticlassSvmModel,
    decision_values,
    load_model,
    save_model,
    train_multiclass,
)
from .synth import generate_corpus
from .x86 import DecodedCount, count_opcodes, decode_one, sweep

__version__ = "0.1.0"

__all__ = [
    "BINARY_LABELS",
    "BinarySvmModel",
    "ClassLabel",
    "ConfusionMatrix",
    "Dataset",
    "DecodedCount",
    "EvalReport",
    "FAMILY_LABELS",
    "IqrFlags",
    "KernelSpec",
    "LabelScheme",
    "LabeledHistogram",
    "MulticlassSvmModel",
    "OpcodeHistogram",
    "PeImage",
    "ScalingParams",
    "TrainerConfig",
    "apply_scaling",
    "assemble",
    "build_master_list",
    "class_metrics",
    "confusion_matrix",
    "count_opcodes",
    "cross_validate",
    "decode_one",
    "decision_values",
    "default_grid",
    "errors",
    "featsel",
    "format_report",
    "generate_corpus",
    "gram_matrix",
    "grid_search",
    "holdout_evaluate",
    "iqr_flag",
    "load_model",
    "minmax_scale",
    "parse_pe",
    "parse_report",
    "read_dataset",
    "save_model",
    "scan_directory",
    "shuffle",
    "smo_solve",
    "sort_attributes_by_mean_density",
    "split_percentage",
    "sweep",
    "train_multiclass",
    "write_dataset",
]
