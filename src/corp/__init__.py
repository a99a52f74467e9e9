"""Co-representation purification for co-salient object detection.

Given a group of l2-normalized pixel-embedding tensors and initial saliency
maps, the pipeline iteratively searches a small set of embeddings that
represent the common object, predicts co-saliency maps from correlation
maps, and feeds the predictions back to purify the next search. The package
also ships the matching evaluation metrics, a soft IoU loss with analytic
gradients, synthetic fixtures with brute-force oracles, and a CLI.
"""

from .decoder import decode_reference, get_decoder, list_decoders, register_decoder
from .errors import (
    ArgumentError,
    CorpError,
    DegenerateInputError,
    FormatError,
    RangeViolationError,
    ShapeError,
)
from .fixtures import FixtureSpec, SplitMix64, generate_fixture, random_fixture_spec
from .losses import (
    GradCheckReport,
    LossValue,
    combined_loss,
    grad_check,
    iou_grad_check,
    iou_loss,
)
from .metrics import (
    MetricReport,
    e_measure_mean,
    evaluate,
    f_measure_curve,
    mae,
    s_measure,
    write_metrics_csv,
)
from .pipeline import (
    IterationRecord,
    IterationTrace,
    compute_proxy,
    proxy_from_ground_truth,
    resize_map_group,
    run_pipeline,
)
from .search import (
    correlation_transform,
    purity_proportion,
    score_all,
    search_corepresentation,
)
from .storage import read_map_pgm, read_tensor, write_map_pgm, write_tensor
from .tensor import bilinear_resize, l2_normalize_channels, masked_gap, topk_desc
from .types import (
    CoRepresentation,
    CorrelationMapStack,
    FeatureGroup,
    MapGroup,
    PipelineConfig,
    Proxy,
    validate_group,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CoRepresentation",
    "CorpError",
    "CorrelationMapStack",
    "DegenerateInputError",
    "FeatureGroup",
    "FixtureSpec",
    "FormatError",
    "GradCheckReport",
    "IterationRecord",
    "IterationTrace",
    "LossValue",
    "MapGroup",
    "MetricReport",
    "PipelineConfig",
    "Proxy",
    "RangeViolationError",
    "ShapeError",
    "SplitMix64",
    "bilinear_resize",
    "combined_loss",
    "compute_proxy",
    "correlation_transform",
    "decode_reference",
    "e_measure_mean",
    "evaluate",
    "f_measure_curve",
    "generate_fixture",
    "get_decoder",
    "grad_check",
    "iou_grad_check",
    "iou_loss",
    "l2_normalize_channels",
    "list_decoders",
    "mae",
    "masked_gap",
    "proxy_from_ground_truth",
    "purity_proportion",
    "random_fixture_spec",
    "read_map_pgm",
    "read_tensor",
    "register_decoder",
    "resize_map_group",
    "run_pipeline",
    "s_measure",
    "score_all",
    "search_corepresentation",
    "topk_desc",
    "validate_group",
    "write_map_pgm",
    "write_metrics_csv",
    "write_tensor",
]
