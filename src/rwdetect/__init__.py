"""Conversation-level network traffic classification and alerting.

The pipeline: parse captures into a packet table (``capture``), group
it into a table of bidirectional conversations (``conversation``),
stack that into labeled feature vectors (``features``), train and
persist classifiers (``classifiers``), score them (``eval``) and run
windowed detection over traffic (``detect``).  ``cli`` wires the same steps into the
``rwdetect`` command.  Past the CSV boundary a label is 0 (benign) or 1
(ransomware): in ``Dataset.y``, in ``predict_many``'s output and in
``confusion``'s input.
"""

from .capture import (
    CaptureSummary,
    PacketRecord,
    PacketTable,
    ip_to_u32,
    parse_packet_csv,
    parse_pcap,
    read_pcap,
    u32_to_ip,
)
from .classifiers import (
    ALL_KINDS,
    ClassifierKind,
    TrainedModel,
    default_hyperparams,
    load_model,
    model_fingerprint,
    predict_many,
    save_model,
    train,
)
from .conversation import (
    Conversation,
    ConversationTable,
    aggregate,
    conversations_to_csv,
    csv_to_conversations,
)
from .detect import (
    Alert,
    DetectionSummary,
    WindowSpec,
    detect_stream,
    window_packets,
)
from .errors import RwdetectError
from .eval import (
    ConfusionCounts,
    EvaluationResult,
    MetricsReport,
    SplitSpec,
    benchmark,
    confusion,
    evaluate,
    metrics,
    render_report_csv,
    render_report_json,
)
from .features import (
    FEATURE_NAMES,
    Dataset,
    Label,
    ScalingParams,
    apply_scaler,
    dataset_fingerprint,
    encode,
    fit_scaler,
    label_and_merge,
    read_dataset_csv,
    write_dataset_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS",
    "Alert",
    "CaptureSummary",
    "ClassifierKind",
    "ConfusionCounts",
    "Conversation",
    "ConversationTable",
    "Dataset",
    "DetectionSummary",
    "EvaluationResult",
    "FEATURE_NAMES",
    "Label",
    "MetricsReport",
    "PacketRecord",
    "PacketTable",
    "RwdetectError",
    "ScalingParams",
    "SplitSpec",
    "TrainedModel",
    "WindowSpec",
    "aggregate",
    "apply_scaler",
    "benchmark",
    "confusion",
    "conversations_to_csv",
    "csv_to_conversations",
    "dataset_fingerprint",
    "default_hyperparams",
    "detect_stream",
    "encode",
    "evaluate",
    "fit_scaler",
    "ip_to_u32",
    "label_and_merge",
    "load_model",
    "metrics",
    "model_fingerprint",
    "parse_packet_csv",
    "parse_pcap",
    "predict_many",
    "read_dataset_csv",
    "read_pcap",
    "render_report_csv",
    "render_report_json",
    "save_model",
    "train",
    "u32_to_ip",
    "window_packets",
    "write_dataset_csv",
    "__version__",
]
