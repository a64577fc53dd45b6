"""Dataset ingestion, synthetic generation, and model serialization."""

from .canonical import (
    export_features_csv,
    load_canonical_csv,
    load_features_csv,
    write_canonical_csv,
)
from .container import ModelContainer, load_model, save_model
from .synthetic import SyntheticConfig, generate_synthetic

__all__ = [
    "ModelContainer", "SyntheticConfig", "export_features_csv", "generate_synthetic",
    "load_canonical_csv", "load_features_csv", "load_model", "save_model",
    "write_canonical_csv",
]
