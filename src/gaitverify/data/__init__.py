"""Dataset ingestion, synthetic generation, and model serialization."""
