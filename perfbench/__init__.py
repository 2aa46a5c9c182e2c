"""End-to-end and per-layer benchmark of the CDC ingest engine (see README.md)."""
