"""End-to-end benchmark: six workloads, one result schema (see README.md)."""
