"""End-to-end benchmark of the cgRX reproduction (see README.md)."""
