"""Repository benchmark for the FAFNIR simulator (see ``run.py``)."""
