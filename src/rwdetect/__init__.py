"""Conversation-level network traffic classification and alerting.

The pipeline: parse captures into a packet table (``capture``), group
it into a table of bidirectional conversations (``conversation``),
stack that into labeled feature vectors (``features``), train and
persist classifiers (``classifiers``), score them (``eval``) and run
windowed detection over traffic (``detect``).  ``cli`` wires the same steps into the
``rwdetect`` command.  Past the CSV boundary a label is 0 (benign) or 1
(ransomware): in ``Dataset.y``, in ``predict_many``'s output and in
``confusion``'s input.  Each public name is imported from its own module;
this root holds only ``__version__``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
