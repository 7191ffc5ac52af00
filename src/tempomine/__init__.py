"""Mining temporal commonsense from SRL parses and training ordinal-aware
masked token models on the result.

The pipeline: ingest SRL sentences, classify temporal arguments into
(event, dimension, value) tuples, expand gold labels into distance-aware
soft targets, materialize masked training sequences, train a small
from-scratch encoder, and score predictions by ordinal rank distance.
"""

# The package exports the union of its modules' __all__ lists.
from .label_space import *
from .seeding import *
from .srl_ingest import *
from .extraction import *
from .targets import *
from .sequences import *
from .model import *
from .evaluation import *
from .synthetic import *

__version__ = "0.1.0"
