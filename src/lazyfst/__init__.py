"""Lazy class-based FST composition with a shared pre-composed cache.

The package builds a lexicon transducer and a class bigram root,
composes them on the fly against per-user class bindings through a
lazy replace view, and splits the composition cache into a sealed
shared public layer plus per-session private layers.
"""

from .cache import (ARC_BYTES, KEY_BYTES, STATE_BYTES, CachedExpansion,
                    PublicCache, Session,
                    dump_public_cache, end_session, load_public_cache)
from .compose import FilterState, expand_pair_state
from .decoder import (DecodeConfig, Hypothesis, ScoreMatrix, decode,
                      simulate_scores)
from .errors import (BuildError, CompositionSizeError, ConfigurationError,
                     InvariantError, LazyFstError, ParseError)
from .fst import (EPS, Arc, Fst, FstBuilder, SymbolTable, write_symbols,
                  write_text_fst)
from .lmbuild import (ContactEntry, Lexicon, build_contact_fst,
                      build_lexicon_fst, build_symbol_tables,
                      parse_contacts_jsonl, parse_corpus, parse_lexicon,
                      train_bigram_root)
from .metrics import Metrics
from .precompose import PrecomposeConfig, bfs_precompose, warmup_precompose
from .replace import (ClassBinding, ReplaceView, empty_binding,
                      insert_epsilon_before_class)
from .semiring import ZERO

__version__ = "0.1.0"

__all__ = [
    "ARC_BYTES", "KEY_BYTES", "STATE_BYTES", "EPS", "ZERO",
    "Arc", "BuildError", "CachedExpansion", "ClassBinding",
    "CompositionSizeError", "ConfigurationError",
    "ContactEntry", "DecodeConfig",
    "FilterState", "Fst", "FstBuilder", "Hypothesis",
    "InvariantError", "LazyFstError", "Lexicon", "Metrics",
    "ParseError", "PrecomposeConfig", "PublicCache", "ReplaceView",
    "ScoreMatrix", "Session", "SymbolTable",
    "bfs_precompose", "build_contact_fst",
    "build_lexicon_fst", "build_symbol_tables",
    "decode",
    "dump_public_cache", "empty_binding", "end_session",
    "expand_pair_state", "insert_epsilon_before_class",
    "load_public_cache",
    "parse_contacts_jsonl", "parse_corpus", "parse_lexicon",
    "simulate_scores", "train_bigram_root", "warmup_precompose",
    "write_symbols", "write_text_fst",
]
