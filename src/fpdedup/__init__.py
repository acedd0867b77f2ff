"""Grid-index clustering, constant-time identification, and batch
deduplication for minutiae fingerprint signatures."""

from .cluster import (ClusterTable, DuplicateRecordIdError, build_table,
                      load_table, save_table)
from .dedup import (DuplicateReport, OracleCapExceededError, comparison_count,
                    deduplicate, exhaustive_dedup)
from .grid import GridParams, IndexKey, block_of, bounding_box, compute_index
from .identify import IdentificationResult, identify
from .matcher import MatchParams, MatchResult, is_match, match_score
from .signature import (FileStore, Minutia, ParseError, SerializedStore,
                        Signature, parse_signature, serialize_signature,
                        write_corpus_dir)
from .stats import (CorpusStats, RegressionFit, WorkloadEstimate, corpus_stats,
                    estimate_workload, fit_regression, predict_avg)
from .synth import GenSpec, SplitMix64, generate, iter_records

__version__ = "0.1.0"

__all__ = [
    "ClusterTable", "CorpusStats", "DuplicateRecordIdError", "DuplicateReport",
    "FileStore", "GenSpec", "GridParams", "IdentificationResult", "IndexKey",
    "MatchParams", "MatchResult", "Minutia", "OracleCapExceededError", "ParseError",
    "RegressionFit", "SerializedStore", "Signature", "SplitMix64", "WorkloadEstimate",
    "block_of", "bounding_box", "build_table", "comparison_count", "compute_index",
    "corpus_stats", "deduplicate", "estimate_workload", "exhaustive_dedup",
    "fit_regression", "generate", "identify", "is_match", "iter_records",
    "load_table", "match_score", "parse_signature", "predict_avg", "save_table",
    "serialize_signature", "write_corpus_dir",
]
