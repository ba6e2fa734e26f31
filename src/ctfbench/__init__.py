"""ctfbench: benchmark engine for chaotic-system prediction tasks.

Regenerates the Lorenz and Kuramoto-Sivashinsky dataset packs from their
governing equations, scores prediction submissions on twelve metrics, and
maintains a ranked leaderboard with chart and table reports.
"""

from .baselines import make_submission, predict_average, predict_zeros
from .datagen import (
    DatasetPack,
    Manifest,
    NoiseLevel,
    add_noise,
    build_pack,
    generate_pack,
    read_pack,
    write_pack,
)
from .dynamics import (
    KSParams,
    LorenzParams,
    SimConfig,
    integrate_ks,
    integrate_lorenz,
    lorenz_rhs,
    make_initial_condition,
)
from .exceptions import (
    CTFBenchError,
    DivergenceError,
    MatrixFormatError,
    MetricError,
    PackValidationError,
)
from .metrics import (
    MetricKind,
    MetricWindows,
    composite,
    histogram_l1,
    power_spectrum_rows,
    score_long_time_histogram,
    score_long_time_spectral,
    score_short_time,
    to_score,
)
from .referee import (
    Leaderboard,
    LeaderboardEntry,
    ScoreCard,
    Submission,
    TaskSpec,
    aggregate_runs,
    evaluate,
    load_submission,
    task_registry,
    truth_table,
    update_leaderboard,
    validate_submission,
    write_submission,
)
from .report import export_table, render_radar, render_ranked_bar, render_top3

__version__ = "0.2.0"

__all__ = [
    "CTFBenchError",
    "DatasetPack",
    "DivergenceError",
    "KSParams",
    "Leaderboard",
    "LeaderboardEntry",
    "LorenzParams",
    "Manifest",
    "MatrixFormatError",
    "MetricError",
    "MetricKind",
    "MetricWindows",
    "NoiseLevel",
    "PackValidationError",
    "ScoreCard",
    "SimConfig",
    "Submission",
    "TaskSpec",
    "add_noise",
    "aggregate_runs",
    "build_pack",
    "composite",
    "evaluate",
    "export_table",
    "generate_pack",
    "histogram_l1",
    "integrate_ks",
    "integrate_lorenz",
    "load_submission",
    "lorenz_rhs",
    "make_initial_condition",
    "make_submission",
    "power_spectrum_rows",
    "predict_average",
    "predict_zeros",
    "read_pack",
    "render_radar",
    "render_ranked_bar",
    "render_top3",
    "score_long_time_histogram",
    "score_long_time_spectral",
    "score_short_time",
    "task_registry",
    "to_score",
    "truth_table",
    "update_leaderboard",
    "validate_submission",
    "write_pack",
    "write_submission",
]
