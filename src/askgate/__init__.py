"""askgate: uncertainty-gated language assistance for grid-world RL policies.

A trained policy acts on position-only observations; MC-Dropout decomposes
its predictive uncertainty into epistemic and aleatoric parts, and whenever
the total crosses a threshold the step is escalated to a language model whose
valid parsed action overrides the policy's. The package covers the whole
protocol: context generation, PPO training, the gated episode loop,
intervention/overwrite metrics, threshold tuning, and a CLI.
"""

from .env import (
    Action,
    Context,
    ContextSet,
    GridMap,
    Outcome,
    Split,
    TileKind,
    generate_context_set,
    load_context_set,
    save_context_set,
)
from .gate import EpisodeRecord, GateConfig, RunMode, StepRecord, run_batch, run_episode
from .lm import EndpointClient, LmDecision, PromptContext, RuleClient, ScriptedClient
from .metrics import RunSummary, SummaryRow, aggregate, render_report
from .policy import MlpPolicy, init_policy, load_weights, save_weights
from .trainer import PpoConfig, TrainLog, evaluate_policy, train
from .tuner import TuneStudy, tune_threshold
from .uncertainty import UncertaintyEstimate, mc_estimate

__version__ = "0.1.0"

__all__ = [
    "Action", "Context", "ContextSet", "GridMap", "Outcome", "Split", "TileKind",
    "generate_context_set", "load_context_set", "save_context_set",
    "EpisodeRecord", "GateConfig", "RunMode", "StepRecord", "run_batch", "run_episode",
    "EndpointClient", "LmDecision", "PromptContext", "RuleClient", "ScriptedClient",
    "RunSummary", "SummaryRow", "aggregate", "render_report",
    "MlpPolicy", "init_policy", "load_weights", "save_weights",
    "PpoConfig", "TrainLog", "evaluate_policy", "train",
    "TuneStudy", "tune_threshold",
    "UncertaintyEstimate", "mc_estimate",
    "__version__",
]
