"""Quantify how controversial a discussion topic is from its conversation graph.

The pipeline has three stages: build a conversation graph from
interaction data, split it into two sides, and score how separated the
sides are. Graph-level scores, per-user scores, a sentiment-variance
signal, and a planted-graph generator for validation are included.
"""

from .errors import (
    ControversyError,
    ConvergenceError,
    DegenerateStructureError,
    InputDataError,
)
from .graph import (
    ConversationGraph,
    InteractionRecord,
    Topic,
    build_content_graph,
    build_follow_graph,
    build_retweet_graph,
    graph_from_weighted_pairs,
    induced_subgraph,
    largest_component,
    read_edgelist,
    read_follow_edges,
    read_records,
    write_edgelist,
)
from .measures import (
    MEASURE_NAMES,
    ControversyReport,
    bcc,
    dipole_of_polarities,
    ec,
    edge_betweenness,
    force_layout,
    gmck,
    mblb,
    propagate_polarity,
    rwc_mc,
    rwc_rwr,
    rwr_conditionals,
)
from .partition import (
    Partition,
    import_partition,
    spectral_bisection,
    write_partition,
)
from .sentiment import (
    SentimentRecord,
    classify_by_variance,
    read_sentiment,
    sentiment_variance,
)
from .synthetic import (
    PlantedConfig,
    SweepRow,
    planted_two_community,
    rwc_sweep,
    write_sweep_csv,
)
from .topics import (
    ExpansionConfig,
    HashtagProfile,
    build_profiles,
    expand_topic,
    hashtag_similarity,
    read_profiles,
    write_profiles,
)
from .users import UserScore, hitting_score_all, rwc_user, user_score_table
from .walks import (
    HighDegreeSets,
    RestartWalkConfig,
    default_k,
    expected_hitting_times,
    sample_walk,
    stationary_rwr,
    top_degree,
    walk_rng,
)

__version__ = "0.1.0"
