"""Mobility-cluster discovery and Bayesian hypothesis ranking for trip data."""

import os
# Every BLAS product here is small, so a second OpenBLAS thread only spins: pin
# one before numpy loads its pool. A value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .geo import GeoPoint, StateSpace, Tract, haversine_distance, hour_of_week, locate
from .ingest import RAW_TRIP, TransitionCounts, Trip, clean_trips, transition_counts
from .tensor import FactorSet, MobilityTensor, NtfOptions, build_tensor, ntf_decompose, \
    reconstruction_error
from .clusters import cluster_counts, cluster_selection, top_indices
from .hypotheses import CatalogConfig, FeatureVectors, HypothesisMatrix, WeightVector, \
    build_catalog, iter_catalog
from .evidence import EvidenceResult, PriorMatrix, elicit_prior, k_sweep, log_evidence, \
    rank_hypotheses
from .synth import GridSpec, PlantedCluster, PropertyRecipe, generate_from_hypothesis, \
    generate_state_space, generate_trips
from .config import PipelineConfig, load_config

__version__ = "0.1.0"
