//! The correctness check, run after the timed window: replaying the
//! update stream into a mirror store and comparing sampled answers with a
//! Monte Carlo reference computed on it.

use std::collections::{BTreeMap, BTreeSet};

use probesim_baselines::MonteCarlo;
use probesim_graph::{CsrGraph, GraphSnapshot, GraphStore, GraphUpdate, GraphView, NodeId};
use probesim_service::Response;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Walk pairs per reference estimate: σ ≤ 0.5/√4000 ≈ 0.008.
const REFERENCE_WALKS: usize = 4000;
/// Ranked nodes checked per answer (a `TopK{k: 50}` answer has 50).
const MAX_RANKED: usize = 50;
/// Uniformly random nodes checked per answer besides the ranked ones.
const RANDOM_NODES: usize = 5;

/// Snapshots of a mirror store at each of `versions`, replayed from
/// `base` through the committed `updates` (version `v` is the state
/// after the first `v` effective updates).
pub fn snapshots_at(
    base: &CsrGraph,
    updates: &[GraphUpdate],
    versions: &BTreeSet<u64>,
) -> BTreeMap<u64, GraphSnapshot> {
    let mut store = GraphStore::from_csr(base.clone());
    let mut out = BTreeMap::new();
    let Some(&last) = versions.last() else {
        return out;
    };
    if versions.contains(&0) {
        out.insert(0, store.snapshot());
    }
    for &update in updates {
        if store.version() >= last {
            break;
        }
        let commit = store.commit(update);
        if commit.was_effective() && versions.contains(&commit.version) {
            out.insert(commit.version, store.snapshot());
        }
    }
    out
}

/// The outcome of the correctness check.
#[derive(Debug, Default)]
pub struct Checked {
    pub answers: usize,
    pub pairs: usize,
    /// Answers with at least one pair out of bounds, or whose version
    /// the replay could not reach.
    pub failed: u64,
    pub abs_error_max: f64,
}

/// Checks each answer's ranked nodes plus a few random ones against a
/// seeded Monte Carlo reference computed on the mirror snapshot at the
/// version the answer names. A pair fails when `|ŝ − s| > ε + 4σ`, σ
/// being the reference's own standard error.
pub fn check_answers(
    answers: &[Response],
    snapshots: &BTreeMap<u64, GraphSnapshot>,
    decay: f64,
    epsilon: f64,
    seed: u64,
) -> Checked {
    let reference = MonteCarlo::new(decay, REFERENCE_WALKS).with_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EC_7ED0);
    let mut out = Checked::default();
    for answer in answers {
        out.answers += 1;
        let Some(snapshot) = snapshots.get(&answer.version) else {
            out.failed += 1;
            continue;
        };
        let u = answer.output.query.node();
        let n = snapshot.num_nodes() as NodeId;
        let mut nodes: Vec<NodeId> = answer
            .output
            .ranking()
            .into_iter()
            .take(MAX_RANKED)
            .map(|(v, _)| v)
            .collect();
        nodes.extend((0..RANDOM_NODES).map(|_| rng.gen_range(0..n)));
        let mut ok = true;
        for v in nodes.into_iter().filter(|&v| v != u) {
            let s = reference.pair(snapshot, u, v);
            let sigma = (s * (1.0 - s) / REFERENCE_WALKS as f64).sqrt();
            let error = (answer.output.scores.score(v) - s).abs();
            out.pairs += 1;
            out.abs_error_max = out.abs_error_max.max(error);
            ok &= error <= epsilon + 4.0 * sigma;
        }
        if !ok {
            out.failed += 1;
        }
    }
    out
}
