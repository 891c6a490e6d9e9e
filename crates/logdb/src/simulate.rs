//! Simulated collection of user feedback logs.
//!
//! **Substitution notice.** The paper collected 150 log sessions per
//! dataset from real users of the authors' CBIR system:
//!
//! > "For each participant user, he or she first specifies a query example
//! > and submits it to the CBIR system. The CBIR system returns 20 initial
//! > similar images to the user according the measurement of low-level
//! > visual features of image content. The user then employs the relevance
//! > feedback tool to improve the retrieval performance. ... When a
//! > relevance feedback round is finished, the information of user feedback
//! > will be logged into a log database. Each relevance feedback round
//! > corresponds to a log session unit."
//!
//! Crucially, a *user interaction* spans **multiple feedback rounds**: the
//! first screen is the content-based top-20, every further screen comes
//! from the system's refined ranking. This module reproduces that loop with
//! simulated users:
//!
//! 1. a query image is drawn uniformly at random;
//! 2. for each round, the **caller-provided retrieval function** maps the
//!    judgments accumulated so far to the next screen of `N_l` images
//!    (round 0 receives an empty accumulation → the initial content
//!    ranking; later rounds let the caller run its relevance-feedback
//!    refinement);
//! 3. each returned image is judged relevant iff it shares the query's
//!    ground-truth category, then the judgment is **flipped with
//!    probability `noise`** — the paper's user-subjectivity model ("a
//!    certain amount of noise is inevitable");
//! 4. every round is recorded as its own log session, exactly as the
//!    paper's log database does.
//!
//! The retrieval function is injected so this crate stays independent of
//! the retrieval/learning stack; `lrf-cbir` wires a pure content ranker and
//! `lrf-core` wires the full RF-SVM refinement loop.

use crate::session::{LogSession, Relevance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the simulated collection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimulationConfig {
    /// Total number of sessions to collect (the paper: 150 per dataset).
    /// Sessions group into user interactions of `rounds_per_query` rounds.
    pub n_sessions: usize,
    /// Images judged per session (the paper: 20).
    pub judged_per_session: usize,
    /// Feedback rounds per user query. The collection stops mid-interaction
    /// when `n_sessions` is reached, so `n_sessions` need not be a multiple.
    pub rounds_per_query: usize,
    /// Probability that a judgment is flipped (user subjectivity noise).
    pub noise: f64,
    /// RNG seed: collections are deterministic per seed.
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            n_sessions: 150,
            judged_per_session: 20,
            rounds_per_query: 3,
            noise: 0.1,
            seed: 0xfeed,
        }
    }
}

/// Runs the simulated collection.
///
/// * `categories[i]` — ground-truth category of image `i` (drives the
///   simulated judgment).
/// * `next_screen(query, judged_so_far, k)` — the CBIR system's next result
///   screen for the interaction: `judged_so_far` holds every judgment the
///   simulated user has made for this query (empty on the first round).
///   Implementations choose their presentation policy: re-present the
///   refined top-`k` (confirmed positives reappear and are re-marked, as in
///   the paper's system) or exclude judged images ("show me more"). Ids out
///   of range are rejected.
///
/// Returns the collected sessions in collection order.
///
/// # Panics
/// Panics if `categories` is empty, `noise ∉ [0, 1]`,
/// `rounds_per_query == 0`, or the retrieval function returns an id out of
/// range.
pub fn simulate_sessions(
    config: &SimulationConfig,
    categories: &[usize],
    mut next_screen: impl FnMut(usize, &[(usize, Relevance)], usize) -> Vec<usize>,
) -> Vec<LogSession> {
    assert!(!categories.is_empty(), "need a nonempty image database");
    assert!(
        (0.0..=1.0).contains(&config.noise),
        "noise must be a probability, got {}",
        config.noise
    );
    assert!(
        config.rounds_per_query > 0,
        "need at least one round per query"
    );
    let n_images = categories.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sessions = Vec::with_capacity(config.n_sessions);

    'collection: loop {
        let query = rng.gen_range(0..n_images);
        let query_cat = categories[query];
        let mut judged: Vec<(usize, Relevance)> = Vec::new();

        for _round in 0..config.rounds_per_query {
            if sessions.len() >= config.n_sessions {
                break 'collection;
            }
            let screen = next_screen(query, &judged, config.judged_per_session);
            if screen.is_empty() {
                // Database exhausted for this interaction; move on.
                break;
            }
            let judgments: Vec<(usize, Relevance)> = screen
                .into_iter()
                .map(|image_id| {
                    assert!(
                        image_id < n_images,
                        "retrieval returned unknown image {image_id}"
                    );
                    let truly_relevant = categories[image_id] == query_cat;
                    let flipped = rng.gen_bool(config.noise);
                    (image_id, Relevance::from_bool(truly_relevant != flipped))
                })
                .collect();
            judged.extend(judgments.iter().copied());
            sessions.push(LogSession::new(judgments));
        }
        if sessions.len() >= config.n_sessions {
            break;
        }
    }
    sessions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::LogStore;

    /// A toy "retrieval system": returns the k unjudged images nearest in
    /// id space (ids of one category are contiguous, so this mimics a
    /// decent content ranker with a show-me-more policy).
    fn toy_next_screen(
        query: usize,
        judged: &[(usize, Relevance)],
        k: usize,
        n: usize,
    ) -> Vec<usize> {
        let seen: std::collections::HashSet<usize> = judged.iter().map(|&(id, _)| id).collect();
        let mut ids: Vec<usize> = (0..n).filter(|id| !seen.contains(id)).collect();
        ids.sort_by_key(|&i| (i as isize - query as isize).unsigned_abs());
        ids.truncate(k);
        ids
    }

    fn categories(n_cat: usize, per_cat: usize) -> Vec<usize> {
        (0..n_cat * per_cat).map(|i| i / per_cat).collect()
    }

    fn cfg(n_sessions: usize, k: usize, rounds: usize, noise: f64, seed: u64) -> SimulationConfig {
        SimulationConfig {
            n_sessions,
            judged_per_session: k,
            rounds_per_query: rounds,
            noise,
            seed,
        }
    }

    #[test]
    fn collection_is_deterministic() {
        let cats = categories(4, 10);
        let c = cfg(7, 5, 2, 0.2, 3);
        let a = simulate_sessions(&c, &cats, |q, j, k| toy_next_screen(q, j, k, cats.len()));
        let b = simulate_sessions(&c, &cats, |q, j, k| toy_next_screen(q, j, k, cats.len()));
        assert_eq!(a, b);
    }

    #[test]
    fn session_counts_match_config() {
        let cats = categories(3, 20);
        let c = cfg(12, 6, 3, 0.0, 1);
        let sessions = simulate_sessions(&c, &cats, |q, j, k| toy_next_screen(q, j, k, cats.len()));
        assert_eq!(sessions.len(), 12);
        assert!(sessions.iter().all(|s| s.len() == 6));
    }

    #[test]
    fn rounds_accumulate_without_rejudging() {
        // Within one interaction, later rounds never repeat an image the
        // user already judged (the closure excludes them); all rounds of an
        // interaction share the query category for their relevant marks.
        let cats = categories(2, 30);
        let c = cfg(4, 8, 2, 0.0, 5);
        let mut interaction_screens: Vec<(usize, Vec<usize>)> = Vec::new();
        let sessions = simulate_sessions(&c, &cats, |q, j, k| {
            let screen = toy_next_screen(q, j, k, cats.len());
            interaction_screens.push((q, screen.clone()));
            screen
        });
        assert_eq!(sessions.len(), 4);
        // sessions 0,1 belong to query A; 2,3 to query B (2 rounds each)
        let (q0, ref s0) = interaction_screens[0];
        let (q1, ref s1) = interaction_screens[1];
        assert_eq!(q0, q1, "rounds of one interaction share the query");
        assert!(
            s0.iter().all(|id| !s1.contains(id)),
            "round 2 must show fresh images"
        );
    }

    #[test]
    fn noise_free_judgments_match_ground_truth() {
        let cats = categories(2, 20);
        let c = cfg(10, 8, 2, 0.0, 5);
        let mut queries = Vec::new();
        let sessions = simulate_sessions(&c, &cats, |q, j, k| {
            if j.is_empty() {
                queries.push(q);
            }
            toy_next_screen(q, j, k, cats.len())
        });
        let mut qi = 0;
        let mut round = 0;
        for s in &sessions {
            let q = queries[qi];
            for (id, r) in s.iter() {
                assert_eq!(r, Relevance::from_bool(cats[id] == cats[q]));
            }
            round += 1;
            if round == c.rounds_per_query {
                round = 0;
                qi += 1;
            }
        }
    }

    #[test]
    fn full_noise_inverts_judgments() {
        let cats = categories(2, 10);
        let c = cfg(5, 6, 1, 1.0, 9);
        let mut queries = Vec::new();
        let sessions = simulate_sessions(&c, &cats, |q, j, k| {
            if j.is_empty() {
                queries.push(q);
            }
            toy_next_screen(q, j, k, cats.len())
        });
        for (s, &q) in sessions.iter().zip(&queries) {
            for (id, r) in s.iter() {
                let truly_relevant = cats[id] == cats[q];
                assert_eq!(
                    r,
                    Relevance::from_bool(!truly_relevant),
                    "noise=1 must invert the judgment of image {id}"
                );
            }
        }
    }

    #[test]
    fn moderate_noise_flips_roughly_expected_fraction() {
        let cats = categories(2, 100);
        let clean = cfg(50, 20, 1, 0.0, 42);
        let noisy = SimulationConfig {
            noise: 0.1,
            ..clean
        };
        let a = simulate_sessions(&clean, &cats, |q, j, k| {
            toy_next_screen(q, j, k, cats.len())
        });
        let b = simulate_sessions(&noisy, &cats, |q, j, k| {
            toy_next_screen(q, j, k, cats.len())
        });
        let mut flips = 0usize;
        let mut total = 0usize;
        for (cs, ns) in a.iter().zip(&b) {
            for ((_, r_c), (_, r_n)) in cs.iter().zip(ns.iter()) {
                total += 1;
                if r_c != r_n {
                    flips += 1;
                }
            }
        }
        let rate = flips as f64 / total as f64;
        assert!((0.05..=0.16).contains(&rate), "flip rate {rate}");
    }

    #[test]
    fn exhausted_database_ends_interaction_gracefully() {
        // 10-image database, 8 judged per round: round 2 has only 2 left,
        // round 3 none — the interaction ends early but collection
        // continues with new queries until n_sessions is reached.
        let cats = categories(1, 10);
        let c = cfg(6, 8, 5, 0.0, 2);
        let sessions = simulate_sessions(&c, &cats, |q, j, k| toy_next_screen(q, j, k, cats.len()));
        assert_eq!(sessions.len(), 6);
        // sessions alternate sizes 8, 2, 8, 2, ... (fresh query each time
        // the pool empties)
        assert_eq!(sessions[0].len(), 8);
        assert_eq!(sessions[1].len(), 2);
    }

    #[test]
    fn sessions_feed_the_store() {
        let cats = categories(3, 10);
        let c = cfg(10, 5, 2, 0.1, 7);
        let sessions = simulate_sessions(&c, &cats, |q, j, k| toy_next_screen(q, j, k, cats.len()));
        let mut store = LogStore::new(cats.len());
        for s in sessions {
            store.record(s);
        }
        assert_eq!(store.n_sessions(), 10);
        assert!(store.n_judged_images() > 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_noise_rejected() {
        let cats = categories(2, 4);
        let c = SimulationConfig {
            noise: 1.5,
            ..Default::default()
        };
        let _ = simulate_sessions(&c, &cats, |q, j, k| toy_next_screen(q, j, k, cats.len()));
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let cats = categories(2, 4);
        let c = SimulationConfig {
            rounds_per_query: 0,
            ..Default::default()
        };
        let _ = simulate_sessions(&c, &cats, |q, j, k| toy_next_screen(q, j, k, cats.len()));
    }
}
