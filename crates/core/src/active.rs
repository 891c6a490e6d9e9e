//! Active selection of the next feedback round.
//!
//! The paper motivates log-based feedback with the cost of feedback cycles:
//! "it is advantageous ... to achieve satisfactory results within as few
//! feedback cycles as possible. Although some research studies have
//! suggested employing active learning techniques to speed up the
//! relevance feedback procedure [Tong & Chang] ..." — this module provides
//! those round-selection policies so the multi-round evaluation harness
//! (and downstream systems) can compare them on top of any ranking scheme.
//!
//! Given a scheme's current *scores* over the database, the policy picks
//! which `k` unjudged images to put in front of the user next:
//!
//! * [`RoundSelection::TopConfident`] — the conventional presentation: the
//!   `k` best-scoring unjudged images ("show me more results"). Maximizes
//!   immediate precision; labels confirm what the model already believes.
//! * [`RoundSelection::MostUncertain`] — Tong & Chang's SVM active
//!   learning: the `k` unjudged images nearest the decision boundary
//!   (smallest `|score|`). Maximizes information per judgment at the cost
//!   of showing doubtful results.
//! * [`RoundSelection::Mixed`] — half confident (user satisfaction), half
//!   uncertain (model improvement), a common practical compromise.

use std::collections::HashSet;

/// Policy for choosing the next round's screen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundSelection {
    /// Highest-scoring unjudged images.
    TopConfident,
    /// Unjudged images closest to the decision boundary (`|score|` min).
    MostUncertain,
    /// `k/2` top-confident plus `k/2` most-uncertain (deduplicated).
    Mixed,
}

impl RoundSelection {
    /// Selects up to `k` unjudged image ids given per-image scores.
    ///
    /// `judged` is the set of already-labeled ids (never re-selected —
    /// round selection is about *new* judgments, unlike the log-collection
    /// protocol where re-showing is realistic). Ties break by id for
    /// determinism.
    pub fn select(&self, scores: &[f64], judged: &HashSet<usize>, k: usize) -> Vec<usize> {
        let mut candidates: Vec<usize> = (0..scores.len())
            .filter(|id| !judged.contains(id))
            .collect();
        match self {
            RoundSelection::TopConfident => {
                sort_by_key_desc(&mut candidates, |id| scores[id]);
                candidates.truncate(k);
                candidates
            }
            RoundSelection::MostUncertain => {
                sort_by_key_asc(&mut candidates, |id| scores[id].abs());
                candidates.truncate(k);
                candidates
            }
            RoundSelection::Mixed => {
                let half = k / 2;
                let mut confident = candidates.clone();
                sort_by_key_desc(&mut confident, |id| scores[id]);
                confident.truncate(half);
                let taken: HashSet<usize> = confident.iter().copied().collect();
                let mut uncertain: Vec<usize> = candidates
                    .into_iter()
                    .filter(|id| !taken.contains(id))
                    .collect();
                sort_by_key_asc(&mut uncertain, |id| scores[id].abs());
                uncertain.truncate(k - confident.len());
                confident.extend(uncertain);
                confident
            }
        }
    }
}

fn sort_by_key_desc(ids: &mut [usize], key: impl Fn(usize) -> f64) {
    ids.sort_by(|&a, &b| {
        key(b)
            .partial_cmp(&key(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
}

fn sort_by_key_asc(ids: &mut [usize], key: impl Fn(usize) -> f64) {
    ids.sort_by(|&a, &b| {
        key(a)
            .partial_cmp(&key(b))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judged(ids: &[usize]) -> HashSet<usize> {
        ids.iter().copied().collect()
    }

    #[test]
    fn top_confident_takes_best_unjudged() {
        let scores = [0.9, -0.1, 0.8, 0.5, -0.7];
        let sel = RoundSelection::TopConfident.select(&scores, &judged(&[0]), 2);
        assert_eq!(sel, vec![2, 3]);
    }

    #[test]
    fn most_uncertain_takes_smallest_magnitude() {
        let scores = [0.9, -0.1, 0.8, 0.05, -0.7];
        let sel = RoundSelection::MostUncertain.select(&scores, &judged(&[]), 2);
        assert_eq!(sel, vec![3, 1]);
    }

    #[test]
    fn mixed_combines_without_duplicates() {
        let scores = [0.9, -0.1, 0.8, 0.05, -0.7, 0.6];
        let sel = RoundSelection::Mixed.select(&scores, &judged(&[]), 4);
        assert_eq!(sel.len(), 4);
        let unique: HashSet<usize> = sel.iter().copied().collect();
        assert_eq!(unique.len(), 4);
        // contains the top score and the most uncertain one
        assert!(sel.contains(&0));
        assert!(sel.contains(&3));
    }

    #[test]
    fn never_selects_judged_images() {
        let scores = [0.9, 0.8, 0.7, 0.6];
        for policy in [
            RoundSelection::TopConfident,
            RoundSelection::MostUncertain,
            RoundSelection::Mixed,
        ] {
            let sel = policy.select(&scores, &judged(&[0, 1]), 4);
            assert!(!sel.contains(&0) && !sel.contains(&1), "{policy:?}");
            assert_eq!(sel.len(), 2, "{policy:?} should be capped by availability");
        }
    }

    #[test]
    fn empty_candidate_pool_yields_empty_screen() {
        let scores = [0.1, 0.2];
        let sel = RoundSelection::TopConfident.select(&scores, &judged(&[0, 1]), 3);
        assert!(sel.is_empty());
    }

    #[test]
    fn deterministic_tie_breaking() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let a = RoundSelection::TopConfident.select(&scores, &judged(&[]), 2);
        assert_eq!(a, vec![0, 1]);
        let b = RoundSelection::MostUncertain.select(&scores, &judged(&[]), 2);
        assert_eq!(b, vec![0, 1]);
    }
}
