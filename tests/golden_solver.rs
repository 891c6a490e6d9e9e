//! Golden solver bits: the literal output of `lrf_svm::train` on the
//! largest problem the repo ever trains (the `svm_train` bench's n = 240
//! shape) and of `decision_batch` over the row views of a matrix larger
//! than any pool the service scores, pinned before the kernel-row store
//! lost its LRU and the batch scorers their thread plane.
//! `golden_training.rs` pins the coupled trainers built on the solver;
//! this file pins the solver itself: a refactor that recomputes a row in
//! another order, evicts one, or splits a batch differently moves a bit
//! here.
//!
//! The values were captured from the code as it stood before that change
//! and must never be edited to make a refactor pass. A failing assertion
//! prints the observed value in the literal's own syntax.

use lrf_svm::{train, KernelCache, RbfKernel, SmoParams, SolveStats, TrainedSvm};

const DIM: usize = 36;

/// SplitMix64: the whole generator fits here, so the fixture depends on
/// nothing but this file.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// The `svm_train` bench's problem shape: alternating labels, each class a
/// unit box around `±0.5` on every axis, so the classes overlap.
fn problem(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = SplitMix(seed);
    let labels: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let samples = labels
        .iter()
        .map(|y| (0..DIM).map(|_| y * 0.5 + rng.unit()).collect())
        .collect();
    (samples, labels)
}

fn solve(
    samples: &[Vec<f64>],
    labels: &[f64],
    warm: Option<&[f64]>,
) -> TrainedSvm<[f64], RbfKernel> {
    let bounds = vec![10.0; samples.len()];
    let rows = samples.iter().map(Vec::as_slice).collect();
    let mut store = KernelCache::new(RbfKernel::new(1.0 / DIM as f64), rows);
    let dual = store
        .solve(labels, &bounds, &SmoParams::default(), warm)
        .expect("the fixture is a valid two-class problem");
    store.machine(dual, labels)
}

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The three counters the service's `smo_iterations_total` and
/// `kernel_cache_{hits,misses}_total` are summed from.
fn counters(stats: &SolveStats) -> (usize, u64, u64) {
    (stats.iterations, stats.cache_hits, stats.cache_misses)
}

#[test]
fn largest_solve_is_pinned_bit_for_bit() {
    let (samples, labels) = problem(240, 7);
    let bounds = vec![10.0; 240];
    let svm = train(
        &samples,
        &labels,
        &bounds,
        RbfKernel::new(1.0 / DIM as f64),
        &SmoParams::default(),
    )
    .expect("the fixture is a valid two-class problem");

    assert!(svm.stats.converged);
    assert_eq!(counters(&svm.stats), (89, 232, 36));
    assert_eq!(svm.stats.n_support, 34);
    assert_eq!(svm.model.bias().to_bits(), 13813353364880187096);
    // Every nonzero alpha; the other 206 are +0.0 (bit pattern 0), which
    // the checksum below covers.
    let support: Vec<(usize, u64)> = svm
        .alpha
        .iter()
        .enumerate()
        .filter(|(_, a)| **a != 0.0)
        .map(|(i, a)| (i, a.to_bits()))
        .collect();
    assert_eq!(
        support,
        [
            (4, 4592495447071688068),
            (10, 4606670565107607266),
            (11, 4602041369269710048),
            (12, 4590268010501701997),
            (30, 4606317730321361574),
            (32, 4593853978226470877),
            (40, 4584828581703718611),
            (42, 4595324013626204932),
            (44, 4600899738391110097),
            (45, 4595283816314452441),
            (49, 4606127848677404140),
            (63, 4594056861732325396),
            (68, 4599517268930221710),
            (71, 4597866031205530678),
            (77, 4602227680539676609),
            (81, 4585859058802092256),
            (88, 4576586456569931169),
            (102, 4603383751237259427),
            (123, 4598130926043301358),
            (124, 4604958757763741479),
            (136, 4590405312290747967),
            (142, 4582491254692347876),
            (145, 4591163936391419220),
            (147, 4604428600330729065),
            (149, 4601953010192708806),
            (157, 4588740522964579744),
            (162, 4583739143015275039),
            (182, 4593137534963418117),
            (203, 4587156264772743676),
            (205, 4598984227346614943),
            (215, 4600463103465529903),
            (229, 4594599907591777301),
            (230, 4595848357339735864),
            (239, 4585251456238972299)
        ]
    );
    assert_eq!(
        fnv(svm.alpha.iter().copied().chain([svm.model.bias()])),
        17509333819552994015,
        "every alpha and the bias, as one checksum"
    );
}

#[test]
fn batch_scores_above_the_old_thread_threshold_are_pinned() {
    let (samples, labels) = problem(240, 7);
    let svm = solve(&samples, &labels, None);
    // 1,345 rows: more than the 1,024 at which the scorer used to fork.
    let mut rng = SplitMix(1345);
    let data: Vec<f64> = (0..1345 * DIM).map(|_| 1.5 * rng.unit()).collect();

    let rows: Vec<&[f64]> = data.chunks_exact(DIM).collect();
    let scores = svm.model.decision_batch(&rows);
    assert_eq!(scores.len(), 1345);
    let spots: Vec<u64> = [0, 1, 191, 672, 1023, 1024, 1200, 1344]
        .iter()
        .map(|&i| scores[i].to_bits())
        .collect();
    assert_eq!(
        spots,
        [
            13816327088485058907,
            13810861538837610947,
            13817421040890730128,
            13822243251059396961,
            4594054698434997935,
            4585914072277647063,
            4592958454276215566,
            13825549027542374621
        ]
    );
    assert_eq!(
        fnv(scores),
        16543070314128036147,
        "all 1,345 scores, as one checksum"
    );
}

/// What a warm start buys, in the unit that does not depend on the host:
/// seeded with the previous round's solution (the same session before its
/// last 8 marks), the solver reaches the same optimum in fewer working-set
/// updates.
#[test]
fn warm_round_takes_fewer_iterations_to_the_same_objective() {
    let (samples, labels) = problem(120, 7);
    let previous = solve(&samples[..112], &labels[..112], None);
    let cold = solve(&samples, &labels, None);
    let warm = solve(&samples, &labels, Some(&previous.alpha));

    assert!(cold.stats.converged && warm.stats.converged);
    assert!(
        warm.stats.iterations < cold.stats.iterations,
        "warm {} vs cold {} iterations",
        warm.stats.iterations,
        cold.stats.iterations
    );
    let eps = lrf_svm::EPS;
    assert!(
        (warm.stats.objective - cold.stats.objective).abs() <= eps,
        "warm objective {} vs cold {}",
        warm.stats.objective,
        cold.stats.objective
    );
    assert_eq!(counters(&previous.stats), (62, 157, 30));
    assert_eq!(counters(&cold.stats), (67, 171, 31));
    assert_eq!(counters(&warm.stats), (18, 54, 30));
}
