//! Seeded input generation: corpus, feedback log, query popularity and the
//! per-client session schedule. Pure — nothing here touches the system
//! under test, so the same `--seed` always yields the same inputs.
//!
//! The **data set** (corpus, popularity ranks, initial log) is generated
//! from the fixed [`WORLD_SEED`]; `--seed` draws the **traffic** (which
//! sessions, in which order, with which label noise). A Zipf head is a
//! handful of queries — the hottest alone is ~12 % of traffic — so a
//! data set that changed with the seed would report each seed's luck in
//! which queries came out hot (±15–50 % on tail latencies and precision)
//! instead of the system's speed.

/// Images per category (COREL's shape); ids are laid out category-major,
/// so `id / PER_CATEGORY` is the ground-truth category.
pub const PER_CATEGORY: usize = 100;
/// Feature dimension: the paper's 9 colour + 18 edge + 9 texture values.
pub const DIM: usize = 36;
/// Zipf exponent of query popularity.
pub const ZIPF_S: f64 = 1.05;
/// Probability that the simulated user's judgment is flipped.
pub const LABEL_NOISE: f64 = 0.1;
/// Seed of the data set every run shares.
pub const WORLD_SEED: u64 = 0x1cde_2005;
/// Sessions per stratified block of the schedule (a multiple of 10, so
/// `mixed_paper`'s scheme shares are whole numbers, and of 3).
pub const BLOCK: usize = 60;
/// Within-cluster standard deviation against unit-variance cluster
/// centres. Calibrated so retrieval is neither trivial nor hopeless:
/// final precision@20 lands near 0.3 at 2 000 clusters (`content_scan`)
/// and near 0.8 at 200, leaving room to move either way.
const CLUSTER_SPREAD: f64 = 1.4;

/// Ground-truth category of an image id.
pub fn category_of(id: usize) -> usize {
    id / PER_CATEGORY
}

/// splitmix64 finalizer: derives independent sub-seeds from (seed, tag).
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64* with a cached Box–Muller spare.
pub struct Rng {
    state: u64,
    spare: Option<f64>,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self {
            // xorshift must not start at zero.
            state: mix(seed, 0) | 1,
            spare: None,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize
    }

    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let r = (-2.0 * (1.0 - self.uniform()).ln()).sqrt();
        let theta = std::f64::consts::TAU * self.uniform();
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) popularity over a **seeded permutation** of image ids: rank 0
/// is the hottest query, and which id holds which rank depends on the
/// seed, so hot queries spread over shards and categories instead of
/// piling onto ids 0..k.
pub struct Zipf {
    cdf: Vec<f64>,
    rank_to_id: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, seed: u64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Rounding must not leave a gap a draw of u ≈ 1 could fall into.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let mut rank_to_id: Vec<usize> = (0..n).collect();
        Rng::new(mix(seed, 0x5a17)).shuffle(&mut rank_to_id);
        Self { cdf, rank_to_id }
    }

    #[cfg(test)]
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    #[cfg(test)]
    pub fn rank_to_id(&self) -> &[usize] {
        &self.rank_to_id
    }

    /// The image id at quantile `u` of the popularity distribution.
    pub fn id_at(&self, u: f64) -> usize {
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.rank_to_id[rank]
    }
}

/// `n` stratified uniforms: one draw from each of the `n` equal slices of
/// `[0, 1)`, in shuffled order. Against i.i.d. draws this pins the share
/// of hot queries in every block (the hottest Zipf query is ~12% of
/// traffic and far costlier than the median on `log_heavy`; i.i.d. counts
/// of it would swing ±17% per 250 sessions and the tail metrics with it).
pub fn stratified(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut us: Vec<f64> = (0..n)
        .map(|j| (j as f64 + rng.uniform()) / n as f64)
        .collect();
    rng.shuffle(&mut us);
    us
}

/// Synthetic features + categories: one Gaussian cluster per category.
pub struct Corpus {
    pub features: Vec<Vec<f64>>,
    pub categories: Vec<usize>,
}

pub fn corpus(seed: u64, n_images: usize) -> Corpus {
    let mut rng = Rng::new(mix(seed, 0xc0e9));
    let n_categories = n_images.div_ceil(PER_CATEGORY);
    let centres: Vec<f64> = (0..n_categories * DIM).map(|_| rng.normal()).collect();
    let mut features = Vec::with_capacity(n_images);
    let mut categories = Vec::with_capacity(n_images);
    for id in 0..n_images {
        let c = category_of(id);
        let centre = &centres[c * DIM..(c + 1) * DIM];
        features.push(
            centre
                .iter()
                .map(|m| m + CLUSTER_SPREAD * rng.normal())
                .collect(),
        );
        categories.push(c);
    }
    Corpus {
        features,
        categories,
    }
}

/// Judgments per generated log session (before de-duplication).
const LOG_JUDGMENTS: usize = 20;
/// Share of a log session's judged images drawn from the query's category.
const LOG_CATEGORY_BIAS: f64 = 0.6;

/// `m` historical feedback sessions as `(image, relevant)` lists with no
/// repeated image: a Zipf query, ~20 judged images biased to the query's
/// category, labels by ground truth with [`LABEL_NOISE`] flips. (The
/// repo's `collect_log` ranks the whole database per session — O(M·N) —
/// and does not reach the M this benchmark needs.)
pub fn log_sessions(seed: u64, zipf: &Zipf, n_images: usize, m: usize) -> Vec<Vec<(usize, bool)>> {
    let mut rng = Rng::new(mix(seed, 0x109));
    stratified(&mut rng, m)
        .into_iter()
        .map(|u| {
            let query = zipf.id_at(u);
            let cat = category_of(query);
            let cat_start = cat * PER_CATEGORY;
            let cat_len = PER_CATEGORY.min(n_images - cat_start);
            let mut judged: Vec<(usize, bool)> = Vec::with_capacity(LOG_JUDGMENTS);
            for _ in 0..LOG_JUDGMENTS {
                let id = if rng.uniform() < LOG_CATEGORY_BIAS {
                    cat_start + rng.below(cat_len)
                } else {
                    rng.below(n_images)
                };
                let flip = rng.uniform() < LABEL_NOISE;
                if judged.iter().all(|&(j, _)| j != id) {
                    judged.push((id, (category_of(id) == cat) != flip));
                }
            }
            judged
        })
        .collect()
}

/// Relevance-feedback scheme of a session (mirrors the service's enum;
/// `sut.rs` maps it across).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    Euclidean,
    RfSvm,
    Lrf2Svms,
    LrfCsvm,
}

/// How a workload picks each session's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Every session: this scheme, 2 × [20 marks, rerank, page].
    Fixed(Scheme),
    /// 50% LrfCsvm, 20% Lrf2Svms, 20% RfSvm, 10% Euclidean; 1–3 rounds.
    Paper,
    /// Cycles of 10 write-only sessions (8 marks, no rerank, RfSvm) then
    /// one LrfCsvm reader session; odd clients start at the reader.
    Churn,
}

/// One session the simulated user will run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionPlan {
    pub query: usize,
    pub scheme: Scheme,
    /// Feedback rounds (marks → rerank → page); 0 for write-only sessions.
    pub rounds: usize,
    /// Judgments per round (or in total for a write-only session).
    pub marks: usize,
    /// Seeds the session's label-noise draws.
    pub noise_seed: u64,
}

const WRITER_MARKS: usize = 8;
const ROUND_MARKS: usize = 20;
const CHURN_CYCLE: usize = 11;

/// One kind of session a workload issues, with its own stratified pool of
/// popularity draws: the costly sessions (log-side schemes on hot
/// queries) then make up the same share of every block, instead of
/// whatever share a shuffle of independent draws happens to give them.
struct Class {
    scheme: Scheme,
    /// Sessions of this class per block.
    per_block: usize,
    /// `Some(r)`: every session runs `r` rounds. `None`: 1–3 rounds,
    /// dealt in turn along the class's popularity order so hot and cold
    /// queries get the same round mix.
    rounds: Option<usize>,
    marks: usize,
    /// `(popularity quantile, rounds)` still to be issued in this block.
    pool: Vec<(f64, usize)>,
}

impl Class {
    fn new(scheme: Scheme, per_block: usize, rounds: Option<usize>, marks: usize) -> Self {
        Self {
            scheme,
            per_block: per_block.max(1),
            rounds,
            marks,
            pool: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> (f64, usize) {
        if self.pool.is_empty() {
            let mut us = stratified(rng, self.per_block);
            us.sort_unstable_by(f64::total_cmp);
            let offset = rng.below(3);
            self.pool = us
                .into_iter()
                .enumerate()
                .map(|(i, u)| (u, self.rounds.unwrap_or(1 + (i + offset) % 3)))
                .collect();
            rng.shuffle(&mut self.pool);
        }
        self.pool.pop().expect("pool was just refilled")
    }
}

/// The endless, deterministic session stream of one client.
pub struct Schedule<'a> {
    zipf: &'a Zipf,
    mix: Mix,
    client: usize,
    rng: Rng,
    classes: Vec<Class>,
    /// `Mix::Paper`: class index of each session left in this block.
    order: Vec<usize>,
    issued: usize,
}

impl<'a> Schedule<'a> {
    /// `stream` separates the warm-up, check and timed streams of a client.
    pub fn new(zipf: &'a Zipf, mix: Mix, seed: u64, client: usize, stream: u64) -> Self {
        Self {
            zipf,
            mix,
            client,
            rng: Rng::new(mix_stream(seed, client, stream)),
            classes: Vec::new(),
            order: Vec::new(),
            issued: 0,
        }
        .with_block(BLOCK)
    }

    /// Stratifies over blocks of `len` sessions instead of [`BLOCK`]: a
    /// phase of exactly `len` sessions then has the same popularity mix
    /// on every seed.
    pub fn with_block(mut self, len: usize) -> Self {
        self.classes = match self.mix {
            Mix::Fixed(scheme) => vec![Class::new(scheme, len, Some(2), ROUND_MARKS)],
            Mix::Paper => vec![
                Class::new(Scheme::LrfCsvm, len / 2, None, ROUND_MARKS),
                Class::new(Scheme::Lrf2Svms, len / 5, None, ROUND_MARKS),
                Class::new(Scheme::RfSvm, len / 5, None, ROUND_MARKS),
                Class::new(Scheme::Euclidean, len / 10, None, ROUND_MARKS),
            ],
            Mix::Churn => vec![
                Class::new(Scheme::RfSvm, len, Some(0), WRITER_MARKS),
                Class::new(Scheme::LrfCsvm, len / 3, Some(2), ROUND_MARKS),
            ],
        };
        self.order.clear();
        self
    }

    /// Which class the `k`-th session of this client belongs to.
    fn class_of(&mut self, k: usize) -> usize {
        match self.mix {
            Mix::Fixed(_) => 0,
            Mix::Churn => {
                let offset = if self.client % 2 == 1 {
                    CHURN_CYCLE - 1
                } else {
                    0
                };
                usize::from((k + offset) % CHURN_CYCLE == CHURN_CYCLE - 1)
            }
            Mix::Paper => {
                if self.order.is_empty() {
                    self.order = self
                        .classes
                        .iter()
                        .enumerate()
                        .flat_map(|(i, c)| std::iter::repeat_n(i, c.per_block))
                        .collect();
                    self.rng.shuffle(&mut self.order);
                }
                self.order.pop().expect("order was just refilled")
            }
        }
    }
}

fn mix_stream(seed: u64, client: usize, stream: u64) -> u64 {
    mix(mix(seed, 0x5c4e + stream), client as u64)
}

impl Iterator for Schedule<'_> {
    type Item = SessionPlan;

    fn next(&mut self) -> Option<SessionPlan> {
        let class = self.class_of(self.issued);
        self.issued += 1;
        let class = &mut self.classes[class];
        let (u, rounds) = class.draw(&mut self.rng);
        Some(SessionPlan {
            query: self.zipf.id_at(u),
            scheme: class.scheme,
            rounds,
            marks: class.marks,
            noise_seed: self.rng.next_u64(),
        })
    }
}

/// The first `n` plans of a client's timed stream, serialised — what the
/// "same seed, same schedule" tests compare byte for byte.
#[cfg(test)]
pub fn schedule_bytes(zipf: &Zipf, mix: Mix, seed: u64, client: usize, n: usize) -> Vec<u8> {
    Schedule::new(zipf, mix, seed, client, 0)
        .take(n)
        .flat_map(|p| format!("{p:?}\n").into_bytes())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_sums_to_one_and_is_monotone() {
        let z = Zipf::new(5000, 7);
        assert_eq!(*z.cdf().last().unwrap(), 1.0);
        assert!(z.cdf().windows(2).all(|w| w[0] < w[1]));
        // The hottest rank carries 1/H(n, s) of the mass.
        let h: f64 = (1..=5000).map(|r| (r as f64).powf(-ZIPF_S)).sum();
        assert!((z.cdf()[0] - 1.0 / h).abs() < 1e-12);
    }

    #[test]
    fn rank_to_id_is_a_seeded_permutation() {
        let a = Zipf::new(2000, 1);
        let mut sorted = a.rank_to_id().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..2000).collect::<Vec<_>>());
        assert_ne!(
            a.rank_to_id(),
            &sorted[..],
            "identity map piles onto shard 0"
        );
        assert_eq!(a.rank_to_id(), Zipf::new(2000, 1).rank_to_id());
        assert_ne!(a.rank_to_id(), Zipf::new(2000, 2).rank_to_id());
    }

    #[test]
    fn extreme_quantiles_stay_in_range() {
        let z = Zipf::new(300, 3);
        assert_eq!(z.id_at(0.0), z.rank_to_id()[0]);
        assert_eq!(z.id_at(1.0), z.rank_to_id()[299]);
    }

    #[test]
    fn stratified_draws_cover_every_slice_once() {
        let mut rng = Rng::new(9);
        let mut slices: Vec<usize> = stratified(&mut rng, 60)
            .into_iter()
            .map(|u| (u * 60.0) as usize)
            .collect();
        slices.sort_unstable();
        assert_eq!(slices, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn log_sessions_never_repeat_an_image() {
        let zipf = Zipf::new(2000, 5);
        let sessions = log_sessions(5, &zipf, 2000, 400);
        assert_eq!(sessions.len(), 400);
        for s in &sessions {
            assert!(!s.is_empty() && s.len() <= LOG_JUDGMENTS);
            let mut ids: Vec<usize> = s.iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), s.len(), "LogSession::new panics on a repeat");
            assert!(ids.iter().all(|&id| id < 2000));
        }
    }

    #[test]
    fn same_seed_same_schedule_different_seed_different_schedule() {
        let zipf = Zipf::new(2000, 11);
        for mix in [Mix::Fixed(Scheme::LrfCsvm), Mix::Paper, Mix::Churn] {
            let a = schedule_bytes(&zipf, mix, 11, 0, 200);
            assert_eq!(a, schedule_bytes(&zipf, mix, 11, 0, 200));
            assert_ne!(a, schedule_bytes(&zipf, mix, 12, 0, 200));
            assert_ne!(a, schedule_bytes(&zipf, mix, 11, 1, 200));
        }
    }

    #[test]
    fn paper_mix_block_has_the_stated_shares() {
        let zipf = Zipf::new(2000, 2);
        let block: Vec<SessionPlan> = Schedule::new(&zipf, Mix::Paper, 2, 0, 0)
            .take(BLOCK)
            .collect();
        let share = |s: Scheme| block.iter().filter(|p| p.scheme == s).count();
        assert_eq!(share(Scheme::LrfCsvm), 30);
        assert_eq!(share(Scheme::Lrf2Svms), 12);
        assert_eq!(share(Scheme::RfSvm), 12);
        assert_eq!(share(Scheme::Euclidean), 6);
        for rounds in 1..=3 {
            assert_eq!(block.iter().filter(|p| p.rounds == rounds).count(), 20);
        }
    }

    #[test]
    fn a_class_block_covers_every_popularity_slice_and_deals_rounds_evenly() {
        let mut class = Class::new(Scheme::LrfCsvm, 30, None, ROUND_MARKS);
        let mut rng = Rng::new(8);
        let block: Vec<(f64, usize)> = (0..30).map(|_| class.draw(&mut rng)).collect();
        let mut slices: Vec<usize> = block.iter().map(|&(u, _)| (u * 30.0) as usize).collect();
        slices.sort_unstable();
        assert_eq!(slices, (0..30).collect::<Vec<_>>());
        for rounds in 1..=3 {
            assert_eq!(block.iter().filter(|&&(_, r)| r == rounds).count(), 10);
        }
        // Hot and cold halves of the class get the same round mix.
        let hot: usize = block
            .iter()
            .filter(|&&(u, _)| u < 0.5)
            .map(|&(_, r)| r)
            .sum();
        assert_eq!(hot, 30, "15 sessions x mean 2 rounds");
    }

    #[test]
    fn churn_cycles_ten_writers_then_a_reader_and_odd_clients_lead_with_it() {
        let zipf = Zipf::new(2000, 2);
        let even: Vec<usize> = Schedule::new(&zipf, Mix::Churn, 2, 0, 0)
            .take(22)
            .map(|p| p.rounds)
            .collect();
        assert_eq!(even.iter().filter(|&&r| r == 2).count(), 2);
        assert_eq!((even[10], even[21]), (2, 2));
        let odd = Schedule::new(&zipf, Mix::Churn, 2, 1, 0).next().unwrap();
        assert_eq!((odd.rounds, odd.scheme), (2, Scheme::LrfCsvm));
    }

    #[test]
    fn corpus_is_category_major_and_seeded() {
        let a = corpus(4, 250);
        assert_eq!(a.features.len(), 250);
        assert!(a.features.iter().all(|f| f.len() == DIM));
        assert_eq!(a.categories[99], 0);
        assert_eq!(a.categories[100], 1);
        assert_eq!(a.categories[249], 2);
        assert_eq!(a.features[17], corpus(4, 250).features[17]);
        assert_ne!(a.features[17], corpus(5, 250).features[17]);
    }
}
