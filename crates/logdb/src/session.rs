//! Log sessions — the unit of collected feedback.
//!
//! "A typical relevance feedback round can be viewed as a unit of user log
//! session. For each user log session, suppose there are N_l images
//! returned to be judged by users, which are marked as relevant or
//! irrelevant."

use serde::{DeError, Deserialize, Serialize, Value};

use crate::sparse::NEG;

/// A single relevance judgment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relevance {
    /// The user marked the image relevant (`+1` in the relevance matrix).
    Relevant,
    /// The user marked the image irrelevant (`−1`).
    Irrelevant,
}

impl Relevance {
    /// The matrix encoding: `+1.0` / `−1.0`.
    pub fn sign(self) -> f64 {
        match self {
            Relevance::Relevant => 1.0,
            Relevance::Irrelevant => -1.0,
        }
    }

    /// Builds from a boolean "is relevant" judgment.
    pub fn from_bool(relevant: bool) -> Self {
        if relevant {
            Relevance::Relevant
        } else {
            Relevance::Irrelevant
        }
    }
}

/// One feedback round: a set of judged images. Unjudged images are
/// implicitly `0` ("unknown") in the relevance matrix.
///
/// A judgment is 4 bytes, packed as a [`crate::SparseVector`] entry is:
/// the image id, with the top bit set when the image was marked
/// irrelevant. The store holds each judgment twice, here and in the
/// image's column, so `R` costs 8 bytes per judgment plus the two lists'
/// spare capacity. On disk a session is `{"judgments":[[id,"Relevant"],…]}`.
#[derive(Clone, Debug, PartialEq)]
pub struct LogSession {
    /// Image ids (indices into the image database that the store was
    /// created for), each `| NEG` when the image was marked irrelevant;
    /// ascending when built by [`LogSession::new`], in the order read
    /// when decoded.
    judgments: Vec<u32>,
}

/// Packs each judgment, in order; an image id of `2³¹` or more is an
/// error naming it.
fn pack(judgments: Vec<(usize, Relevance)>) -> Result<Vec<u32>, String> {
    let mut packed = Vec::with_capacity(judgments.len());
    for (id, judgment) in judgments {
        let fits = u32::try_from(id).ok().filter(|&id| id < NEG);
        let id = fits.ok_or_else(|| format!("image id {id} does not fit in 31 bits"))?;
        packed.push(id | (NEG * u32::from(judgment == Relevance::Irrelevant)));
    }
    Ok(packed)
}

/// A packed judgment as `(image_id, judgment)`.
fn unpack(packed: u32) -> (usize, Relevance) {
    (
        (packed & !NEG) as usize,
        Relevance::from_bool(packed & NEG == 0),
    )
}

impl LogSession {
    /// Builds a session from judgments.
    ///
    /// # Panics
    /// Panics if the same image is judged twice in one session (a session
    /// is one screen of results; duplicates indicate a caller bug), or if
    /// an image id is `2³¹` or more (a judgment keeps its id in 31 bits).
    pub fn new(judgments: Vec<(usize, Relevance)>) -> Self {
        // lrf-lint: allow(service-panic): a service's sessions judge
        // images `mark` checked against the database, and no database
        // that fits in memory reaches image id 2³¹. Other callers keep
        // the documented `# Panics`.
        let mut judgments = pack(judgments).unwrap_or_else(|e| panic!("{e}"));
        judgments.sort_unstable_by_key(|&packed| packed & !NEG);
        for w in judgments.windows(2) {
            let id = w[0] & !NEG;
            assert!(id != w[1] & !NEG, "image {id} judged twice in one session");
        }
        Self { judgments }
    }

    /// Number of judged images (the paper's per-session `N_l`, 20 in its
    /// collection protocol).
    pub fn len(&self) -> usize {
        self.judgments.len()
    }

    /// `true` when the session judged nothing.
    pub fn is_empty(&self) -> bool {
        self.judgments.is_empty()
    }

    /// Iterates `(image_id, judgment)` in image-id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Relevance)> + '_ {
        self.judgments.iter().map(|&packed| unpack(packed))
    }

    /// The judgment for `image_id`, if this session judged it.
    pub fn judgment(&self, image_id: usize) -> Option<Relevance> {
        self.judgments
            .binary_search_by_key(&image_id, |&packed| unpack(packed).0)
            .ok()
            .map(|pos| unpack(self.judgments[pos]).1)
    }
}

impl Serialize for LogSession {
    fn to_value(&self) -> Value {
        let judgments = self.iter().map(|judgment| judgment.to_value()).collect();
        Value::Object(vec![("judgments".into(), Value::Array(judgments))])
    }
}

impl Deserialize for LogSession {
    /// Reads what [`Serialize`] writes; an image id of `2³¹` or more is
    /// an error, never a truncation. The ids' order is the store's check.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let judgments = Vec::from_value(&v["judgments"]).and_then(|j| pack(j).map_err(DeError));
        let judgments = judgments.map_err(|e| DeError(format!("field `judgments`: {e}")))?;
        Ok(Self { judgments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LogSession {
        /// Bytes the judgment list holds on the heap, spare capacity
        /// included.
        pub(crate) fn heap_bytes(&self) -> usize {
            self.judgments.capacity() * std::mem::size_of::<u32>()
        }
    }

    /// Count of relevant marks.
    fn n_relevant(s: &LogSession) -> usize {
        s.iter().filter(|&(_, r)| r == Relevance::Relevant).count()
    }

    #[test]
    fn relevance_signs() {
        assert_eq!(Relevance::Relevant.sign(), 1.0);
        assert_eq!(Relevance::Irrelevant.sign(), -1.0);
        assert_eq!(Relevance::from_bool(true), Relevance::Relevant);
        assert_eq!(Relevance::from_bool(false), Relevance::Irrelevant);
    }

    #[test]
    fn session_sorts_and_looks_up() {
        let s = LogSession::new(vec![
            (9, Relevance::Irrelevant),
            (2, Relevance::Relevant),
            (5, Relevance::Relevant),
        ]);
        assert_eq!(s.len(), 3);
        assert_eq!(n_relevant(&s), 2);
        assert_eq!(s.judgment(2), Some(Relevance::Relevant));
        assert_eq!(s.judgment(9), Some(Relevance::Irrelevant));
        assert_eq!(s.judgment(4), None);
        let ids: Vec<usize> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "judged twice")]
    fn duplicate_judgment_rejected() {
        let _ = LogSession::new(vec![(1, Relevance::Relevant), (1, Relevance::Irrelevant)]);
    }

    #[test]
    #[should_panic(expected = "image id 2147483648 does not fit in 31 bits")]
    fn image_id_past_31_bits_rejected() {
        let _ = LogSession::new(vec![
            (1, Relevance::Relevant),
            (1 << 31, Relevance::Irrelevant),
        ]);
    }

    #[test]
    fn empty_session_is_allowed() {
        let s = LogSession::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(n_relevant(&s), 0);
    }
}
