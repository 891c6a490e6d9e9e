//! # lrf-svm — support vector machine substrate
//!
//! The paper implements its coupled SVM "by modifying the LIBSVM library";
//! the modification it needs is a per-sample penalty: labeled points get
//! `C`, unlabeled points get `ρ*·C` (Eq. 2/3). This crate is that solver,
//! built from scratch:
//!
//! * `kernel` — the [`Kernel`] trait plus the dense [`RbfKernel`], the one
//!   content kernel every scheme trains with. The trait is generic over
//!   the sample type so downstream crates can run the same solver over
//!   sparse feedback-log vectors; the dense kernel targets `[f64]`, so
//!   borrowed row views of a flat feature matrix train and score with
//!   zero copies.
//! * `smo` — the C-SVC dual solved by Sequential Minimal Optimization
//!   with LIBSVM's second-order working-set selection, supporting an
//!   individual upper bound `C_i` per sample, plus warm starts (a solve
//!   seeded with the previous round's `α`) for fast per-round retraining.
//!   [`SmoParams`] is the one knob a caller has turned (`max_iter`); the
//!   stopping tolerance [`EPS`], the curvature floor `TAU` and the
//!   support-vector threshold are constants, as in LIBSVM.
//! * `working_set` — one SMO iteration: the second-order working-set
//!   selection and the closed-form update of the selected pair.
//! * `cache` — [`KernelCache`], the lazy kernel-row store every solve
//!   computes Gram rows through: a row is computed on first touch and kept
//!   until the store is dropped, with per-solve hit/miss counts surfaced
//!   in [`SolveStats`]. A solve in a store ([`KernelCache::solve`])
//!   returns a [`Dual`] — `α`, the bias and the stats — and builds no
//!   model; [`KernelCache::machine`] turns a dual into a [`TrainedSvm`],
//!   cloning its support vectors once, and is the only place a machine is
//!   built. [`train`] is a store used for one cold solve and one machine;
//!   a caller that seeds or re-solves (a feedback round, the coupled
//!   SVM's annealing) owns a store, grows it ([`KernelCache::extend`]),
//!   reads each dual's hinge slacks from its rows
//!   ([`KernelCache::slacks`]), and scores with the final dual's
//!   [`Dual::expansion`] or builds a machine from it.
//!   The eager full-matrix solve is the tests' bit-exact oracle.
//! * `model` — the trained decision function, and degenerate
//!   single-class handling (a feedback round can return only positives).
//!
//! ## The optimization problem
//!
//! Given samples `x_i`, labels `y_i ∈ {±1}` and bounds `C_i > 0`, the dual
//! is
//!
//! ```text
//! min_α  ½ αᵀQα − eᵀα    s.t.  yᵀα = 0,  0 ≤ α_i ≤ C_i
//! ```
//!
//! with `Q_ij = y_i y_j K(x_i, x_j)`. Optimality is certified by the KKT
//! violation `m(α) − M(α) ≤ ε` ([`EPS`]); the property-test suite
//! re-checks the KKT conditions independently of the solver.
//!
//! ## Example
//!
//! ```
//! use lrf_svm::{train, RbfKernel, SmoParams};
//!
//! let samples: Vec<Vec<f64>> = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.1], // negatives
//!     vec![1.0, 1.0], vec![0.9, 1.1], // positives
//! ];
//! let labels = [-1.0, -1.0, 1.0, 1.0];
//! let c = [10.0; 4];
//! let svm = train(&samples, &labels, &c, RbfKernel::new(0.5), &SmoParams::default()).unwrap();
//! let scores = svm.model.decision_batch(&samples);
//! assert!(scores[3] > 0.0 && scores[0] < 0.0);
//! ```

mod cache;
mod error;
mod kernel;
mod model;
mod smo;
mod working_set;

pub use cache::KernelCache;
pub use error::SvmError;
pub use kernel::{Kernel, RbfKernel};
pub use model::{SvmModel, TrainedSvm};
pub use smo::{train, Dual, SmoParams, SolveStats, EPS};
