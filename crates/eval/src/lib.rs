//! Downstream-task evaluation for the DistGER reproduction (§6.4).
//!
//! * [`link_prediction`] — the paper's primary effectiveness metric: 50 % of
//!   the edges are removed as positive test pairs, an equal number of
//!   non-edges are sampled as negatives, and edges are scored by the
//!   dot-product of the endpoint embeddings; quality is the AUC.
//! * [`classification`] — multi-label node classification with a one-vs-rest
//!   logistic-regression classifier, reported as micro- and macro-averaged F1
//!   over a range of training ratios (Figure 9).
//! * [`recall`] — `recall@k` of the serving layer's approximate (LSH) top-k
//!   backend against the exact brute-force reference, the quality metric of
//!   the query engine in `distger-serve`.

#![forbid(unsafe_code)]

pub mod classification;
pub mod link_prediction;
pub mod metrics;
pub mod recall;

pub use classification::{evaluate_classification, ClassificationScores};
pub use link_prediction::{auc_score, evaluate_link_prediction, split_edges, EdgeSplit};
pub use metrics::{macro_f1, micro_f1, LabelCounts};
pub use recall::{backend_recall, recall_at_k, RecallReport};
