//! Typed admission outcomes: overload produces answers, not backlog.
//!
//! Submitting a job can fail in four ways, each of which the serving
//! layer reports explicitly instead of silently enqueueing:
//!
//! * [`AdmissionError::Invalid`] — the job names no model of the catalog,
//!   so no worker could ever run it; [`crate::Client::submit`] returns this
//!   immediately and nothing reaches a worker.
//! * [`AdmissionError::EmptyJob`] — the job asks for zero rows, which no
//!   model can train or infer on; refused the same way.
//! * [`AdmissionError::Rejected`] — the shard is full and the incoming job
//!   is the cheapest-to-retry work in sight; [`crate::Client::submit`]
//!   returns this immediately, so the tenant can back off and retry.
//! * [`AdmissionError::Shed`] — the job *was* admitted earlier but a more
//!   valuable job displaced it before a worker picked it up; it arrives on
//!   the job's reply channel as the `Err` arm of [`crate::JobReply`].
//!
//! "Cheaper" is [`crate::JobSpec::shed_rank`]: Background before Batch
//! before Interactive, and Infer before Train within a class — an
//! inference is a stateless read, so retrying it costs nothing, while a
//! dropped training step loses an SGD update.

use crate::qos::QosClass;
use std::fmt;

/// Why a job was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The job can never be served as specified: its `model` index is
    /// outside the server's catalog. It was never enqueued.
    Invalid {
        /// The requested model index.
        model: usize,
        /// Number of models in the catalog.
        catalog: usize,
    },
    /// The job asks for zero rows: there is nothing to train or infer on.
    /// It was never enqueued.
    EmptyJob,
    /// The target shard was at its bound and no queued job was cheaper to
    /// shed than the incoming one; the job was never enqueued.
    Rejected {
        /// The per-shard job bound that was hit.
        bound: usize,
    },
    /// The job was enqueued but later displaced by a more valuable
    /// arrival; delivered on the reply channel.
    Shed {
        /// QoS class of the job that displaced this one.
        by: QosClass,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Invalid { model, catalog } => write!(
                f,
                "invalid: model {model} is not in the {catalog}-model catalog"
            ),
            AdmissionError::EmptyJob => write!(f, "invalid: the job asks for zero rows"),
            AdmissionError::Rejected { bound } => write!(
                f,
                "rejected: queue shard at its {bound}-job bound held no cheaper work"
            ),
            AdmissionError::Shed { by } => {
                write!(f, "shed from the queue by an arriving {by} job")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// What a reply channel yields: the completed [`crate::JobResult`] or the
/// typed reason the job was dropped after admission.
pub type JobReply = Result<crate::JobResult, AdmissionError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cause() {
        let rejected = AdmissionError::Rejected { bound: 64 };
        assert!(rejected.to_string().contains("64"));
        let shed = AdmissionError::Shed {
            by: QosClass::Interactive,
        };
        assert!(shed.to_string().contains("interactive"));
        let invalid = AdmissionError::Invalid {
            model: 3,
            catalog: 1,
        };
        assert!(invalid.to_string().contains("model 3"));
        assert!(AdmissionError::EmptyJob.to_string().contains("zero rows"));
    }
}
