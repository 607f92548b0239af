//! Batching policy and the dynamic coalescing rule.
//!
//! The dispatch decision the paper's economics hinge on, transplanted to a
//! serving front end: a GEMM over `B·r` coalesced rows costs far less than
//! `B` GEMMs over `r` rows each, because per-launch overhead (kernel launch
//! on the device model, operand packing on the CPU implementation) is paid
//! once instead of `B` times. The dynamic batcher therefore holds a dispatch
//! open for up to a deadline, merging queued jobs that share a
//! [`crate::JobSpec::batch_key`] — same model, same kind, hence the same
//! `LayerShape`s and the same resolved plans — until the batch is full.

use std::time::Duration;

/// When a worker dispatches the jobs it has drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Dispatch every job alone — the baseline the dynamic policy must
    /// beat.
    PerRequest,
    /// Coalesce jobs sharing a batch key until the batch reaches
    /// `max_batch_rows` or `deadline` has elapsed since the first job was
    /// drained, whichever comes first.
    Dynamic {
        /// Upper bound on coalesced rows per dispatch.
        max_batch_rows: usize,
        /// How long a partially filled batch may wait for more jobs.
        deadline: Duration,
    },
    /// Marginal-value batching: hold a partially filled batch open only
    /// while the expected merge win of the next arrival — the key's
    /// observed arrival rate times the launch-overhead saving priced on
    /// the gpu-sim timing model — exceeds the latency cost imposed on the
    /// jobs already waiting ([`gpu_sim::hold_batch`]). A quiet queue
    /// dispatches immediately instead of burning a fixed deadline;
    /// `max_deadline` only backstops the decision rule.
    Adaptive {
        /// Upper bound on coalesced rows per dispatch.
        max_batch_rows: usize,
        /// Hard cap on how long a batch may be held regardless of the
        /// marginal rule.
        max_deadline: Duration,
    },
}

impl BatchPolicy {
    /// A dynamic policy with defaults sized for the bench workloads:
    /// 256-row batches, half-millisecond deadline.
    pub fn dynamic_default() -> Self {
        BatchPolicy::Dynamic {
            max_batch_rows: 256,
            deadline: Duration::from_micros(500),
        }
    }

    /// The adaptive policy with defaults sized for the bench workloads:
    /// 256-row batches, 2 ms backstop deadline (the marginal rule usually
    /// dispatches far earlier).
    pub fn adaptive_default() -> Self {
        BatchPolicy::Adaptive {
            max_batch_rows: 256,
            max_deadline: Duration::from_millis(2),
        }
    }

    /// Stable label for bench output.
    pub fn label(&self) -> &'static str {
        match self {
            BatchPolicy::PerRequest => "per_request",
            BatchPolicy::Dynamic { .. } => "dynamic",
            BatchPolicy::Adaptive { .. } => "adaptive",
        }
    }

    /// The row bound of a coalescing policy (`None` for per-request).
    pub fn max_batch_rows(&self) -> Option<usize> {
        match *self {
            BatchPolicy::PerRequest => None,
            BatchPolicy::Dynamic { max_batch_rows, .. }
            | BatchPolicy::Adaptive { max_batch_rows, .. } => Some(max_batch_rows),
        }
    }
}
