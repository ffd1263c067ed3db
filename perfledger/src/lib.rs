//! # perfledger — the attack-tagger performance ledger
//!
//! One command measures the Fig. 4 pipeline end to end (records in,
//! detections and blocks out) through the inline, sharded and
//! tenant-service paths, and — in a separate traced run — layer by layer
//! (generate, rescope, symbolize, filter, detect, correlate, respond,
//! snapshot codec). See `README.md` in this directory for the workloads,
//! the metric → layer table and reference figures.

pub mod alloc;
pub mod checks;
pub mod ledger;
pub mod passes;
pub mod trace;
pub mod workload;

#[global_allocator]
static ALLOCATOR: alloc::ArmedCounter = alloc::ArmedCounter;

/// Why a pass did not produce a checkable result.
#[derive(Debug)]
pub enum PassError {
    /// A service call failed: the operation failed.
    Failed(testbed::ServiceError),
    /// The pass completed but its output is wrong.
    Wrong(String),
}

impl From<testbed::ServiceError> for PassError {
    fn from(e: testbed::ServiceError) -> Self {
        PassError::Failed(e)
    }
}
