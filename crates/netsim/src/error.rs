//! Structured transport errors.
//!
//! The original substrate treated every misuse or stall as a panic or an
//! infinite block: a short payload tripped an `assert_eq!` deep inside
//! `waitall_into`, and an unmatched receive hung the rank thread
//! forever. Under fault injection (see [`crate::fault`]) both become
//! *expected* runtime outcomes, so the public API reports them as typed
//! errors instead.

use std::fmt;

/// Upper bound on the `(source, tag)` entries a [`NetsimError::Timeout`]
/// diagnostic carries in `pending` and `mailbox`. The error path is the
/// one place the steady-state transport allocates (see
/// `netsim/tests/event_alloc.rs`); capping the dump keeps that
/// allocation bounded regardless of rank count, and keeps the rendered
/// error readable when thousands of receives expire at once. Builders
/// keep the lexicographically smallest keys so the dump is
/// deterministic.
pub const MAX_DIAG_KEYS: usize = 16;

/// Errors surfaced by the netsim public API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetsimError {
    /// A rank blocked with receives that can never complete: the
    /// scheduler found the cluster deadlocked (or aborting), on either
    /// backend.
    ///
    /// `pending` lists the `(source, tag)` pairs that never matched;
    /// `mailbox` is a diagnostic dump of the `(source, tag, queued)`
    /// keys that *are* sitting in this rank's mailbox — the deadlock
    /// detector's view of what arrived but was never asked for.
    Timeout {
        /// Rank whose receive timed out.
        rank: usize,
        /// Posted receives that never matched, as `(source, tag)`.
        pending: Vec<(usize, u64)>,
        /// Unmatched mailbox keys when the wait gave up: `(source, tag, queued)`.
        mailbox: Vec<(usize, u64, usize)>,
    },
    /// A delivered message's length did not match the posted receive.
    SizeMismatch {
        /// Receiving rank.
        rank: usize,
        /// Sending rank.
        source: usize,
        /// Message tag.
        tag: u64,
        /// Elements the receive expected.
        expected: usize,
        /// Elements the message carried.
        got: usize,
    },
    /// A send or receive referenced a rank outside the topology.
    InvalidRank {
        /// The offending rank id.
        rank: usize,
        /// Topology size.
        size: usize,
    },
    /// A loopback transfer's source and destination lengths differ.
    LoopbackMismatch {
        /// Rank performing the loopback.
        rank: usize,
        /// Message tag.
        tag: u64,
        /// Source elements.
        src_len: usize,
        /// Destination elements.
        dst_len: usize,
    },
    /// A reliable-exchange retry budget was exhausted without
    /// convergence (raised by protocol layers built on the transport).
    RetriesExhausted {
        /// Rank that gave up.
        rank: usize,
        /// Rounds attempted.
        rounds: u32,
        /// `(source, tag)` pairs still missing.
        pending: Vec<(usize, u64)>,
    },
    /// A rank suffered a crash-stop process fault. The failure detector
    /// surfaces this on every survivor whose blocking receive, wait,
    /// fence or poll observed the revocation — instead of hanging on
    /// messages the dead rank will never send. Resilient drivers (see
    /// the core checkpoint harness) catch it and run a recovery epoch
    /// ([`crate::RankCtx::recover`]); everyone else propagates it as a
    /// structured run failure.
    RankFailed {
        /// The rank that died.
        rank: usize,
        /// The surviving rank that observed (or reports) the failure.
        detected_by: usize,
        /// The timestep the victim was executing when it died.
        step: u64,
    },
    /// A rank body panicked. The panic was caught at the rank boundary,
    /// the surviving ranks were woken and unwound, and the first panic
    /// observed (the root cause — later ones are usually secondary
    /// failures of ranks unblocked by the abort) is reported here
    /// instead of tearing down the process through a poisoned join.
    RankPanicked {
        /// Rank whose body panicked first.
        rank: usize,
        /// The panic payload, rendered to a string.
        payload: String,
    },
}

impl fmt::Display for NetsimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetsimError::Timeout { rank, pending, mailbox } => {
                write!(
                    f,
                    "rank {rank}: blocked with {} receive(s) that can never complete: ",
                    pending.len()
                )?;
                for (i, (src, tag)) in pending.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(src {src}, tag {tag:#x})")?;
                }
                if pending.len() >= MAX_DIAG_KEYS {
                    write!(f, ", … (dump capped at {MAX_DIAG_KEYS})")?;
                }
                if mailbox.is_empty() {
                    write!(f, "; mailbox is empty (likely dropped or never sent)")
                } else {
                    write!(f, "; unmatched mailbox keys:")?;
                    for (src, tag, n) in mailbox {
                        write!(f, " (src {src}, tag {tag:#x}) x{n}")?;
                    }
                    if mailbox.len() >= MAX_DIAG_KEYS {
                        write!(f, " … (dump capped at {MAX_DIAG_KEYS})")?;
                    }
                    Ok(())
                }
            }
            NetsimError::SizeMismatch { rank, source, tag, expected, got } => write!(
                f,
                "rank {rank}: message length mismatch from rank {source} tag {tag:#x}: \
                 expected {expected} elements, got {got}"
            ),
            NetsimError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} is outside the {size}-rank topology")
            }
            NetsimError::LoopbackMismatch { rank, tag, src_len, dst_len } => write!(
                f,
                "rank {rank}: loopback length mismatch (tag {tag:#x}): \
                 source {src_len} elements, destination {dst_len}"
            ),
            NetsimError::RetriesExhausted { rank, rounds, pending } => write!(
                f,
                "rank {rank}: retry budget exhausted after {rounds} round(s) with \
                 {} message(s) still missing",
                pending.len()
            ),
            NetsimError::RankFailed { rank, detected_by, step } => write!(
                f,
                "rank {rank} failed (crash-stop) during step {step}, \
                 detected by rank {detected_by}"
            ),
            NetsimError::RankPanicked { rank, payload } => {
                write!(f, "rank {rank} panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for NetsimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_message_lists_pending_and_mailbox() {
        let e = NetsimError::Timeout {
            rank: 3,
            pending: vec![(1, 0x42), (2, 7)],
            mailbox: vec![(5, 9, 2)],
        };
        let s = e.to_string();
        assert!(s.contains("rank 3"));
        assert!(s.contains("(src 1, tag 0x42)"));
        assert!(s.contains("(src 5, tag 0x9) x2"));
    }

    #[test]
    fn size_mismatch_names_both_ranks_and_tag() {
        let e = NetsimError::SizeMismatch { rank: 1, source: 0, tag: 5, expected: 8, got: 6 };
        let s = e.to_string();
        assert!(s.contains("rank 1"));
        assert!(s.contains("from rank 0"));
        assert!(s.contains("expected 8"));
        assert!(s.contains("got 6"));
    }

    #[test]
    fn empty_mailbox_hints_at_drop() {
        let e = NetsimError::Timeout { rank: 0, pending: vec![(1, 1)], mailbox: vec![] };
        assert!(e.to_string().contains("dropped or never sent"));
    }

    #[test]
    fn rank_failed_names_victim_detector_and_step() {
        let e = NetsimError::RankFailed { rank: 2, detected_by: 0, step: 5 };
        let s = e.to_string();
        assert!(s.contains("rank 2 failed"));
        assert!(s.contains("step 5"));
        assert!(s.contains("detected by rank 0"));
    }

    #[test]
    fn capped_timeout_dump_says_so() {
        let pending: Vec<(usize, u64)> = (0..MAX_DIAG_KEYS).map(|i| (i, 1)).collect();
        let e = NetsimError::Timeout { rank: 0, pending, mailbox: vec![] };
        assert!(e.to_string().contains("dump capped at 16"));
    }

    #[test]
    fn rank_panicked_reports_rank_and_payload() {
        let e = NetsimError::RankPanicked { rank: 7, payload: "index out of bounds".into() };
        let s = e.to_string();
        assert!(s.contains("rank 7 panicked"));
        assert!(s.contains("index out of bounds"));
    }
}
