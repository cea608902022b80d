//! Error classes mirroring the MPI / ULFM error model.
//!
//! ULFM extends MPI's error classes with `MPI_ERR_PROC_FAILED` (a peer
//! involved in the operation has failed), `MPI_ERR_PROC_FAILED_PENDING`
//! (a non-blocking operation cannot complete because of a failure) and
//! `MPI_ERR_REVOKED` (the communicator was revoked by some rank). We model
//! the blocking subset used by the paper, so the pending variant collapses
//! into [`Error::ProcFailed`].

use std::fmt;

/// Result alias used across the runtime.
pub type Result<T> = std::result::Result<T, Error>;

/// Failure classes visible to an application rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// One or more peer processes participating in the operation have
    /// failed (fail-stop). Carries the ranks *known locally* to have failed
    /// in the communicator the operation ran on — like ULFM, different
    /// ranks may observe different subsets until they agree.
    ProcFailed { ranks: Vec<usize> },
    /// The communicator was revoked (`OMPI_Comm_revoke`) by some rank.
    /// Only `shrink` and `agree` remain usable on a revoked communicator.
    Revoked,
    /// A collective operation was called in inconsistent order across the
    /// members of a communicator, and the runtime's stall detector fired.
    /// This is always an application bug; real MPI would deadlock instead.
    CollectiveMismatch { detail: String },
    /// Malformed arguments (bad rank, wrong payload length, ...).
    InvalidArg(String),
    /// The spawn operation could not allocate the requested hosts/slots.
    SpawnFailed(String),
    /// This (respawned) process's repair round was abandoned by the
    /// survivors because a further failure struck mid-reconstruction; the
    /// process holds no usable communicator and must exit cleanly so the
    /// survivors' restarted recovery loop can spawn its successor.
    Orphaned,
    /// An application-level protocol invariant did not hold at this rank
    /// (e.g. a reduction root finding its partial already consumed after
    /// a failure landed mid-hop). Recoverable: the caller's retry loop
    /// treats it like a transient fault instead of aborting the process.
    Protocol(String),
}

impl Error {
    /// Convenience constructor for a single known-failed rank.
    pub fn proc_failed(rank: usize) -> Self {
        Error::ProcFailed { ranks: vec![rank] }
    }

    /// True if this is a process-failure error (the class the paper's
    /// recovery loop reacts to).
    pub fn is_proc_failed(&self) -> bool {
        matches!(self, Error::ProcFailed { .. })
    }

    /// True if the communicator was revoked.
    pub fn is_revoked(&self) -> bool {
        matches!(self, Error::Revoked)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ProcFailed { ranks } => {
                write!(f, "MPI_ERR_PROC_FAILED: failed ranks {ranks:?}")
            }
            Error::Revoked => write!(f, "MPI_ERR_REVOKED: communicator revoked"),
            Error::CollectiveMismatch { detail } => {
                write!(f, "collective mismatch / stall: {detail}")
            }
            Error::InvalidArg(s) => write!(f, "invalid argument: {s}"),
            Error::SpawnFailed(s) => write!(f, "spawn failed: {s}"),
            Error::Orphaned => {
                write!(f, "orphaned: repair round abandoned by a further failure")
            }
            Error::Protocol(s) => write!(f, "protocol invariant violated: {s}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_failed_constructor_and_predicates() {
        let e = Error::proc_failed(3);
        assert!(e.is_proc_failed());
        assert!(!e.is_revoked());
        assert_eq!(e, Error::ProcFailed { ranks: vec![3] });
    }

    #[test]
    fn revoked_predicate() {
        assert!(Error::Revoked.is_revoked());
        assert!(!Error::Revoked.is_proc_failed());
    }

    #[test]
    fn display_formats_are_informative() {
        let e = Error::ProcFailed { ranks: vec![1, 4] };
        let s = format!("{e}");
        assert!(s.contains("PROC_FAILED"));
        assert!(s.contains('1') && s.contains('4'));
        assert!(format!("{}", Error::Revoked).contains("REVOKED"));
        let p = Error::Protocol("partial consumed".into());
        assert!(format!("{p}").contains("protocol"));
        assert!(!p.is_proc_failed() && !p.is_revoked());
    }
}
