//! Scheduling policies.
//!
//! * [`SchedPolicy::Fifo`] — strict arrival order; the head of the queue
//!   blocks everything behind it (stock Torque without a scheduler).
//! * [`SchedPolicy::EasyBackfill`] — EASY backfill: the head job gets a
//!   reservation at the earliest time it can run; later jobs may start
//!   now if their walltime ends before that reservation (Maui's and
//!   SLURM's default behavior).
//! * [`SchedPolicy::MauiPriority`] — Maui-style priority ordering
//!   (waiting time minus a fairshare penalty on heavy users) with EASY
//!   backfill on top.

/// The scheduling policy a simulator runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedPolicy {
    /// First-in-first-out, head-of-line blocking.
    Fifo,
    /// FIFO order with EASY backfill.
    EasyBackfill,
    /// Priority = wait_seconds × `queue_weight` − user_used_core_seconds ×
    /// `fairshare_weight`, with EASY backfill.
    MauiPriority {
        queue_weight: f64,
        fairshare_weight: f64,
    },
}

impl SchedPolicy {
    /// A Maui configuration close to the shipped default.
    pub fn maui_default() -> Self {
        SchedPolicy::MauiPriority {
            queue_weight: 1.0,
            fairshare_weight: 1e-4,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "FIFO",
            SchedPolicy::EasyBackfill => "EASY backfill",
            SchedPolicy::MauiPriority { .. } => "Maui priority + backfill",
        }
    }

    /// Does this policy backfill?
    pub fn backfills(&self) -> bool {
        !matches!(self, SchedPolicy::Fifo)
    }

    /// Short machine-friendly name, used in sweep variant directories
    /// and CLI grids ([`SchedPolicy::parse`] round-trips it).
    pub fn slug(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::EasyBackfill => "easy",
            SchedPolicy::MauiPriority { .. } => "maui",
        }
    }

    /// Parse the slug spelling (`fifo` / `easy` / `maui`); `maui` gets
    /// the shipped default weights.
    pub fn parse(s: &str) -> Result<SchedPolicy, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fifo" => Ok(SchedPolicy::Fifo),
            "easy" => Ok(SchedPolicy::EasyBackfill),
            "maui" => Ok(SchedPolicy::maui_default()),
            other => Err(format!("unknown policy {other:?} (want fifo/easy/maui)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(SchedPolicy::Fifo.label(), "FIFO");
        assert!(SchedPolicy::maui_default().label().contains("Maui"));
    }

    #[test]
    fn backfill_flags() {
        assert!(!SchedPolicy::Fifo.backfills());
        assert!(SchedPolicy::EasyBackfill.backfills());
        assert!(SchedPolicy::maui_default().backfills());
    }
}
