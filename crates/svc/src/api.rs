//! The typed request/response surface of `xcbcd`.
//!
//! Every operation a tenant can ask of the service is an [`SvcOp`];
//! an [`SvcRequest`] wraps one with the tenant identity, its arrival
//! tick (the admission clock), and the seed the workload generator
//! drew it under (journaled for audit). Responses are [`SvcResponse`]:
//! either `Accepted` with an assigned journal sequence number and a
//! deterministic text body, or typed `Rejected` with the admission
//! controller's reason.

use xcbc_yum::{Fnv64, SolveKind, SolveRequest};

/// One operation a tenant can request of the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcOp {
    /// Depsolve a typed request against the tenant's repo view and
    /// current frontend database (no state change).
    Solve(SolveRequest),
    /// Run the XNIT overlay deploy across the tenant's node databases
    /// (installs everything compatibility still misses; incremental —
    /// a second deploy is a fast no-op).
    Deploy,
    /// A monitoring snapshot of the request ledger as of this request's
    /// admission (accepted totals, tenant's own count).
    MonSnapshot,
    /// The tenant's own journaled history (seq numbers + digest of the
    /// latest entry) as of this request's admission.
    TraceFetch,
}

impl SvcOp {
    /// Stable digest of the normalized operation — the `digest` column
    /// of a journal entry. Tenant identity is *not* mixed in (it is its
    /// own journal column); for solves this is the normalized
    /// [`SolveRequest::digest`].
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        match self {
            SvcOp::Solve(req) => h.write_u64(1).write_u64(req.digest()),
            SvcOp::Deploy => h.write_u64(2),
            SvcOp::MonSnapshot => h.write_u64(3),
            SvcOp::TraceFetch => h.write_u64(4),
        };
        h.finish()
    }

    /// Canonical single-line text form; [`SvcOp::parse`] round-trips
    /// it. Target names must be comma/space-free (package names are).
    pub fn render(&self) -> String {
        match self {
            SvcOp::Solve(req) => {
                let norm = req.normalized();
                match norm.kind() {
                    SolveKind::UpdateAll => "solve update-all".to_string(),
                    kind => {
                        let verb = if kind == SolveKind::Install {
                            "install"
                        } else {
                            "update"
                        };
                        format!("solve {verb}:{}", norm.targets().join(","))
                    }
                }
            }
            SvcOp::Deploy => "deploy".to_string(),
            SvcOp::MonSnapshot => "mon".to_string(),
            SvcOp::TraceFetch => "trace".to_string(),
        }
    }

    /// Parse the canonical text form back into an op. A solve comes back
    /// normalized, as [`render`](SvcOp::render) writes it, so
    /// `parse(render(parse(t))) == parse(t)`.
    pub fn parse(text: &str) -> Result<SvcOp, String> {
        match text.trim() {
            "deploy" => return Ok(SvcOp::Deploy),
            "mon" => return Ok(SvcOp::MonSnapshot),
            "trace" => return Ok(SvcOp::TraceFetch),
            "solve update-all" => return Ok(SvcOp::Solve(SolveRequest::update_all())),
            _ => {}
        }
        let rest = text
            .trim()
            .strip_prefix("solve ")
            .ok_or_else(|| format!("unrecognized op: {text:?}"))?;
        let req = if let Some(targets) = rest.strip_prefix("install:") {
            SolveRequest::install(targets.split(',').filter(|t| !t.is_empty()))
        } else if let Some(targets) = rest.strip_prefix("update:") {
            SolveRequest::update(targets.split(',').filter(|t| !t.is_empty()))
        } else {
            return Err(format!("unrecognized solve op: {text:?}"));
        };
        Ok(SvcOp::Solve(req.normalized()))
    }
}

/// One tenant request presented to the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SvcRequest {
    /// Which tenant is asking.
    pub tenant: String,
    /// Arrival tick on the admission clock (drives token-bucket refill
    /// and the queue-depth window). Non-decreasing across a stream.
    pub tick: u64,
    /// The seed the workload generator drew this request under —
    /// journaled so an audited stream can be traced back to its
    /// generator state.
    pub seed: u64,
    /// What is being asked.
    pub op: SvcOp,
}

/// Why the admission controller refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's token bucket was empty. Checked *before* the global
    /// queue, so a throttled tenant always learns about its own quota
    /// even when the service is also saturated.
    QuotaExceeded,
    /// The global admission window was full (queue-depth limit).
    Backpressure,
}

impl RejectReason {
    /// Stable label (metrics + response bodies).
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QuotaExceeded => "quota-exceeded",
            RejectReason::Backpressure => "backpressure",
        }
    }
}

/// What happened to a request at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Journaled under the given sequence number and executed.
    Accepted {
        /// The journal sequence number (dense, 0-based).
        seq: u64,
    },
    /// Refused; never journaled, never touches a cache shard.
    Rejected(RejectReason),
}

/// The service's answer to one request, in submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SvcResponse {
    /// The requesting tenant.
    pub tenant: String,
    /// Admission outcome.
    pub disposition: Disposition,
    /// Deterministic text body: for accepted requests a pure function
    /// of the journal prefix and the tenant's serial state, so replay
    /// reproduces it byte-identically at any original worker count.
    pub body: String,
}

impl SvcResponse {
    /// Stable digest of the response body (the `response` column of the
    /// journal footer).
    pub fn body_digest(&self) -> u64 {
        body_digest(&self.body)
    }
}

/// Digest of a response body (see [`SvcResponse::body_digest`]).
pub fn body_digest(body: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(body.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_text_round_trips() {
        let ops = [
            SvcOp::Solve(SolveRequest::install(["gromacs", "R"])),
            SvcOp::Solve(SolveRequest::update(["hdf5"])),
            SvcOp::Solve(SolveRequest::update_all()),
            SvcOp::Deploy,
            SvcOp::MonSnapshot,
            SvcOp::TraceFetch,
        ];
        for op in ops {
            let text = op.render();
            let parsed = SvcOp::parse(&text).unwrap();
            assert_eq!(parsed.render(), text);
            assert_eq!(parsed.digest(), op.digest(), "{text}");
        }
        assert!(SvcOp::parse("destroy everything").is_err());
        assert!(SvcOp::parse("solve erase:gromacs").is_err());
    }

    #[test]
    fn op_digest_normalizes_targets() {
        let a = SvcOp::Solve(SolveRequest::install(["gromacs", "gromacs"]));
        let b = SvcOp::Solve(SolveRequest::install(["gromacs"]));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.render(), b.render(), "render is normalized too");
    }
}
