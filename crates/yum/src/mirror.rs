//! Mirror lists and failover.
//!
//! Yum fetches metadata and packages from a list of mirrors, falling back
//! down the list on failure. We model latency and availability so the
//! provisioning timelines in `xcbc-rocks`/`xcbc-core` can account for
//! download time, and so failure injection can exercise retry paths.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use xcbc_fault::{retry_with, FaultInjector, InjectionPoint, RetryPolicy};
use xcbc_sim::{SimTime, TraceEvent, BACKOFF_PREFIX};

/// Trace source tag for mirror fetch events.
const TRACE_SOURCE: &str = "yum.mirror";

/// Seed for retry jitter when fetching without a fault injector (the
/// injector path derives its jitter stream from the plan seed instead).
const SAMPLER_JITTER_SEED: u64 = 0x5eed_f37c;

/// Floor for [`Mirror::bandwidth_mbps`]: a mirror this slow is
/// effectively dead, but fetch times stay finite and positive.
pub const MIN_BANDWIDTH_MBPS: f64 = 1e-3;

/// One mirror of a repository.
#[derive(Debug, Clone, PartialEq)]
pub struct Mirror {
    pub url: String,
    /// Sustained throughput in MB/s.
    pub bandwidth_mbps: f64,
    /// Round-trip latency in milliseconds.
    pub latency_ms: f64,
    /// Probability a fetch from this mirror fails (0.0..=1.0).
    pub failure_rate: f64,
}

impl Mirror {
    /// Build a mirror. Bandwidth is floored at [`MIN_BANDWIDTH_MBPS`]
    /// and latency at zero, so zero/negative inputs cannot produce
    /// infinite or negative fetch times.
    pub fn new(url: impl Into<String>, bandwidth_mbps: f64, latency_ms: f64) -> Self {
        Mirror {
            url: url.into(),
            bandwidth_mbps: bandwidth_mbps.max(MIN_BANDWIDTH_MBPS),
            latency_ms: latency_ms.max(0.0),
            failure_rate: 0.0,
        }
    }

    pub fn with_failure_rate(mut self, rate: f64) -> Self {
        self.failure_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Seconds to fetch `bytes` from this mirror, if it succeeds.
    /// Guards against a zero/negative `bandwidth_mbps` written directly
    /// into the (public) field after construction.
    pub fn fetch_seconds(&self, bytes: u64) -> f64 {
        let bandwidth = self.bandwidth_mbps.max(MIN_BANDWIDTH_MBPS);
        self.latency_ms.max(0.0) / 1000.0 + (bytes as f64 / (1024.0 * 1024.0)) / bandwidth
    }
}

/// Outcome of a fetch attempt across the mirror list.
#[derive(Debug, Clone, PartialEq)]
pub struct MirrorOutcome {
    /// Mirror that served the fetch, if any.
    pub served_by: Option<String>,
    /// Mirrors tried and failed first.
    pub failed: Vec<String>,
    /// Total wall seconds including failed attempts (each failed attempt
    /// costs its latency as a timeout).
    pub seconds: f64,
}

impl MirrorOutcome {
    pub fn succeeded(&self) -> bool {
        self.served_by.is_some()
    }
}

/// An ordered list of mirrors with failover.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MirrorList {
    pub mirrors: Vec<Mirror>,
}

impl MirrorList {
    pub fn new(mirrors: Vec<Mirror>) -> Self {
        MirrorList { mirrors }
    }

    /// The one fetch entry point: walk the mirror list under the
    /// failure model, retry policy, and trace timebase described by
    /// `options`, returning a full [`FetchReport`].
    ///
    /// Each pass walks the mirrors in order; a failed attempt costs
    /// yum's 3 timeout-latencies and a `timeout <url>` span, the
    /// serving transfer costs [`Mirror::fetch_seconds`] and a
    /// `fetch <url>` span. When every mirror fails a pass, the pass is
    /// retried under the options' [`RetryPolicy`] and the backoff is
    /// reported separately (plus one [`BACKOFF_PREFIX`] span) so
    /// callers can charge it to an install trace.
    ///
    /// The failure model depends on what the options carry:
    /// - with an injector ([`FetchOptions::inject`]): faults scheduled
    ///   at `mirror.fetch` fire, and `failure_rate` is sampled from a
    ///   plan-seeded stream;
    /// - with a sampler ([`FetchOptions::sample_with`]): `failure_rate`
    ///   is sampled from the caller's RNG;
    /// - with neither: mirrors never fail (deterministic best case).
    pub fn fetch_with(&self, options: FetchOptions<'_>) -> FetchReport {
        let FetchOptions {
            bytes,
            policy,
            injector,
            sampler,
            start,
        } = options;
        match injector {
            Some(inj) => {
                let mut jitter_rng = inj.rng_for("mirror.fetch.backoff");
                let mut rate_rng = inj.rng_for("mirror.fetch.rate");
                self.run_passes(bytes, &policy, &mut jitter_rng, start, |m| {
                    // both streams advance on every attempt (no
                    // short-circuit): keeps plan-seeded runs identical
                    // whether or not a fault fires first
                    let injected = inj
                        .should_fault(InjectionPoint::MirrorFetch, &m.url)
                        .is_some();
                    let sampled = rate_rng.gen_bool(m.failure_rate);
                    injected || sampled
                })
            }
            None => {
                let mut jitter_rng = StdRng::seed_from_u64(SAMPLER_JITTER_SEED);
                let mut sampler = sampler;
                self.run_passes(
                    bytes,
                    &policy,
                    &mut jitter_rng,
                    start,
                    |m| match &mut sampler {
                        Some(rng) => rng.gen_bool(m.failure_rate),
                        None => false,
                    },
                )
            }
        }
    }

    /// The shared pass/retry/trace loop behind [`MirrorList::fetch_with`].
    fn run_passes(
        &self,
        bytes: u64,
        policy: &RetryPolicy,
        jitter_rng: &mut StdRng,
        start: SimTime,
        mut fails: impl FnMut(&Mirror) -> bool,
    ) -> FetchReport {
        let mut failed: Vec<String> = Vec::new();
        let mut transfer_s = 0.0;
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut cursor = start;
        let retry = retry_with(policy, jitter_rng, |attempt| {
            for m in &self.mirrors {
                if fails(m) {
                    failed.push(m.url.clone());
                    let timeout_s = 3.0 * m.latency_ms / 1000.0;
                    transfer_s += timeout_s;
                    let span = TraceEvent::span(
                        cursor,
                        TRACE_SOURCE,
                        format!("timeout {}", m.url),
                        timeout_s,
                    )
                    .with_field("attempt", attempt as u64);
                    cursor = span.end();
                    events.push(span);
                    continue;
                }
                let fetch_s = m.fetch_seconds(bytes);
                transfer_s += fetch_s;
                let span =
                    TraceEvent::span(cursor, TRACE_SOURCE, format!("fetch {}", m.url), fetch_s)
                        .with_field("bytes", bytes)
                        .with_field("attempt", attempt as u64);
                cursor = span.end();
                events.push(span);
                return Ok(m.url.clone());
            }
            Err(())
        });
        if retry.backoff_s > 0.0 {
            events.push(TraceEvent::span(
                cursor,
                TRACE_SOURCE,
                format!("{BACKOFF_PREFIX}mirror.fetch retry"),
                retry.backoff_s,
            ));
        }
        FetchReport {
            outcome: MirrorOutcome {
                served_by: retry.result.ok(),
                failed,
                seconds: transfer_s,
            },
            attempts: retry.attempts,
            backoff_s: retry.backoff_s,
            events,
        }
    }
}

/// Everything a mirror fetch can be configured with — how many bytes,
/// how hard to retry, what makes mirrors fail, and where on the sim
/// timebase the trace spans start.
///
/// Built fluent-style and consumed by [`MirrorList::fetch_with`]:
///
/// ```
/// use xcbc_yum::{FetchOptions, Mirror, MirrorList};
///
/// let list = MirrorList::new(vec![Mirror::new("http://cb-repo.iu.xsede.org/", 100.0, 20.0)]);
/// let report = list.fetch_with(FetchOptions::new(650 << 20));
/// assert!(report.succeeded());
/// assert_eq!(report.attempts, 1);
/// ```
pub struct FetchOptions<'a> {
    /// Payload size to transfer.
    bytes: u64,
    /// Retry policy for whole-list passes.
    policy: RetryPolicy,
    /// Fault injector driving scheduled faults + plan-seeded sampling.
    injector: Option<&'a mut FaultInjector>,
    /// Caller RNG for `failure_rate` sampling (ignored when an
    /// injector is present — the plan's stream takes over).
    sampler: Option<&'a mut dyn RngCore>,
    /// Trace timebase origin for the emitted spans.
    start: SimTime,
}

impl std::fmt::Debug for FetchOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchOptions")
            .field("bytes", &self.bytes)
            .field("policy", &self.policy)
            .field("injector", &self.injector.is_some())
            .field("sampler", &self.sampler.is_some())
            .field("start", &self.start)
            .finish()
    }
}

impl<'a> FetchOptions<'a> {
    /// Options to fetch `bytes` with no retries, no failures, and spans
    /// starting at time zero.
    pub fn new(bytes: u64) -> FetchOptions<'a> {
        FetchOptions {
            bytes,
            policy: RetryPolicy::none(),
            injector: None,
            sampler: None,
            start: SimTime::ZERO,
        }
    }

    /// Retry failed passes under `policy`.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Fail mirrors according to `injector`'s fault plan (scheduled
    /// `mirror.fetch` faults plus plan-seeded `failure_rate` sampling).
    pub fn inject(mut self, injector: &'a mut FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Sample each mirror's `failure_rate` from `rng`. Ignored when an
    /// injector is also set.
    pub fn sample_with(mut self, rng: &'a mut (impl RngCore + 'a)) -> Self {
        self.sampler = Some(rng);
        self
    }

    /// Start the emitted trace spans at `start` on the sim timebase.
    pub fn starting_at(mut self, start: impl Into<SimTime>) -> Self {
        self.start = start.into();
        self
    }
}

/// What [`MirrorList::fetch_with`] reports: the fetch outcome, the
/// retry accounting, and the trace spans.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchReport {
    /// Which mirror served, which failed, and the transfer seconds.
    pub outcome: MirrorOutcome,
    /// Full passes over the mirror list (1 = no retry needed).
    pub attempts: u32,
    /// Backoff seconds charged between passes.
    pub backoff_s: f64,
    /// Spans for every mirror attempt and any backoff, in time order.
    pub events: Vec<TraceEvent>,
}

impl FetchReport {
    /// Did any mirror serve the fetch?
    pub fn succeeded(&self) -> bool {
        self.outcome.succeeded()
    }

    /// Total virtual seconds: transfer/timeout time plus backoff.
    pub fn total_seconds(&self) -> f64 {
        self.outcome.seconds + self.backoff_s
    }

    /// Retries beyond the first pass.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn list() -> MirrorList {
        MirrorList::new(vec![
            Mirror::new("http://cb-repo.iu.xsede.org/xsederepo/", 100.0, 20.0),
            Mirror::new("http://mirror2.example.edu/xsederepo/", 50.0, 40.0),
        ])
    }

    #[test]
    fn fetch_time_scales_with_size() {
        let m = Mirror::new("u", 100.0, 0.0);
        let t1 = m.fetch_seconds(100 << 20);
        let t2 = m.fetch_seconds(200 << 20);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn healthy_first_mirror_serves() {
        let mut rng = StdRng::seed_from_u64(1);
        let out = list()
            .fetch_with(FetchOptions::new(10 << 20).sample_with(&mut rng))
            .outcome;
        assert!(out.succeeded());
        assert_eq!(
            out.served_by.as_deref(),
            Some("http://cb-repo.iu.xsede.org/xsederepo/")
        );
        assert!(out.failed.is_empty());
    }

    #[test]
    fn failover_to_second_mirror() {
        let mut l = list();
        l.mirrors[0].failure_rate = 1.0;
        let mut rng = StdRng::seed_from_u64(1);
        let out = l
            .fetch_with(FetchOptions::new(10 << 20).sample_with(&mut rng))
            .outcome;
        assert!(out.succeeded());
        assert_eq!(out.failed.len(), 1);
        assert!(out.served_by.as_deref().unwrap().contains("mirror2"));
        // time includes the timeout on the dead mirror
        assert!(out.seconds > l.mirrors[1].fetch_seconds(10 << 20));
    }

    #[test]
    fn all_mirrors_down_fails() {
        let mut l = list();
        for m in &mut l.mirrors {
            m.failure_rate = 1.0;
        }
        let mut rng = StdRng::seed_from_u64(1);
        let report = l.fetch_with(FetchOptions::new(10 << 20).sample_with(&mut rng));
        assert!(!report.succeeded());
        assert_eq!(report.outcome.failed.len(), 2);
    }

    #[test]
    fn empty_list_fails_instantly() {
        let l = MirrorList::default();
        let report = l.fetch_with(FetchOptions::new(1));
        assert!(!report.succeeded());
        assert_eq!(report.outcome.seconds, 0.0);
    }

    #[test]
    fn best_case_options_never_fail() {
        // no injector, no sampler: failure_rate is not consulted
        let mut l = list();
        l.mirrors[0].failure_rate = 1.0;
        let report = l.fetch_with(FetchOptions::new(10 << 20));
        assert!(report.succeeded());
        assert!(report.outcome.failed.is_empty());
    }

    #[test]
    fn failure_rate_clamped() {
        let m = Mirror::new("u", 1.0, 1.0).with_failure_rate(7.0);
        assert_eq!(m.failure_rate, 1.0);
    }

    #[test]
    fn zero_bandwidth_clamped_at_construction() {
        let m = Mirror::new("u", 0.0, 10.0);
        assert_eq!(m.bandwidth_mbps, MIN_BANDWIDTH_MBPS);
        let t = m.fetch_seconds(1 << 20);
        assert!(t.is_finite() && t > 0.0, "got {t}");
    }

    #[test]
    fn negative_bandwidth_and_latency_clamped() {
        let m = Mirror::new("u", -50.0, -20.0);
        assert_eq!(m.bandwidth_mbps, MIN_BANDWIDTH_MBPS);
        assert_eq!(m.latency_ms, 0.0);
        assert!(m.fetch_seconds(1 << 20).is_finite());
    }

    #[test]
    fn fetch_seconds_guards_field_mutation() {
        let mut m = Mirror::new("u", 100.0, 5.0);
        m.bandwidth_mbps = 0.0; // fields are pub; simulate bad mutation
        m.latency_ms = -3.0;
        let t = m.fetch_seconds(1 << 20);
        assert!(t.is_finite() && t >= 0.0, "got {t}");
    }

    #[test]
    fn resilient_fetch_clean_plan_first_pass() {
        let mut inj = xcbc_fault::FaultPlan::new(7).injector();
        let out = list().fetch_with(
            FetchOptions::new(10 << 20)
                .retry(xcbc_fault::RetryPolicy::default())
                .inject(&mut inj),
        );
        assert!(out.succeeded());
        assert_eq!(out.attempts, 1);
        assert_eq!(out.backoff_s, 0.0);
        assert_eq!(out.retries(), 0);
    }

    #[test]
    fn resilient_fetch_survives_transient_mirror_fault() {
        // First hit on every mirror fails; second pass succeeds.
        let plan = xcbc_fault::FaultPlan::new(11).fail(
            xcbc_fault::InjectionPoint::MirrorFetch,
            None,
            xcbc_fault::FaultWindow::Nth(0),
        );
        let mut inj = plan.injector();
        let out = list().fetch_with(
            FetchOptions::new(10 << 20)
                .retry(xcbc_fault::RetryPolicy::default())
                .inject(&mut inj),
        );
        assert!(out.succeeded(), "failover + retry should recover");
        assert_eq!(out.attempts, 2);
        assert!(out.backoff_s > 0.0, "backoff charged for the retry");
        assert_eq!(
            out.outcome.failed.len(),
            2,
            "both mirrors failed the first pass"
        );
        assert!(out.total_seconds() > out.outcome.seconds);
    }

    #[test]
    fn resilient_fetch_exhausts_attempts_when_plan_insists() {
        let plan = xcbc_fault::FaultPlan::new(13).fail(
            xcbc_fault::InjectionPoint::MirrorFetch,
            None,
            xcbc_fault::FaultWindow::Always,
        );
        let mut inj = plan.injector();
        let policy = xcbc_fault::RetryPolicy::new(3, 1.0);
        let out = list().fetch_with(FetchOptions::new(10 << 20).retry(policy).inject(&mut inj));
        assert!(!out.succeeded());
        assert_eq!(out.attempts, 3);
        assert_eq!(inj.injected_count(), 6, "2 mirrors x 3 passes");
    }

    #[test]
    fn traced_fetch_spans_cover_transfer_and_backoff() {
        let plan = xcbc_fault::FaultPlan::new(11).fail(
            xcbc_fault::InjectionPoint::MirrorFetch,
            None,
            xcbc_fault::FaultWindow::Nth(0),
        );
        let mut inj = plan.injector();
        let report = list().fetch_with(
            FetchOptions::new(10 << 20)
                .retry(xcbc_fault::RetryPolicy::default())
                .inject(&mut inj)
                .starting_at(0.0),
        );
        assert!(report.succeeded());
        // 2 timeouts (first pass), 1 fetch (second pass), 1 backoff span
        let labels: Vec<_> = report.events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(
            report
                .events
                .iter()
                .filter(|e| e.label.starts_with("timeout "))
                .count(),
            2
        );
        assert_eq!(
            report
                .events
                .iter()
                .filter(|e| e.label.starts_with("fetch "))
                .count(),
            1
        );
        assert!(
            labels.iter().any(|l| l.starts_with(BACKOFF_PREFIX)),
            "{labels:?}"
        );
        // span durations account for every virtual second of the fetch
        let span_total: f64 = report
            .events
            .iter()
            .map(|e| e.duration().as_secs_f64())
            .sum();
        assert!((span_total - report.total_seconds()).abs() < 1e-6);
        // attempt spans tile the timeline: each starts where the previous ended
        for pair in report.events.windows(2) {
            assert_eq!(pair[1].t, pair[0].end());
        }
    }

    #[test]
    fn resilient_fetch_deterministic_per_seed() {
        let run = || {
            let plan = xcbc_fault::FaultPlan::new(21)
                .with_rate(xcbc_fault::InjectionPoint::MirrorFetch, 0.5);
            let mut inj = plan.injector();
            list().fetch_with(
                FetchOptions::new(10 << 20)
                    .retry(xcbc_fault::RetryPolicy::default())
                    .inject(&mut inj),
            )
        };
        assert_eq!(run(), run());
    }
}
