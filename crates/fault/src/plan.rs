//! Deterministic fault plans and the injector that executes them.
//!
//! A [`FaultPlan`] is a pure value: a seed plus a list of [`FaultSpec`]s
//! ("the 2nd fetch from any mirror whose URL contains `mirror2` —
//! key filter `*mirror2*` — times out") and optional per-point random
//! rates. The [`FaultInjector`] built
//! from it is consulted at named [`InjectionPoint`]s throughout the
//! provisioning pipeline; identical plans produce identical fault
//! sequences, so any failure scenario — including the randomized ones —
//! is replayable from the plan alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use xcbc_sim::Fnv64;

/// Named places in the provisioning pipeline where faults can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InjectionPoint {
    /// A yum metadata/package fetch from one mirror (`xcbc-yum`).
    MirrorFetch,
    /// An insert-ethers DHCP discovery exchange (`xcbc-rocks`).
    DhcpDiscover,
    /// Kickstart file generation for a node (`xcbc-rocks`).
    KickstartGenerate,
    /// An RPM scriptlet run inside a package transaction (`xcbc-rpm`).
    RpmScriptlet,
    /// A node's PXE/BIOS boot on its way into the installer (`xcbc-rocks`).
    NodeBoot,
    /// Whole-frontend power loss mid-install (`xcbc-rocks`/`xcbc-core`).
    PowerLoss,
    /// The drain step at a rolling-update wave boundary (`xcbc-core`).
    /// A fault here aborts the campaign driver, leaving the checkpoint.
    CampaignDrain,
    /// The canary health check after the canary wave (`xcbc-core`). A
    /// fault here fails the health check and halts/rolls back the run.
    CampaignCanary,
    /// An elastic scale decision boundary (`xcbc-core`). A fault here
    /// aborts the elastic engine, leaving its checkpoint.
    ScaleUp,
    /// A burst site joining a running fleet (`xcbc-core`). A fault here
    /// fails the join; the fleet continues without the site.
    BurstJoin,
}

impl InjectionPoint {
    pub const ALL: [InjectionPoint; 10] = [
        InjectionPoint::MirrorFetch,
        InjectionPoint::DhcpDiscover,
        InjectionPoint::KickstartGenerate,
        InjectionPoint::RpmScriptlet,
        InjectionPoint::NodeBoot,
        InjectionPoint::PowerLoss,
        InjectionPoint::CampaignDrain,
        InjectionPoint::CampaignCanary,
        InjectionPoint::ScaleUp,
        InjectionPoint::BurstJoin,
    ];

    /// The stable name used in plan syntax and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            InjectionPoint::MirrorFetch => "mirror.fetch",
            InjectionPoint::DhcpDiscover => "dhcp.discover",
            InjectionPoint::KickstartGenerate => "kickstart.generate",
            InjectionPoint::RpmScriptlet => "rpm.scriptlet",
            InjectionPoint::NodeBoot => "node.boot",
            InjectionPoint::PowerLoss => "power.loss",
            InjectionPoint::CampaignDrain => "campaign.drain",
            InjectionPoint::CampaignCanary => "campaign.canary",
            InjectionPoint::ScaleUp => "elastic.scale-up",
            InjectionPoint::BurstJoin => "elastic.burst-join",
        }
    }

    pub fn parse(s: &str) -> Option<InjectionPoint> {
        Self::ALL.into_iter().find(|p| p.as_str() == s)
    }

    /// The fault kind this point produces when a spec names none.
    pub fn default_kind(self) -> FaultKind {
        match self {
            InjectionPoint::MirrorFetch => FaultKind::Transient,
            InjectionPoint::DhcpDiscover => FaultKind::Timeout,
            InjectionPoint::KickstartGenerate => FaultKind::Transient,
            InjectionPoint::RpmScriptlet => FaultKind::ScriptletError,
            InjectionPoint::NodeBoot => FaultKind::Hang,
            InjectionPoint::PowerLoss => FaultKind::PowerLoss,
            InjectionPoint::CampaignDrain => FaultKind::PowerLoss,
            InjectionPoint::CampaignCanary => FaultKind::ScriptletError,
            InjectionPoint::ScaleUp => FaultKind::PowerLoss,
            InjectionPoint::BurstJoin => FaultKind::Transient,
        }
    }
}

impl fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A deliberately planted defect, selected by `xcbc soak --mutation`
/// so the soak harness can prove its invariants catch real bugs. Each
/// production hook is a single equality check; `None` in production.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mutation {
    /// Cancel (lose) jobs evicted by a campaign drain instead of
    /// requeueing them (`campaign.no-job-lost` must fire).
    CampaignDropJob,
    /// Skip the post-wave version-skew solve probe
    /// (`campaign.converges` must fire).
    CampaignSkipSkew,
    /// Cancel (lose) jobs evicted by an elastic scale-down drain instead
    /// of requeueing them (`elastic.no-job-lost` must fire).
    ElasticDropJob,
    /// Suppress scale-up decisions the policy was obliged to make
    /// (`elastic.converges` must fire).
    ElasticSkipScaleUp,
    /// Drop one accepted entry from the rendered `xcbcd` journal
    /// (`svc.replay` must fire).
    SvcDropJournalEntry,
    /// Admit the first request that should have been rejected
    /// `quota-exceeded` (`svc.admission` must fire).
    SvcLeakQuota,
    /// Add the deliberately broken "no job ever times out" invariant to
    /// the suite (`mutation.no-timeouts` must fire).
    SoakNoTimeouts,
}

impl Mutation {
    pub const ALL: [Mutation; 7] = [
        Mutation::CampaignDropJob,
        Mutation::CampaignSkipSkew,
        Mutation::ElasticDropJob,
        Mutation::ElasticSkipScaleUp,
        Mutation::SvcDropJournalEntry,
        Mutation::SvcLeakQuota,
        Mutation::SoakNoTimeouts,
    ];

    /// The stable name used by `--mutation` and repro commands.
    pub fn as_str(self) -> &'static str {
        match self {
            Mutation::CampaignDropJob => "campaign.drop-job",
            Mutation::CampaignSkipSkew => "campaign.skip-skew",
            Mutation::ElasticDropJob => "elastic.drop-job",
            Mutation::ElasticSkipScaleUp => "elastic.skip-scale-up",
            Mutation::SvcDropJournalEntry => "svc.drop-journal-entry",
            Mutation::SvcLeakQuota => "svc.leak-quota",
            Mutation::SoakNoTimeouts => "soak.no-timeouts",
        }
    }

    pub fn parse(s: &str) -> Option<Mutation> {
        Self::ALL.into_iter().find(|m| m.as_str() == s)
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What kind of failure an injection produces. Callers map kinds onto
/// their own error types (a `Timeout` at `dhcp.discover` costs a DHCP
/// timeout; a `PowerLoss` aborts the whole install run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Operation fails immediately but cheaply; retry may succeed.
    Transient,
    /// Operation fails after burning its full timeout.
    Timeout,
    /// Operation never completes; caller charges a hang-detection window.
    Hang,
    /// An RPM scriptlet exits non-zero; the transaction must roll back.
    ScriptletError,
    /// Power loss: the whole install aborts, leaving only the checkpoint.
    PowerLoss,
}

impl FaultKind {
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Timeout => "timeout",
            FaultKind::Hang => "hang",
            FaultKind::ScriptletError => "scriptlet-error",
            FaultKind::PowerLoss => "power-loss",
        }
    }

    pub fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "transient" => Some(FaultKind::Transient),
            "timeout" => Some(FaultKind::Timeout),
            "hang" => Some(FaultKind::Hang),
            "scriptlet-error" | "scriptlet" => Some(FaultKind::ScriptletError),
            "power-loss" | "powerloss" => Some(FaultKind::PowerLoss),
            _ => None,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which hits (0-based occurrence indices per `(point, key)` stream) a
/// spec fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultWindow {
    /// Every hit.
    Always,
    /// Exactly the `n`-th hit.
    Nth(u64),
    /// The first `n` hits.
    FirstN(u64),
    /// Hits in `start..end`.
    Range { start: u64, end: u64 },
}

impl FaultWindow {
    pub fn matches(self, hit: u64) -> bool {
        match self {
            FaultWindow::Always => true,
            FaultWindow::Nth(n) => hit == n,
            FaultWindow::FirstN(n) => hit < n,
            FaultWindow::Range { start, end } => (start..end).contains(&hit),
        }
    }

    fn parse(s: &str) -> Option<FaultWindow> {
        if s == "always" {
            return Some(FaultWindow::Always);
        }
        if let Some(n) = s.strip_prefix("nth:") {
            return n.parse().ok().map(FaultWindow::Nth);
        }
        if let Some(n) = s.strip_prefix("first:") {
            return n.parse().ok().map(FaultWindow::FirstN);
        }
        if let Some((a, b)) = s.split_once("..") {
            let (start, end) = (a.parse().ok()?, b.parse().ok()?);
            if start < end {
                return Some(FaultWindow::Range { start, end });
            }
        }
        None
    }
}

impl fmt::Display for FaultWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultWindow::Always => write!(f, "always"),
            FaultWindow::Nth(n) => write!(f, "nth:{n}"),
            FaultWindow::FirstN(n) => write!(f, "first:{n}"),
            FaultWindow::Range { start, end } => write!(f, "{start}..{end}"),
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    pub point: InjectionPoint,
    /// Filter on the operation key (hostname, mirror URL, package
    /// name, ...). `None` matches every key. A bare filter matches the
    /// key **exactly**; leading/trailing `*` anchors loosen it
    /// (`foo*` prefix, `*foo` suffix, `*foo*` substring). Exact is the
    /// default because keys are often numbered streams — a substring
    /// `tick-1` would also fire on `tick-10` and `tick-100`.
    pub key: Option<String>,
    pub window: FaultWindow,
    pub kind: FaultKind,
}

/// Does `key` satisfy `filter` under the anchored-wildcard rules
/// documented on [`FaultSpec::key`]?
fn key_matches(filter: &str, key: &str) -> bool {
    match (filter.strip_prefix('*'), filter.strip_suffix('*')) {
        // "*foo*" (also handles the degenerate "*" → contains "")
        (Some(rest), Some(_)) => {
            let needle = rest.strip_suffix('*').unwrap_or(rest);
            key.contains(needle)
        }
        (Some(suffix), None) => key.ends_with(suffix),
        (None, Some(prefix)) => key.starts_with(prefix),
        (None, None) => key == filter,
    }
}

impl FaultSpec {
    fn applies(&self, point: InjectionPoint, key: &str, hit: u64) -> bool {
        self.point == point
            && self.window.matches(hit)
            && self
                .key
                .as_deref()
                .is_none_or(|filter| key_matches(filter, key))
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.point)?;
        if let Some(k) = &self.key {
            write!(f, " key={k}")?;
        }
        write!(f, " on={} kind={}", self.window, self.kind)
    }
}

/// Error from [`FaultPlan::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct PlanParseError {
    pub clause: String,
    pub message: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault plan clause '{}': {}",
            self.clause, self.message
        )
    }
}

impl std::error::Error for PlanParseError {}

/// A reproducible failure scenario: seed + scheduled faults + optional
/// per-point random fault rates.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub specs: Vec<FaultSpec>,
    /// `(point, probability)` — random faults sampled deterministically
    /// from the seed, still fully replayable.
    pub rates: Vec<(InjectionPoint, f64)>,
}

impl FaultPlan {
    /// An empty plan: nothing ever faults (but retries/jitter still draw
    /// deterministically from `seed`).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// Schedule a fault. `key` filters by substring of the operation key
    /// (pass `None` to match all).
    pub fn fail_at(
        mut self,
        point: InjectionPoint,
        key: Option<&str>,
        window: FaultWindow,
        kind: FaultKind,
    ) -> Self {
        self.specs.push(FaultSpec {
            point,
            key: key.map(str::to_string),
            window,
            kind,
        });
        self
    }

    /// Schedule a fault with the point's default kind.
    pub fn fail(self, point: InjectionPoint, key: Option<&str>, window: FaultWindow) -> Self {
        let kind = point.default_kind();
        self.fail_at(point, key, window, kind)
    }

    /// Add a seeded random fault rate at a point (0.0..=1.0).
    pub fn with_rate(mut self, point: InjectionPoint, probability: f64) -> Self {
        self.rates.push((point, probability.clamp(0.0, 1.0)));
        self
    }

    /// Can any call at `point` fault under this plan? `false` when no
    /// spec and no rate names the point, so the outcome of every such
    /// call is known without making it.
    pub fn arms(&self, point: InjectionPoint) -> bool {
        self.specs.iter().any(|s| s.point == point) || self.rates.iter().any(|(p, _)| *p == point)
    }

    /// Parse the compact plan syntax documented in the README:
    ///
    /// ```text
    /// seed=42; mirror.fetch key=*mirror2* on=first:2 kind=timeout; rate mirror.fetch 0.05
    /// ```
    ///
    /// Clauses are `;`-separated. `seed=N` sets the seed (default 0).
    /// `rate <point> <p>` adds a random rate; `p` must be a number in
    /// `[0, 1]` and end the clause. Any other clause starts
    /// with an injection-point name followed by optional `key=`, `on=`
    /// (default `always`), and `kind=` (default per point) fields.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanParseError> {
        let mut plan = FaultPlan::new(0);
        for clause in text.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let err = |message: &str| PlanParseError {
                clause: clause.to_string(),
                message: message.to_string(),
            };
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = seed.trim().parse().map_err(|_| err("seed must be a u64"))?;
                continue;
            }
            let mut words = clause.split_whitespace();
            let head = words.next().unwrap();
            if head == "rate" {
                let point = words
                    .next()
                    .and_then(InjectionPoint::parse)
                    .ok_or_else(|| err("rate needs an injection point"))?;
                let p: f64 = words
                    .next()
                    .ok_or_else(|| err("rate needs a probability"))?
                    .parse()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| err("rate probability must be a number in [0, 1]"))?;
                if words.next().is_some() {
                    return Err(err("unexpected text after the rate probability"));
                }
                plan.rates.push((point, p));
                continue;
            }
            let point =
                InjectionPoint::parse(head).ok_or_else(|| err("unknown injection point"))?;
            let mut key = None;
            let mut window = FaultWindow::Always;
            let mut kind = point.default_kind();
            for field in words {
                if let Some(v) = field.strip_prefix("key=") {
                    key = Some(v.to_string());
                } else if let Some(v) = field.strip_prefix("on=") {
                    window = FaultWindow::parse(v).ok_or_else(|| err("bad on= window"))?;
                } else if let Some(v) = field.strip_prefix("kind=") {
                    kind = FaultKind::parse(v).ok_or_else(|| err("bad kind="))?;
                } else {
                    return Err(err("expected key=, on=, or kind= field"));
                }
            }
            plan.specs.push(FaultSpec {
                point,
                key,
                window,
                kind,
            });
        }
        Ok(plan)
    }

    /// Render back to the parseable syntax (stable for a given plan).
    pub fn render(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        for s in &self.specs {
            parts.push(s.to_string());
        }
        for (p, rate) in &self.rates {
            parts.push(format!("rate {p} {rate}"));
        }
        parts.join("; ")
    }

    /// Build the runtime injector for one pipeline run.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            plan: self.clone(),
            hits: BTreeMap::new(),
            events: Vec::new(),
        }
    }
}

/// One injected fault, as recorded for the post-mortem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    pub point: InjectionPoint,
    pub key: String,
    /// 0-based occurrence index within this `(point, key)` stream.
    pub hit: u64,
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} key={} hit={} -> {}",
            self.point, self.key, self.hit, self.kind
        )
    }
}

/// Runtime fault oracle for one provisioning run.
///
/// Determinism: the decision for a given `(point, key, hit)` triple
/// depends only on the plan, never on call order across different keys,
/// so concurrent-looking pipelines replay identically.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    hits: BTreeMap<(InjectionPoint, String), u64>,
    events: Vec<FaultEvent>,
}

fn fnv64(s: &str) -> u64 {
    Fnv64::new().write(s.as_bytes()).finish()
}

impl FaultInjector {
    /// Consult the oracle at `point` for operation `key` (hostname,
    /// mirror URL, package name...). Each call advances that stream's hit
    /// counter. Returns the fault to inject, if any.
    pub fn should_fault(&mut self, point: InjectionPoint, key: &str) -> Option<FaultKind> {
        let hit = {
            let counter = self.hits.entry((point, key.to_string())).or_insert(0);
            let h = *counter;
            *counter += 1;
            h
        };
        let mut kind = self
            .plan
            .specs
            .iter()
            .find(|s| s.applies(point, key, hit))
            .map(|s| s.kind);
        if kind.is_none() {
            for (p, rate) in &self.plan.rates {
                if *p == point && *rate > 0.0 {
                    let mut rng = StdRng::seed_from_u64(
                        self.plan.seed
                            ^ fnv64(point.as_str())
                            ^ fnv64(key).rotate_left(17)
                            ^ hit.wrapping_mul(0x9e3779b97f4a7c15),
                    );
                    if rng.gen_bool(*rate) {
                        kind = Some(point.default_kind());
                        break;
                    }
                }
            }
        }
        if let Some(kind) = kind {
            self.events.push(FaultEvent {
                point,
                key: key.to_string(),
                hit,
                kind,
            });
        }
        kind
    }

    /// A deterministic RNG for auxiliary randomness (backoff jitter),
    /// derived from the plan seed and a caller label.
    pub fn rng_for(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.plan.seed ^ fnv64(label).rotate_left(31))
    }

    /// Faults injected so far, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    pub fn injected_count(&self) -> usize {
        self.events.len()
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_names_round_trip() {
        for p in InjectionPoint::ALL {
            assert_eq!(InjectionPoint::parse(p.as_str()), Some(p));
        }
        assert_eq!(InjectionPoint::parse("bogus"), None);
    }

    #[test]
    fn mutation_names_round_trip() {
        for m in Mutation::ALL {
            assert_eq!(Mutation::parse(m.as_str()), Some(m));
        }
        assert_eq!(Mutation::parse("drop-job"), None);
    }

    #[test]
    fn windows_match_expected_hits() {
        assert!(FaultWindow::Always.matches(0) && FaultWindow::Always.matches(99));
        assert!(FaultWindow::Nth(2).matches(2) && !FaultWindow::Nth(2).matches(1));
        assert!(FaultWindow::FirstN(2).matches(1) && !FaultWindow::FirstN(2).matches(2));
        let r = FaultWindow::Range { start: 1, end: 3 };
        assert!(!r.matches(0) && r.matches(1) && r.matches(2) && !r.matches(3));
    }

    #[test]
    fn key_matching_is_exact_unless_anchored() {
        // bare filters are exact: the gotcha PR 7 worked around
        assert!(key_matches("tick-1", "tick-1"));
        assert!(!key_matches("tick-1", "tick-100"));
        assert!(!key_matches("tick-1", "settle-tick-1"));
        // prefix / suffix / contains anchors
        assert!(key_matches("tick-*", "tick-100"));
        assert!(!key_matches("tick-*", "settle-tick-1"));
        assert!(key_matches("*-1", "tick-1"));
        assert!(!key_matches("*-1", "tick-100"));
        assert!(key_matches("*mirror2*", "http://mirror2.example.edu/"));
        assert!(!key_matches("*mirror2*", "http://mirror1.example.edu/"));
        // degenerate "*" matches everything
        assert!(key_matches("*", "anything"));
        assert!(key_matches("**", ""));
    }

    #[test]
    fn scheduled_fault_fires_on_matching_stream_only() {
        let plan = FaultPlan::new(1).fail_at(
            InjectionPoint::MirrorFetch,
            Some("*mirror2*"),
            FaultWindow::FirstN(2),
            FaultKind::Timeout,
        );
        let mut inj = plan.injector();
        // other key: untouched
        assert_eq!(
            inj.should_fault(InjectionPoint::MirrorFetch, "http://cb-repo"),
            None
        );
        // matching key: first two hits fault, third succeeds
        let key = "http://mirror2.example.edu/";
        assert_eq!(
            inj.should_fault(InjectionPoint::MirrorFetch, key),
            Some(FaultKind::Timeout)
        );
        assert_eq!(
            inj.should_fault(InjectionPoint::MirrorFetch, key),
            Some(FaultKind::Timeout)
        );
        assert_eq!(inj.should_fault(InjectionPoint::MirrorFetch, key), None);
        assert_eq!(inj.injected_count(), 2);
        assert_eq!(inj.events()[0].hit, 0);
        assert_eq!(inj.events()[1].hit, 1);
    }

    #[test]
    fn random_rate_is_deterministic_and_order_independent() {
        let plan = FaultPlan::new(7).with_rate(InjectionPoint::DhcpDiscover, 0.5);
        let sample = |keys: &[&str]| -> Vec<Option<FaultKind>> {
            let mut inj = plan.injector();
            keys.iter()
                .map(|k| inj.should_fault(InjectionPoint::DhcpDiscover, k))
                .collect()
        };
        let forward = sample(&["a", "b", "c", "d", "e", "f", "g", "h"]);
        let mut reversed = sample(&["h", "g", "f", "e", "d", "c", "b", "a"]);
        reversed.reverse();
        assert_eq!(
            forward, reversed,
            "per-key decisions must not depend on call order"
        );
        assert_eq!(forward, sample(&["a", "b", "c", "d", "e", "f", "g", "h"]));
        assert!(
            forward.iter().any(Option::is_some),
            "rate 0.5 over 8 keys should fire"
        );
        assert!(forward.iter().any(Option::is_none));
    }

    #[test]
    fn plan_syntax_round_trips() {
        let text = "seed=42; mirror.fetch key=*mirror2* on=first:2 kind=timeout; \
                    node.boot key=compute-0-3 on=nth:0 kind=hang; rate rpm.scriptlet 0.01";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.specs.len(), 2);
        assert_eq!(plan.rates, vec![(InjectionPoint::RpmScriptlet, 0.01)]);
        let reparsed = FaultPlan::parse(&plan.render()).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn parse_rejects_bad_clauses() {
        assert!(FaultPlan::parse("bogus.point").is_err());
        assert!(FaultPlan::parse("mirror.fetch on=sometimes").is_err());
        assert!(FaultPlan::parse("mirror.fetch kind=gremlins").is_err());
        assert!(FaultPlan::parse("seed=minus-one").is_err());
        assert!(FaultPlan::parse("rate mirror.fetch").is_err());
    }

    #[test]
    fn rate_probability_is_strict() {
        for (text, message) in [
            ("rate mirror.fetch nan", "in [0, 1]"),
            ("rate mirror.fetch inf", "in [0, 1]"),
            ("rate mirror.fetch 7", "in [0, 1]"),
            ("rate mirror.fetch -3", "in [0, 1]"),
            ("rate mirror.fetch half", "in [0, 1]"),
            ("rate mirror.fetch 0.5 junk", "unexpected text"),
        ] {
            let e = FaultPlan::parse(text).expect_err(text);
            assert_eq!(e.clause, text);
            assert!(e.message.contains(message), "{text}: {e}");
        }
        // both ends of the interval are valid probabilities
        let plan = FaultPlan::parse("rate mirror.fetch 0; rate node.boot 1").unwrap();
        assert_eq!(
            plan.rates,
            vec![
                (InjectionPoint::MirrorFetch, 0.0),
                (InjectionPoint::NodeBoot, 1.0)
            ]
        );
        // the builder still clamps
        let built = FaultPlan::new(0).with_rate(InjectionPoint::MirrorFetch, 7.0);
        assert_eq!(built.rates, vec![(InjectionPoint::MirrorFetch, 1.0)]);
    }

    #[test]
    fn default_kinds_per_point() {
        let plan = FaultPlan::parse("power.loss on=nth:0; dhcp.discover key=x").unwrap();
        assert_eq!(plan.specs[0].kind, FaultKind::PowerLoss);
        assert_eq!(plan.specs[1].kind, FaultKind::Timeout);
        let campaign = FaultPlan::parse("campaign.drain on=nth:1; campaign.canary").unwrap();
        assert_eq!(campaign.specs[0].kind, FaultKind::PowerLoss);
        assert_eq!(campaign.specs[1].kind, FaultKind::ScriptletError);
    }

    #[test]
    fn arms_names_points_with_a_spec_or_a_rate() {
        let plan = FaultPlan::parse("dhcp.discover key=x; rate rpm.scriptlet 0").unwrap();
        assert!(plan.arms(InjectionPoint::DhcpDiscover));
        // a zero rate still arms the point: only absence proves silence
        assert!(plan.arms(InjectionPoint::RpmScriptlet));
        assert!(!plan.arms(InjectionPoint::NodeBoot));
        assert!(!FaultPlan::new(9).arms(InjectionPoint::RpmScriptlet));
    }
}
