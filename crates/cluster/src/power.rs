//! Power management.
//!
//! §5.2: the Limulus has "power management that turns nodes on and off as
//! needed for maximum power efficiency. This can also be scheduled."
//! [`PowerManager`] simulates a cluster's energy use over a load
//! timeline under three policies and reports energy and availability.
//!
//! Since the elastic-fleet refactor the simulation runs on the shared
//! sim clock: demand is a step function of [`SimTime`]-stamped levels
//! ([`PowerManager::simulate_demand`]), transitions are recorded as
//! [`POWER_TRACE_SOURCE`] trace events so they merge into fleet
//! timelines, and [`PowerSequencer`] gives the autoscaler per-node
//! power control with boot latency charged on the clock. The old
//! hourly-profile `simulate` survives as a thin wrapper.

use crate::node::{NodeRole, PowerState};
use crate::topology::ClusterSpec;
use xcbc_sim::{SimDuration, SimTime, TraceEvent};

/// Trace source for power transitions (`boot node N` spans,
/// `power-off` marks, `nodes-on` counters).
pub const POWER_TRACE_SOURCE: &str = "cluster.power";

/// Node power policy.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerPolicy {
    /// Every node stays on (classic LittleFe behavior).
    AlwaysOn,
    /// Nodes power on when demanded, off when idle (Limulus default).
    OnDemand {
        /// How long a node takes to boot when demand arrives.
        boot: SimDuration,
    },
    /// Nodes are up only inside a daily window (Limulus "can also be
    /// scheduled"), `start_hour..end_hour` in 0..24.
    Scheduled { start_hour: u32, end_hour: u32 },
}

impl PowerPolicy {
    /// On-demand power with the given boot lag (accepts `SimDuration`
    /// or float seconds).
    pub fn on_demand(boot: impl Into<SimDuration>) -> PowerPolicy {
        PowerPolicy::OnDemand { boot: boot.into() }
    }

    /// Human-readable policy name for reports.
    pub fn label(&self) -> String {
        match self {
            PowerPolicy::AlwaysOn => "AlwaysOn".to_string(),
            PowerPolicy::OnDemand { boot } => format!("OnDemand {{ boot: {boot} }}"),
            PowerPolicy::Scheduled {
                start_hour,
                end_hour,
            } => {
                format!("Scheduled {{ {start_hour}..{end_hour} }}")
            }
        }
    }
}

/// Outcome of a power simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    pub policy_label: String,
    /// Total energy over the simulated horizon, kWh.
    pub energy_kwh: f64,
    /// Mean watts.
    pub mean_watts: f64,
    /// Fraction of demanded node-hours that were actually served
    /// (OnDemand boots create a small service lag).
    pub service_fraction: f64,
}

/// A power simulation plus the [`POWER_TRACE_SOURCE`] events it emitted,
/// ready to merge onto a fleet timeline.
#[derive(Debug, Clone)]
pub struct PowerRun {
    /// Energy/availability summary.
    pub report: PowerReport,
    /// Power transitions on the shared clock, in time order.
    pub trace: Vec<TraceEvent>,
}

/// Simulates cluster power under a policy.
#[derive(Debug, Clone)]
pub struct PowerManager {
    pub policy: PowerPolicy,
}

impl PowerManager {
    pub fn new(policy: PowerPolicy) -> Self {
        PowerManager { policy }
    }

    /// Simulate `hours` of operation against an hourly demand profile.
    /// `demand[h % demand.len()]` is the number of compute nodes busy in
    /// hour `h`. The frontend is always on.
    ///
    /// Thin compat wrapper over [`PowerManager::simulate_demand`]: the
    /// hourly profile becomes a step function with one step per hour.
    pub fn simulate(&self, cluster: &ClusterSpec, demand: &[u32], hours: u32) -> PowerReport {
        assert!(!demand.is_empty(), "demand profile must be non-empty");
        let steps: Vec<(SimTime, u32)> = (0..hours)
            .map(|h| {
                (
                    SimTime::from_secs(h as u64 * 3600),
                    demand[(h as usize) % demand.len()],
                )
            })
            .collect();
        self.simulate_demand(cluster, &steps, SimDuration::from_secs(hours as u64 * 3600))
            .report
    }

    /// Simulate a [`SimTime`]-stamped demand step function over
    /// `horizon`. `demand` holds `(t, want)` steps in non-decreasing
    /// time order: from `t` until the next step, `want` compute nodes
    /// are busy (clamped to the cluster size). Demand before the first
    /// step is zero. The frontend is always on.
    ///
    /// Under [`PowerPolicy::OnDemand`] each upward transition charges
    /// the boot lag against served node-hours, and transitions are
    /// recorded as [`POWER_TRACE_SOURCE`] events: a `boot N nodes` span
    /// per scale-up, a `power-off N nodes` mark per scale-down, and a
    /// `nodes-on` counter at every level change.
    pub fn simulate_demand(
        &self,
        cluster: &ClusterSpec,
        demand: &[(SimTime, u32)],
        horizon: SimDuration,
    ) -> PowerRun {
        assert!(!demand.is_empty(), "demand profile must be non-empty");
        for w in demand.windows(2) {
            assert!(w[0].0 <= w[1].0, "demand steps must be in time order");
        }
        let computes: Vec<_> = cluster
            .nodes
            .iter()
            .filter(|n| n.role == NodeRole::Compute)
            .collect();
        let frontends: Vec<_> = cluster
            .nodes
            .iter()
            .filter(|n| n.role != NodeRole::Compute)
            .collect();
        let end = SimTime::ZERO + horizon;

        // Segment boundaries: every demand step plus every hour mark,
        // so the Scheduled window and hourly accounting stay exact.
        let mut cuts: Vec<SimTime> = vec![SimTime::ZERO];
        cuts.extend(demand.iter().map(|(t, _)| *t).filter(|t| *t < end));
        let mut h = 1u64;
        loop {
            let t = SimTime::from_secs(h * 3600);
            if t >= end {
                break;
            }
            cuts.push(t);
            h += 1;
        }
        cuts.push(end);
        cuts.sort();
        cuts.dedup();

        let level_at = |t: SimTime| -> u32 {
            let mut level = 0;
            for (st, want) in demand {
                if *st <= t {
                    level = *want;
                } else {
                    break;
                }
            }
            level
        };

        let mut trace = Vec::new();
        let mut wh_total = 0.0;
        let mut demanded_node_hours = 0.0;
        let mut served_node_hours = 0.0;
        let mut lost_node_hours = 0.0;
        let mut prev_want = 0usize;
        let boot_h = match &self.policy {
            PowerPolicy::OnDemand { boot } => boot.as_secs_f64() / 3600.0,
            _ => 0.0,
        };

        // Emit transition events at the demand steps themselves.
        for (t, raw) in demand {
            if *t >= end {
                break;
            }
            let want = (*raw as usize).min(computes.len());
            if want != prev_want {
                trace.push(TraceEvent::counter(
                    *t,
                    POWER_TRACE_SOURCE,
                    "nodes-on",
                    want as u64,
                ));
                if let PowerPolicy::OnDemand { boot } = &self.policy {
                    if want > prev_want {
                        let delta = want - prev_want;
                        trace.push(
                            TraceEvent::span(
                                *t,
                                POWER_TRACE_SOURCE,
                                format!("boot {delta} nodes"),
                                *boot,
                            )
                            .with_field("nodes", delta as u64),
                        );
                        lost_node_hours += delta as f64 * boot_h;
                    } else {
                        let delta = prev_want - want;
                        trace.push(
                            TraceEvent::mark(
                                *t,
                                POWER_TRACE_SOURCE,
                                format!("power-off {delta} nodes"),
                            )
                            .with_field("nodes", delta as u64),
                        );
                    }
                }
                prev_want = want;
            }
        }

        // Integrate energy and service over the segments.
        for w in cuts.windows(2) {
            let (t0, t1) = (w[0], w[1]);
            if t1 <= t0 {
                continue;
            }
            let dur_h = t1.since(t0).as_secs_f64() / 3600.0;
            let want = (level_at(t0) as usize).min(computes.len());
            demanded_node_hours += want as f64 * dur_h;
            for fe in &frontends {
                wh_total += dur_h
                    * if want > 0 {
                        fe.load_watts()
                    } else {
                        fe.idle_watts()
                    };
            }
            match &self.policy {
                PowerPolicy::AlwaysOn => {
                    for (i, n) in computes.iter().enumerate() {
                        wh_total += dur_h
                            * if i < want {
                                n.load_watts()
                            } else {
                                n.idle_watts()
                            };
                    }
                    served_node_hours += want as f64 * dur_h;
                }
                PowerPolicy::OnDemand { .. } => {
                    for (i, n) in computes.iter().enumerate() {
                        // off nodes sit at 2 W standby
                        wh_total += dur_h * if i < want { n.load_watts() } else { 2.0 };
                    }
                    served_node_hours += want as f64 * dur_h;
                }
                PowerPolicy::Scheduled {
                    start_hour,
                    end_hour,
                } => {
                    let hod =
                        ((t0.since(SimTime::ZERO).as_secs_f64() / 3600.0).floor() as u32) % 24;
                    let window = hod >= *start_hour && hod < *end_hour;
                    for (i, n) in computes.iter().enumerate() {
                        wh_total += dur_h
                            * if window {
                                if i < want {
                                    n.load_watts()
                                } else {
                                    n.idle_watts()
                                }
                            } else {
                                2.0
                            };
                    }
                    if window {
                        served_node_hours += want as f64 * dur_h;
                    }
                }
            }
        }

        let served = (served_node_hours - lost_node_hours).max(0.0);
        let horizon_hours = horizon.as_secs_f64() / 3600.0;
        PowerRun {
            report: PowerReport {
                policy_label: self.policy.label(),
                energy_kwh: wh_total / 1000.0,
                mean_watts: if horizon_hours > 0.0 {
                    wh_total / horizon_hours
                } else {
                    0.0
                },
                service_fraction: if demanded_node_hours > 0.0 {
                    served / demanded_node_hours
                } else {
                    1.0
                },
            },
            trace,
        }
    }
}

/// Per-node power control on the shared clock, for callers (the elastic
/// autoscaler) that decide transitions one at a time rather than from a
/// demand profile. Boot latency is charged on the clock: a node powered
/// on at `t` is [`PowerState::Booting`] until `t + boot` and only then
/// [`PowerState::On`]. Every transition is recorded as a
/// [`POWER_TRACE_SOURCE`] event.
#[derive(Debug, Clone)]
pub struct PowerSequencer {
    boot: SimDuration,
    /// `None` = off; `Some(ready)` = powered, booting until `ready`.
    ready: Vec<Option<SimTime>>,
    trace: Vec<TraceEvent>,
}

impl PowerSequencer {
    /// A sequencer for `nodes` nodes, all off, with the given boot lag.
    pub fn new(nodes: usize, boot: impl Into<SimDuration>) -> PowerSequencer {
        PowerSequencer {
            boot: boot.into(),
            ready: vec![None; nodes],
            trace: Vec::new(),
        }
    }

    /// A sequencer whose `nodes` nodes are already [`PowerState::On`] at
    /// time zero — the day-zero fleet that was racked and booted before
    /// the simulation starts. No boot spans are emitted for them.
    pub fn powered(nodes: usize, boot: impl Into<SimDuration>) -> PowerSequencer {
        PowerSequencer {
            boot: boot.into(),
            ready: vec![Some(SimTime::ZERO); nodes],
            trace: Vec::new(),
        }
    }

    /// Number of nodes under management.
    pub fn len(&self) -> usize {
        self.ready.len()
    }

    /// True when no nodes are under management.
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }

    /// The configured boot lag.
    pub fn boot(&self) -> SimDuration {
        self.boot
    }

    /// Bring `n` more (off) nodes under management — burst arrivals.
    pub fn grow(&mut self, n: usize) {
        self.ready.extend(std::iter::repeat_n(None, n));
    }

    /// Power `node` on at `t`; returns the instant it is ready to serve.
    /// Powering an already-on node is a no-op returning its existing
    /// ready time.
    pub fn power_on(&mut self, t: SimTime, node: usize) -> SimTime {
        if let Some(ready) = self.ready[node] {
            return ready;
        }
        let ready = t + self.boot;
        self.ready[node] = Some(ready);
        self.trace.push(
            TraceEvent::span(
                t,
                POWER_TRACE_SOURCE,
                format!("boot node {node}"),
                self.boot,
            )
            .with_field("node", node as u64),
        );
        ready
    }

    /// Power `node` off at `t`. Powering off an off node is a no-op.
    pub fn power_off(&mut self, t: SimTime, node: usize) {
        if self.ready[node].is_none() {
            return;
        }
        self.ready[node] = None;
        self.trace.push(
            TraceEvent::mark(t, POWER_TRACE_SOURCE, format!("power-off node {node}"))
                .with_field("node", node as u64),
        );
    }

    /// The power state of `node` as of `t`.
    pub fn state(&self, t: SimTime, node: usize) -> PowerState {
        match self.ready[node] {
            None => PowerState::Off,
            Some(ready) if t < ready => PowerState::Booting,
            Some(_) => PowerState::On,
        }
    }

    /// Nodes powered (on or booting).
    pub fn powered_count(&self) -> usize {
        self.ready.iter().filter(|r| r.is_some()).count()
    }

    /// The recorded transition events, in emission order.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Drain the recorded transition events.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::limulus_hpc200;
    use xcbc_sim::TraceKind;

    /// Office-hours demand: busy 9-17, idle otherwise.
    fn office_demand() -> Vec<u32> {
        (0..24)
            .map(|h| if (9..17).contains(&h) { 3 } else { 0 })
            .collect()
    }

    #[test]
    fn on_demand_saves_energy_vs_always_on() {
        let c = limulus_hpc200();
        let demand = office_demand();
        let always = PowerManager::new(PowerPolicy::AlwaysOn).simulate(&c, &demand, 24 * 7);
        let od = PowerManager::new(PowerPolicy::on_demand(90.0)).simulate(&c, &demand, 24 * 7);
        assert!(od.energy_kwh < always.energy_kwh, "{od:?} vs {always:?}");
        assert_eq!(always.service_fraction, 1.0);
        assert!(
            od.service_fraction > 0.95,
            "boot lag should cost <5%: {od:?}"
        );
    }

    #[test]
    fn scheduled_window_serves_only_inside() {
        let c = limulus_hpc200();
        let demand = office_demand();
        // window exactly covering demand
        let good = PowerManager::new(PowerPolicy::Scheduled {
            start_hour: 9,
            end_hour: 17,
        })
        .simulate(&c, &demand, 24 * 7);
        assert!((good.service_fraction - 1.0).abs() < 1e-9);
        // window missing half the demand
        let bad = PowerManager::new(PowerPolicy::Scheduled {
            start_hour: 13,
            end_hour: 17,
        })
        .simulate(&c, &demand, 24 * 7);
        assert!((bad.service_fraction - 0.5).abs() < 1e-9);
        assert!(bad.energy_kwh < good.energy_kwh);
    }

    #[test]
    fn zero_demand_all_policies_idle() {
        let c = limulus_hpc200();
        let demand = vec![0u32];
        let always = PowerManager::new(PowerPolicy::AlwaysOn).simulate(&c, &demand, 24);
        let od = PowerManager::new(PowerPolicy::on_demand(90.0)).simulate(&c, &demand, 24);
        assert!(od.energy_kwh < always.energy_kwh);
        assert_eq!(od.service_fraction, 1.0);
    }

    #[test]
    fn demand_clamped_to_cluster_size() {
        let c = limulus_hpc200();
        let demand = vec![99u32];
        let r = PowerManager::new(PowerPolicy::AlwaysOn).simulate(&c, &demand, 10);
        // 3 computes max
        assert!((r.service_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_demand_panics() {
        let c = limulus_hpc200();
        PowerManager::new(PowerPolicy::AlwaysOn).simulate(&c, &[], 1);
    }

    #[test]
    fn mean_watts_consistent_with_energy() {
        let c = limulus_hpc200();
        let r = PowerManager::new(PowerPolicy::AlwaysOn).simulate(&c, &office_demand(), 48);
        assert!((r.energy_kwh * 1000.0 / 48.0 - r.mean_watts).abs() < 1e-9);
    }

    #[test]
    fn demand_steps_emit_power_trace() {
        let c = limulus_hpc200();
        let steps = [
            (SimTime::ZERO, 0u32),
            (SimTime::from_secs(600), 3),
            (SimTime::from_secs(4000), 0),
        ];
        let run = PowerManager::new(PowerPolicy::on_demand(90.0)).simulate_demand(
            &c,
            &steps,
            SimDuration::from_secs(7200),
        );
        let sources: Vec<&str> = run.trace.iter().map(|e| e.source).collect();
        assert!(sources.iter().all(|s| *s == POWER_TRACE_SOURCE));
        let boot = run
            .trace
            .iter()
            .find(|e| e.label == "boot 3 nodes")
            .expect("scale-up boot span");
        assert_eq!(boot.t, SimTime::from_secs(600));
        assert_eq!(boot.duration(), SimDuration::from_secs(90));
        assert!(run
            .trace
            .iter()
            .any(|e| e.label == "power-off 3 nodes" && matches!(e.kind, TraceKind::Mark)));
        // three boots of 90 s against 3 nodes × (4000-600) s demanded
        let demanded = 3.0 * (4000.0 - 600.0) / 3600.0;
        let lost = 3.0 * 90.0 / 3600.0;
        assert!((run.report.service_fraction - (demanded - lost) / demanded).abs() < 1e-9);
    }

    #[test]
    fn always_on_trace_has_no_boot_spans() {
        let c = limulus_hpc200();
        let steps = [(SimTime::ZERO, 2u32), (SimTime::from_secs(1800), 0)];
        let run = PowerManager::new(PowerPolicy::AlwaysOn).simulate_demand(
            &c,
            &steps,
            SimDuration::from_secs(3600),
        );
        assert!(run
            .trace
            .iter()
            .all(|e| matches!(e.kind, TraceKind::Counter { .. })));
    }

    #[test]
    fn sequencer_charges_boot_latency_on_the_clock() {
        let mut seq = PowerSequencer::new(3, 90.0);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.state(SimTime::ZERO, 0), PowerState::Off);
        let ready = seq.power_on(SimTime::from_secs(100), 0);
        assert_eq!(ready, SimTime::from_secs(190));
        assert_eq!(seq.state(SimTime::from_secs(150), 0), PowerState::Booting);
        assert_eq!(seq.state(SimTime::from_secs(190), 0), PowerState::On);
        assert_eq!(seq.powered_count(), 1);
        // idempotent: re-powering keeps the original ready time
        assert_eq!(seq.power_on(SimTime::from_secs(160), 0), ready);
        seq.power_off(SimTime::from_secs(300), 0);
        assert_eq!(seq.state(SimTime::from_secs(301), 0), PowerState::Off);
        // off→off is silent
        seq.power_off(SimTime::from_secs(302), 0);
        let labels: Vec<&str> = seq.trace().iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["boot node 0", "power-off node 0"]);
    }

    #[test]
    fn sequencer_grow_adds_off_nodes() {
        let mut seq = PowerSequencer::new(1, 10.0);
        seq.grow(2);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.state(SimTime::ZERO, 2), PowerState::Off);
    }
}
