//! Cluster autoscaling policy for the GPU server's warm API-server pool.
//!
//! The paper provisions a fixed set of idle API servers at startup (§V-A)
//! and leaves fleet sizing open ("different policies can be used in a
//! commercial deployment", §IV). This module closes that gap with a
//! queue-delay-driven autoscaler: the monitor samples the oldest queued
//! request's wait on every tick, and the [`Autoscaler`] decides — with
//! hysteresis, an idle TTL, and a shared cooldown that rate-limits both
//! directions — when to grow or shrink the pool. The *mechanics* of
//! spawning and retiring API servers (contexts, handle pools, overhead
//! accounting) live in the monitor; this type is pure policy, so the
//! hysteresis behaviour is unit-testable without a simulation.
//!
//! ## Predictive mode
//!
//! [`AutoscaleConfig::predictive`] layers the online observability plane
//! ([`dgsf_sim::ObsPlane`]) on top of the reactive policy. Each tick the
//! monitor feeds the scaler two streamed signals
//! ([`Autoscaler::observe_signals`]): whether the arrival rate is ramping
//! (current window vs. the EWMA estimate) and the queue-attributed share
//! of tail latency. Two behaviours change:
//!
//! * **Pre-warm** ([`Autoscaler::prewarm_due`]): while the ramp signal
//!   holds, the pool grows *without* waiting for queue-delay breaches —
//!   capacity arrives ahead of the queue forming, only rate-limited by
//!   the cooldown.
//! * **Attribution gate**: a reactive (breach-driven) scale-up is
//!   suppressed when the obs plane attributes less than
//!   [`PredictiveConfig::queue_share_gate_permille`] of tail latency to
//!   queueing — if requests are slow because of exec or transport, more
//!   servers will not help. When no attribution data exists yet the gate
//!   stays open (reactive behaviour), so a cold start can never deadlock.

use dgsf_sim::{Dur, SimTime};

/// Knobs for the predictive layer of the autoscaler.
#[derive(Debug, Clone)]
pub struct PredictiveConfig {
    /// Minimum queue-attributed share (permille) of tail latency the obs
    /// plane must report before a *reactive* scale-up is allowed. Ramps
    /// (pre-warms) bypass this gate; a tick with no attribution data
    /// leaves the gate open.
    pub queue_share_gate_permille: u64,
}

impl Default for PredictiveConfig {
    /// Gate reactive scale-ups on ≥ 300‰ queue-attributed tail share.
    fn default() -> PredictiveConfig {
        PredictiveConfig {
            queue_share_gate_permille: 300,
        }
    }
}

/// Autoscaling policy knobs. All decisions are driven by the monitor's
/// tick (so they are deterministic in virtual time, like everything else).
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Floor of warm API servers homed on each GPU; the pool never shrinks
    /// below this (the provisioned baseline).
    pub min_per_gpu: u32,
    /// Ceiling of API servers homed on each GPU. Each extra server charges
    /// the full 755 MB idle footprint on spawn, so the ceiling is also a
    /// memory bound.
    pub max_per_gpu: u32,
    /// Scale up when the oldest queued request has waited longer than this.
    pub target_queue_delay: Dur,
    /// Hysteresis: the delay target must be breached on this many
    /// *consecutive* monitor ticks before a scale-up fires.
    pub up_ticks: u32,
    /// Scale down an idle API server only after it has been continuously
    /// idle for this long.
    pub idle_ttl: Dur,
    /// Minimum gap between any two scaling actions (up or down) — the rate
    /// limit that prevents flapping.
    pub cooldown: Dur,
    /// When set, the scaler runs in predictive mode: pre-warm on the obs
    /// plane's rate-ramp signal, and gate reactive scale-ups on the
    /// queue-attributed tail share. `None` is the classic reactive policy.
    pub predictive: Option<PredictiveConfig>,
}

impl AutoscaleConfig {
    /// A policy between `min` and `max` servers per GPU with moderate
    /// defaults: 500 ms delay target, 2-tick hysteresis, 5 s idle TTL,
    /// 1 s cooldown.
    pub fn new(min_per_gpu: u32, max_per_gpu: u32) -> AutoscaleConfig {
        assert!(min_per_gpu >= 1, "a GPU keeps at least one warm server");
        assert!(max_per_gpu >= min_per_gpu, "max must be >= min");
        AutoscaleConfig {
            min_per_gpu,
            max_per_gpu,
            target_queue_delay: Dur::from_millis(500),
            up_ticks: 2,
            idle_ttl: Dur::from_secs(5),
            cooldown: Dur::from_secs(1),
            predictive: None,
        }
    }

    /// Like [`AutoscaleConfig::new`] but in predictive mode with default
    /// [`PredictiveConfig`] knobs: pre-warm on rate ramps, gate reactive
    /// growth on queue attribution. Requires an obs plane to be wired into
    /// the monitor; without one the policy degrades to plain reactive.
    pub fn predictive(min_per_gpu: u32, max_per_gpu: u32) -> AutoscaleConfig {
        AutoscaleConfig::new(min_per_gpu, max_per_gpu).with_predictive(PredictiveConfig::default())
    }

    /// Builder-style: enable predictive mode with explicit knobs.
    pub fn with_predictive(mut self, p: PredictiveConfig) -> Self {
        self.predictive = Some(p);
        self
    }

    /// Builder-style: set the queue-delay target that triggers growth.
    pub fn with_target_queue_delay(mut self, d: Dur) -> Self {
        self.target_queue_delay = d;
        self
    }

    /// Builder-style: set the consecutive-breach count (hysteresis).
    pub fn with_up_ticks(mut self, n: u32) -> Self {
        self.up_ticks = n.max(1);
        self
    }

    /// Builder-style: set the idle TTL before a server is retired.
    pub fn with_idle_ttl(mut self, d: Dur) -> Self {
        self.idle_ttl = d;
        self
    }

    /// Builder-style: set the cooldown between scaling actions.
    pub fn with_cooldown(mut self, d: Dur) -> Self {
        self.cooldown = d;
        self
    }
}

/// Tick-driven scaling decisions (pure state machine; no simulation
/// dependencies beyond virtual timestamps).
#[derive(Debug)]
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    /// Consecutive ticks with the delay target breached.
    breach_ticks: u32,
    /// When the last scaling action (either direction) fired.
    last_action: Option<SimTime>,
    /// Latest streamed rate-ramp signal (predictive mode only).
    rate_ramp: bool,
    /// Latest streamed queue-attributed tail share, `None` while the obs
    /// plane has no tail data.
    tail_queue_share: Option<u64>,
}

impl Autoscaler {
    /// A fresh autoscaler with no breach history and no cooldown pending.
    pub fn new(cfg: AutoscaleConfig) -> Autoscaler {
        Autoscaler {
            cfg,
            breach_ticks: 0,
            last_action: None,
            rate_ramp: false,
            tail_queue_share: None,
        }
    }

    /// The policy in force.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    fn cooled(&self, now: SimTime) -> bool {
        self.last_action
            .map(|t| now.since(t) >= self.cfg.cooldown)
            .unwrap_or(true)
    }

    /// Feed one tick's queue observation: the wait of the oldest request
    /// still queued (`None` when the queue is empty). Breaches accumulate;
    /// anything under the target resets the hysteresis counter.
    pub fn observe_queue(&mut self, oldest_wait: Option<Dur>) {
        match oldest_wait {
            Some(w) if w > self.cfg.target_queue_delay => {
                self.breach_ticks = self.breach_ticks.saturating_add(1);
            }
            _ => self.breach_ticks = 0,
        }
    }

    /// Feed one tick's streamed observability signals (predictive mode):
    /// whether the arrival rate is ramping, and the queue-attributed
    /// share of tail latency (`None` while no tail data exists).
    pub fn observe_signals(&mut self, rate_ramp: bool, tail_queue_share_permille: Option<u64>) {
        self.rate_ramp = rate_ramp;
        self.tail_queue_share = tail_queue_share_permille;
    }

    /// True when a predictive pre-warm should fire now: predictive mode
    /// is on, the last observed tick signalled a rate ramp, and the
    /// cooldown elapsed. Pre-warms skip the breach hysteresis entirely —
    /// that is the point: capacity ahead of the queue.
    pub fn prewarm_due(&self, now: SimTime) -> bool {
        self.cfg.predictive.is_some() && self.rate_ramp && self.cooled(now)
    }

    /// True when predictive mode should *suppress* a reactive scale-up:
    /// the obs plane has tail attribution data and it puts the queueing
    /// share below the gate. With no data the gate stays open.
    pub fn suppressed_by_attribution(&self) -> bool {
        match (&self.cfg.predictive, self.tail_queue_share) {
            (Some(p), Some(share)) => share < p.queue_share_gate_permille,
            _ => false,
        }
    }

    /// True when a scale-up should fire now: the delay target has been
    /// breached for `up_ticks` consecutive ticks, the cooldown elapsed,
    /// and (in predictive mode) the attribution gate does not veto it.
    pub fn scale_up_due(&self, now: SimTime) -> bool {
        self.breach_ticks >= self.cfg.up_ticks
            && self.cooled(now)
            && !self.suppressed_by_attribution()
    }

    /// True when a server continuously idle since `idle_since` should be
    /// retired now: its idle period passed the TTL and the cooldown
    /// elapsed.
    pub fn scale_down_due(&self, now: SimTime, idle_since: SimTime) -> bool {
        self.cooled(now) && now.since(idle_since) >= self.cfg.idle_ttl
    }

    /// Record that a scaling action fired (either direction): restarts the
    /// cooldown and clears the breach history.
    pub fn record_action(&mut self, now: SimTime) {
        self.last_action = Some(now);
        self.breach_ticks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Dur::from_secs(secs)
    }

    fn scaler() -> Autoscaler {
        Autoscaler::new(
            AutoscaleConfig::new(1, 4)
                .with_target_queue_delay(Dur::from_millis(500))
                .with_up_ticks(3)
                .with_idle_ttl(Dur::from_secs(5))
                .with_cooldown(Dur::from_secs(2)),
        )
    }

    #[test]
    fn hysteresis_requires_consecutive_breaches() {
        let mut s = scaler();
        // two breaches: below the 3-tick bar
        s.observe_queue(Some(Dur::from_secs(1)));
        s.observe_queue(Some(Dur::from_secs(1)));
        assert!(!s.scale_up_due(t(1)));
        // third consecutive breach crosses it
        s.observe_queue(Some(Dur::from_secs(1)));
        assert!(s.scale_up_due(t(1)));
    }

    #[test]
    fn a_calm_tick_resets_the_breach_count() {
        let mut s = scaler();
        s.observe_queue(Some(Dur::from_secs(1)));
        s.observe_queue(Some(Dur::from_secs(1)));
        s.observe_queue(None); // queue drained: start over
        s.observe_queue(Some(Dur::from_secs(1)));
        s.observe_queue(Some(Dur::from_secs(1)));
        assert!(!s.scale_up_due(t(1)));
        // a wait at (not above) the target is also calm
        s.observe_queue(Some(Dur::from_millis(500)));
        assert_eq!(s.breach_ticks, 0);
    }

    #[test]
    fn cooldown_rate_limits_consecutive_actions() {
        let mut s = scaler();
        for _ in 0..3 {
            s.observe_queue(Some(Dur::from_secs(1)));
        }
        assert!(s.scale_up_due(t(10)));
        s.record_action(t(10));
        // breaches continue, but the 2 s cooldown gates the next action
        for _ in 0..3 {
            s.observe_queue(Some(Dur::from_secs(1)));
        }
        assert!(!s.scale_up_due(t(11)));
        assert!(s.scale_up_due(t(12)));
    }

    #[test]
    fn scale_down_waits_for_the_idle_ttl() {
        let s = scaler();
        assert!(!s.scale_down_due(t(4), t(0)), "4 s idle < 5 s TTL");
        assert!(s.scale_down_due(t(5), t(0)), "5 s idle hits the TTL");
    }

    #[test]
    fn scale_down_respects_the_shared_cooldown() {
        let mut s = scaler();
        s.record_action(t(100));
        assert!(!s.scale_down_due(t(101), t(0)), "cooldown pending");
        assert!(s.scale_down_due(t(102), t(0)), "cooldown elapsed");
    }

    #[test]
    fn config_bounds_are_enforced() {
        let c = AutoscaleConfig::new(2, 6);
        assert_eq!((c.min_per_gpu, c.max_per_gpu), (2, 6));
        assert_eq!(AutoscaleConfig::new(1, 1).with_up_ticks(0).up_ticks, 1);
    }

    #[test]
    #[should_panic(expected = "max must be >= min")]
    fn inverted_bounds_panic() {
        let _ = AutoscaleConfig::new(3, 2);
    }

    fn predictive_scaler() -> Autoscaler {
        Autoscaler::new(
            AutoscaleConfig::predictive(1, 4)
                .with_up_ticks(3)
                .with_cooldown(Dur::from_secs(2)),
        )
    }

    #[test]
    fn prewarm_fires_on_ramp_without_breaches() {
        let mut s = predictive_scaler();
        assert!(!s.prewarm_due(t(1)), "no ramp yet");
        s.observe_signals(true, None);
        assert!(s.prewarm_due(t(1)), "ramp + cooled = pre-warm, no breaches");
        s.record_action(t(1));
        assert!(!s.prewarm_due(t(2)), "cooldown gates pre-warms too");
        assert!(s.prewarm_due(t(3)));
        // Reactive scalers never pre-warm, whatever the signals say.
        let mut r = scaler();
        r.observe_signals(true, Some(1000));
        assert!(!r.prewarm_due(t(1)));
    }

    #[test]
    fn attribution_gate_vetoes_reactive_scale_up() {
        let mut s = predictive_scaler();
        for _ in 0..3 {
            s.observe_queue(Some(Dur::from_secs(1)));
        }
        assert!(s.scale_up_due(t(10)), "no attribution data: gate open");
        s.observe_signals(false, Some(100));
        assert!(
            !s.scale_up_due(t(10)),
            "tail latency not queue-caused: more servers will not help"
        );
        s.observe_signals(false, Some(800));
        assert!(s.scale_up_due(t(10)), "queue-caused: scale");
        // The gate never applies to a reactive policy.
        let mut r = scaler();
        for _ in 0..3 {
            r.observe_queue(Some(Dur::from_secs(1)));
        }
        r.observe_signals(false, Some(0));
        assert!(r.scale_up_due(t(10)));
    }
}
