//! [`PlatformConfig`]: the single entry point for configuring a DGSF
//! platform run.
//!
//! One builder covers the server shape, the fleet in front of it, and the
//! backend's routing, retry and admission policies. Start from
//! [`PlatformConfig::paper_default`], chain `with_*` calls, and hand the
//! result to [`Testbed::run_platform_schedule`](crate::Testbed::run_platform_schedule)
//! or [`Testbed::run_dgsf_once`](crate::Testbed::run_dgsf_once).
//!
//! ```
//! use dgsf::{PlatformConfig, Testbed};
//! use dgsf::serverless::{FairShedConfig, FleetPolicy};
//!
//! let cfg = PlatformConfig::paper_default()
//!     .with_seed(7)
//!     .with_num_servers(4)
//!     .with_fleet_policy(FleetPolicy::LoadAware)
//!     .with_max_inflight(64)
//!     .with_weighted_fair(FairShedConfig::new().with_weight("hot", 1));
//! assert_eq!(cfg.num_servers, 4);
//! assert_eq!(cfg.validate(), Ok(()));
//! ```

use dgsf_remoting::OptConfig;
use dgsf_server::{FleetPolicy, GpuServerConfig, MqfqConfig, QueuePolicy, ShedPolicy};
use dgsf_serverless::{AdmissionConfig, FairShedConfig, RetryPolicy, StickyConfig};
use dgsf_sim::ObsConfig;

/// A rejected [`PlatformConfig`]: the build was internally inconsistent
/// in a way that would silently distort a run (e.g. a zero fairness
/// weight, which would starve that tenant forever).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A fair-shedding or MQFQ weight map names a tenant with weight 0.
    ZeroWeight {
        /// Which policy the weight belongs to (`"fair_shed"` / `"mqfq"`).
        policy: &'static str,
        /// The offending tenant.
        tenant: String,
    },
    /// The MQFQ provisional service charge is 0, which would collapse the
    /// in-flight rotation.
    ZeroAssumedService,
    /// The sticky max-share bound is outside 1..=1000 per mille.
    BadStickyShare(u64),
    /// Pipelined host→GPU transfers are enabled with a zero chunk size, so
    /// the DMA engines would have nothing to slice copies into.
    ZeroDmaChunk,
    /// Pipelined host→GPU transfers are enabled with zero DMA engines, so
    /// no transfer could ever start.
    ZeroDmaEngines,
    /// The observability-plane configuration is internally inconsistent
    /// (zero window, inverted burn-window pair, zero budget, ...).
    BadObsConfig(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWeight { policy, tenant } => write!(
                f,
                "{policy} weight for tenant {tenant:?} is 0: a zero-weight tenant \
                 would be starved forever; give every tenant a weight >= 1"
            ),
            ConfigError::ZeroAssumedService => write!(
                f,
                "MQFQ assumed_service_ns is 0: the provisional in-flight charge \
                 must be at least 1 ns"
            ),
            ConfigError::BadStickyShare(p) => write!(
                f,
                "sticky max_share_permille is {p}: must be within 1..=1000 \
                 (per mille of the fleet one tenant may hold)"
            ),
            ConfigError::ZeroDmaChunk => write!(
                f,
                "h2d_pipelined is set with h2d_chunk_bytes 0: pipelined \
                 transfers need a non-zero chunk size to slice copies into"
            ),
            ConfigError::ZeroDmaEngines => write!(
                f,
                "h2d_pipelined is set with h2d_dma_engines 0: pipelined \
                 transfers need at least one DMA engine to run on"
            ),
            ConfigError::BadObsConfig(reason) => write!(f, "obs config rejected: {reason}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// One consolidated configuration for a whole platform run: the RNG seed,
/// the shape of every GPU server, the fleet in front of them, and the
/// backend's routing, retry and admission policies.
#[derive(Clone)]
pub struct PlatformConfig {
    /// RNG seed (arrivals, jitter).
    pub seed: u64,
    /// Shape of each GPU server in the fleet.
    pub server: GpuServerConfig,
    /// Fleet size (number of GPU servers behind the backend).
    pub num_servers: usize,
    /// Cluster-balancer routing policy.
    pub policy: FleetPolicy,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Optional admission control (overload shedding).
    pub admission: Option<AdmissionConfig>,
    /// Optional bounded sticky tenant→server placement (MQFQ-Sticky's
    /// locality half).
    pub sticky: Option<StickyConfig>,
    /// Guest-library optimization level.
    pub opts: OptConfig,
    /// Optional online observability plane: streaming windowed
    /// aggregation, burn-rate alerting, health scoring, and the signals a
    /// predictive autoscaler consumes.
    pub obs: Option<ObsConfig>,
}

impl PlatformConfig {
    /// The paper's default platform: one paper-default GPU server behind a
    /// round-robin backend, default retries, no admission control.
    pub fn paper_default() -> PlatformConfig {
        PlatformConfig {
            seed: 42,
            server: GpuServerConfig::paper_default(),
            num_servers: 1,
            policy: FleetPolicy::RoundRobin,
            retry: RetryPolicy::default(),
            admission: None,
            sticky: None,
            opts: OptConfig::full(),
            obs: None,
        }
    }

    /// Builder-style: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: set the per-server shape.
    pub fn with_server(mut self, server: GpuServerConfig) -> Self {
        self.server = server;
        self
    }

    /// Builder-style: set the fleet size.
    pub fn with_num_servers(mut self, n: usize) -> Self {
        assert!(n >= 1, "a fleet needs at least one server");
        self.num_servers = n;
        self
    }

    /// Builder-style: set the cluster-balancer routing policy.
    pub fn with_fleet_policy(mut self, policy: FleetPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style: set the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder-style: install a complete admission configuration.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Builder-style: admission control with a platform-wide in-flight
    /// cap (creating a default [`AdmissionConfig`] if none is set yet).
    pub fn with_max_inflight(mut self, n: usize) -> Self {
        let adm = match self.admission.take() {
            Some(mut a) => {
                a.max_inflight = n.max(1);
                a
            }
            None => AdmissionConfig::new(n),
        };
        self.admission = Some(adm);
        self
    }

    /// Builder-style: bound per-attempt queue wait (requires admission
    /// control; creates one with the given cap applied to an existing
    /// config, or panics if none is configured yet).
    pub fn with_max_queue_age(mut self, d: dgsf_sim::Dur) -> Self {
        let adm = self
            .admission
            .take()
            .expect("set with_max_inflight before with_max_queue_age");
        self.admission = Some(adm.with_max_queue_age(d));
        self
    }

    /// Builder-style: per-tenant weighted fair shedding (requires
    /// admission control to be configured first).
    pub fn with_weighted_fair(mut self, fairness: FairShedConfig) -> Self {
        let adm = self
            .admission
            .take()
            .expect("set with_max_inflight before with_weighted_fair");
        self.admission = Some(adm.with_weighted_fair(fairness));
        self
    }

    /// Builder-style: switch every GPU server's queue to per-tenant MQFQ
    /// fair queueing under `weights`.
    pub fn with_mqfq(mut self, weights: MqfqConfig) -> Self {
        self.server = self.server.with_fair_queue(weights);
        self
    }

    /// Builder-style: enable bounded sticky tenant→server placement.
    pub fn with_sticky(mut self, sticky: StickyConfig) -> Self {
        self.sticky = Some(sticky);
        self
    }

    /// Builder-style: set the guest-library optimization level.
    pub fn with_opts(mut self, opts: OptConfig) -> Self {
        self.opts = opts;
        self
    }

    /// Builder-style: enable the online observability plane. The runner
    /// builds one [`dgsf_sim::ObsPlane`] per run, feeds it from the
    /// backend and every monitor, and attaches its [`dgsf_sim::ObsReport`]
    /// to the run output.
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Check the configuration for inconsistencies that would silently
    /// distort a run: zero (or zero-total) fairness weights, a zero MQFQ
    /// provisional charge, an out-of-range sticky share. The platform
    /// runners call this before provisioning anything.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(fair) = self.admission.as_ref().and_then(|a| a.fairness.as_ref()) {
            check_weights("fair_shed", &fair.weights)?;
        }
        if self.server.queue == QueuePolicy::Mqfq {
            let default = MqfqConfig::default();
            let mqfq = self.server.fair_queue.as_ref().unwrap_or(&default);
            check_weights("mqfq", &mqfq.weights)?;
            if mqfq.assumed_service_ns == 0 {
                return Err(ConfigError::ZeroAssumedService);
            }
        }
        if let Some(sticky) = &self.sticky {
            if !(1..=1000).contains(&sticky.max_share_permille) {
                return Err(ConfigError::BadStickyShare(sticky.max_share_permille));
            }
        }
        if self.server.costs.h2d_pipelined {
            if self.server.costs.h2d_chunk_bytes == 0 {
                return Err(ConfigError::ZeroDmaChunk);
            }
            if self.server.costs.h2d_dma_engines == 0 {
                return Err(ConfigError::ZeroDmaEngines);
            }
        }
        if let Some(obs) = &self.obs {
            obs.validate().map_err(ConfigError::BadObsConfig)?;
        }
        Ok(())
    }

    /// The shed policy this platform implements.
    pub fn shed_policy(&self) -> ShedPolicy {
        self.admission
            .as_ref()
            .map(|a| a.shed_policy())
            .unwrap_or(ShedPolicy::Fifo)
    }

    /// The single-server view of this platform: same seed, server shape
    /// and optimization level, with every fleet setting at its default.
    pub fn testbed(&self) -> PlatformConfig {
        PlatformConfig {
            seed: self.seed,
            server: self.server.clone(),
            opts: self.opts,
            ..PlatformConfig::paper_default()
        }
    }
}

/// Reject zero weights in a tenant→weight map: the builders clamp to 1,
/// but both config types expose public fields, and a literal 0 would
/// starve the tenant (fair shed) or stall its virtual clock (MQFQ).
fn check_weights(
    policy: &'static str,
    weights: &std::collections::BTreeMap<String, u64>,
) -> Result<(), ConfigError> {
    if let Some((tenant, _)) = weights.iter().find(|(_, &w)| w == 0) {
        return Err(ConfigError::ZeroWeight {
            policy,
            tenant: tenant.clone(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_sim::Dur;

    #[test]
    fn builder_sets_fleet_and_admission() {
        let cfg = PlatformConfig::paper_default()
            .with_seed(9)
            .with_num_servers(4)
            .with_fleet_policy(FleetPolicy::LoadAware)
            .with_max_inflight(32)
            .with_max_queue_age(Dur::from_secs(2))
            .with_weighted_fair(FairShedConfig::new());
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.num_servers, 4);
        assert_eq!(cfg.policy, FleetPolicy::LoadAware);
        let adm = cfg.admission.expect("admission configured");
        assert_eq!(adm.max_inflight, 32);
        assert_eq!(adm.shed_policy(), ShedPolicy::WeightedFair);
    }

    #[test]
    fn testbed_view_keeps_seed_and_server_shape_and_drops_the_fleet() {
        let cfg = PlatformConfig::paper_default()
            .with_seed(3)
            .with_num_servers(4)
            .with_max_inflight(8)
            .with_opts(OptConfig::none());
        let t = cfg.testbed();
        assert_eq!(t.seed, 3);
        assert_eq!(t.server.num_gpus, cfg.server.num_gpus);
        assert_eq!(t.opts, OptConfig::none());
        assert_eq!(t.num_servers, 1);
        assert!(t.admission.is_none());
    }

    #[test]
    fn shed_policy_reflects_fairness() {
        let fifo = PlatformConfig::paper_default().with_max_inflight(8);
        assert_eq!(fifo.shed_policy(), ShedPolicy::Fifo);
        let fair = fifo.with_weighted_fair(FairShedConfig::new());
        assert_eq!(fair.shed_policy(), ShedPolicy::WeightedFair);
    }

    #[test]
    fn validate_accepts_the_defaults_and_well_formed_fairness() {
        assert_eq!(PlatformConfig::paper_default().validate(), Ok(()));
        let cfg = PlatformConfig::paper_default()
            .with_max_inflight(8)
            .with_weighted_fair(FairShedConfig::new().with_weight("hot", 3))
            .with_mqfq(MqfqConfig::new().with_weight("hot", 3))
            .with_sticky(StickyConfig::new());
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_fair_shed_weights() {
        // The builders clamp to 1; a literal 0 needs the public fields.
        let mut fair = FairShedConfig::new();
        fair.weights.insert("ghost".into(), 0);
        let cfg = PlatformConfig::paper_default()
            .with_max_inflight(8)
            .with_weighted_fair(fair);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroWeight {
                policy: "fair_shed",
                tenant: "ghost".into(),
            })
        );
    }

    #[test]
    fn validate_rejects_zero_mqfq_weights_and_charge() {
        let mut mqfq = MqfqConfig::new();
        mqfq.weights.insert("ghost".into(), 0);
        let cfg = PlatformConfig::paper_default().with_mqfq(mqfq);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroWeight {
                policy: "mqfq",
                tenant: "ghost".into(),
            })
        );
        let mqfq3 = MqfqConfig::new().with_assumed_service(0);
        assert_eq!(
            PlatformConfig::paper_default().with_mqfq(mqfq3).validate(),
            Err(ConfigError::ZeroAssumedService)
        );
        // The same weights are fine when MQFQ is not the queue policy:
        // validation judges what the run will actually use.
        let mut unused = PlatformConfig::paper_default();
        unused.server.fair_queue = Some(MqfqConfig::new().with_assumed_service(0));
        assert_eq!(unused.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_sticky_share() {
        let mut sticky = StickyConfig::new();
        sticky.max_share_permille = 0;
        let cfg = PlatformConfig::paper_default().with_sticky(sticky);
        assert_eq!(cfg.validate(), Err(ConfigError::BadStickyShare(0)));
        let mut sticky2 = StickyConfig::new();
        sticky2.max_share_permille = 1500;
        let cfg2 = PlatformConfig::paper_default().with_sticky(sticky2);
        assert_eq!(cfg2.validate(), Err(ConfigError::BadStickyShare(1500)));
        // Error messages are actionable.
        let msg = cfg2.validate().unwrap_err().to_string();
        assert!(msg.contains("1500") && msg.contains("1..=1000"), "{msg}");
    }

    #[test]
    fn validate_rejects_degenerate_pipelined_transfer_knobs() {
        // The builder keeps chunk/engines sane; a literal 0 needs the
        // public fields, and only matters once pipelining is switched on.
        let mut cfg = PlatformConfig::paper_default();
        cfg.server.costs.h2d_chunk_bytes = 0;
        cfg.server.costs.h2d_dma_engines = 0;
        assert_eq!(cfg.validate(), Ok(()), "knobs are inert while disabled");
        cfg.server.costs.h2d_pipelined = true;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroDmaChunk));
        cfg.server.costs.h2d_chunk_bytes = 1 << 20;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroDmaEngines));
        cfg.server.costs.h2d_dma_engines = 2;
        assert_eq!(cfg.validate(), Ok(()));
        // And the builder-configured form is valid as-is.
        let built = PlatformConfig::paper_default()
            .with_server(GpuServerConfig::paper_default().with_pipelined_h2d(4 << 20, 2));
        assert_eq!(built.validate(), Ok(()));
    }

    #[test]
    fn builder_sets_sticky_and_mqfq() {
        let cfg = PlatformConfig::paper_default()
            .with_sticky(StickyConfig::new().with_max_share(250))
            .with_mqfq(MqfqConfig::new().with_weight("hot", 2));
        assert_eq!(cfg.sticky.map(|s| s.max_share_permille), Some(250));
        assert_eq!(cfg.server.queue, QueuePolicy::Mqfq);
        assert_eq!(cfg.server.fair_queue.map(|m| m.weight_of("hot")), Some(2));
    }
}
