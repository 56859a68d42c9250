//! [`PlatformConfig`]: the single entry point for configuring a DGSF
//! platform run.
//!
//! One builder covers the server shape, the fleet in front of it, and the
//! backend's routing and admission policies. Start from
//! [`PlatformConfig::paper_default`], chain `with_*` calls, and hand the
//! result to [`Testbed::run_platform_schedule`](crate::Testbed::run_platform_schedule)
//! or [`Testbed::run_dgsf_once`](crate::Testbed::run_dgsf_once).
//!
//! ```
//! use dgsf::{PlatformConfig, Testbed};
//! use dgsf::serverless::FleetPolicy;
//!
//! let cfg = PlatformConfig::paper_default()
//!     .with_seed(7)
//!     .with_num_servers(4)
//!     .with_fleet_policy(FleetPolicy::LoadAware)
//!     .with_max_inflight(64)
//!     .with_weighted_fair();
//! assert_eq!(cfg.num_servers, 4);
//! assert_eq!(cfg.validate(), Ok(()));
//! ```

use dgsf_remoting::OptConfig;
use dgsf_server::{FleetPolicy, GpuServerConfig, QueuePolicy};
use dgsf_serverless::AdmissionConfig;
use dgsf_sim::ObsConfig;

/// A rejected [`PlatformConfig`]: the build was internally inconsistent
/// in a way that would silently distort a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The observability-plane configuration is internally inconsistent
    /// (zero window or zero error budget).
    BadObsConfig(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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
    /// Optional admission control (overload shedding).
    pub admission: Option<AdmissionConfig>,
    /// Bounded sticky tenant→server placement (MQFQ-Sticky's locality
    /// half), each tenant held to half the fleet.
    pub sticky: bool,
    /// Guest-library optimization level.
    pub opts: OptConfig,
    /// Optional online observability plane: streaming windowed
    /// aggregation, burn-rate alerting, health scoring, and the signals a
    /// predictive autoscaler consumes.
    pub obs: Option<ObsConfig>,
}

impl PlatformConfig {
    /// The paper's default platform: one paper-default GPU server behind a
    /// round-robin backend, no admission control.
    pub fn paper_default() -> PlatformConfig {
        PlatformConfig {
            seed: 42,
            server: GpuServerConfig::paper_default(),
            num_servers: 1,
            policy: FleetPolicy::RoundRobin,
            admission: None,
            sticky: false,
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

    /// Builder-style: admission control with a platform-wide in-flight
    /// cap (creating a default [`AdmissionConfig`] if none is set yet).
    /// Panics on 0 whether or not a cap was set before.
    pub fn with_max_inflight(mut self, n: usize) -> Self {
        let fresh = AdmissionConfig::new(n);
        self.admission = Some(match self.admission.take() {
            Some(a) => AdmissionConfig {
                max_inflight: fresh.max_inflight,
                ..a
            },
            None => fresh,
        });
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

    /// Builder-style: per-tenant fair shedding, every tenant an equal
    /// share (requires admission control to be configured first).
    pub fn with_weighted_fair(mut self) -> Self {
        let adm = self
            .admission
            .take()
            .expect("set with_max_inflight before with_weighted_fair");
        self.admission = Some(adm.with_weighted_fair());
        self
    }

    /// Builder-style: switch every GPU server's queue to per-tenant MQFQ
    /// fair queueing.
    pub fn with_mqfq(mut self) -> Self {
        self.server = self.server.with_queue_policy(QueuePolicy::Mqfq);
        self
    }

    /// Builder-style: enable bounded sticky tenant→server placement.
    pub fn with_sticky(mut self) -> Self {
        self.sticky = true;
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
    /// distort a run: an inconsistent observability plane. The platform
    /// runners call this before provisioning anything.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(obs) = &self.obs {
            obs.validate().map_err(ConfigError::BadObsConfig)?;
        }
        Ok(())
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
            .with_weighted_fair();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.num_servers, 4);
        assert_eq!(cfg.policy, FleetPolicy::LoadAware);
        let adm = cfg.admission.expect("admission configured");
        assert_eq!(adm.max_inflight, 32);
        assert!(adm.fair, "fair shedding on");
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
    #[should_panic(expected = "admitting nothing serves nothing")]
    fn max_inflight_zero_panics_after_an_earlier_cap() {
        let _ = PlatformConfig::paper_default()
            .with_max_inflight(8)
            .with_max_inflight(0);
    }

    #[test]
    fn validate_accepts_the_defaults_and_every_tenant_protection() {
        assert_eq!(PlatformConfig::paper_default().validate(), Ok(()));
        let cfg = PlatformConfig::paper_default()
            .with_max_inflight(8)
            .with_weighted_fair()
            .with_mqfq()
            .with_sticky();
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn builder_sets_sticky_and_mqfq() {
        let cfg = PlatformConfig::paper_default().with_sticky().with_mqfq();
        assert!(cfg.sticky);
        assert_eq!(cfg.server.queue, QueuePolicy::Mqfq);
    }
}
