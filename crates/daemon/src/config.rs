//! Daemon configuration and argument parsing.

use std::net::SocketAddr;

use penelope_core::{DeciderConfig, DiscoveryStrategy, NodeParams};
use penelope_power::RaplConfig;
use penelope_trace::SharedObserver;
use penelope_units::{Power, PowerRange, SimDuration};
use penelope_workload::Profile;

/// Where the daemon reads power and sets caps.
#[derive(Clone, Debug)]
pub enum PowerBackend {
    /// A simulated device with constant demand — single-machine demos.
    SimulatedConstant {
        /// The node's steady power appetite.
        demand: Power,
    },
    /// A simulated device driven by a workload profile.
    SimulatedProfile {
        /// The profile to execute.
        profile: Profile,
    },
    /// Real Intel RAPL through `/sys/class/powercap` (needs permissions on
    /// the constraint files).
    LinuxRapl,
}

/// Full daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Address to bind the UDP socket to.
    pub listen: SocketAddr,
    /// This daemon's stable cluster-wide node id, stamped into every
    /// outgoing request so peers key escrow and liveness state by *node*
    /// rather than by socket address (a restarted daemon may rebind a
    /// different port). Must be unique across the cluster; by convention
    /// node `i` of `n` uses id `i` with `peers` listing the other `n - 1`
    /// daemons in global order.
    pub node_id: u32,
    /// The other nodes' daemon addresses (power discovery targets).
    pub peers: Vec<SocketAddr>,
    /// This node's initial powercap (the urgency threshold).
    pub initial_cap: Power,
    /// The per-node protocol knobs (decider, pool, safe range), shared
    /// verbatim with the simulator.
    pub node: NodeParams,
    /// Peer-discovery strategy for the decider.
    pub discovery: DiscoveryStrategy,
    /// The power substrate.
    pub power: PowerBackend,
    /// Simulated-RAPL parameters (ignored for the Linux backend).
    pub rapl: RaplConfig,
    /// First request sequence number the decider may use (and the floor
    /// below which incoming grants are discarded as stale). Zero for a
    /// brand-new node; a daemon restarted after a crash passes the
    /// previous incarnation's [`next_seq`](crate::DaemonSummary::next_seq)
    /// so pre-crash grants and escrow re-sends can never be double-paid
    /// to the reborn process.
    pub initial_seq: u64,
    /// Emit a status line every this many decider iterations (0 = never).
    pub status_every: u64,
    /// External protocol-event sink; the daemon's built-in counters keep
    /// running regardless. Defaults to the no-op observer.
    pub observer: SharedObserver,
}

impl DaemonConfig {
    /// A localhost demo configuration with millisecond periods.
    pub fn demo(listen: SocketAddr, peers: Vec<SocketAddr>, demand: Power) -> Self {
        DaemonConfig {
            listen,
            node_id: 0,
            peers,
            initial_cap: Power::from_watts_u64(160),
            node: NodeParams {
                decider: DeciderConfig {
                    period: SimDuration::from_millis(20),
                    response_timeout: SimDuration::from_millis(20),
                    ..Default::default()
                },
                safe_range: PowerRange::from_watts(80, 300),
                ..NodeParams::default()
            },
            discovery: DiscoveryStrategy::default(),
            power: PowerBackend::SimulatedConstant { demand },
            rapl: RaplConfig {
                actuation_delay: SimDuration::ZERO,
                ..Default::default()
            },
            initial_seq: 0,
            status_every: 0,
            observer: SharedObserver::noop(),
        }
    }

    /// Parse command-line arguments (everything after the program name).
    /// Returns `Err` with a usage-style message on bad input.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut listen: Option<SocketAddr> = None;
        let mut node_id = 0u32;
        let mut peers: Vec<SocketAddr> = Vec::new();
        let mut initial_cap = Power::from_watts_u64(160);
        let mut safe_min = 80u64;
        let mut safe_max = 300u64;
        let mut period_ms = 1000u64;
        let mut demand: Option<Power> = None;
        let mut use_rapl = false;
        let mut status_every = 5u64;

        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--listen" => {
                    listen = Some(
                        value("--listen")?
                            .parse()
                            .map_err(|e| format!("--listen: {e}"))?,
                    )
                }
                "--node-id" => {
                    node_id = value("--node-id")?
                        .parse()
                        .map_err(|e| format!("--node-id: {e}"))?
                }
                "--peers" => {
                    for p in value("--peers")?.split(',').filter(|s| !s.is_empty()) {
                        peers.push(p.parse().map_err(|e| format!("--peers {p:?}: {e}"))?);
                    }
                }
                "--initial-cap-watts" => {
                    initial_cap = Power::from_watts_u64(
                        value("--initial-cap-watts")?
                            .parse()
                            .map_err(|e| format!("--initial-cap-watts: {e}"))?,
                    )
                }
                "--safe-min-watts" => {
                    safe_min = value("--safe-min-watts")?
                        .parse()
                        .map_err(|e| format!("--safe-min-watts: {e}"))?
                }
                "--safe-max-watts" => {
                    safe_max = value("--safe-max-watts")?
                        .parse()
                        .map_err(|e| format!("--safe-max-watts: {e}"))?
                }
                "--period-ms" => {
                    period_ms = value("--period-ms")?
                        .parse()
                        .map_err(|e| format!("--period-ms: {e}"))?
                }
                "--simulate-demand-watts" => {
                    demand = Some(Power::from_watts_u64(
                        value("--simulate-demand-watts")?
                            .parse()
                            .map_err(|e| format!("--simulate-demand-watts: {e}"))?,
                    ))
                }
                "--rapl" => use_rapl = true,
                "--status-every" => {
                    status_every = value("--status-every")?
                        .parse()
                        .map_err(|e| format!("--status-every: {e}"))?
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let listen = listen.ok_or("--listen is required")?;
        if peers.is_empty() {
            return Err("--peers is required (comma-separated daemon addresses)".into());
        }
        if safe_min > safe_max {
            return Err("--safe-min-watts above --safe-max-watts".into());
        }
        let power = if use_rapl {
            if demand.is_some() {
                return Err("--rapl and --simulate-demand-watts are mutually exclusive".into());
            }
            PowerBackend::LinuxRapl
        } else {
            PowerBackend::SimulatedConstant {
                demand: demand.ok_or("either --rapl or --simulate-demand-watts is required")?,
            }
        };
        let period = SimDuration::from_millis(period_ms);
        Ok(DaemonConfig {
            listen,
            node_id,
            peers,
            initial_cap,
            node: NodeParams {
                decider: DeciderConfig {
                    period,
                    response_timeout: period,
                    ..Default::default()
                },
                safe_range: PowerRange::from_watts(safe_min, safe_max),
                ..NodeParams::default()
            },
            discovery: DiscoveryStrategy::default(),
            power,
            rapl: RaplConfig {
                safe_range: PowerRange::from_watts(safe_min, safe_max),
                ..Default::default()
            },
            initial_seq: 0,
            status_every,
            observer: SharedObserver::noop(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let cfg = DaemonConfig::from_args(&args(
            "--listen 127.0.0.1:7700 --node-id 2 --peers 127.0.0.1:7701,127.0.0.1:7702 \
             --initial-cap-watts 140 --period-ms 250 --simulate-demand-watts 200 \
             --safe-min-watts 70 --safe-max-watts 280 --status-every 3",
        ))
        .unwrap();
        assert_eq!(cfg.listen.port(), 7700);
        assert_eq!(cfg.node_id, 2);
        assert_eq!(cfg.peers.len(), 2);
        assert_eq!(cfg.initial_cap, Power::from_watts_u64(140));
        assert_eq!(cfg.node.decider.period, SimDuration::from_millis(250));
        assert_eq!(cfg.node.safe_range, PowerRange::from_watts(70, 280));
        assert!(matches!(
            cfg.power,
            PowerBackend::SimulatedConstant { demand } if demand == Power::from_watts_u64(200)
        ));
        assert_eq!(cfg.status_every, 3);
    }

    #[test]
    fn rapl_flag_selects_linux_backend() {
        let cfg =
            DaemonConfig::from_args(&args("--listen 0.0.0.0:7700 --peers 10.0.0.2:7700 --rapl"))
                .unwrap();
        assert!(matches!(cfg.power, PowerBackend::LinuxRapl));
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(DaemonConfig::from_args(&args("--peers 1.2.3.4:1")).is_err());
        assert!(DaemonConfig::from_args(&args("--listen 0.0.0.0:1")).is_err());
        assert!(DaemonConfig::from_args(&args("--listen 0.0.0.0:1 --peers 1.2.3.4:1")).is_err());
    }

    #[test]
    fn conflicting_backends_error() {
        let e = DaemonConfig::from_args(&args(
            "--listen 0.0.0.0:1 --peers 1.2.3.4:1 --rapl --simulate-demand-watts 100",
        ))
        .unwrap_err();
        assert!(e.contains("mutually exclusive"));
    }

    #[test]
    fn bad_values_error_with_flag_name() {
        let e = DaemonConfig::from_args(&args("--listen nonsense --peers 1.2.3.4:1")).unwrap_err();
        assert!(e.contains("--listen"));
        let e = DaemonConfig::from_args(&args(
            "--listen 0.0.0.0:1 --peers nope --simulate-demand-watts 1",
        ))
        .unwrap_err();
        assert!(e.contains("--peers"));
        let e = DaemonConfig::from_args(&args("--listen 0.0.0.0:1 --whatever")).unwrap_err();
        assert!(e.contains("unknown flag"));
    }

    #[test]
    fn demo_config_is_millisecond_scale() {
        let cfg = DaemonConfig::demo(
            "127.0.0.1:9000".parse().unwrap(),
            vec!["127.0.0.1:9001".parse().unwrap()],
            Power::from_watts_u64(100),
        );
        assert!(cfg.node.decider.period <= SimDuration::from_millis(50));
    }
}
