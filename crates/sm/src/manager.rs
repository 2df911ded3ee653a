//! The subnet manager proper: orchestrates discovery, recognition, LID
//! assignment and table installation — the role the paper delegates to
//! "the SM" at subnet initialization.

use crate::{discover, recognize, DiscoveredTopology, RecognitionError, RecoveredFatTree};
use ibfat_routing::{build_fault_tolerant, Lft, RouteOracle, Routing, RoutingKind};
use ibfat_topology::{DeviceRef, Network, NodeId};
use std::fmt;

/// Subnet-manager failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmError {
    /// The swept fabric is not a recognizable m-port n-tree.
    Recognition(RecognitionError),
    /// The sweep did not reach every device of the physical fabric (the
    /// fabric is partitioned from the SM's point of view).
    Partitioned { discovered: usize, physical: usize },
    /// The requested scheme cannot be installed by this SM.
    UnsupportedScheme(RoutingKind),
}

impl fmt::Display for SmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmError::Recognition(e) => write!(f, "recognition failed: {e}"),
            SmError::Partitioned {
                discovered,
                physical,
            } => write!(
                f,
                "sweep reached {discovered} of {physical} devices — fabric partitioned"
            ),
            SmError::UnsupportedScheme(k) => write!(f, "scheme {k} not installable by this SM"),
        }
    }
}

impl std::error::Error for SmError {}

impl From<RecognitionError> for SmError {
    fn from(e: RecognitionError) -> Self {
        SmError::Recognition(e)
    }
}

/// What an initialization run produced.
#[derive(Debug, Clone)]
pub struct SmOutcome {
    /// The programmed routing (LID space + every switch's LFT).
    pub routing: Routing,
    /// The sweep, for diagnostics.
    pub discovery: DiscoveredTopology,
    /// The recovered labeling.
    pub recovered: RecoveredFatTree,
}

/// A software subnet manager configured for one routing scheme.
#[derive(Debug, Clone, Copy)]
pub struct SubnetManager {
    kind: RoutingKind,
    /// The node whose endport hosts the SM (the sweep's origin).
    host: NodeId,
}

impl SubnetManager {
    /// An SM running on `host`, installing `kind` tables.
    pub fn new(kind: RoutingKind, host: NodeId) -> Self {
        SubnetManager { kind, host }
    }

    /// Full subnet initialization: sweep, recognize, assign LIDs from the
    /// recovered PIDs, compute each switch's LFT **from its recovered
    /// label** (not from construction-time knowledge), and install.
    ///
    /// This is an independent path to the forwarding state: the tests
    /// check it reproduces `Routing::build` bit for bit.
    pub fn initialize(&self, net: &Network) -> Result<SmOutcome, SmError> {
        if self.kind == RoutingKind::UpDown {
            // Installable in principle, but this SM is the fat-tree one;
            // keep the scope honest.
            return Err(SmError::UnsupportedScheme(self.kind));
        }
        let discovery = discover(net, self.host);
        let physical = net.num_nodes() + net.num_switches();
        if discovery.devices.len() != physical {
            return Err(SmError::Partitioned {
                discovered: discovery.devices.len(),
                physical,
            });
        }
        let recovered = recognize(&discovery)?;
        let params = recovered.params;

        // LID assignment from recovered PIDs.
        let oracle =
            RouteOracle::for_kind(params, self.kind).expect("SLID and MLID are closed-form");

        // Per-switch tables computed at the switch id each recovered label
        // names, installed through the device handles.
        let mut lfts: Vec<Option<Lft>> = vec![None; net.num_switches()];
        for (i, dev) in discovery.devices.iter().enumerate() {
            let DeviceRef::Switch(install_at) = dev.handle else {
                continue;
            };
            let label = recovered.switch_labels[i].expect("switches are labeled");
            lfts[install_at.index()] = Some(oracle.switch_lft(label.id(params)));
        }
        let lfts: Vec<Lft> = lfts
            .into_iter()
            .enumerate()
            .map(|(i, l)| l.unwrap_or_else(|| panic!("switch S{i} never visited")))
            .collect();

        Ok(SmOutcome {
            routing: Routing::assemble(self.kind, params, oracle.lid_space(), lfts),
            discovery,
            recovered,
        })
    }

    /// Reconfiguration after failures: when the degraded fabric no longer
    /// recognizes cleanly (missing cables break the counts), fall back to
    /// fault-repaired tables computed on the degraded graph with the
    /// cached parameters.
    pub fn reconfigure(&self, degraded: &Network) -> Result<Routing, SmError> {
        match self.initialize(degraded) {
            Ok(outcome) => Ok(outcome.routing),
            Err(SmError::Recognition(_)) => Ok(build_fault_tolerant(degraded, self.kind)),
            Err(e) => Err(e),
        }
    }

    /// The routing scheme this SM installs.
    pub fn kind(&self) -> RoutingKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfat_topology::TreeParams;

    #[test]
    fn sm_tables_match_direct_construction_exactly() {
        for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
            for (m, n) in [(4, 2), (4, 3), (8, 2), (8, 3), (16, 2), (16, 3)] {
                let net = Network::mport_ntree(TreeParams::new(m, n).unwrap());
                let direct = Routing::build(&net, kind);
                let sm = SubnetManager::new(kind, NodeId(0));
                let outcome = sm.initialize(&net).unwrap();
                assert_eq!(
                    outcome.routing.lfts(),
                    direct.lfts(),
                    "{kind} IBFT({m},{n}): SM tables differ from direct build"
                );
                assert_eq!(outcome.routing.lid_space(), direct.lid_space());
            }
        }
    }

    #[test]
    fn sm_from_any_host_installs_identical_tables() {
        let net = Network::mport_ntree(TreeParams::new(4, 3).unwrap());
        let reference = SubnetManager::new(RoutingKind::Mlid, NodeId(0))
            .initialize(&net)
            .unwrap();
        for host in [3u32, 9, 15] {
            let outcome = SubnetManager::new(RoutingKind::Mlid, NodeId(host))
                .initialize(&net)
                .unwrap();
            assert_eq!(outcome.routing.lfts(), reference.routing.lfts());
        }
    }

    #[test]
    fn partitioned_fabric_is_reported() {
        let mut net = Network::mport_ntree(TreeParams::new(4, 2).unwrap());
        // Cut off node 7 and sweep from node 0.
        let idx = net
            .links()
            .iter()
            .position(|l| {
                l.a.device == DeviceRef::Node(NodeId(7)) || l.b.device == DeviceRef::Node(NodeId(7))
            })
            .unwrap();
        net.remove_link(idx);
        let err = SubnetManager::new(RoutingKind::Mlid, NodeId(0))
            .initialize(&net)
            .unwrap_err();
        assert!(matches!(err, SmError::Partitioned { .. }));
    }

    #[test]
    fn reconfigure_falls_back_to_fault_repair() {
        let mut net = Network::mport_ntree(TreeParams::new(4, 2).unwrap());
        let idx = net.inter_switch_link_indices()[0];
        net.remove_link(idx);
        let sm = SubnetManager::new(RoutingKind::Mlid, NodeId(0));
        let routing = sm.reconfigure(&net).unwrap();
        ibfat_routing::verify_all_lids_deliver(&net, &routing).unwrap();
        ibfat_routing::verify_deadlock_free(&net, &routing).unwrap();
    }

    #[test]
    fn updown_is_unsupported() {
        let net = Network::mport_ntree(TreeParams::new(4, 2).unwrap());
        let err = SubnetManager::new(RoutingKind::UpDown, NodeId(0))
            .initialize(&net)
            .unwrap_err();
        assert_eq!(err, SmError::UnsupportedScheme(RoutingKind::UpDown));
    }
}
