use ibfat_routing::{Route, Routing, RoutingError, RoutingKind};
use ibfat_topology::{Network, NodeId, TopologyError, TreeParams};
use std::fmt;

/// Errors surfaced by the high-level API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// Invalid tree parameters.
    Topology(TopologyError),
    /// A routing or verification failure.
    Routing(RoutingError),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Topology(e) => write!(f, "topology: {e}"),
            FabricError::Routing(e) => write!(f, "routing: {e}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<TopologyError> for FabricError {
    fn from(e: TopologyError) -> Self {
        FabricError::Topology(e)
    }
}

impl From<RoutingError> for FabricError {
    fn from(e: RoutingError) -> Self {
        FabricError::Routing(e)
    }
}

/// Builder for a [`Fabric`].
#[derive(Debug, Clone)]
pub struct FabricBuilder {
    m: u32,
    n: u32,
    kind: RoutingKind,
}

impl FabricBuilder {
    /// Choose the routing scheme (default: MLID, the paper's contribution).
    pub fn routing(mut self, kind: RoutingKind) -> Self {
        self.kind = kind;
        self
    }

    /// Construct the subnet, run the subnet-manager role (LID assignment +
    /// forwarding tables), and validate the wiring.
    pub fn build(self) -> Result<Fabric, FabricError> {
        let params = TreeParams::new(self.m, self.n)?;
        let net = Network::mport_ntree(params);
        net.validate()?;
        let routing = Routing::build(&net, self.kind);
        Ok(Fabric {
            params,
            net,
            routing,
        })
    }
}

/// A fully initialized InfiniBand fat-tree fabric: the cabled subnet plus
/// the routing state a subnet manager would have programmed.
#[derive(Debug, Clone)]
pub struct Fabric {
    params: TreeParams,
    net: Network,
    routing: Routing,
}

impl Fabric {
    /// Start building an `IBFT(m, n)` fabric.
    pub fn builder(m: u32, n: u32) -> FabricBuilder {
        FabricBuilder {
            m,
            n,
            kind: RoutingKind::Mlid,
        }
    }

    /// The tree parameters.
    pub fn params(&self) -> TreeParams {
        self.params
    }

    /// The cabled subnet.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The programmed routing (LID space + forwarding tables).
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Number of processing nodes.
    pub fn num_nodes(&self) -> u32 {
        self.params.num_nodes()
    }

    /// Number of switches.
    pub fn num_switches(&self) -> u32 {
        self.params.num_switches()
    }

    /// The route a packet from `src` to `dst` takes under this fabric's
    /// path selection.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Result<Route, FabricError> {
        let dlid = self.routing.select_dlid(src, dst);
        Ok(self.routing.trace(&self.net, src, dlid)?)
    }

    /// The route for an explicit destination LID (exercises multipathing
    /// directly).
    pub fn route_to_lid(
        &self,
        src: NodeId,
        dlid: ibfat_routing::Lid,
    ) -> Result<Route, FabricError> {
        Ok(self.routing.trace(&self.net, src, dlid)?)
    }

    /// Run the full verification suite: every LID delivers from every
    /// source, selected routes are minimal, and the channel dependency
    /// graph is acyclic (deadlock freedom). Expensive on large fabrics.
    pub fn verify(&self) -> Result<(), FabricError> {
        ibfat_routing::verify_all_lids_deliver(&self.net, &self.routing)?;
        if matches!(self.routing.kind(), RoutingKind::Mlid | RoutingKind::Slid) {
            ibfat_routing::verify_minimality(&self.net, &self.routing)?;
        }
        ibfat_routing::verify_deadlock_free(&self.net, &self.routing)?;
        Ok(())
    }

    /// Static channel loads under all-to-all traffic: every ordered node
    /// pair sends one flow along this fabric's selected path. Streams the
    /// (never materialized) pair matrix through parallel source shards
    /// into a dense per-link vector — memory stays O(links).
    pub fn channel_loads(&self) -> Result<ibfat_routing::ChannelLoads, FabricError> {
        Ok(ibfat_routing::all_to_all_loads(&self.net, &self.routing)?)
    }

    /// Static channel loads for an explicit flow matrix.
    pub fn channel_loads_for(
        &self,
        flows: &[(NodeId, NodeId)],
    ) -> Result<ibfat_routing::ChannelLoads, FabricError> {
        Ok(ibfat_routing::loads_for_matrix(
            &self.net,
            &self.routing,
            flows,
        )?)
    }

    /// Start configuring a simulation of this fabric.
    pub fn experiment(&self) -> crate::ExperimentBuilder<'_> {
        crate::ExperimentBuilder::new(self)
    }

    /// A degraded copy of this fabric: the given cables (indices into
    /// `network().links()`) are failed and the forwarding tables are
    /// reprogrammed — fault-repaired MLID/SLID tables, or a fresh
    /// up*/down* computation, which handles degraded graphs natively.
    ///
    /// Destinations that become unreachable under up*-then-down*
    /// semantics lose their LFT entries; routes to them report
    /// `NoLftEntry` and simulated packets toward them are not generated
    /// by the built-in patterns unless the pattern targets them.
    pub fn with_failed_links(&self, link_indices: &[usize]) -> Fabric {
        self.with_failed(link_indices, &[])
    }

    /// A degraded copy with failed cables *and* powered-off switches in
    /// one batch: a dead switch fails every cable incident to it, the
    /// network is cloned once, and the tables are reprogrammed once for
    /// the combined damage — not per component.
    pub fn with_failed(&self, link_indices: &[usize], switches: &[u32]) -> Fabric {
        let net = self.net.without(link_indices, switches);
        let routing = match self.routing.kind() {
            RoutingKind::UpDown => Routing::build(&net, RoutingKind::UpDown),
            kind => ibfat_routing::build_fault_tolerant(&net, kind),
        };
        Fabric {
            params: self.params,
            net,
            routing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_verify_small_fabrics() {
        for kind in [RoutingKind::Mlid, RoutingKind::Slid, RoutingKind::UpDown] {
            let fabric = Fabric::builder(4, 2).routing(kind).build().unwrap();
            fabric.verify().unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn invalid_parameters_are_reported() {
        assert!(matches!(
            Fabric::builder(6, 2).build(),
            Err(FabricError::Topology(_))
        ));
    }

    #[test]
    fn route_endpoints_match_request() {
        let fabric = Fabric::builder(8, 2).build().unwrap();
        let route = fabric.route(NodeId(3), NodeId(17)).unwrap();
        assert_eq!(route.src, NodeId(3));
        assert_eq!(route.dst, NodeId(17));
    }

    #[test]
    fn channel_loads_reflect_the_scheme_contrast() {
        // The hot-spot matrix separates the schemes through the high-level
        // API exactly as it does through the routing crate directly.
        let flows: Vec<_> = (1..16).map(|s| (NodeId(s), NodeId(0))).collect();
        let mlid = Fabric::builder(4, 3).build().unwrap();
        let slid = Fabric::builder(4, 3)
            .routing(RoutingKind::Slid)
            .build()
            .unwrap();
        let lm = mlid.channel_loads_for(&flows).unwrap();
        let ls = slid.channel_loads_for(&flows).unwrap();
        assert_eq!(lm.max_up, 1);
        assert!(ls.max_up > lm.max_up);
        // All-to-all through the convenience method agrees with the
        // routing-crate entry point.
        assert_eq!(
            mlid.channel_loads().unwrap(),
            ibfat_routing::all_to_all_loads(mlid.network(), mlid.routing()).unwrap()
        );
    }

    #[test]
    fn with_failed_batches_links_and_switches() {
        use ibfat_topology::DeviceRef;
        let fabric = Fabric::builder(4, 3).build().unwrap();
        let net = fabric.network();
        let incident: Vec<usize> = net
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                [l.a, l.b]
                    .iter()
                    .any(|p| matches!(p.device, DeviceRef::Switch(s) if s.0 == 0))
            })
            .map(|(i, _)| i)
            .collect();
        let explicit = *net
            .inter_switch_link_indices()
            .iter()
            .find(|i| !incident.contains(i))
            .unwrap();
        // One batch: a powered-off root switch plus one unrelated cable.
        let batched = fabric.with_failed(&[explicit], &[0]);
        let mut union = incident.clone();
        union.push(explicit);
        let by_links = fabric.with_failed_links(&union);
        assert_eq!(
            net.links().len() - batched.network().links().len(),
            incident.len() + 1
        );
        assert_eq!(
            batched.network().links().len(),
            by_links.network().links().len()
        );
        // The reprogrammed tables steer identically either way.
        for (s, d) in [(0u32, 5u32), (3, 12), (9, 2), (15, 8)] {
            let a = batched.route(NodeId(s), NodeId(d)).unwrap();
            let b = by_links.route(NodeId(s), NodeId(d)).unwrap();
            let hops = |r: &Route| {
                r.hops
                    .iter()
                    .map(|h| (h.switch.0, h.out_port.0))
                    .collect::<Vec<_>>()
            };
            assert_eq!(hops(&a), hops(&b), "{s}->{d} diverged");
        }
    }

    #[test]
    fn route_to_each_lid_of_a_destination_differs_in_path() {
        let fabric = Fabric::builder(4, 3).build().unwrap();
        let space = fabric.routing().lid_space();
        let dst = NodeId(12);
        let mut first_hops = std::collections::HashSet::new();
        for lid in space.lids(dst) {
            let route = fabric.route_to_lid(NodeId(0), lid).unwrap();
            assert_eq!(route.dst, dst);
            first_hops.insert(route.hops[0].out_port);
        }
        // FT(4,3): 4 LIDs spread over 2 leaf up-ports.
        assert_eq!(first_hops.len(), 2);
    }
}
