//! Route tracing: follow a DLID through the programmed forwarding tables,
//! exactly as packets are relayed in the subnet.

use crate::{Lft, Lid, LidSpace, RoutingError};
use ibfat_topology::{DeviceRef, Network, NodeId, PortNum, SwitchId};

/// One switch traversal of a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The switch traversed.
    pub switch: SwitchId,
    /// The port the packet entered through (IB numbering).
    pub in_port: PortNum,
    /// The port the packet left through (IB numbering).
    pub out_port: PortNum,
}

/// A fully resolved source→destination route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The source node.
    pub src: NodeId,
    /// The DLID the packet carried.
    pub dlid: Lid,
    /// The delivered-to node.
    pub dst: NodeId,
    /// Switch traversals, in order.
    pub hops: Vec<Hop>,
}

impl Route {
    /// Number of links traversed (switch hops + 1).
    pub fn num_links(&self) -> usize {
        self.hops.len() + 1
    }

    /// The directed inter-switch and edge links as `(device, out_port)`
    /// pairs, including the source endport's injection link. Two routes
    /// share a directed link iff these pairs intersect.
    pub fn directed_links(&self) -> Vec<(DeviceRef, PortNum)> {
        let mut out = Vec::with_capacity(self.hops.len() + 1);
        out.push((DeviceRef::Node(self.src), PortNum(1)));
        for hop in &self.hops {
            out.push((DeviceRef::Switch(hop.switch), hop.out_port));
        }
        out
    }

    /// The subsequence of [`Route::directed_links`] in the ascending
    /// (upward) phase: every link out of a non-root switch through an
    /// up-port. Root switches (level 0) use all `m` ports as down-ports,
    /// so their hops are never upward. The injection link is excluded.
    pub fn upward_links(&self, params: ibfat_topology::TreeParams) -> Vec<(SwitchId, PortNum)> {
        self.hops
            .iter()
            .filter(|h| h.is_upward(params))
            .map(|h| (h.switch, h.out_port))
            .collect()
    }
}

impl Hop {
    /// Whether the hop climbs: it leaves a non-root switch through an
    /// up-port (roots use all `m` ports as down-ports).
    #[inline]
    pub(crate) fn is_upward(&self, params: ibfat_topology::TreeParams) -> bool {
        params.switch_level_of(self.switch.0) > 0 && u32::from(self.out_port.0) > params.half()
    }
}

/// Follow `dlid` from `src` through the tables. The hop budget is
/// `2 * num_switch_levels + 2`; exceeding it reports a forwarding loop.
pub fn trace(
    net: &Network,
    space: &LidSpace,
    lfts: &[Lft],
    src: NodeId,
    dlid: Lid,
) -> Result<Route, RoutingError> {
    let mut hops = Vec::new();
    let dst = walk(net, space, lfts, src, dlid, |hop| hops.push(hop))?;
    Ok(Route {
        src,
        dlid,
        dst,
        hops,
    })
}

/// [`trace`] without building a [`Route`]: `on_hop` sees each switch
/// traversal in order, and the delivered node is returned. Same hop
/// budget, and the same errors checked in the same order. On an error
/// `on_hop` has already seen the hops before the failing switch.
pub fn walk(
    net: &Network,
    space: &LidSpace,
    lfts: &[Lft],
    src: NodeId,
    dlid: Lid,
    mut on_hop: impl FnMut(Hop),
) -> Result<NodeId, RoutingError> {
    let (expected, _) = space.resolve(dlid).ok_or(RoutingError::UnknownLid(dlid))?;
    let budget = 2 * net.params().n() as usize + 2;

    // Injection: the endport's single link (severed on a degraded fabric
    // whose edge cable was failed).
    let mut at = net
        .peer_of(DeviceRef::Node(src), PortNum(1))
        .ok_or(RoutingError::DisconnectedSource(src))?;
    let mut hops = 0;
    loop {
        match at.device {
            DeviceRef::Node(node) if node == expected => return Ok(node),
            DeviceRef::Node(node) => {
                return Err(RoutingError::Misdelivered {
                    src,
                    lid: dlid,
                    expected,
                    actual: node,
                })
            }
            DeviceRef::Switch(sw) => {
                if hops >= budget {
                    return Err(RoutingError::LoopDetected { src, lid: dlid });
                }
                let out = lfts[sw.index()].get(dlid).ok_or(RoutingError::NoLftEntry {
                    switch: sw.0,
                    lid: dlid,
                })?;
                let next =
                    net.peer_of(DeviceRef::Switch(sw), out)
                        .ok_or(RoutingError::DanglingPort {
                            switch: sw.0,
                            port: out.0,
                        })?;
                on_hop(Hop {
                    switch: sw,
                    in_port: at.port,
                    out_port: out,
                });
                hops += 1;
                at = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Routing, RoutingKind};
    use ibfat_topology::TreeParams;

    #[test]
    fn trace_paper_path_q() {
        let params = TreeParams::new(4, 3).unwrap();
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let route = routing.trace(&net, NodeId(0), Lid(17)).unwrap();
        assert_eq!(route.dst, NodeId(4)); // P(100)
        assert_eq!(route.num_links(), 6);
        assert_eq!(route.hops.len(), 5);
        // Up two, through a root, down two.
        let ups = route.upward_links(params);
        assert_eq!(ups.len(), 2);
    }

    #[test]
    fn self_route_takes_two_links() {
        // A self-addressed packet goes up to the leaf switch and back.
        let params = TreeParams::new(4, 3).unwrap();
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let dlid = routing.select_dlid(NodeId(3), NodeId(3));
        let route = routing.trace(&net, NodeId(3), dlid).unwrap();
        assert_eq!(route.dst, NodeId(3));
        assert_eq!(route.num_links(), 2);
    }

    #[test]
    fn unknown_lid_is_reported() {
        let params = TreeParams::new(4, 2).unwrap();
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, RoutingKind::Slid);
        let bad = Lid(routing.lid_space().max_lid().0 + 1);
        assert!(matches!(
            routing.trace(&net, NodeId(0), bad),
            Err(RoutingError::UnknownLid(_))
        ));
    }

    #[test]
    fn loop_detection_fires_on_corrupt_tables() {
        // Hand-build tables that bounce a LID between two leaf switches'
        // up-ports forever.
        let params = TreeParams::new(4, 2).unwrap();
        let net = Network::mport_ntree(params);
        let space = LidSpace::new(params.num_nodes(), 0);
        let mut lfts: Vec<Lft> = (0..net.num_switches())
            .map(|_| Lft::new(space.max_lid()))
            .collect();
        // Every switch sends LID 1 out of port 3 (an up-port for leaves,
        // a down-port for roots) — guaranteed to ping-pong.
        for lft in &mut lfts {
            lft.set(Lid(1), PortNum(3));
        }
        let err = trace(&net, &space, &lfts, NodeId(4), Lid(1)).unwrap_err();
        assert!(matches!(
            err,
            RoutingError::LoopDetected { .. } | RoutingError::Misdelivered { .. }
        ));
    }
}
