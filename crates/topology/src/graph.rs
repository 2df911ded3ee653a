use crate::json::{Codec, Json, JsonBuf};
use crate::{NodeId, PortNum, SwitchId, TopologyError, TreeParams};
use std::fmt;

/// A reference to either kind of device in the subnet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceRef {
    /// A processing node (end node with one endport).
    Node(NodeId),
    /// A communication switch.
    Switch(SwitchId),
}

impl fmt::Display for DeviceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceRef::Node(n) => write!(f, "{n}"),
            DeviceRef::Switch(s) => write!(f, "{s}"),
        }
    }
}

/// The kind of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Processing node / HCA endport.
    Node,
    /// m-port crossbar switch.
    Switch,
}

/// The far side of a link as seen from one port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Peer {
    /// The device on the other end of the link.
    pub device: DeviceRef,
    /// The port on that device.
    pub port: PortNum,
}

/// One port of a device. Switch ports are numbered `1..=m` (port 0 is the
/// management port, represented implicitly and never wired); node endports
/// are port 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port {
    /// What this port is cabled to, if anything.
    pub peer: Option<Peer>,
}

/// A device: a switch with `m` external ports or a node with one endport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    kind: DeviceKind,
    /// `ports[k]` is external port `k+1` (IB numbering).
    ports: Vec<Port>,
}

impl Device {
    /// The device kind.
    #[inline]
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Number of external ports.
    #[inline]
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// The peer cabled to external port `port` (1-based), if any.
    ///
    /// # Panics
    /// Panics if `port` is 0 (management port) or beyond the port count.
    #[inline]
    pub fn peer(&self, port: PortNum) -> Option<Peer> {
        assert!(port.0 >= 1, "port 0 is the management port");
        self.ports[port.index() - 1].peer
    }

    /// Iterate `(port, peer)` over the cabled external ports.
    pub fn peers(&self) -> impl Iterator<Item = (PortNum, Peer)> + '_ {
        self.ports
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.peer.map(|peer| (PortNum(i as u8 + 1), peer)))
    }
}

/// An undirected cable between two device ports. Links are full duplex;
/// the simulator models each direction independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One end of the cable.
    pub a: Peer,
    /// The other end.
    pub b: Peer,
}

/// A port-accurate model of an InfiniBand subnet: switches, processing
/// nodes, and the cables between their ports.
///
/// Built via [`Network::mport_ntree`] for the paper's fat trees; the type
/// itself is topology-agnostic (the up*/down* routing engine in
/// `ibfat-routing` works on any `Network`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    params: TreeParams,
    switches: Vec<Device>,
    nodes: Vec<Device>,
    links: Vec<Link>,
}

impl Network {
    pub(crate) fn new_empty(params: TreeParams) -> Self {
        let switches = (0..params.num_switches())
            .map(|_| Device {
                kind: DeviceKind::Switch,
                ports: vec![Port { peer: None }; params.m() as usize],
            })
            .collect();
        let nodes = (0..params.num_nodes())
            .map(|_| Device {
                kind: DeviceKind::Node,
                ports: vec![Port { peer: None }; 1],
            })
            .collect();
        Network {
            params,
            switches,
            nodes,
            links: Vec::new(),
        }
    }

    /// The tree parameters this subnet was built from.
    #[inline]
    pub fn params(&self) -> TreeParams {
        self.params
    }

    /// Number of switches.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of processing nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// All cables.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The switch with the given id.
    #[inline]
    pub fn switch(&self, id: SwitchId) -> &Device {
        &self.switches[id.index()]
    }

    /// The node with the given id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Device {
        &self.nodes[id.index()]
    }

    /// The device behind a [`DeviceRef`].
    #[inline]
    pub fn device(&self, r: DeviceRef) -> &Device {
        match r {
            DeviceRef::Node(id) => self.node(id),
            DeviceRef::Switch(id) => self.switch(id),
        }
    }

    /// Cable two ports together (both directions).
    ///
    /// # Panics
    /// Panics if either port is already cabled or out of range.
    pub(crate) fn connect(&mut self, a: Peer, b: Peer) {
        {
            let pa = self.port_mut(a);
            assert!(
                pa.peer.is_none(),
                "port {}:{} already cabled",
                a.device,
                a.port
            );
            pa.peer = Some(b);
        }
        {
            let pb = self.port_mut(b);
            assert!(
                pb.peer.is_none(),
                "port {}:{} already cabled",
                b.device,
                b.port
            );
            pb.peer = Some(a);
        }
        self.links.push(Link { a, b });
    }

    fn port_mut(&mut self, p: Peer) -> &mut Port {
        assert!(p.port.0 >= 1, "port 0 is the management port");
        let dev = match p.device {
            DeviceRef::Node(id) => &mut self.nodes[id.index()],
            DeviceRef::Switch(id) => &mut self.switches[id.index()],
        };
        &mut dev.ports[p.port.index() - 1]
    }

    /// Follow a cable: the peer of `(device, port)`, if cabled.
    #[inline]
    pub fn peer_of(&self, device: DeviceRef, port: PortNum) -> Option<Peer> {
        self.device(device).peer(port)
    }

    /// Remove a cable (simulating a link failure): both endpoints become
    /// uncabled and the link disappears from [`Network::links`].
    ///
    /// Removing a node's only cable isolates it; callers that need the
    /// subnet to stay routable should restrict failures to inter-switch
    /// links (see [`Network::inter_switch_link_indices`]).
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn remove_link(&mut self, index: usize) -> Link {
        let link = self.links.remove(index);
        self.port_mut(link.a).peer = None;
        self.port_mut(link.b).peer = None;
        link
    }

    /// A degraded copy: without the cables at `link_indices` and without
    /// every cable incident to a switch in `switches` (a powered-off
    /// switch). Order and duplicates in either list do not matter; the
    /// dead cables are removed from the highest index down, so the
    /// survivors keep their relative order in [`Network::links`].
    ///
    /// # Panics
    /// Panics if a link index is out of range.
    pub fn without(&self, link_indices: &[usize], switches: &[u32]) -> Network {
        let mut dead = vec![false; self.links.len()];
        for &i in link_indices {
            dead[i] = true;
        }
        let powered_off =
            |p: Peer| matches!(p.device, DeviceRef::Switch(s) if switches.contains(&s.0));
        let mut net = self.clone();
        for (i, link) in self.links.iter().enumerate().rev() {
            if dead[i] || powered_off(link.a) || powered_off(link.b) {
                net.remove_link(i);
            }
        }
        net
    }

    /// Per switch, the bitmask of its cabled ports (bit `k` = port `k+1`
    /// has a peer).
    pub fn cabled_port_masks(&self) -> Vec<u64> {
        self.switches
            .iter()
            .map(|sw| {
                sw.peers()
                    .fold(0u64, |mask, (port, _)| mask | 1 << (port.0 - 1))
            })
            .collect()
    }

    /// Indices into [`Network::links`] of the switch-to-switch cables —
    /// the failures a fat tree can tolerate without isolating a node.
    pub fn inter_switch_link_indices(&self) -> Vec<usize> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                matches!(l.a.device, DeviceRef::Switch(_))
                    && matches!(l.b.device, DeviceRef::Switch(_))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether every cable of the `IBFT(m, n)` is still present: every
    /// switch port and every node endport cabled. Cables are only ever
    /// removed from the built tree, so the full link count is the test.
    pub fn is_intact(&self) -> bool {
        let ports = self.num_switches() * self.params.m() as usize + self.num_nodes();
        2 * self.links.len() == ports
    }

    /// Whether every device can still reach every other over live cables.
    pub fn is_connected(&self) -> bool {
        let total = self.num_nodes() + self.num_switches();
        if total == 0 {
            return true;
        }
        let idx = |d: DeviceRef| -> usize {
            match d {
                DeviceRef::Node(n) => n.index(),
                DeviceRef::Switch(s) => self.num_nodes() + s.index(),
            }
        };
        let mut seen = vec![false; total];
        let start = DeviceRef::Node(NodeId(0));
        let mut stack = vec![start];
        seen[idx(start)] = true;
        let mut count = 0usize;
        while let Some(d) = stack.pop() {
            count += 1;
            for (_, peer) in self.device(d).peers() {
                let i = idx(peer.device);
                if !seen[i] {
                    seen[i] = true;
                    stack.push(peer.device);
                }
            }
        }
        count == total
    }

    /// Validate the structural invariants of the built subnet:
    ///
    /// * link count is `num_nodes + (n-1) * m/2 * switches_below_roots`
    ///   (every non-root switch has exactly `m/2` up-cables; every node one);
    /// * every cable is symmetric;
    /// * every switch port is cabled exactly once or not at all, and every
    ///   expected port *is* cabled;
    /// * every node's endport is cabled to a leaf switch.
    pub fn validate(&self) -> Result<(), TopologyError> {
        // Symmetry of every recorded link.
        for link in &self.links {
            let back = self.peer_of(link.a.device, link.a.port).ok_or_else(|| {
                TopologyError::Invariant(format!("dangling link at {}", link.a.device))
            })?;
            if back != link.b {
                return Err(TopologyError::Invariant(format!(
                    "asymmetric cable at {}:{}",
                    link.a.device, link.a.port
                )));
            }
            let fwd = self.peer_of(link.b.device, link.b.port).ok_or_else(|| {
                TopologyError::Invariant(format!("dangling link at {}", link.b.device))
            })?;
            if fwd != link.a {
                return Err(TopologyError::Invariant(format!(
                    "asymmetric cable at {}:{}",
                    link.b.device, link.b.port
                )));
            }
        }
        // Every switch must have all m ports cabled (the m-port n-tree uses
        // every port: down-ports to children, up-ports to parents), except
        // that root switches have no up-cables only when n = 1 is *not*
        // special-cased — roots use all m ports as down-ports.
        for (i, sw) in self.switches.iter().enumerate() {
            let cabled = sw.peers().count();
            if cabled != sw.num_ports() {
                return Err(TopologyError::Invariant(format!(
                    "switch S{i} has {cabled}/{} ports cabled",
                    sw.num_ports()
                )));
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            match node.peer(PortNum(1)) {
                Some(Peer {
                    device: DeviceRef::Switch(_),
                    ..
                }) => {}
                _ => {
                    return Err(TopologyError::Invariant(format!(
                        "node N{i} endport not cabled to a switch"
                    )))
                }
            }
        }
        let expected_links = self.params.num_nodes() as usize + self.inter_switch_link_count();
        if self.links.len() != expected_links {
            return Err(TopologyError::Invariant(format!(
                "expected {expected_links} links, found {}",
                self.links.len()
            )));
        }
        Ok(())
    }

    fn inter_switch_link_count(&self) -> usize {
        // Every switch at levels 1..n has exactly m/2 up-cables.
        let p = self.params;
        let mut total = 0u64;
        for l in 1..p.n() {
            total += u64::from(p.switches_at_level(l)) * u64::from(p.half());
        }
        total as usize
    }
}

/// A network persists as its tree parameters and its cables in
/// [`Network::links`] order: `{"m":4,"n":2,"links":[["S2",1,"N0",1],…]}`.
/// Decoding re-cables an empty `IBFT(m, n)`, so a degraded network
/// reads back with the same cables, ports and link indices.
impl Codec for Network {
    fn encode(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.field_u64("m", u64::from(self.params.m()));
        j.field_u64("n", u64::from(self.params.n()));
        j.key("links");
        j.begin_arr();
        for link in &self.links {
            j.begin_arr();
            for end in [link.a, link.b] {
                j.str_value(&end.device.to_string());
                j.u64_value(u64::from(end.port.0));
            }
            j.end_arr();
        }
        j.end_arr();
        j.end_obj();
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let o = v.as_object("network")?;
        let params = TreeParams::new(o.int("m")?, o.int("n")?).map_err(|e| e.to_string())?;
        let mut net = Network::new_empty(params);
        for (i, link) in o.arr("links")?.iter().enumerate() {
            let what = format!("links[{i}]");
            let [da, pa, db, pb] = link.as_array(&what)? else {
                return Err(format!("{what}: expected [device, port, device, port]"));
            };
            let a = net.free_port(da, pa, &what)?;
            let b = net.free_port(db, pb, &what)?;
            if a == b {
                return Err(format!("{what}: a port cabled to itself"));
            }
            net.connect(a, b);
        }
        Ok(net)
    }
}

impl Network {
    /// The uncabled port a decoded link end names.
    fn free_port(&self, device: &Json, port: &Json, what: &str) -> Result<Peer, String> {
        let name = device.as_string(what)?;
        let id = |rest: &str| rest.parse::<u32>().ok();
        let device = match (name.get(..1), name.get(1..).and_then(id)) {
            (Some("N"), Some(i)) if (i as usize) < self.nodes.len() => DeviceRef::Node(NodeId(i)),
            (Some("S"), Some(i)) if (i as usize) < self.switches.len() => {
                DeviceRef::Switch(SwitchId(i))
            }
            _ => return Err(format!("{what}: no device \"{name}\"")),
        };
        let port = PortNum(port.as_int(what)?);
        let ports = self.device(device).num_ports();
        if port.0 == 0 || port.index() > ports {
            return Err(format!("{what}: {name} has no port {}", port.0));
        }
        if self.peer_of(device, port).is_some() {
            return Err(format!("{what}: port {name}:{} is already cabled", port.0));
        }
        Ok(Peer { device, port })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn net() -> Network {
        Network::mport_ntree(TreeParams::new(4, 2).unwrap())
    }

    #[test]
    fn remove_link_uncables_both_ends() {
        let mut net = net();
        assert!(net.is_intact());
        let idx = net.inter_switch_link_indices()[0];
        let link = net.remove_link(idx);
        assert_eq!(net.peer_of(link.a.device, link.a.port), None);
        assert_eq!(net.peer_of(link.b.device, link.b.port), None);
        assert!(!net.is_intact());
        assert!(
            net.validate().is_err(),
            "degraded net fails strict validation"
        );
    }

    #[test]
    fn without_equals_sequential_removal_for_any_input_order() {
        let net = Network::mport_ntree(TreeParams::new(4, 3).unwrap());
        let inter = net.inter_switch_link_indices();
        let (a, b, c) = (inter[2], inter[9], inter[17]);
        // Sequential removal from the highest index down.
        let mut expect = net.clone();
        for i in [c, b, a] {
            expect.remove_link(i);
        }
        for input in [vec![a, b, c], vec![c, a, b], vec![b, c, a, c, b, a, a]] {
            assert_eq!(net.without(&input, &[]), expect, "{input:?}");
        }
        // A powered-off switch takes every incident cable with it, and
        // naming one of those cables again changes nothing.
        let sw = 5u32;
        let incident: Vec<usize> = (0..net.links().len())
            .filter(|&i| {
                let l = net.links()[i];
                [l.a, l.b]
                    .iter()
                    .any(|p| p.device == DeviceRef::Switch(SwitchId(sw)))
            })
            .collect();
        let mut expect = net.clone();
        let mut all: Vec<usize> = incident.iter().copied().chain([a]).collect();
        all.sort_unstable();
        for &i in all.iter().rev() {
            expect.remove_link(i);
        }
        assert_eq!(net.without(&[a], &[sw, sw]), expect);
        assert_eq!(net.without(&[incident[0], a], &[sw]), expect);
        assert_eq!(net.without(&[], &[]), net);
    }

    #[test]
    fn cabled_port_masks_drop_a_cut_cable_at_both_ends() {
        let net = net();
        let full = (1u64 << net.params().m()) - 1;
        assert!(net.cabled_port_masks().iter().all(|&mask| mask == full));
        let idx = net.inter_switch_link_indices()[0];
        let link = net.links()[idx];
        let masks = net.without(&[idx], &[]).cabled_port_masks();
        for end in [link.a, link.b] {
            let DeviceRef::Switch(s) = end.device else {
                unreachable!("an inter-switch link")
            };
            assert_eq!(masks[s.index()], full & !(1 << (end.port.0 - 1)));
        }
        assert_eq!(masks.iter().filter(|&&mask| mask != full).count(), 2);
    }

    #[test]
    fn inter_switch_links_exclude_node_cables() {
        let net = net();
        let params = net.params();
        let inter = net.inter_switch_link_indices();
        assert_eq!(inter.len(), net.links().len() - params.num_nodes() as usize);
        for i in inter {
            let l = net.links()[i];
            assert!(matches!(l.a.device, DeviceRef::Switch(_)));
            assert!(matches!(l.b.device, DeviceRef::Switch(_)));
        }
    }

    #[test]
    fn connectivity_survives_one_failure_in_ft42() {
        // FT(4, 2) has two parents per leaf switch; one inter-switch
        // failure cannot disconnect it.
        for idx in net().inter_switch_link_indices() {
            let mut degraded = net();
            degraded.remove_link(idx);
            assert!(degraded.is_connected(), "failure of link {idx}");
        }
    }

    #[test]
    fn removing_a_node_cable_disconnects() {
        let mut net = net();
        // Node links come first in construction order? Find one.
        let node_link = net
            .links()
            .iter()
            .position(|l| {
                matches!(l.a.device, DeviceRef::Node(_)) || matches!(l.b.device, DeviceRef::Node(_))
            })
            .unwrap();
        net.remove_link(node_link);
        assert!(!net.is_connected());
        assert!(!net.is_intact());
    }

    #[test]
    fn peers_iterator_reports_cabled_ports_only() {
        let mut net = net();
        let before = net.switch(SwitchId(0)).peers().count();
        // Remove a link touching switch 0.
        let idx = net
            .links()
            .iter()
            .position(|l| {
                l.a.device == DeviceRef::Switch(SwitchId(0))
                    || l.b.device == DeviceRef::Switch(SwitchId(0))
            })
            .unwrap();
        net.remove_link(idx);
        assert_eq!(net.switch(SwitchId(0)).peers().count(), before - 1);
        let _ = NodeId(0); // keep import used under cfg(test)
    }

    #[test]
    fn json_round_trip_keeps_cables_and_link_order() {
        let mut degraded = Network::mport_ntree(TreeParams::new(4, 3).unwrap());
        for _ in 0..2 {
            let idx = degraded.inter_switch_link_indices()[3];
            degraded.remove_link(idx);
        }
        for net in [
            Network::mport_ntree(TreeParams::new(4, 3).unwrap()),
            degraded,
        ] {
            assert_eq!(Network::from_json(&net.to_json()).unwrap(), net);
        }
    }

    #[test]
    fn json_decode_rejects_bad_cabling() {
        let ok = r#"{"m":4,"n":1,"links":[["S0",1,"N0",1]]}"#;
        assert!(Network::from_json(ok).is_ok());
        for bad in [
            r#"{"m":3,"n":1,"links":[]}"#,
            r#"{"m":4,"n":1,"links":[["S0",1,"N0",1],["S0",1,"N1",1]]}"#,
            r#"{"m":4,"n":1,"links":[["S0",5,"N0",1]]}"#,
            r#"{"m":4,"n":1,"links":[["S0",0,"N0",1]]}"#,
            r#"{"m":4,"n":1,"links":[["S9",1,"N0",1]]}"#,
            r#"{"m":4,"n":1,"links":[["X0",1,"N0",1]]}"#,
            r#"{"m":4,"n":1,"links":[["S0",1,"S0",1]]}"#,
            r#"{"m":4,"n":1,"links":[["S0",1,"N0"]]}"#,
        ] {
            assert!(Network::from_json(bad).is_err(), "{bad}");
        }
    }
}
