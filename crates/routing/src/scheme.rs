use crate::{Hop, Lft, Lid, LidSpace, Route, RouteOracle, RoutingError};
use ibfat_topology::json::{Codec, Json, JsonBuf};
use ibfat_topology::{Network, NodeId, TreeParams};
use std::sync::OnceLock;

/// The built-in scheme selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingKind {
    /// Single LID per node; forwarding tables spread *destinations* over
    /// the up-ports (the paper's baseline).
    Slid,
    /// The paper's Multiple LID scheme: `2^LMC` LIDs per node, rank-based
    /// path selection, Equations (1) and (2) for the tables.
    Mlid,
    /// Generic up*/down* routing computed from the cabled graph alone,
    /// representative of irregular-topology algorithms.
    UpDown,
}

impl RoutingKind {
    /// All built-in kinds.
    pub const ALL: [RoutingKind; 3] = [RoutingKind::Slid, RoutingKind::Mlid, RoutingKind::UpDown];

    /// Short lowercase name (stable; used in CLI flags and file names).
    pub fn as_str(&self) -> &'static str {
        match self {
            RoutingKind::Slid => "slid",
            RoutingKind::Mlid => "mlid",
            RoutingKind::UpDown => "updown",
        }
    }
}

impl std::str::FromStr for RoutingKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "slid" => Ok(RoutingKind::Slid),
            "mlid" => Ok(RoutingKind::Mlid),
            "updown" | "up-down" | "up*down*" => Ok(RoutingKind::UpDown),
            other => Err(format!("unknown routing scheme '{other}'")),
        }
    }
}

impl std::fmt::Display for RoutingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A routing: the LID assignment plus every switch's programmed
/// forwarding table. This is the artifact a subnet manager leaves behind
/// after initialization, and all the simulator needs to forward packets.
///
/// The tables of a SLID/MLID routing from [`Routing::build`] are a pure
/// function of the tree parameters and the LID space (Equations (1) and
/// (2)), so they are built on their first read ([`lfts`](Routing::lfts),
/// [`lft`](Routing::lft), [`table_bytes`](Routing::table_bytes),
/// [`trace`](Routing::trace), [`walk`](Routing::walk)), once, whichever
/// thread reads first. A run or a channel-load analysis that the closed
/// form ([`crate::RouteOracle`]) answers never builds them. Every other
/// routing — up*/down*, [`Routing::assemble`], fault repair — holds its
/// tables from construction.
#[derive(Debug, Clone)]
pub struct Routing {
    kind: RoutingKind,
    params: TreeParams,
    space: LidSpace,
    /// Per-switch tables, indexed by switch id; read only through
    /// [`Routing::lfts`], which fills a closed-form routing's on demand.
    lfts: OnceLock<Vec<Lft>>,
    /// Set only by [`Routing::build`] for SLID/MLID: the tables are the
    /// scheme's Equations (1) and (2), so [`crate::RouteOracle`] may
    /// answer for them. Assembled, repaired and decoded routings never
    /// carry it.
    closed_form: bool,
}

impl Routing {
    /// Run a scheme over a subnet: assign the LIDs and program the
    /// tables. SLID and MLID defer the tables to their first read;
    /// up*/down* derives them from the cabled graph here.
    pub fn build(net: &Network, kind: RoutingKind) -> Routing {
        let Some(oracle) = RouteOracle::for_kind(net.params(), kind) else {
            return crate::updown::build(net);
        };
        Routing {
            kind,
            params: net.params(),
            space: oracle.lid_space(),
            lfts: OnceLock::new(),
            closed_form: true,
        }
    }

    /// Which scheme produced this routing.
    #[inline]
    pub fn kind(&self) -> RoutingKind {
        self.kind
    }

    /// Resident bytes held by the block-compressed forwarding tables.
    pub fn table_bytes(&self) -> usize {
        self.lfts().iter().map(Lft::resident_bytes).sum()
    }

    /// The LID assignment.
    #[inline]
    pub fn lid_space(&self) -> &LidSpace {
        &self.space
    }

    /// Per-switch forwarding tables, indexed by switch id. Every table
    /// read goes through here: a closed-form routing builds its tables
    /// from Equations (1) and (2) on the first call. The builder
    /// ([`RouteOracle::switch_lft`]) reads only the tree parameters and
    /// the scheme, so the tables equal the ones an eager build would have
    /// programmed.
    #[inline]
    pub fn lfts(&self) -> &[Lft] {
        self.lfts.get_or_init(|| {
            RouteOracle::for_kind(self.params, self.kind)
                .expect("up*/down* tables are built with the routing")
                .build_lfts()
        })
    }

    /// The forwarding table of one switch.
    #[inline]
    pub fn lft(&self, switch: ibfat_topology::SwitchId) -> &Lft {
        let lfts = self.lfts();
        debug_assert!(
            switch.index() < lfts.len(),
            "switch {switch} out of range: this routing programs {} switches",
            lfts.len()
        );
        &lfts[switch.index()]
    }

    /// Assemble a routing from externally computed parts — the entry
    /// point for subnet-manager-style installers (and the fault-repair
    /// path) that derive the LID space and tables themselves.
    ///
    /// The caller is responsible for the tables' correctness; run
    /// [`crate::verify_all_lids_deliver`] / [`crate::verify_deadlock_free`]
    /// over the result when in doubt. Each table is
    /// [compacted](Lft::compact) on the way in.
    pub fn assemble(
        kind: RoutingKind,
        params: TreeParams,
        space: LidSpace,
        mut lfts: Vec<Lft>,
    ) -> Routing {
        lfts.iter_mut().for_each(Lft::compact);
        Routing {
            kind,
            params,
            space,
            lfts: OnceLock::from(lfts),
            closed_form: false,
        }
    }

    /// Whether [`Routing::build`] programmed these tables from the
    /// scheme's closed form (see [`crate::RouteOracle::for_fabric`]).
    #[inline]
    pub(crate) fn is_closed_form(&self) -> bool {
        self.closed_form
    }

    /// The tree parameters of the routed subnet.
    #[inline]
    pub fn params(&self) -> TreeParams {
        self.params
    }

    /// The DLID a packet from `src` to `dst` carries under this routing —
    /// the paper's path-selection scheme for MLID, and the destination's
    /// base LID for the single-path schemes.
    pub fn select_dlid(&self, src: NodeId, dst: NodeId) -> Lid {
        match self.kind {
            RoutingKind::Mlid => self
                .space
                .lid_with_offset(dst, RouteOracle::path_offset(self.params, src, dst)),
            _ => self.space.base_lid(dst),
        }
    }

    /// Trace the route a packet from `src` with the given DLID takes
    /// through the programmed tables.
    pub fn trace(&self, net: &Network, src: NodeId, dlid: Lid) -> Result<Route, RoutingError> {
        crate::path::trace(net, &self.space, self.lfts(), src, dlid)
    }

    /// Follow the same route as [`trace`](Routing::trace) without
    /// allocating: `on_hop` sees each switch traversal in order, and the
    /// delivered node is returned. Errors match `trace`'s exactly.
    #[inline]
    pub fn walk(
        &self,
        net: &Network,
        src: NodeId,
        dlid: Lid,
        on_hop: impl FnMut(Hop),
    ) -> Result<NodeId, RoutingError> {
        crate::path::walk(net, &self.space, self.lfts(), src, dlid, on_hop)
    }
}

/// Two routings are equal when they assign the same LIDs and program
/// the same tables, however those tables are built or stored.
impl PartialEq for Routing {
    fn eq(&self, other: &Routing) -> bool {
        self.kind == other.kind
            && self.params == other.params
            && self.space == other.space
            && self.lfts() == other.lfts()
    }
}

impl Eq for Routing {}

/// A routing persists as its scheme, tree, LID space and block-form
/// tables; decoding goes through [`Routing::assemble`], so a decoded
/// routing runs on its tables (it carries no closed-form mark).
impl Codec for Routing {
    fn encode(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.field_str("kind", self.kind.as_str());
        j.field_u64("m", u64::from(self.params.m()));
        j.field_u64("n", u64::from(self.params.n()));
        j.field("space", &self.space);
        j.key("lfts");
        j.begin_arr();
        for lft in self.lfts() {
            lft.encode(j);
        }
        j.end_arr();
        j.end_obj();
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let o = v.as_object("routing")?;
        let kind = o.str("kind")?.parse::<RoutingKind>()?;
        let params = TreeParams::new(o.int("m")?, o.int("n")?).map_err(|e| e.to_string())?;
        let space: LidSpace = o.decode("space")?;
        let lfts: Vec<Lft> = o.decode("lfts")?;
        if space.num_nodes() != params.num_nodes() {
            return Err(format!(
                "a LID space of {} nodes on {params}",
                space.num_nodes()
            ));
        }
        if lfts.len() != params.num_switches() as usize {
            return Err(format!("{} tables for {params}", lfts.len()));
        }
        let slots = space.max_lid().index() + 1;
        for (sw, lft) in lfts.iter().enumerate() {
            if lft.len() != slots {
                return Err(format!("table {sw} has {} slots, not {slots}", lft.len()));
            }
            if let Some(port) = lft.ports_used().find(|p| u32::from(p.0) > params.m()) {
                return Err(format!("table {sw} routes out of port {}", port.0));
            }
        }
        Ok(Routing::assemble(kind, params, space, lfts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_fault_tolerant;
    use crate::oracle::build_lfts_reference;
    use ibfat_topology::TreeParams;

    const CLOSED_FORM: [RoutingKind; 2] = [RoutingKind::Slid, RoutingKind::Mlid];

    fn built(routing: &Routing) -> bool {
        routing.lfts.get().is_some()
    }

    /// The engine and the sweeps share one `Routing` across threads.
    #[test]
    fn an_unbuilt_routing_is_send_and_sync() {
        fn shared<T: Send + Sync>() {}
        shared::<Routing>();
    }

    #[test]
    fn build_defers_closed_form_tables_past_every_table_free_read() {
        let net = Network::mport_ntree(TreeParams::new(4, 3).unwrap());
        for kind in CLOSED_FORM {
            let routing = Routing::build(&net, kind);
            assert!(!built(&routing), "{kind}: built eagerly");
            assert!(RouteOracle::for_fabric(&net, &routing).is_some());
            let dlid = routing.select_dlid(NodeId(0), NodeId(9));
            assert!(routing.lid_space().resolve(dlid).is_some());
            assert!(
                !built(&routing),
                "{kind}: a table-free read built the tables"
            );
            routing.trace(&net, NodeId(0), dlid).unwrap();
            assert!(built(&routing), "{kind}: trace read no tables");
        }
        assert!(built(&Routing::build(&net, RoutingKind::UpDown)));
    }

    #[test]
    fn first_read_equals_the_per_entry_reference() {
        for (m, n) in [(4, 2), (4, 3), (8, 2), (8, 3)] {
            let net = Network::mport_ntree(TreeParams::new(m, n).unwrap());
            for kind in CLOSED_FORM {
                let routing = Routing::build(&net, kind);
                let reference = build_lfts_reference(net.params(), routing.lid_space());
                assert_eq!(routing.lfts(), reference.as_slice(), "FT({m},{n}) {kind}");
            }
        }
    }

    #[test]
    fn concurrent_first_reads_see_one_table_set() {
        // FT(16,3) is large enough that the first read builds over the
        // thread pool itself, nested inside the readers' threads. The
        // barrier lines the readers up on the empty lock.
        let net = Network::mport_ntree(TreeParams::new(16, 3).unwrap());
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let readers = 4;
        let barrier = std::sync::Barrier::new(readers);
        let seen: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        routing.lfts().as_ptr() as usize
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect()
        });
        let first = routing.lfts().as_ptr() as usize;
        assert!(seen.iter().all(|&p| p == first), "{seen:?} vs {first}");
        // A clone of a built routing carries its tables along.
        assert!(built(&routing.clone()));
    }

    #[test]
    fn assembled_and_repaired_routings_hold_tables_from_construction() {
        let net = Network::mport_ntree(TreeParams::new(4, 3).unwrap());
        let mut degraded = net.clone();
        degraded.remove_link(0);
        for kind in CLOSED_FORM {
            let source = Routing::build(&net, kind);
            let assembled = Routing::assemble(
                kind,
                net.params(),
                source.lid_space().clone(),
                source.lfts().to_vec(),
            );
            assert!(built(&assembled), "{kind}: assemble");
            assert!(
                built(&build_fault_tolerant(&degraded, kind)),
                "{kind}: repair"
            );
        }
    }

    #[test]
    fn json_round_trip_reads_back_equal_tables() {
        for (m, n) in [(4, 3), (8, 3)] {
            let net = Network::mport_ntree(TreeParams::new(m, n).unwrap());
            let mut degraded = net.clone();
            let cut = degraded.inter_switch_link_indices()[5];
            degraded.remove_link(cut);
            for kind in CLOSED_FORM {
                for routing in [
                    Routing::build(&net, kind),
                    build_fault_tolerant(&degraded, kind),
                ] {
                    let back = Routing::from_json(&routing.to_json()).unwrap();
                    assert_eq!(back, routing, "FT({m},{n}) {kind}");
                    // A decoded routing runs on its tables.
                    assert!(!back.is_closed_form());
                    assert!(RouteOracle::for_fabric(&net, &back).is_none());
                }
            }
            let updown = Routing::build(&net, RoutingKind::UpDown);
            assert_eq!(Routing::from_json(&updown.to_json()).unwrap(), updown);
        }
    }

    #[test]
    fn json_decode_rejects_a_routing_that_does_not_fit_its_tree() {
        let net = Network::mport_ntree(TreeParams::new(4, 2).unwrap());
        let json = Routing::build(&net, RoutingKind::Slid).to_json();
        assert!(Routing::from_json(&json).is_ok());
        for (from, to) in [
            ("\"kind\":\"slid\"", "\"kind\":\"ecmp\""),
            ("\"n\":2", "\"n\":3"),
            ("\"num_nodes\":8", "\"num_nodes\":9"),
            ("\"lmc\":0", "\"lmc\":17"),
            ("\"len\":9", "\"len\":10"),
        ] {
            assert!(json.contains(from), "{from}");
            let bad = json.replacen(from, to, 1);
            assert!(Routing::from_json(&bad).is_err(), "{to}");
        }
        // Port 5 does not exist on a 4-port switch.
        let bad = json.replacen("[1,1,", "[1,5,", 1);
        assert_ne!(bad, json);
        assert!(Routing::from_json(&bad).is_err());
    }
}
