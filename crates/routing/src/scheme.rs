use crate::{Hop, Lft, Lid, LidSpace, MlidScheme, Route, RoutingError, SlidScheme};
use ibfat_topology::{Network, NodeId};
use serde::{Deserialize, Serialize};

/// A deterministic routing scheme for an InfiniBand subnet: it decides the
/// LID assignment, programs every switch's forwarding table, and (for
/// multipath schemes) picks which of the destination's LIDs a given source
/// should address.
pub trait RoutingScheme {
    /// Human-readable scheme name (used in reports and plots).
    fn name(&self) -> &'static str;

    /// Partition the LID space, as the subnet manager would at subnet
    /// initialization.
    fn lid_space(&self, net: &Network) -> LidSpace;

    /// Program the linear forwarding table of every switch (indexed by
    /// [`ibfat_topology::SwitchId`]).
    fn build_lfts(&self, net: &Network, space: &LidSpace) -> Vec<Lft>;

    /// The DLID a packet from `src` to `dst` should carry. For single-LID
    /// schemes this is just the destination's base LID; the MLID scheme
    /// implements the paper's rank-based path selection.
    fn select_dlid(&self, net: &Network, space: &LidSpace, src: NodeId, dst: NodeId) -> Lid;
}

/// The built-in scheme selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

/// A fully materialized routing: the LID assignment plus every switch's
/// programmed forwarding table. This is the artifact a subnet manager
/// leaves behind after initialization, and the only thing the simulator
/// needs to forward packets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Routing {
    kind: RoutingKind,
    params: ibfat_topology::TreeParams,
    space: LidSpace,
    lfts: Vec<Lft>,
    /// Set only by [`Routing::build`] for SLID/MLID: the tables are the
    /// scheme's Equations (1) and (2), so [`crate::RouteOracle`] may
    /// answer for them. Assembled, repaired and deserialized routings
    /// never carry it.
    #[serde(skip)]
    closed_form: bool,
}

impl Routing {
    /// Run a scheme end-to-end over a subnet.
    pub fn build(net: &Network, kind: RoutingKind) -> Routing {
        let scheme: Box<dyn RoutingScheme> = match kind {
            RoutingKind::Slid => Box::new(SlidScheme),
            RoutingKind::Mlid => Box::new(MlidScheme),
            RoutingKind::UpDown => Box::new(crate::UpDownScheme),
        };
        let space = scheme.lid_space(net);
        let lfts = scheme.build_lfts(net, &space);
        debug_assert_eq!(lfts.len(), net.num_switches());
        Routing {
            closed_form: kind != RoutingKind::UpDown,
            ..Routing::assemble(kind, net.params(), space, lfts)
        }
    }

    /// Which scheme produced this routing.
    #[inline]
    pub fn kind(&self) -> RoutingKind {
        self.kind
    }

    /// Resident bytes held by the block-compressed forwarding tables.
    pub fn table_bytes(&self) -> usize {
        self.lfts.iter().map(Lft::resident_bytes).sum()
    }

    /// The LID assignment.
    #[inline]
    pub fn lid_space(&self) -> &LidSpace {
        &self.space
    }

    /// Per-switch forwarding tables, indexed by switch id.
    #[inline]
    pub fn lfts(&self) -> &[Lft] {
        &self.lfts
    }

    /// The forwarding table of one switch.
    #[inline]
    pub fn lft(&self, switch: ibfat_topology::SwitchId) -> &Lft {
        debug_assert!(
            switch.index() < self.lfts.len(),
            "switch {switch} out of range: this routing programs {} switches",
            self.lfts.len()
        );
        &self.lfts[switch.index()]
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
        params: ibfat_topology::TreeParams,
        space: LidSpace,
        mut lfts: Vec<Lft>,
    ) -> Routing {
        lfts.iter_mut().for_each(Lft::compact);
        Routing {
            kind,
            params,
            space,
            lfts,
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
    pub fn params(&self) -> ibfat_topology::TreeParams {
        self.params
    }

    /// The DLID a packet from `src` to `dst` carries under this routing —
    /// the paper's path-selection scheme for MLID, and the destination's
    /// base LID for the single-path schemes.
    pub fn select_dlid(&self, src: NodeId, dst: NodeId) -> Lid {
        match self.kind {
            RoutingKind::Mlid => MlidScheme::select(self.params, &self.space, src, dst),
            _ => self.space.base_lid(dst),
        }
    }

    /// Trace the route a packet from `src` with the given DLID takes
    /// through the programmed tables.
    pub fn trace(&self, net: &Network, src: NodeId, dlid: Lid) -> Result<Route, RoutingError> {
        crate::path::trace(net, &self.space, &self.lfts, src, dlid)
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
        crate::path::walk(net, &self.space, &self.lfts, src, dlid, on_hop)
    }
}
