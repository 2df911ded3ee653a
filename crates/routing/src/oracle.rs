//! The paper's routing arithmetic, written once: the LID space of each
//! scheme, Equations (1) and (2), path selection, and the forwarding
//! tables they program. Route lookup, the table builder, fault repair
//! and the subnet manager all call it.
//!
//! ## The MLID scheme (Section 4)
//!
//! Three cooperating pieces:
//!
//! 1. **Processing-node addressing** — every node gets `2^LMC` LIDs,
//!    `LMC = log2((m/2)^(n-1))`, `BaseLID(P(p)) = PID(P(p))·2^LMC + 1`.
//! 2. **Path selection** — for a source `s` and destination `d` with
//!    greatest common prefix length `alpha`, the source's rank `r` in
//!    `gcpg(s_0..s_alpha, alpha+1)` picks `DLID = BaseLID(d) + r`.
//! 3. **Forwarding-table assignment** — per switch `SW<w, l>` and LID
//!    `lid` owned by node `P(p)`:
//!    * *Case 1* (`p` reachable downward, i.e. `p_0..p_{l-1} = w_0..w_{l-1}`):
//!      `k = p_l + 1`                              — Equation (1)
//!    * *Case 2* (otherwise, climb):
//!      `k = (⌊(lid-1)/(m/2)^(n-1-l)⌋ mod m/2) + m/2 + 1`  — Equation (2)
//!
//! Equation (2) reads digit `n-1-l` of `lid - 1` in base `m/2`. Because the
//! low `LMC` digits of `lid - 1` are the path-selection offset `r`, and `r`'s
//! digits are exactly the source's label digits (`digit_j(r) = s_{n-1-j}`),
//! the switch reached while climbing at level `l` is *the source label with
//! digit `l` deleted* — so every upward link is used by exactly one source
//! node, which is what spreads hot-spot traffic over all the least common
//! ancestors.
//!
//! ## The SLID baseline
//!
//! Each node owns exactly one LID (`PID + 1`, i.e. LMC = 0). Forwarding
//! tables are built "based on the consideration of evenly distributing
//! possible traffic over available paths": descending entries are forced
//! (Equation 1 — the down path is unique), and climbing entries spread the
//! *destinations* across the up-ports. With LMC = 0, `lid - 1` is the
//! destination's PID, so Equation (2) reads a digit of the destination —
//! the classical d-mod-k placement. All packets to a given destination
//! from a given switch share one fixed path, which is precisely the
//! hot-spot weakness (the paper's Figure 9(a)) that MLID removes. SLID is
//! thus MLID's rule set over an LMC-0 LID space, and one [`RouteOracle`]
//! computes both.
//!
//! ## As arithmetic
//!
//! The label algebra reduces to integer division on node and switch ids,
//! so the port a switch forwards a DLID out of — and therefore an entire
//! route — is O(1) per hop from `(switch id, DLID)` alone:
//!
//! * "below" is a prefix comparison: the subtree of a level-`l` switch is
//!   one contiguous node-id range;
//! * Equation (1)'s `p_l` is `⌊PID / (m/2)^(n-1-l)⌋` reduced by the digit's
//!   radix;
//! * path selection's rank is `src mod (m/2)^(n-1-alpha)`, because
//!   subgroup members are id-contiguous.
//!
//! On top of [`RouteOracle::route_hop`], [`RouteOracle::walk`] replays a
//! whole route through the closed-form *wiring* rules of the m-port
//! n-tree (digit surgery on level-major switch indices), so a lookup reads
//! no table block and a route reads no network graph. At FT(32, 3) that
//! streams the 67M all-to-all flows faster than walking the 85.8 MB of
//! block-compressed tables.
//!
//! The tables themselves ([`RouteOracle::switch_lft`]) are block writes.
//! At a level-`l ≥ 1` switch, Equation (2)'s port is periodic in
//! `lid - 1` with period `(m/2)^(n-l)` in either LID space, so one cycle
//! of up-ports, repeated, fills the table; the subtree's contiguous LID
//! range is then overwritten by one Equation (1) run per down-port.
//!
//! The oracle describes the *pristine* tables a scheme programs on an
//! intact tree. [`RouteOracle::for_fabric`] is the one place that decides
//! whether it may answer for a routing: the engine and the channel-load
//! analysis use it wherever it returns `Some`, and read the tables
//! otherwise (up*/down*, repaired or assembled tables, a cut cable).

use crate::{Lft, Lid, LidSpace, Routing, RoutingError, RoutingKind};
use ibfat_topology::{par_map_indexed, DeviceRef, Network, NodeId, PortNum, SwitchId, TreeParams};

/// Table slots (switches × LID slots) from which a parallel build pays
/// for spawning the thread pool, tens of µs: a serial FT(8,3) MLID build
/// (80 × 2049 slots) takes about 36 µs, a serial FT(16,3) one (320 ×
/// 65,537) about 2 ms against 1.3 ms on two threads.
const PARALLEL_BUILD_SLOTS: usize = 1 << 20;

/// O(1) closed-form routing for the table-driven fat-tree schemes.
#[derive(Debug, Clone)]
pub struct RouteOracle {
    kind: RoutingKind,
    params: TreeParams,
    lmc: u32,
    max_lid: u32,
    /// `log2(m/2)`: `m` is a power of two, so every power of `m/2` the
    /// equations divide by is a shift.
    log_half: u32,
}

impl RouteOracle {
    /// The oracle for a scheme on a fabric, or `None` for kinds (up*/down*)
    /// whose tables are graph-derived rather than closed-form.
    pub fn for_kind(params: TreeParams, kind: RoutingKind) -> Option<RouteOracle> {
        // The LID space of each kind: the paper's LMC for MLID, one LID
        // per node for SLID.
        let lmc = match kind {
            RoutingKind::Mlid => params.lmc(),
            RoutingKind::Slid => 0,
            RoutingKind::UpDown => return None,
        };
        Some(RouteOracle {
            kind,
            params,
            lmc,
            max_lid: params.num_nodes() << lmc,
            log_half: params.half().trailing_zeros(),
        })
    }

    /// The oracle that answers every lookup of `routing` on `net` exactly
    /// as its tables do, or `None` unless both hold: [`Routing::build`]
    /// programmed SLID or MLID tables (not up*/down*, not a fault repair,
    /// not [`Routing::assemble`]), and `net` still has every cable of the
    /// `FT(m, n)` the routing was built for.
    pub fn for_fabric(net: &Network, routing: &Routing) -> Option<RouteOracle> {
        if !(routing.is_closed_form() && net.params() == routing.params() && net.is_intact()) {
            return None;
        }
        Self::for_kind(routing.params(), routing.kind())
    }

    /// The scheme this oracle computes.
    #[inline]
    pub fn kind(&self) -> RoutingKind {
        self.kind
    }

    /// The fabric parameters.
    #[inline]
    pub fn params(&self) -> TreeParams {
        self.params
    }

    /// The highest assigned LID.
    #[inline]
    pub fn max_lid(&self) -> Lid {
        Lid(self.max_lid)
    }

    /// The scheme's LID assignment: `2^LMC` consecutive LIDs per node from
    /// `BaseLID = PID·2^LMC + 1`.
    pub fn lid_space(&self) -> LidSpace {
        LidSpace::new(self.params.num_nodes(), self.lmc)
    }

    /// log2 of `(m/2)^(n-1-level)`: the nodes below each down-port of a
    /// switch at `level`, and the divisor of both equations.
    #[inline]
    fn stride_shift(&self, level: u32) -> u32 {
        self.log_half * (self.params.n() - 1 - level)
    }

    /// Equation (1): the down-port toward node `pid` from a switch at
    /// `level` that has it below, `p_level + 1`.
    #[inline]
    pub(crate) fn down_port(&self, level: u32, pid: u32) -> PortNum {
        let radix = if level == 0 {
            self.params.m()
        } else {
            self.params.half()
        };
        PortNum(((pid >> self.stride_shift(level) & (radix - 1)) + 1) as u8)
    }

    /// Equation (2): the up-port a switch at `level` climbs through for
    /// `lid`, digit `n-1-level` of `lid - 1` in base `m/2`.
    #[inline]
    pub(crate) fn up_port(&self, level: u32, lid: Lid) -> PortNum {
        let half = self.params.half();
        PortNum((((lid.0 - 1) >> self.stride_shift(level) & (half - 1)) + half + 1) as u8)
    }

    /// The port a switch forwards `dlid` out of — exactly the entry its
    /// LFT would hold — or `None` for an unassigned LID. O(1); probes
    /// nothing.
    #[inline]
    pub fn route_hop(&self, switch: SwitchId, dlid: Lid) -> Option<PortNum> {
        if dlid.0 == 0 || dlid.0 > self.max_lid {
            return None;
        }
        let pid = (dlid.0 - 1) >> self.lmc;
        let level = self.params.switch_level_of(switch.0);
        let idx = switch.0 - self.params.level_offset(level);
        // The subtree below `idx` is the node range sharing its first
        // `level` label digits: one shifted prefix comparison.
        let shift = self.stride_shift(level);
        let below = level == 0 || idx >> shift == pid >> (shift + self.log_half);
        Some(if below {
            self.down_port(level, pid)
        } else {
            self.up_port(level, dlid)
        })
    }

    /// The paper's path selection: the offset into `dst`'s LID window
    /// that `src` addresses under MLID — its rank in the prefix subgroup
    /// one digit deeper than the two labels' greatest common prefix, 0
    /// for self-addressed traffic. A length-`a` prefix is the quotient by
    /// `(m/2)^(n-a)` and subgroup members are id-contiguous, so the rank
    /// is `src mod (m/2)^(n-1-alpha)`. Allocation-free: the engine calls
    /// it once per generated packet, through [`Routing::select_dlid`].
    #[inline]
    pub(crate) fn path_offset(params: TreeParams, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            return 0;
        }
        let log_half = params.half().trailing_zeros();
        // log2 of `(m/2)^(n-1-alpha)`, for alpha = n-1, n-2, …, 0 in turn.
        let mut group = 0;
        for _ in 1..params.n() {
            if src.0 >> (group + log_half) == dst.0 >> (group + log_half) {
                break;
            }
            group += log_half;
        }
        src.0 & ((1 << group) - 1)
    }

    /// The DLID a packet from `src` to `dst` carries — the paper's
    /// rank-based path selection for MLID, the base LID for SLID.
    pub fn select_dlid(&self, src: NodeId, dst: NodeId) -> Lid {
        let offset = match self.kind {
            RoutingKind::Mlid => Self::path_offset(self.params, src, dst),
            _ => 0,
        };
        Lid((dst.0 << self.lmc) + 1 + offset)
    }

    /// One switch's forwarding table, by block writes: at a non-root
    /// switch one cycle of Equation (2) up-ports repeated over every LID,
    /// then, at any switch, one Equation (1) run per down-port over the
    /// subtree's contiguous LID range. No per-LID arithmetic, and no
    /// per-LID work at all when the cycle divides a 64-LID block.
    pub fn switch_lft(&self, sw: SwitchId) -> Lft {
        let params = self.params;
        let half = params.half();
        let level = params.switch_level_of(sw.0);
        let idx = sw.0 - params.level_offset(level);
        let shift = self.stride_shift(level);
        let stride = 1 << shift;
        let mut lft = Lft::new(self.max_lid());
        if level >= 1 {
            let cycle: Vec<u8> = (1..=stride * half)
                .map(|lid| self.up_port(level, Lid(lid)).0)
                .collect();
            lft.fill_pattern(Lid(1), self.max_lid as usize, &cycle);
        }
        let (first, radix) = if level == 0 {
            (0, params.m())
        } else {
            ((idx >> shift) << (shift + self.log_half), half)
        };
        for pid in (0..radix).map(|d| first + d * stride) {
            lft.fill(
                Lid((pid << self.lmc) + 1),
                (stride << self.lmc) as usize,
                self.down_port(level, pid),
            );
        }
        lft
    }

    /// Every switch's table, compacted, in switch-id order — over the
    /// thread pool only when the tables are large enough to pay for it.
    /// Compacting here keeps that work on the builder threads;
    /// `Routing::assemble` then finds nothing left to merge.
    pub(crate) fn build_lfts(&self) -> Vec<Lft> {
        let compacted = |sw: &u32| {
            let mut lft = self.switch_lft(SwitchId(*sw));
            lft.compact();
            lft
        };
        let switches: Vec<u32> = (0..self.params.num_switches()).collect();
        if switches.len() * (self.max_lid as usize + 1) < PARALLEL_BUILD_SLOTS {
            return switches.iter().map(compacted).collect();
        }
        par_map_indexed(&switches, |_, sw| compacted(sw))
    }

    /// Replace digit `pos` of a level-major switch index (`pos` 0 spans
    /// both the radix-`m/2` root form and the radix-`m` lower form, since
    /// the leading digit is extracted without a modulus).
    #[inline]
    fn replace_digit(&self, idx: u32, pos: u32, digit: u32) -> u32 {
        let shift = self.log_half * (self.params.n() - 2 - pos);
        let hi = idx >> shift;
        let old = if pos == 0 {
            hi
        } else {
            hi & (self.params.half() - 1)
        };
        ((hi - old + digit) << shift) | (idx & ((1 << shift) - 1))
    }

    /// Replay the route of `(src, dlid)` through the closed-form wiring,
    /// emitting every directed link as `(transmitting device, out port)` —
    /// the injection link first, matching [`crate::Route::directed_links`]
    /// — and returning the delivered-to node. No network graph and no
    /// tables are consulted.
    pub fn walk<F>(&self, src: NodeId, dlid: Lid, mut f: F) -> Result<NodeId, RoutingError>
    where
        F: FnMut(DeviceRef, PortNum),
    {
        if dlid.0 == 0 || dlid.0 > self.max_lid {
            return Err(RoutingError::UnknownLid(dlid));
        }
        let expected = NodeId((dlid.0 - 1) >> self.lmc);
        let params = self.params;
        let (half, n) = (params.half(), params.n());
        f(DeviceRef::Node(src), PortNum(1));
        // The source's leaf switch: SW<src-prefix, n-1> (for n = 1 the
        // single root is also the leaf level).
        let mut level = n - 1;
        let mut idx = if n == 1 { 0 } else { src.0 / half };
        for _ in 0..2 * n + 2 {
            let sw = SwitchId(params.level_offset(level) + idx);
            let port = self.route_hop(sw, dlid).expect("dlid checked in range");
            f(DeviceRef::Switch(sw), port);
            let k0 = u32::from(port.0) - 1;
            if level == 0 || k0 < half {
                // Descend: down-port k0 leads to the child whose label sets
                // digit `level` to k0 — or to a node at the leaf level.
                if level == n - 1 {
                    let node = NodeId(idx * half + k0);
                    if node != expected {
                        return Err(RoutingError::Misdelivered {
                            src,
                            lid: dlid,
                            expected,
                            actual: node,
                        });
                    }
                    return Ok(node);
                }
                idx = self.replace_digit(idx, level, k0);
                level += 1;
            } else {
                // Climb: up-port k0 leads to the parent whose label sets
                // digit `level - 1` to k0 - m/2.
                idx = self.replace_digit(idx, level - 1, k0 - half);
                level -= 1;
            }
        }
        Err(RoutingError::LoopDetected { src, lid: dlid })
    }
}

/// The per-entry reference the block builder is tested against: every
/// (switch, node, LID) triple through the paper's Case 1/Case 2 on labels,
/// one entry at a time, serially. Over an LMC-0 space it is SLID's.
#[cfg(test)]
pub(crate) fn build_lfts_reference(params: TreeParams, space: &LidSpace) -> Vec<Lft> {
    use ibfat_topology::{NodeLabel, SwitchLabel};
    let half = params.half();
    SwitchLabel::all(params)
        .map(|sw| {
            let level = sw.level().index();
            let mut lft = Lft::new(space.max_lid());
            for node in NodeLabel::all(params) {
                // Case 1 applies iff the first `level` digits match.
                let below = (0..level).all(|i| sw.digit(i) == node.digit(i));
                for lid in space.lids(node.id(params)) {
                    let port = if below {
                        u32::from(node.digit(level)) + 1
                    } else {
                        let digit = (lid.0 - 1) / half.pow(params.n() - 1 - level as u32) % half;
                        digit + half + 1
                    };
                    lft.set(lid, PortNum(port as u8));
                }
            }
            lft
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfat_topology::{gcp_len, rank_in, Gcpg, Level, NodeLabel, SwitchLabel};

    const GRID: [(u32, u32); 9] = [
        (2, 2),
        (2, 3),
        (4, 2),
        (4, 3),
        (4, 4),
        (8, 2),
        (8, 3),
        (16, 2),
        (32, 2),
    ];

    #[test]
    fn oracle_equals_table_walk_everywhere() {
        // The property the tentpole hangs on: for every switch and every
        // assigned LID, over an (m, n) grid and both schemes, the O(1)
        // formula reproduces the programmed LFT entry exactly.
        for (m, n) in GRID {
            for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
                let params = TreeParams::new(m, n).unwrap();
                let net = Network::mport_ntree(params);
                let routing = Routing::build(&net, kind);
                let oracle = RouteOracle::for_fabric(&net, &routing).unwrap();
                assert_eq!(oracle.max_lid(), routing.lid_space().max_lid());
                for sw in 0..params.num_switches() {
                    let lft = routing.lft(SwitchId(sw));
                    for lid in 1..=oracle.max_lid().0 {
                        assert_eq!(
                            oracle.route_hop(SwitchId(sw), Lid(lid)),
                            lft.get(Lid(lid)),
                            "FT({m},{n}) {kind:?} switch {sw} LID {lid}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn only_built_closed_form_tables_on_an_intact_tree_get_an_oracle() {
        let params = TreeParams::new(4, 3).unwrap();
        let net = Network::mport_ntree(params);
        for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
            let built = Routing::build(&net, kind);
            assert!(RouteOracle::for_fabric(&net, &built).is_some(), "{kind}");
            let repaired = crate::build_fault_tolerant(&net, kind);
            assert!(RouteOracle::for_fabric(&net, &repaired).is_none(), "{kind}");
            let assembled = Routing::assemble(
                kind,
                params,
                built.lid_space().clone(),
                built.lfts().to_vec(),
            );
            assert!(
                RouteOracle::for_fabric(&net, &assembled).is_none(),
                "{kind}"
            );
            // Built on a tree with one cable cut, the tables are still the
            // closed form, but the tree is not: the tables are walked and
            // the analysis fails exactly as the table walk does.
            let mut cut = net.clone();
            cut.remove_link(cut.inter_switch_link_indices()[0]);
            let on_cut = Routing::build(&cut, kind);
            assert!(RouteOracle::for_fabric(&cut, &on_cut).is_none(), "{kind}");
            assert!(RouteOracle::for_fabric(&cut, &built).is_none(), "{kind}");
            let pairs: Vec<_> = (0..params.num_nodes())
                .flat_map(|s| (0..params.num_nodes()).map(move |d| (NodeId(s), NodeId(d))))
                .filter(|(s, d)| s != d)
                .collect();
            let walked = crate::loads_for_matrix(&cut, &on_cut, &pairs).unwrap_err();
            assert_eq!(
                crate::all_to_all_loads(&cut, &on_cut),
                Err(walked),
                "{kind}"
            );
        }
        let updown = Routing::build(&net, RoutingKind::UpDown);
        assert!(RouteOracle::for_fabric(&net, &updown).is_none());
    }

    #[test]
    fn out_of_range_lids_have_no_hop() {
        let params = TreeParams::new(4, 3).unwrap();
        let oracle = RouteOracle::for_kind(params, RoutingKind::Mlid).unwrap();
        assert_eq!(oracle.route_hop(SwitchId(0), Lid(0)), None);
        assert_eq!(
            oracle.route_hop(SwitchId(0), Lid(oracle.max_lid().0 + 1)),
            None
        );
    }

    #[test]
    fn updown_has_no_closed_form() {
        let params = TreeParams::new(4, 2).unwrap();
        assert!(RouteOracle::for_kind(params, RoutingKind::UpDown).is_none());
    }

    #[test]
    fn select_dlid_matches_the_scheme() {
        for (m, n) in [(4, 3), (8, 2), (8, 3)] {
            for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
                let params = TreeParams::new(m, n).unwrap();
                let net = Network::mport_ntree(params);
                let routing = Routing::build(&net, kind);
                let oracle = RouteOracle::for_fabric(&net, &routing).unwrap();
                let space = routing.lid_space();
                for src in 0..params.num_nodes() {
                    for dst in 0..params.num_nodes() {
                        let dlid = routing.select_dlid(NodeId(src), NodeId(dst));
                        assert_eq!(
                            oracle.select_dlid(NodeId(src), NodeId(dst)),
                            dlid,
                            "FT({m},{n}) {kind:?} {src}->{dst}"
                        );
                        let offset = match kind {
                            RoutingKind::Mlid => paper_rank(params, NodeId(src), NodeId(dst)),
                            _ => 0,
                        };
                        assert_eq!(dlid, space.lid_with_offset(NodeId(dst), offset));
                    }
                }
            }
        }
    }

    #[test]
    fn walk_matches_table_traced_routes() {
        // The wiring walker must visit exactly the directed links the
        // graph-backed trace reports, for every (src, dst) pair.
        for (m, n) in [(2, 3), (4, 3), (8, 2)] {
            for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
                let params = TreeParams::new(m, n).unwrap();
                let net = Network::mport_ntree(params);
                let routing = Routing::build(&net, kind);
                let oracle = RouteOracle::for_fabric(&net, &routing).unwrap();
                for src in 0..params.num_nodes() {
                    for dst in 0..params.num_nodes() {
                        let dlid = routing.select_dlid(NodeId(src), NodeId(dst));
                        let route = routing.trace(&net, NodeId(src), dlid).unwrap();
                        let mut links = Vec::new();
                        let delivered = oracle
                            .walk(NodeId(src), dlid, |d, p| links.push((d, p)))
                            .unwrap();
                        assert_eq!(delivered, route.dst, "FT({m},{n}) {kind:?}");
                        assert_eq!(links, route.directed_links(), "FT({m},{n}) {kind:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn walk_rejects_unassigned_lids() {
        let params = TreeParams::new(4, 2).unwrap();
        let oracle = RouteOracle::for_kind(params, RoutingKind::Slid).unwrap();
        assert!(matches!(
            oracle.walk(NodeId(0), Lid(0), |_, _| {}),
            Err(RoutingError::UnknownLid(_))
        ));
        assert!(matches!(
            oracle.walk(NodeId(0), Lid(oracle.max_lid().0 + 1), |_, _| {}),
            Err(RoutingError::UnknownLid(_))
        ));
    }

    /// The paper's path selection on labels: the source's rank in
    /// `gcpg(s_0..s_alpha, alpha+1)`.
    fn paper_rank(params: TreeParams, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            return 0;
        }
        let ls = NodeLabel::from_id(params, src);
        let ld = NodeLabel::from_id(params, dst);
        let alpha = gcp_len(&ls, &ld);
        rank_in(params, &Gcpg::of(params, &ls, alpha + 1), &ls)
    }

    fn setup(kind: RoutingKind) -> (TreeParams, Network, LidSpace, Vec<Lft>) {
        let params = TreeParams::new(4, 3).unwrap();
        let net = Network::mport_ntree(params);
        let oracle = RouteOracle::for_kind(params, kind).unwrap();
        (params, net, oracle.lid_space(), oracle.build_lfts())
    }

    #[test]
    fn addressing_matches_paper() {
        let (_, net, space, _) = setup(RoutingKind::Mlid);
        assert_eq!(space.lmc(), 2);
        assert_eq!(space.lids_per_node(), 4);
        assert_eq!(space.max_lid(), Lid(64));
        assert_eq!(net.num_nodes(), 16);
        // BaseLID(P(010)) = 9 (PID 2).
        assert_eq!(space.base_lid(NodeId(2)), Lid(9));
    }

    #[test]
    fn one_lid_per_node() {
        let (_, _, space, _) = setup(RoutingKind::Slid);
        assert_eq!(space.lmc(), 0);
        assert_eq!(space.lids_per_node(), 1);
        assert_eq!(space.max_lid(), Lid(16));
        assert_eq!(space.base_lid(NodeId(7)), Lid(8)); // PID + 1
    }

    #[test]
    fn path_selection_assigns_distinct_offsets_within_subgroup() {
        // The paper's example: P(000), P(001), P(010), P(011) sending to
        // P(100) select the four consecutive LIDs of P(100) in rank order.
        let (_, net, space, _) = setup(RoutingKind::Mlid);
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let dst = NodeId(4); // P(100)
        let base = space.base_lid(dst).0;
        for (i, src) in [0u32, 1, 2, 3].into_iter().enumerate() {
            let dlid = routing.select_dlid(NodeId(src), dst);
            assert_eq!(dlid, Lid(base + i as u32), "src P(0..) #{i}");
        }
    }

    #[test]
    fn self_traffic_uses_base_lid() {
        let (_, net, space, _) = setup(RoutingKind::Mlid);
        let routing = Routing::build(&net, RoutingKind::Mlid);
        assert_eq!(
            routing.select_dlid(NodeId(5), NodeId(5)),
            space.base_lid(NodeId(5))
        );
    }

    #[test]
    fn paper_path_q_walkthrough() {
        // DLID 17 (base LID of P(100)) from P(000): the LFT entries along
        // path Q: SW<00,2> -> SW<00,1> -> SW<00,0> -> SW<10,1> -> SW<10,2>.
        let (params, _, _, lfts) = setup(RoutingKind::Mlid);
        let lid = Lid(17);
        let at = |w: &[u8], l: u8| {
            let id = SwitchLabel::new(params, w, Level(l)).unwrap().id(params);
            lfts[id.index()].get(lid).unwrap()
        };
        // Climbing: offset = (17-1) mod 4 = 0 -> both up hops use the first
        // up-port, IB port 3.
        assert_eq!(at(&[0, 0], 2), PortNum(3));
        assert_eq!(at(&[0, 0], 1), PortNum(3));
        // At the root SW<00,0>: descend toward p0 = 1 -> IB port 2.
        assert_eq!(at(&[0, 0], 0), PortNum(2));
        // Descending: SW<10,1> uses p1 = 0 -> port 1; SW<10,2> uses p2 = 0
        // -> port 1.
        assert_eq!(at(&[1, 0], 1), PortNum(1));
        assert_eq!(at(&[1, 0], 2), PortNum(1));
    }

    #[test]
    fn every_lft_entry_is_populated() {
        for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
            let (_, net, space, lfts) = setup(kind);
            for (i, lft) in lfts.iter().enumerate() {
                assert_eq!(
                    lft.populated(),
                    space.max_lid().index(),
                    "{kind}: switch S{i} has unpopulated entries"
                );
            }
            assert_eq!(lfts.len(), net.num_switches());
        }
    }

    #[test]
    fn equation_2_ports_stay_in_up_range() {
        let (params, _, space, _) = setup(RoutingKind::Mlid);
        let oracle = RouteOracle::for_kind(params, RoutingKind::Mlid).unwrap();
        for lid in 1..=space.max_lid().0 {
            for level in 1..params.n() {
                let p = oracle.up_port(level, Lid(lid));
                assert!(
                    u32::from(p.0) > params.half() && u32::from(p.0) <= params.m(),
                    "lid {lid} level {level}: port {p} out of up range"
                );
            }
        }
    }

    #[test]
    fn dense_parallel_build_matches_the_reference() {
        // The block-fill builder must reproduce the per-entry Equation
        // (1)/(2) walk exactly, table for table, over a parameter grid,
        // in both LID spaces.
        for (m, n) in GRID {
            let params = TreeParams::new(m, n).unwrap();
            for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
                let oracle = RouteOracle::for_kind(params, kind).unwrap();
                let reference = build_lfts_reference(params, &oracle.lid_space());
                assert_eq!(oracle.build_lfts(), reference, "FT({m},{n}) {kind}");
            }
        }
    }

    #[test]
    fn destinations_spread_over_up_ports() {
        // At a leaf switch, the up-entries for the node LIDs must use every
        // up-port equally often (8 climbing destinations over 2 up-ports
        // for SW<00,2> in FT(4,3): destinations below it are P(000),P(001);
        // the other 14 climb).
        let (params, _, space, lfts) = setup(RoutingKind::Slid);
        let sw = SwitchLabel::new(params, &[0, 0], Level(2)).unwrap();
        let lft = &lfts[sw.id(params).index()];
        let mut counts = [0u32; 2];
        for node in 0..space.num_nodes() {
            let lid = space.base_lid(NodeId(node));
            let port = lft.get(lid).unwrap();
            if u32::from(port.0) > params.half() {
                counts[(u32::from(port.0) - params.half() - 1) as usize] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<u32>(), 14);
        assert_eq!(counts[0], 7);
        assert_eq!(counts[1], 7);
    }

    #[test]
    fn same_destination_same_path_from_any_source() {
        // SLID's defining limitation: the DLID is the same for every
        // source, so the up-port chosen at a shared switch is identical.
        let (params, _, space, lfts) = setup(RoutingKind::Slid);
        let dst = NodeId(15);
        let lid = space.base_lid(dst);
        let leaf = SwitchLabel::new(params, &[0, 0], Level(2)).unwrap();
        let port_for_everyone = lfts[leaf.id(params).index()].get(lid).unwrap();
        assert!(u32::from(port_for_everyone.0) > params.half());
        // There is exactly one entry for dst at this switch — no way to
        // differentiate sources.
        assert_eq!(port_for_everyone, PortNum(port_for_everyone.0));
    }

    #[test]
    fn down_entries_follow_equation_1() {
        let (params, _, space, lfts) = setup(RoutingKind::Slid);
        let root = SwitchLabel::new(params, &[1, 1], Level(0)).unwrap();
        let lft = &lfts[root.id(params).index()];
        for node in NodeLabel::all(params) {
            let lid = space.base_lid(node.id(params));
            assert_eq!(lft.get(lid).unwrap(), PortNum(node.digit(0) + 1));
        }
    }
}
