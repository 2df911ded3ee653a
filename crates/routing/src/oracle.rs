//! A closed-form routing oracle: the paper's forwarding equations as pure
//! arithmetic, with no forwarding table in sight.
//!
//! The MLID and SLID LFTs are fully determined by Equations (1) and (2)
//! over the `FT(m, n)` label algebra, so the port a switch forwards a DLID
//! out of — and therefore an entire route — can be computed in O(1) per hop
//! from `(switch id, DLID)` alone:
//!
//! * **descend** (the destination lies below the switch): Equation (1),
//!   `port = digit_level(PID) + 1`;
//! * **climb** (otherwise): Equation (2),
//!   `port = (⌊(DLID - 1) / (m/2)^(n-1-level)⌋ mod m/2) + m/2 + 1`,
//!   which for SLID (`LMC = 0`) degenerates to d-mod-k on the destination.
//!
//! "Below" is itself arithmetic: the subtree of a level-`l` switch is one
//! contiguous node-id range, so the test is a prefix comparison of two
//! integer divisions. On top of `route_hop`, [`RouteOracle::walk`] replays
//! a whole route through the closed-form *wiring* rules of the m-port
//! n-tree (digit surgery on level-major switch indices), so a lookup
//! reads no table block and a route reads no network graph. At FT(32, 3)
//! that streams the 67M all-to-all flows faster than walking the 85.8 MB
//! of block-compressed tables.
//!
//! The oracle describes the *pristine* tables a scheme programs on an
//! intact tree. [`RouteOracle::for_fabric`] is the one place that decides
//! whether it may answer for a routing: the engine and the channel-load
//! analysis use it wherever it returns `Some`, and read the tables
//! otherwise (up*/down*, repaired or assembled tables, a cut cable).

use crate::{Lid, Routing, RoutingError, RoutingKind};
use ibfat_topology::{DeviceRef, Network, NodeId, PortNum, SwitchId, TreeParams};

/// O(1) closed-form routing for the table-driven fat-tree schemes.
#[derive(Debug, Clone)]
pub struct RouteOracle {
    kind: RoutingKind,
    params: TreeParams,
    lmc: u32,
    max_lid: u32,
    /// `pows[k] = (m/2)^k`, precomputed up to `half^n`.
    pows: Vec<u32>,
}

impl RouteOracle {
    /// The oracle for a scheme on a fabric, or `None` for kinds (up*/down*)
    /// whose tables are graph-derived rather than closed-form.
    pub fn for_kind(params: TreeParams, kind: RoutingKind) -> Option<RouteOracle> {
        let lmc = match kind {
            RoutingKind::Mlid => params.lmc(),
            RoutingKind::Slid => 0,
            RoutingKind::UpDown => return None,
        };
        let half = params.half();
        let pows: Vec<u32> = (0..=params.n()).map(|k| half.pow(k)).collect();
        Some(RouteOracle {
            kind,
            params,
            lmc,
            max_lid: params.num_nodes() << lmc,
            pows,
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

    /// The port a switch forwards `dlid` out of — exactly the entry its
    /// LFT would hold — or `None` for an unassigned LID. O(1); probes
    /// nothing.
    #[inline]
    pub fn route_hop(&self, switch: SwitchId, dlid: Lid) -> Option<PortNum> {
        if dlid.0 == 0 || dlid.0 > self.max_lid {
            return None;
        }
        let linear = dlid.0 - 1;
        let pid = linear >> self.lmc;
        let n = self.params.n();
        let level = self.params.switch_level_of(switch.0);
        let idx = switch.0 - self.params.level_offset(level);
        let stride = self.pows[(n - 1 - level) as usize];
        // The subtree below `idx` is the node range sharing its first
        // `level` label digits: one integer-division prefix comparison.
        let below = level == 0 || idx / stride == pid / (stride * self.params.half());
        let port = if below {
            let radix = if level == 0 {
                self.params.m()
            } else {
                self.params.half()
            };
            (pid / stride) % radix + 1 // Equation (1)
        } else {
            (linear / stride) % self.params.half() + self.params.half() + 1 // Equation (2)
        };
        Some(PortNum(port as u8))
    }

    /// The DLID a packet from `src` to `dst` carries — the paper's
    /// rank-based path selection for MLID, the base LID for SLID — as pure
    /// arithmetic (the source's rank in its prefix subgroup is `src mod
    /// (m/2)^(n-1-alpha)`, because subgroup members are id-contiguous).
    pub fn select_dlid(&self, src: NodeId, dst: NodeId) -> Lid {
        let base = (dst.0 << self.lmc) + 1;
        if self.kind == RoutingKind::Slid || src == dst {
            return Lid(base);
        }
        let alpha = self.gcp_len(src, dst);
        Lid(base + src.0 % self.pows[(self.params.n() - 1 - alpha) as usize])
    }

    /// Length of the greatest common prefix of two node labels, by integer
    /// division (a length-`a` prefix is the quotient by `(m/2)^(n-a)`).
    #[inline]
    fn gcp_len(&self, a: NodeId, b: NodeId) -> u32 {
        let n = self.params.n();
        for len in (1..=n).rev() {
            let w = self.pows[(n - len) as usize];
            if a.0 / w == b.0 / w {
                return len;
            }
        }
        0
    }

    /// Replace digit `pos` of a level-major switch index (`pos` 0 spans
    /// both the radix-`m/2` root form and the radix-`m` lower form, since
    /// the leading digit is extracted without a modulus).
    #[inline]
    fn replace_digit(&self, idx: u32, pos: u32, digit: u32) -> u32 {
        let w = self.pows[(self.params.n() - 2 - pos) as usize];
        let hi = idx / w;
        let old = if pos == 0 {
            hi
        } else {
            hi % self.params.half()
        };
        (hi - old + digit) * w + idx % w
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

#[cfg(test)]
mod tests {
    use super::*;

    const GRID: [(u32, u32); 7] = [(2, 2), (2, 3), (4, 2), (4, 3), (8, 2), (8, 3), (16, 2)];

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
                for src in 0..params.num_nodes() {
                    for dst in 0..params.num_nodes() {
                        assert_eq!(
                            oracle.select_dlid(NodeId(src), NodeId(dst)),
                            routing.select_dlid(NodeId(src), NodeId(dst)),
                            "FT({m},{n}) {kind:?} {src}->{dst}"
                        );
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
}
