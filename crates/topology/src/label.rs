use crate::{Digits, Level, NodeId, SwitchId, TopologyError, TreeParams};
use std::fmt;

/// The label `P(p0 p1 ... p_{n-1})` of a processing node in `FT(m, n)`.
///
/// Digit `p0` ranges over `0..m`; every other digit over `0..m/2`. The
/// node's dense id is its `PID`: the digit string read as a mixed-radix
/// number, so labels and ids sort identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeLabel {
    digits: Digits,
}

impl NodeLabel {
    /// Build a node label from its digits, validating each against the radix.
    pub fn new(params: TreeParams, digits: &[u8]) -> Result<Self, TopologyError> {
        if digits.len() != params.node_digits() {
            return Err(TopologyError::InvalidLabel(format!(
                "node label must have {} digits, got {}",
                params.node_digits(),
                digits.len()
            )));
        }
        for (i, &d) in digits.iter().enumerate() {
            let radix = params.node_digit_radix(i);
            if u32::from(d) >= radix {
                return Err(TopologyError::InvalidLabel(format!(
                    "node digit {i} is {d}, must be < {radix}"
                )));
            }
        }
        Ok(NodeLabel {
            digits: Digits::from_slice(digits),
        })
    }

    /// The label of the node with dense id `id` (the inverse of
    /// [`NodeLabel::id`]).
    ///
    /// # Panics
    /// Panics if `id` is out of range for `params`.
    pub fn from_id(params: TreeParams, id: NodeId) -> Self {
        assert!(
            id.0 < params.num_nodes(),
            "node id {id} out of range for {params}"
        );
        let half = params.half();
        let mut rem = id.0;
        let mut digits = Digits::zeros(params.node_digits());
        // Peel digits from least significant (p_{n-1}) upward; p0 absorbs
        // whatever remains (its radix is m = 2 * half).
        for i in (1..params.node_digits()).rev() {
            digits[i] = (rem % half) as u8;
            rem /= half;
        }
        digits[0] = rem as u8;
        debug_assert!(rem < params.m());
        NodeLabel { digits }
    }

    /// The digits of the label.
    #[inline]
    pub fn digits(&self) -> &Digits {
        &self.digits
    }

    /// Digit `i` of the label.
    #[inline]
    pub fn digit(&self, i: usize) -> u8 {
        self.digits[i]
    }

    /// The dense id (= the paper's `PID`) of this node:
    /// `p0 (m/2)^(n-1) + p1 (m/2)^(n-2) + ... + p_{n-1}`.
    pub fn id(&self, params: TreeParams) -> NodeId {
        let half = params.half();
        let mut v = 0u32;
        for d in self.digits.iter() {
            v = v * half + u32::from(d);
        }
        NodeId(v)
    }

    /// Iterate over the labels of every node, in id order.
    pub fn all(params: TreeParams) -> impl Iterator<Item = NodeLabel> {
        (0..params.num_nodes()).map(move |i| NodeLabel::from_id(params, NodeId(i)))
    }

    /// Parse the display form `P(digits)`, with digits written plainly
    /// when below 10 and as `[d]` otherwise (the inverse of `Display`).
    pub fn parse(params: TreeParams, s: &str) -> Result<Self, TopologyError> {
        let inner = s
            .strip_prefix("P(")
            .and_then(|rest| rest.strip_suffix(')'))
            .ok_or_else(|| TopologyError::InvalidLabel(format!("expected P(...), got '{s}'")))?;
        NodeLabel::new(params, &parse_digits(inner)?)
    }
}

/// Parse a digit string in the `Display` encoding: `0`-`9` directly,
/// larger digits bracketed as `[17]`.
fn parse_digits(s: &str) -> Result<Vec<u8>, TopologyError> {
    let mut out = Vec::new();
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '0'..='9' => out.push(c as u8 - b'0'),
            '[' => {
                let mut num = String::new();
                for c in chars.by_ref() {
                    if c == ']' {
                        break;
                    }
                    num.push(c);
                }
                let d: u8 = num
                    .parse()
                    .map_err(|_| TopologyError::InvalidLabel(format!("bad digit '[{num}]'")))?;
                out.push(d);
            }
            other => {
                return Err(TopologyError::InvalidLabel(format!(
                    "unexpected character '{other}' in digit string"
                )))
            }
        }
    }
    Ok(out)
}

impl fmt::Display for NodeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P({})", self.digits)
    }
}

/// The label `SW<w0 w1 ... w_{n-2}, l>` of a communication switch.
///
/// Level `l = 0` holds the roots; level `n-1` the leaf switches. Digit `w0`
/// ranges over `0..m/2` for roots and `0..m` for every other level; the
/// remaining digits range over `0..m/2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchLabel {
    w: Digits,
    level: Level,
}

impl SwitchLabel {
    /// Build a switch label, validating digits against the per-level radix.
    pub fn new(params: TreeParams, w: &[u8], level: Level) -> Result<Self, TopologyError> {
        if u32::from(level.0) >= params.n() {
            return Err(TopologyError::InvalidLabel(format!(
                "switch level {level} must be < {}",
                params.n()
            )));
        }
        if w.len() != params.switch_digits() {
            return Err(TopologyError::InvalidLabel(format!(
                "switch label must have {} digits, got {}",
                params.switch_digits(),
                w.len()
            )));
        }
        for (i, &d) in w.iter().enumerate() {
            let radix = params.switch_digit_radix(u32::from(level.0), i);
            if u32::from(d) >= radix {
                return Err(TopologyError::InvalidLabel(format!(
                    "switch digit {i} is {d}, must be < {radix} at {level}"
                )));
            }
        }
        Ok(SwitchLabel {
            w: Digits::from_slice(w),
            level,
        })
    }

    /// The label of the switch with dense id `id` (level-major ordering;
    /// inverse of [`SwitchLabel::id`]).
    ///
    /// # Panics
    /// Panics if `id` is out of range for `params`.
    pub fn from_id(params: TreeParams, id: SwitchId) -> Self {
        assert!(
            id.0 < params.num_switches(),
            "switch id {id} out of range for {params}"
        );
        // Find the level containing this id.
        let mut level = 0u32;
        while level + 1 < params.n() && id.0 >= params.level_offset(level + 1) {
            level += 1;
        }
        let within = id.0 - params.level_offset(level);
        let half = params.half();
        let mut rem = within;
        let mut w = Digits::zeros(params.switch_digits());
        for i in (1..params.switch_digits()).rev() {
            w[i] = (rem % half) as u8;
            rem /= half;
        }
        if !w.is_empty() {
            w[0] = rem as u8;
            debug_assert!(rem < params.switch_digit_radix(level, 0));
        } else {
            debug_assert_eq!(rem, 0);
        }
        SwitchLabel {
            w,
            level: Level(level as u8),
        }
    }

    /// The digit string `w`.
    #[inline]
    pub fn w(&self) -> &Digits {
        &self.w
    }

    /// Digit `i` of `w`.
    #[inline]
    pub fn digit(&self, i: usize) -> u8 {
        self.w[i]
    }

    /// The switch level.
    #[inline]
    pub fn level(&self) -> Level {
        self.level
    }

    /// The dense, level-major id of this switch.
    pub fn id(&self, params: TreeParams) -> SwitchId {
        let half = params.half();
        let mut v = 0u32;
        for d in self.w.iter() {
            v = v * half + u32::from(d);
        }
        SwitchId(params.level_offset(u32::from(self.level.0)) + v)
    }

    /// Iterate over the labels of every switch, in id order.
    pub fn all(params: TreeParams) -> impl Iterator<Item = SwitchLabel> {
        (0..params.num_switches()).map(move |i| SwitchLabel::from_id(params, SwitchId(i)))
    }

    /// Iterate over the labels of every switch at one level, in id order.
    pub fn all_at_level(params: TreeParams, level: Level) -> impl Iterator<Item = SwitchLabel> {
        let base = params.level_offset(u32::from(level.0));
        (0..params.switches_at_level(u32::from(level.0)))
            .map(move |i| SwitchLabel::from_id(params, SwitchId(base + i)))
    }

    /// Parse the display form `SW<digits, level>` (the inverse of
    /// `Display`).
    pub fn parse(params: TreeParams, s: &str) -> Result<Self, TopologyError> {
        let inner = s
            .strip_prefix("SW<")
            .and_then(|rest| rest.strip_suffix('>'))
            .ok_or_else(|| {
                TopologyError::InvalidLabel(format!("expected SW<..., l>, got '{s}'"))
            })?;
        let (digits, level) = inner
            .rsplit_once(',')
            .ok_or_else(|| TopologyError::InvalidLabel(format!("missing level in '{s}'")))?;
        let level: u8 = level
            .trim()
            .parse()
            .map_err(|_| TopologyError::InvalidLabel(format!("bad level in '{s}'")))?;
        SwitchLabel::new(params, &parse_digits(digits.trim())?, Level(level))
    }
}

impl fmt::Display for SwitchLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SW<{}, {}>", self.w, self.level.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft43() -> TreeParams {
        TreeParams::new(4, 3).unwrap()
    }

    #[test]
    fn node_label_roundtrip_all() {
        for params in [
            ft43(),
            TreeParams::new(8, 2).unwrap(),
            TreeParams::new(2, 4).unwrap(),
        ] {
            for i in 0..params.num_nodes() {
                let label = NodeLabel::from_id(params, NodeId(i));
                assert_eq!(label.id(params), NodeId(i), "{params} node {i}");
            }
        }
    }

    #[test]
    fn switch_label_roundtrip_all() {
        for params in [
            ft43(),
            TreeParams::new(8, 3).unwrap(),
            TreeParams::new(2, 3).unwrap(),
        ] {
            for i in 0..params.num_switches() {
                let label = SwitchLabel::from_id(params, SwitchId(i));
                assert_eq!(label.id(params), SwitchId(i), "{params} switch {i}");
            }
        }
    }

    #[test]
    fn paper_pid_examples() {
        // PID(P(100)) = 4 and PID(P(111)) = 7 in the 4-port 3-tree.
        let p100 = NodeLabel::new(ft43(), &[1, 0, 0]).unwrap();
        let p111 = NodeLabel::new(ft43(), &[1, 1, 1]).unwrap();
        assert_eq!(p100.id(ft43()), NodeId(4));
        assert_eq!(p111.id(ft43()), NodeId(7));
    }

    #[test]
    fn node_first_digit_spans_m() {
        // The last node has p0 = m-1 = 3 in FT(4, 3).
        let last = NodeLabel::from_id(ft43(), NodeId(15));
        assert_eq!(last.digits().as_slice(), &[3, 1, 1]);
        assert_eq!(last.to_string(), "P(311)");
    }

    #[test]
    fn switch_levels_and_counts() {
        let params = ft43();
        let mut by_level = [0u32; 3];
        for label in SwitchLabel::all(params) {
            by_level[label.level().index()] += 1;
        }
        assert_eq!(by_level, [4, 8, 8]);
        // Root labels only use w0 < m/2.
        for label in SwitchLabel::all_at_level(params, Level(0)) {
            assert!(label.digit(0) < 2);
        }
        // Lower levels use w0 < m.
        let l1: Vec<_> = SwitchLabel::all_at_level(params, Level(1)).collect();
        assert_eq!(l1.len(), 8);
        assert!(l1.iter().any(|s| s.digit(0) == 3));
    }

    #[test]
    fn validation_rejects_bad_digits() {
        assert!(NodeLabel::new(ft43(), &[4, 0, 0]).is_err()); // p0 < 4 ok; 4 is not
        assert!(NodeLabel::new(ft43(), &[0, 2, 0]).is_err()); // p1 < 2
        assert!(NodeLabel::new(ft43(), &[0, 0]).is_err()); // wrong length
        assert!(SwitchLabel::new(ft43(), &[2, 0], Level(0)).is_err()); // root w0 < 2
        assert!(SwitchLabel::new(ft43(), &[2, 0], Level(1)).is_ok()); // lower w0 < 4
        assert!(SwitchLabel::new(ft43(), &[0, 0], Level(3)).is_err()); // level < n
    }

    #[test]
    fn display_forms() {
        let s = SwitchLabel::new(ft43(), &[1, 0], Level(2)).unwrap();
        assert_eq!(s.to_string(), "SW<10, 2>");
        let n = NodeLabel::new(ft43(), &[1, 0, 0]).unwrap();
        assert_eq!(n.to_string(), "P(100)");
    }

    #[test]
    fn single_level_tree_has_empty_switch_labels() {
        // FT(m, 1): one level of switches, each with an empty digit string.
        let params = TreeParams::new(4, 1).unwrap();
        assert_eq!(params.num_switches(), 1);
        let s = SwitchLabel::from_id(params, SwitchId(0));
        assert!(s.w().is_empty());
        assert_eq!(s.id(params), SwitchId(0));
    }
}

#[cfg(test)]
mod parse_tests {
    use super::*;

    #[test]
    fn node_label_display_parse_roundtrip() {
        for params in [
            TreeParams::new(4, 3).unwrap(),
            TreeParams::new(32, 2).unwrap(),
        ] {
            for label in NodeLabel::all(params) {
                let parsed = NodeLabel::parse(params, &label.to_string())
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(parsed, label);
            }
        }
    }

    #[test]
    fn switch_label_display_parse_roundtrip() {
        for params in [
            TreeParams::new(4, 3).unwrap(),
            TreeParams::new(32, 2).unwrap(),
        ] {
            for label in SwitchLabel::all(params) {
                let parsed = SwitchLabel::parse(params, &label.to_string())
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(parsed, label);
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_labels() {
        let p = TreeParams::new(4, 3).unwrap();
        for bad in ["P(01", "Q(010)", "P(05 0)", "P(910)", "P()"] {
            assert!(NodeLabel::parse(p, bad).is_err(), "{bad}");
        }
        for bad in ["SW<10>", "SW<10, 9>", "SW<xx, 1>", "<10, 1>"] {
            assert!(SwitchLabel::parse(p, bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn bracketed_digits_parse() {
        let p = TreeParams::new(32, 2).unwrap();
        let label = NodeLabel::new(p, &[17, 3]).unwrap();
        assert_eq!(label.to_string(), "P([17]3)");
        assert_eq!(NodeLabel::parse(p, "P([17]3)").unwrap(), label);
    }
}
