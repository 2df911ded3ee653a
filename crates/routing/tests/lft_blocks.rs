//! The block-compressed `Lft` against a flat byte table.
//!
//! Random `set` / `clear` / `fill` / `copy_block` / `fill_pattern`
//! sequences drive both:
//! whole and partial 64-LID blocks, patches to blocks other blocks share,
//! and LID 0 and the table's last LID. After every sequence each lookup,
//! the byte iterator, the populated count, the used ports and the diff
//! against another table must match the flat reference, and equality must
//! follow the entries whatever order they were written in.

use ibfat_routing::{Lft, Lid, BLOCK_LIDS};
use ibfat_topology::PortNum;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Set(u32, u8),
    Clear(u32),
    Fill(u32, u32, u8),
    Copy(u32, Vec<u8>),
    Pattern(u32, u32, Vec<u8>),
}

/// A LID in `0..=max`: often an edge (0, 1, `max`) or a block start.
fn lid(max: u32) -> impl Strategy<Value = u32> {
    let blocks = max / BLOCK_LIDS as u32;
    prop_oneof![
        Just(0),
        Just(max.min(1)),
        Just(max),
        (0..=blocks).prop_map(move |k| (1 + k * BLOCK_LIDS as u32).min(max)),
        0..=max,
    ]
}

/// A run length from `start`: often whole blocks, never past `max`.
fn run_len(start: u32, max: u32) -> impl Strategy<Value = u32> {
    let room = max + 1 - start;
    prop_oneof![
        (1..=3u32).prop_map(move |k| (k * BLOCK_LIDS as u32).min(room)),
        Just(room),
        0..=room,
    ]
}

fn op(max: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (lid(max), 1..=255u8).prop_map(|(l, p)| Op::Set(l, p)),
        lid(max).prop_map(Op::Clear),
        (lid(max), 1..=4u8)
            .prop_flat_map(move |(s, p)| (Just(s), run_len(s, max), Just(p)))
            .prop_map(|(s, n, p)| Op::Fill(s, n, p)),
        lid(max)
            .prop_flat_map(move |s| (Just(s), run_len(s, max)))
            .prop_flat_map(|(s, n)| (Just(s), proptest::collection::vec(1..=4u8, n as usize)))
            .prop_map(|(s, pattern)| Op::Copy(s, pattern)),
        lid(max)
            .prop_flat_map(move |s| (Just(s), run_len(s, max), 0..8usize))
            .prop_flat_map(|(s, n, w)| {
                let width = [1usize, 2, 4, 16, 64, 128, 3, 5][w];
                (Just(s), Just(n), proptest::collection::vec(1..=4u8, width))
            })
            .prop_map(|(s, n, window)| Op::Pattern(s, n, window)),
    ]
}

fn apply(lft: &mut Lft, flat: &mut [u8], op: &Op) {
    match op {
        Op::Set(l, p) => {
            lft.set(Lid(*l), PortNum(*p));
            flat[*l as usize] = *p;
        }
        Op::Clear(l) => {
            lft.clear(Lid(*l));
            flat[*l as usize] = 0;
        }
        Op::Fill(s, n, p) => {
            lft.fill(Lid(*s), *n as usize, PortNum(*p));
            flat[*s as usize..(*s + *n) as usize].fill(*p);
        }
        Op::Copy(s, pattern) => {
            lft.copy_block(Lid(*s), pattern);
            flat[*s as usize..*s as usize + pattern.len()].copy_from_slice(pattern);
        }
        Op::Pattern(s, n, window) => {
            lft.fill_pattern(Lid(*s), *n as usize, window);
            for i in 0..*n as usize {
                flat[*s as usize + i] = window[i % window.len()];
            }
        }
    }
}

fn case() -> impl Strategy<Value = (u32, Vec<Op>, Vec<Op>)> {
    prop_oneof![
        Just(0u32),
        Just(1),
        Just(63),
        Just(64),
        Just(65),
        2..=400u32
    ]
    .prop_flat_map(|max| {
        (
            Just(max),
            proptest::collection::vec(op(max), 0..24),
            proptest::collection::vec(op(max), 0..6),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn block_table_matches_a_flat_table((max, ops, more) in case()) {
        let mut lft = Lft::new(Lid(max));
        let mut flat = vec![0u8; max as usize + 1];
        for op in &ops {
            apply(&mut lft, &mut flat, op);
        }
        prop_assert_eq!(lft.len(), flat.len());
        for l in 0..=max + BLOCK_LIDS as u32 {
            let want = flat.get(l as usize).copied().unwrap_or(0);
            prop_assert_eq!(lft.port_byte(Lid(l)), want, "LID {}", l);
            prop_assert_eq!(lft.get(Lid(l)), (want != 0).then_some(PortNum(want)));
        }
        prop_assert_eq!(lft.bytes().collect::<Vec<_>>(), flat.clone());
        prop_assert_eq!(lft.populated(), flat.iter().filter(|&&p| p != 0).count());
        let mut ports: Vec<u8> = flat.iter().copied().filter(|&p| p != 0).collect();
        ports.sort_unstable();
        ports.dedup();
        prop_assert_eq!(lft.ports_used().map(|p| p.0).collect::<Vec<_>>(), ports);

        // The same entries written one LID at a time, last LID first.
        let mut again = Lft::new(Lid(max));
        for (l, &p) in flat.iter().enumerate().rev() {
            if p != 0 {
                again.set(Lid(l as u32), PortNum(p));
            }
        }
        prop_assert_eq!(&again, &lft);
        let mut compacted = lft.clone();
        compacted.compact();
        prop_assert_eq!(&compacted, &lft);
        prop_assert_eq!(compacted.bytes().collect::<Vec<_>>(), flat.clone());

        // More writes on a copy: the copy diverges where the flat tables
        // do, and the original keeps its entries.
        let mut next = lft.clone();
        let mut next_flat = flat.clone();
        for op in &more {
            apply(&mut next, &mut next_flat, op);
        }
        prop_assert_eq!(lft.bytes().collect::<Vec<_>>(), flat.clone());
        prop_assert_eq!(next == lft, next_flat == flat);
        let want: Vec<(Lid, Option<PortNum>)> = next_flat
            .iter()
            .zip(&flat)
            .enumerate()
            .filter(|(_, (now, was))| now != was)
            .map(|(l, (&now, _))| (Lid(l as u32), (now != 0).then_some(PortNum(now))))
            .collect();
        prop_assert_eq!(next.changes_from(&lft).collect::<Vec<_>>(), want);
    }
}
