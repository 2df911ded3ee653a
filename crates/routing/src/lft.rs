use crate::Lid;
use ibfat_topology::json::{Codec, Json, JsonBuf};
use ibfat_topology::PortNum;

/// LIDs per storage block: the 64-entry `LinearForwardingTable` block a
/// subnet manager programs with one SMP.
pub const BLOCK_LIDS: usize = 64;

type Block = [u8; BLOCK_LIDS];

/// A Linear Forwarding Table: the per-switch map from DLID to output port
/// that makes InfiniBand routing deterministic.
///
/// Entries are 1-based output ports (`0` = no entry) stored in blocks of
/// [`BLOCK_LIDS`] LIDs. Block `k ≥ 1` covers LIDs `64(k−1)+1 ..= 64k`,
/// so a node's LID window (`BaseLID = PID·2^LMC + 1`) never straddles a
/// block boundary; block 0 holds LID 0 alone, in its last slot. Each
/// block is an id into the table's own pool of block contents. Under
/// Equations (1) and (2) a window is one down-port repeated or the
/// switch's one up-port pattern, so a whole table needs only a handful
/// of distinct blocks: FT(16, 3)'s 65,537-slot MLID tables hold about
/// a dozen each.
///
/// Whole-block writes intern their contents in the pool. A partial write
/// patches a block in place when no other block of the table uses it,
/// and copies it on write otherwise; [`compact`](Lft::compact) merges
/// the duplicates patches can leave. Equality compares entries, not
/// storage.
#[derive(Debug, Clone)]
pub struct Lft {
    /// Table slots: max LID + 1.
    len: usize,
    /// `index[k]` is the pool id of block `k`.
    index: Vec<u16>,
    /// Block contents, by pool id.
    pool: Vec<Block>,
    /// `refs[id]`: how many blocks use pool entry `id` (0 = free slot).
    refs: Vec<u16>,
    /// Whether a patch may have left two pool entries equal.
    patched: bool,
}

/// Fill `dst` with entries `at..at + dst.len()` of `window` repeated.
fn repeat_into(dst: &mut [u8], window: &[u8], at: usize) {
    if let [port] = window {
        dst.fill(*port);
        return;
    }
    let mut i = 0;
    while i < dst.len() {
        let w = (at + i) % window.len();
        let n = (window.len() - w).min(dst.len() - i);
        dst[i..i + n].copy_from_slice(&window[w..w + n]);
        i += n;
    }
}

/// Block and offset of a LID: slot `lid + 63`, so LID 1 opens block 1.
#[inline]
fn locate(lid: usize) -> (usize, usize) {
    let slot = lid + (BLOCK_LIDS - 1);
    (slot / BLOCK_LIDS, slot % BLOCK_LIDS)
}

impl Lft {
    /// An empty table covering LIDs `0..=max_lid`.
    ///
    /// # Panics
    /// Panics if `max_lid` is beyond [`Lid::MAX_EXTENDED`].
    pub fn new(max_lid: Lid) -> Self {
        assert!(
            max_lid <= Lid::MAX_EXTENDED,
            "LFT beyond the extended LID space: {max_lid}"
        );
        let blocks = locate(max_lid.index()).0 + 1;
        // Room for a small fat-tree table's pool without regrowing.
        let mut pool = Vec::with_capacity(4);
        pool.push([0; BLOCK_LIDS]);
        let mut refs = Vec::with_capacity(4);
        refs.push(blocks as u16);
        Lft {
            len: max_lid.index() + 1,
            index: vec![0; blocks],
            pool,
            refs,
            patched: false,
        }
    }

    /// Set the output port for a DLID.
    ///
    /// # Panics
    /// Panics if the LID is out of table range or the port is 0 (the
    /// management port cannot appear in an LFT here).
    #[inline]
    pub fn set(&mut self, lid: Lid, port: PortNum) {
        assert!(port.0 >= 1, "LFT cannot route out of the management port");
        self.put_byte(lid, port.0);
    }

    /// Remove the entry for a DLID, so the switch discards its packets.
    ///
    /// # Panics
    /// Panics if the LID is out of table range.
    #[inline]
    pub fn clear(&mut self, lid: Lid) {
        self.put_byte(lid, 0);
    }

    fn put_byte(&mut self, lid: Lid, byte: u8) {
        assert!(
            lid.index() < self.len,
            "{lid} is beyond the table's {} slots",
            self.len
        );
        let (k, off) = locate(lid.index());
        self.patch(k, off, 1, |dst| dst[0] = byte);
    }

    /// Look up the output port for a DLID.
    #[inline]
    pub fn get(&self, lid: Lid) -> Option<PortNum> {
        match self.port_byte(lid) {
            0 => None,
            p => Some(PortNum(p)),
        }
    }

    /// The raw entry for a DLID: the 1-based output port, or `0` for no
    /// entry (also beyond the table). The data plane's lookup.
    #[inline]
    pub fn port_byte(&self, lid: Lid) -> u8 {
        let (k, off) = locate(lid.index());
        match self.index.get(k) {
            Some(&id) => self.pool[usize::from(id)][off],
            None => 0,
        }
    }

    /// Number of table slots (max LID + 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes of the compressed table: the block index, the pool and
    /// its use counts.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.index.len() * 2 + self.pool.len() * (BLOCK_LIDS + 2)
    }

    /// Fill the `len` consecutive entries starting at `start` with one port.
    ///
    /// Dense LFT builders use this for Eq. 1 down-port runs, where whole
    /// contiguous LID blocks share an output port.
    ///
    /// # Panics
    /// Panics if the run leaves the table or `port` is 0.
    pub fn fill(&mut self, start: Lid, len: usize, port: PortNum) {
        assert!(port.0 >= 1, "LFT cannot route out of the management port");
        self.write(start, len, &[port.0]);
    }

    /// Copy a precomputed port pattern into the entries starting at `start`.
    ///
    /// Fault repair writes each climbing destination's window with it.
    ///
    /// # Panics
    /// Panics if the block leaves the table or the pattern contains port 0.
    pub fn copy_block(&mut self, start: Lid, pattern: &[u8]) {
        self.fill_pattern(start, pattern.len(), pattern);
    }

    /// Fill the `len` entries starting at `start` with `window` repeated.
    ///
    /// Dense LFT builders use this for Eq. 2 up-port windows: the pattern
    /// is a pure function of the offset within a node's LID window, so
    /// one window, repeated, serves every climbing destination of a
    /// switch.
    ///
    /// # Panics
    /// Panics if the run leaves the table, or `window` is empty (with
    /// `len > 0`) or contains port 0.
    pub fn fill_pattern(&mut self, start: Lid, len: usize, window: &[u8]) {
        assert!(
            window.iter().all(|&p| p >= 1),
            "LFT cannot route out of the management port"
        );
        assert!(len == 0 || !window.is_empty(), "empty LFT pattern");
        self.write(start, len, window);
    }

    /// Write `window` repeated over the `len` entries from `start`. The
    /// partial blocks at either end are patched. A whole block takes the
    /// pool entry of the block before it when the two are equal, and is
    /// interned otherwise; when the window divides the block, every whole
    /// block of the run is that same block, so the run costs one block
    /// write and an index update per block.
    fn write(&mut self, start: Lid, len: usize, window: &[u8]) {
        assert!(
            start.index() + len <= self.len,
            "LFT write of {len} entries from {start} leaves the table's {} slots",
            self.len
        );
        let mut at = 0;
        while at < len {
            let (k, off) = locate(start.index() + at);
            let n = (BLOCK_LIDS - off).min(len - at);
            if n < BLOCK_LIDS {
                self.patch(k, off, n, |dst| repeat_into(dst, window, at));
                at += n;
                continue;
            }
            // Whole blocks open at LID 64(k-1)+1, so k ≥ 1 here.
            let mut block = [0; BLOCK_LIDS];
            repeat_into(&mut block, window, at);
            let prev = self.index[k - 1];
            let id = if self.pool[usize::from(prev)] == block {
                prev
            } else {
                self.intern(&block)
            };
            let run = if BLOCK_LIDS.is_multiple_of(window.len()) {
                (len - at) / BLOCK_LIDS
            } else {
                1
            };
            for j in k..k + run {
                self.assign(j, id);
            }
            at += run * BLOCK_LIDS;
        }
    }

    /// Rewrite `n` entries of block `k` from offset `off`: in place when
    /// no other block uses its pool entry, copy-on-write otherwise.
    fn patch(&mut self, k: usize, off: usize, n: usize, put: impl FnOnce(&mut [u8])) {
        let id = usize::from(self.index[k]);
        if self.refs[id] == 1 {
            put(&mut self.pool[id][off..off + n]);
            self.patched = true;
            return;
        }
        let mut block = self.pool[id];
        put(&mut block[off..off + n]);
        if block != self.pool[id] {
            self.pool.push(block);
            self.refs.push(0);
            self.assign(k, (self.pool.len() - 1) as u16);
            self.patched = true;
        }
    }

    /// The pool id holding `block`: an existing copy, else a free slot or
    /// a new one. The caller [`assign`](Lft::assign)s it at once.
    fn intern(&mut self, block: &Block) -> u16 {
        let mut free = None;
        for (id, b) in self.pool.iter().enumerate() {
            if b == block {
                return id as u16;
            }
            if free.is_none() && self.refs[id] == 0 {
                free = Some(id);
            }
        }
        let id = free.unwrap_or_else(|| {
            self.pool.push([0; BLOCK_LIDS]);
            self.refs.push(0);
            self.pool.len() - 1
        });
        self.pool[id] = *block;
        id as u16
    }

    /// Point block `k` at pool entry `id`.
    fn assign(&mut self, k: usize, id: u16) {
        self.refs[usize::from(id)] += 1;
        let old = std::mem::replace(&mut self.index[k], id);
        self.refs[usize::from(old)] -= 1;
    }

    /// Drop unused pool entries and merge the duplicates patches can
    /// leave; a no-op on a table that has neither.
    pub fn compact(&mut self) {
        if !self.patched && !self.refs.contains(&0) {
            return;
        }
        self.patched = false;
        // Keep each live entry unless an earlier kept one has its
        // contents, sliding the kept ones down in place. Fat-tree tables
        // hold a dozen or so distinct blocks, so the search is short.
        let mut renamed = vec![0u16; self.pool.len()];
        let mut kept = 0;
        for (id, new) in renamed.iter_mut().enumerate() {
            if self.refs[id] == 0 {
                continue;
            }
            let block = self.pool[id];
            match self.pool[..kept].iter().position(|b| *b == block) {
                Some(same) => {
                    *new = same as u16;
                    self.refs[same] += self.refs[id];
                }
                None => {
                    *new = kept as u16;
                    self.pool[kept] = block;
                    self.refs[kept] = self.refs[id];
                    kept += 1;
                }
            }
        }
        self.pool.truncate(kept);
        self.refs.truncate(kept);
        for slot in &mut self.index {
            *slot = renamed[usize::from(*slot)];
        }
    }

    /// The distinct output ports the table names, ascending. Reads each
    /// pool block in use once, not each LID.
    pub fn ports_used(&self) -> impl Iterator<Item = PortNum> {
        let mut seen = [false; 256];
        for (block, &refs) in self.pool.iter().zip(&self.refs) {
            if refs > 0 {
                for &p in block {
                    seen[usize::from(p)] = true;
                }
            }
        }
        (1..=u8::MAX)
            .filter(move |&p| seen[usize::from(p)])
            .map(PortNum)
    }

    /// Every entry in LID order, `0..=max_lid`: the 1-based output port,
    /// or `0` for "no entry".
    pub fn bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.index
            .iter()
            .flat_map(|&id| self.pool[usize::from(id)])
            .skip(BLOCK_LIDS - 1)
            .take(self.len)
    }

    /// The entries where this table differs from `old` (a table of the
    /// same length), as `(lid, entry here)` in LID order. Blocks with
    /// equal contents are skipped whole.
    ///
    /// # Panics
    /// Panics if the tables' lengths differ.
    pub fn changes_from<'s>(
        &'s self,
        old: &'s Lft,
    ) -> impl Iterator<Item = (Lid, Option<PortNum>)> + 's {
        assert_eq!(self.len, old.len, "diffing tables of different lengths");
        self.index
            .iter()
            .zip(&old.index)
            .enumerate()
            .map(|(k, (&a, &b))| (k, &self.pool[usize::from(a)], &old.pool[usize::from(b)]))
            .filter(|(_, now, was)| now != was)
            .flat_map(|(k, now, was)| {
                (0..BLOCK_LIDS)
                    .filter(move |&off| now[off] != was[off])
                    .map(move |off| {
                        let lid = Lid((k * BLOCK_LIDS + off + 1 - BLOCK_LIDS) as u32);
                        let port = (now[off] != 0).then_some(PortNum(now[off]));
                        (lid, port)
                    })
            })
    }

    /// Count of populated entries.
    pub fn populated(&self) -> usize {
        let per_block: Vec<usize> = self
            .pool
            .iter()
            .map(|b| b.iter().filter(|&&p| p != 0).count())
            .collect();
        self.index
            .iter()
            .map(|&id| per_block[usize::from(id)])
            .sum()
    }

    /// Iterate `(lid, port)` over populated entries.
    pub fn entries(&self) -> impl Iterator<Item = (Lid, PortNum)> + '_ {
        self.bytes()
            .enumerate()
            .filter(|&(_, p)| p != 0)
            .map(|(i, p)| (Lid(i as u32), PortNum(p)))
    }
}

impl PartialEq for Lft {
    fn eq(&self, other: &Lft) -> bool {
        self.len == other.len
            && self
                .index
                .iter()
                .zip(&other.index)
                .all(|(&a, &b)| self.pool[usize::from(a)] == other.pool[usize::from(b)])
    }
}

impl Eq for Lft {}

/// A table persists in its block form: `{"len":…,"index":[…],"pool":[…]}`
/// with one 64-entry array per pool block, so its size tracks the
/// distinct blocks, not the LID space. Decoding checks every pool id
/// and keeps the slots outside `0..len` empty.
impl Codec for Lft {
    fn encode(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.field_u64("len", self.len as u64);
        j.key("index");
        j.begin_arr();
        for &id in &self.index {
            j.u64_value(u64::from(id));
        }
        j.end_arr();
        j.key("pool");
        j.begin_arr();
        for block in &self.pool {
            j.begin_arr();
            for &port in block {
                j.u64_value(u64::from(port));
            }
            j.end_arr();
        }
        j.end_arr();
        j.end_obj();
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let o = v.as_object("LFT")?;
        let len: usize = o.int("len")?;
        if len == 0 || len - 1 > Lid::MAX_EXTENDED.index() {
            return Err(format!(
                "len {len} is outside 1..={}",
                Lid::MAX_EXTENDED.0 + 1
            ));
        }
        let index = o
            .arr("index")?
            .iter()
            .map(|id| id.as_int::<u16>("index"))
            .collect::<Result<Vec<_>, _>>()?;
        if index.len() != locate(len - 1).0 + 1 {
            return Err(format!("{} blocks for {len} slots", index.len()));
        }
        let mut pool = Vec::new();
        for block in o.arr("pool")? {
            let ports = block.as_array("pool")?;
            let mut b = [0; BLOCK_LIDS];
            if ports.len() != BLOCK_LIDS {
                return Err(format!("a pool block of {} entries", ports.len()));
            }
            for (slot, port) in b.iter_mut().zip(ports) {
                *slot = port.as_int("pool")?;
            }
            pool.push(b);
        }
        let mut refs = vec![0u16; pool.len()];
        for (k, &id) in index.iter().enumerate() {
            let block = pool
                .get(usize::from(id))
                .ok_or_else(|| format!("block {k} names pool entry {id} of {}", pool.len()))?;
            let live = (BLOCK_LIDS - 1 + len).saturating_sub(k * BLOCK_LIDS);
            let first = if k == 0 { BLOCK_LIDS - 1 } else { 0 };
            let outside = (0..first).chain(live.min(BLOCK_LIDS)..BLOCK_LIDS);
            if outside.into_iter().any(|off| block[off] != 0) {
                return Err(format!("block {k} has entries outside the table"));
            }
            refs[usize::from(id)] += 1;
        }
        let mut lft = Lft {
            len,
            index,
            pool,
            refs,
            patched: true,
        };
        lft.compact();
        Ok(lft)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut lft = Lft::new(Lid(16));
        assert_eq!(lft.get(Lid(5)), None);
        lft.set(Lid(5), PortNum(3));
        assert_eq!(lft.get(Lid(5)), Some(PortNum(3)));
        assert_eq!(lft.populated(), 1);
    }

    #[test]
    fn out_of_range_lookup_is_none() {
        let lft = Lft::new(Lid(4));
        assert_eq!(lft.get(Lid(100)), None);
        assert_eq!(lft.port_byte(Lid(u32::MAX)), 0);
    }

    #[test]
    fn entries_iterates_in_lid_order() {
        let mut lft = Lft::new(Lid(10));
        lft.set(Lid(7), PortNum(1));
        lft.set(Lid(2), PortNum(4));
        let got: Vec<_> = lft.entries().collect();
        assert_eq!(got, vec![(Lid(2), PortNum(4)), (Lid(7), PortNum(1))]);
    }

    #[test]
    fn raw_bytes_are_one_based_with_zero_holes() {
        let mut lft = Lft::new(Lid(4));
        lft.set(Lid(1), PortNum(3));
        lft.set(Lid(4), PortNum(1));
        assert_eq!(lft.bytes().collect::<Vec<_>>(), [0, 3, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "management port")]
    fn port_zero_rejected() {
        let mut lft = Lft::new(Lid(4));
        lft.set(Lid(1), PortNum(0));
    }

    #[test]
    fn block_fills_match_per_entry_sets() {
        let mut dense = Lft::new(Lid(12));
        let mut slow = Lft::new(Lid(12));
        dense.fill(Lid(1), 4, PortNum(2));
        for lid in 1..=4 {
            slow.set(Lid(lid), PortNum(2));
        }
        dense.copy_block(Lid(5), &[3, 4, 3, 4]);
        for (i, &p) in [3u8, 4, 3, 4].iter().enumerate() {
            slow.set(Lid(5 + i as u32), PortNum(p));
        }
        assert_eq!(dense, slow);
        assert_eq!(dense.populated(), 8);
    }

    #[test]
    fn whole_block_writes_share_one_pool_entry() {
        // 16 blocks of LIDs, all one down-port: one pool entry in use.
        let mut lft = Lft::new(Lid(1024));
        lft.fill(Lid(1), 1024, PortNum(2));
        assert_eq!(lft.ports_used().collect::<Vec<_>>(), [PortNum(2)]);
        lft.compact();
        assert_eq!(lft.pool.len(), 2, "LID 0's block and the port-2 block");
        // A patch to one of the shared blocks copies it, not its peers.
        lft.set(Lid(70), PortNum(5));
        assert_eq!(lft.get(Lid(69)), Some(PortNum(2)));
        assert_eq!(lft.get(Lid(70)), Some(PortNum(5)));
        assert_eq!(lft.get(Lid(134)), Some(PortNum(2)));
        assert_eq!(lft.pool.len(), 3);
    }

    #[test]
    fn changes_list_differing_entries_in_lid_order() {
        let mut old = Lft::new(Lid(200));
        old.fill(Lid(1), 200, PortNum(1));
        let mut new = old.clone();
        new.set(Lid(130), PortNum(4));
        new.clear(Lid(3));
        let got: Vec<_> = new.changes_from(&old).collect();
        assert_eq!(got, [(Lid(3), None), (Lid(130), Some(PortNum(4)))]);
    }

    #[test]
    fn compact_keeps_entries_and_merges_duplicates() {
        let mut lft = Lft::new(Lid(128));
        // Two blocks built by in-place patches end up equal.
        for lid in 1..=128 {
            lft.set(Lid(lid), PortNum(1 + (lid % 2) as u8));
        }
        let before: Vec<u8> = lft.bytes().collect();
        lft.compact();
        assert_eq!(lft.bytes().collect::<Vec<_>>(), before);
        assert_eq!(lft.pool.len(), 2, "LID 0's block and one pattern block");
    }

    #[test]
    fn json_round_trip_keeps_entries_and_blocks() {
        let mut lft = Lft::new(Lid(300));
        lft.fill(Lid(1), 300, PortNum(2));
        lft.copy_block(Lid(65), &[3, 4, 3, 4]);
        lft.set(Lid(0), PortNum(1));
        let back = Lft::from_json(&lft.to_json()).unwrap();
        assert_eq!(back, lft);
        assert_eq!(
            back.bytes().collect::<Vec<_>>(),
            lft.bytes().collect::<Vec<_>>()
        );
        assert_eq!(back.resident_bytes(), lft.resident_bytes());
    }

    #[test]
    fn json_decode_rejects_inconsistent_blocks() {
        let block = |p: u8| format!("[{}]", vec![p.to_string(); BLOCK_LIDS].join(","));
        let zero_then = |p: u8| {
            let mut v = vec!["0".to_string(); BLOCK_LIDS];
            v[BLOCK_LIDS - 1] = p.to_string();
            format!("[{}]", v.join(","))
        };
        let doc = |len: usize, index: &str, pool: &[String]| {
            format!(
                r#"{{"len":{len},"index":{index},"pool":[{}]}}"#,
                pool.join(",")
            )
        };
        assert!(Lft::from_json(&doc(65, "[0,1]", &[zero_then(1), block(2)])).is_ok());
        for bad in [
            doc(65, "[0]", &[zero_then(1)]),
            doc(65, "[0,2]", &[zero_then(1), block(2)]),
            doc(65, "[1,1]", &[zero_then(1), block(2)]),
            doc(64, "[0,1]", &[zero_then(1), block(2)]),
            doc(0, "[]", &[]),
            doc(65, "[0,1]", &[zero_then(1), "[1,2]".to_string()]),
            doc(65, "[0,1]", &[zero_then(1), block(1).replace("1]", "256]")]),
        ] {
            assert!(Lft::from_json(&bad).is_err(), "{bad}");
        }
    }
}
