//! Hardware-prefetcher models.
//!
//! The paper's spacial-locality analysis (§4.2) attributes the
//! 8-entries-per-array performance knee to the interplay of two L2 prefetch
//! units: a *spatial* unit that completes the 128-byte aligned pair of a
//! demanded line, and a *streamer* that follows ascending access sequences —
//! "in total we observe 4 cache line loads per load operation due to
//! prefetching; which at 2 entries per cache line equates to 8 items fetched
//! per load". The L1 DCU next-line prefetcher is modelled separately in the
//! hierarchy.

/// Lines per 4 KiB page (prefetchers do not cross page boundaries).
const PAGE_LINES: u64 = 64;
/// Tracked concurrent streams (Intel's streamer tracks up to 32; a handful
/// suffices for match-list traffic).
const STREAMS: usize = 16;
/// Demanded-in-sequence lines needed before the streamer issues prefetches.
const TRAIN_THRESHOLD: u8 = 2;

#[derive(Clone, Copy, Debug, Default)]
struct StreamSlot {
    page: u64,
    last_line: u64,
    hits: u8,
    lru: u64,
    valid: bool,
}

/// The ascending L2 streamer.
#[derive(Clone, Debug)]
pub struct Streamer {
    slots: [StreamSlot; STREAMS],
    degree: u32,
    clock: u64,
}

impl Streamer {
    /// Creates a streamer issuing `degree` lines ahead once trained.
    pub fn new(degree: u32) -> Self {
        Self {
            slots: [StreamSlot::default(); STREAMS],
            degree,
            clock: 0,
        }
    }

    /// Observes a demand access to `line`; returns the lines to prefetch
    /// (ascending, within the same page).
    pub fn observe(&mut self, line: u64) -> PrefetchSet {
        self.clock += 1;
        let page = line / PAGE_LINES;
        let mut out = PrefetchSet::default();
        if self.degree == 0 {
            return out;
        }
        // Find this page's stream.
        if let Some(slot) = self.slots.iter_mut().find(|s| s.valid && s.page == page) {
            slot.lru = self.clock;
            if line == slot.last_line + 1 {
                slot.hits = slot.hits.saturating_add(1);
                slot.last_line = line;
                if slot.hits >= TRAIN_THRESHOLD {
                    for d in 1..=self.degree as u64 {
                        // checked: a stream trained at the top of the line
                        // address space must not wrap to line 0.
                        let Some(target) = line.checked_add(d) else {
                            break;
                        };
                        if target / PAGE_LINES == page {
                            out.push(target);
                        }
                    }
                }
            } else if line != slot.last_line {
                // Non-sequential access within the page: retrain.
                slot.last_line = line;
                slot.hits = 0;
            }
            return out;
        }
        // Allocate the LRU slot for a new stream.
        let victim = self
            .slots
            .iter_mut()
            .min_by_key(|s| if s.valid { s.lru } else { 0 })
            .expect("STREAMS > 0");
        *victim = StreamSlot {
            page,
            last_line: line,
            hits: 0,
            lru: self.clock,
            valid: true,
        };
        out
    }

    /// Forgets all training state (e.g. after a cache flush).
    pub fn reset(&mut self) {
        self.slots = [StreamSlot::default(); STREAMS];
    }
}

/// Small fixed collection of prefetch targets (max streamer degree is
/// bounded; avoids per-access allocation).
#[derive(Clone, Copy, Debug, Default)]
pub struct PrefetchSet {
    lines: [u64; 8],
    n: usize,
}

impl PrefetchSet {
    fn push(&mut self, line: u64) {
        if self.n < self.lines.len() {
            self.lines[self.n] = line;
            self.n += 1;
        }
    }

    /// The prefetch targets.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines[..self.n].iter().copied()
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no prefetches were issued.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// The L2 spatial unit: completes the 128-byte aligned pair of `line`.
pub fn adjacent_pair(line: u64) -> u64 {
    line ^ 1
}

/// Widest byte span one node visit may cover before an access counts as a
/// jump to a different node (LLA-512 nodes are 12 KiB; 16 KiB clears them).
const NODE_SPAN: u64 = 16 << 10;
/// Link-offset vote slots (real traces vote for one offset; a few slots
/// absorb noise from removal writes and header re-reads).
const VOTE_SLOTS: usize = 4;
/// Votes an offset needs before the chaser trusts it as the link field.
const VOTE_THRESHOLD: u32 = 2;
/// Successor-table capacity cap; the table is cleared wholesale when it
/// fills so a long-lived simulation cannot grow without bound.
const MAX_SUCC: usize = 1 << 16;

/// A pointer-chase (dependence-graph) prefetcher model.
///
/// The streamer above cannot help a linked-list walk: consecutive node
/// addresses share no arithmetic pattern. What a chase prefetcher exploits
/// instead is that the walk *order itself* repeats — the list mutates slowly
/// relative to how often it is walked, so the successor of a node this walk
/// is almost always its successor next walk. The model mirrors a
/// correlation ("Markov") prefetcher: it watches the demand-access trace,
/// segments it into node visits (an access more than [`NODE_SPAN`] bytes
/// from the current visit's base starts a new visit), and records
/// `succ[base] = next_base` pairs. It also learns the in-node byte offset
/// of the link field by voting on the last small (≤ 8-byte) read of each
/// visit — that is the load that produced the pointer the walk then
/// followed. Once trained, touching a node's header prefetches the next
/// `degree` chain successors' header *and* link lines, converting the
/// serialized pointer-chase latency chain into overlapped fills. It models
/// a hardware unit: no native walk issues a software chase prefetch.
///
/// With `degree == 0` the unit is inert and costs one branch per access.
#[derive(Clone, Debug)]
pub struct PointerChase {
    degree: u32,
    /// Base address of the node visit currently in progress.
    cur_node: Option<u64>,
    /// Most recent small-read address inside the current visit.
    last_small: Option<u64>,
    /// Link-field offset candidates and their vote counts.
    votes: [(u64, u32); VOTE_SLOTS],
    /// Observed successor map: visit base address → next visit base.
    succ: std::collections::HashMap<u64, u64>,
}

impl PointerChase {
    /// Creates a chaser running `degree` chain successors ahead.
    pub fn new(degree: u32) -> Self {
        Self {
            degree,
            cur_node: None,
            last_small: None,
            votes: [(0, 0); VOTE_SLOTS],
            succ: std::collections::HashMap::new(),
        }
    }

    /// Observes a demand *read* of `len` bytes at byte address `addr`;
    /// returns the lines to prefetch (chain successors, if trained).
    pub fn observe(&mut self, addr: u64, len: u32) -> PrefetchSet {
        let mut out = PrefetchSet::default();
        if self.degree == 0 {
            return out;
        }
        if let Some(base) = self.cur_node {
            if addr >= base && addr - base < NODE_SPAN {
                // Still inside the current node: remember the latest small
                // read past the header as the link-load candidate.
                if len <= 8 && addr > base {
                    self.last_small = Some(addr);
                }
                return out;
            }
            // Far jump: the visit at `base` ended, a new one starts here.
            if let Some(link) = self.last_small {
                self.vote(link - base);
            }
            if addr != base {
                if self.succ.len() >= MAX_SUCC {
                    self.succ.clear();
                }
                self.succ.insert(base, addr);
            }
        }
        self.cur_node = Some(addr);
        self.last_small = None;
        // Walk the learned chain ahead of the demand stream.
        let line = crate::cache::LINE as u64;
        let link_off = self.link_offset();
        let mut node = addr;
        for _ in 0..self.degree {
            let Some(&next) = self.succ.get(&node) else {
                break;
            };
            out.push(next / line);
            if let Some(off) = link_off {
                if let Some(link_addr) = next.checked_add(off) {
                    if link_addr / line != next / line {
                        out.push(link_addr / line);
                    }
                }
            }
            node = next;
        }
        out
    }

    /// The learned link-field offset, once any candidate clears the vote
    /// threshold.
    fn link_offset(&self) -> Option<u64> {
        self.votes
            .iter()
            .filter(|v| v.1 >= VOTE_THRESHOLD)
            .max_by_key(|v| v.1)
            .map(|v| v.0)
    }

    fn vote(&mut self, off: u64) {
        if off == 0 || off >= NODE_SPAN {
            return;
        }
        for v in self.votes.iter_mut() {
            if v.1 > 0 && v.0 == off {
                v.1 = v.1.saturating_add(1);
                return;
            }
        }
        if let Some(free) = self.votes.iter_mut().find(|v| v.1 == 0) {
            *free = (off, 1);
            return;
        }
        // Table full of other candidates: age them so a shifted access
        // pattern can eventually re-learn.
        for v in self.votes.iter_mut() {
            v.1 -= 1;
        }
    }

    /// Forgets all training state (e.g. after a cache flush).
    pub fn reset(&mut self) {
        self.cur_node = None;
        self.last_small = None;
        self.votes = [(0, 0); VOTE_SLOTS];
        self.succ.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamer_needs_training_before_prefetching() {
        let mut s = Streamer::new(2);
        assert!(s.observe(100).is_empty(), "first access: allocate stream");
        assert!(
            s.observe(101).is_empty(),
            "one sequential hit: still training"
        );
        let p: Vec<u64> = s.observe(102).iter().collect();
        assert_eq!(p, vec![103, 104], "trained: run ahead by degree");
    }

    #[test]
    fn streamer_does_not_cross_pages() {
        let mut s = Streamer::new(4);
        // Train right at a page boundary (page = 64 lines).
        s.observe(61);
        s.observe(62);
        let p: Vec<u64> = s.observe(63).iter().collect();
        assert!(
            p.is_empty(),
            "line 64 is in the next page: no prefetch, got {p:?}"
        );
    }

    #[test]
    fn random_pattern_never_trains() {
        let mut s = Streamer::new(2);
        // Same page, non-sequential.
        for line in [5u64, 17, 3, 40, 22, 9, 31] {
            assert!(s.observe(line).is_empty());
        }
    }

    #[test]
    fn interleaved_streams_both_train() {
        let mut s = Streamer::new(1);
        // Two pages advanced alternately.
        let a = 0u64; // page 0
        let b = 1000u64; // page 15
        s.observe(a);
        s.observe(b);
        s.observe(a + 1);
        s.observe(b + 1);
        let pa: Vec<u64> = s.observe(a + 2).iter().collect();
        let pb: Vec<u64> = s.observe(b + 2).iter().collect();
        assert_eq!(pa, vec![a + 3]);
        assert_eq!(pb, vec![b + 3]);
    }

    #[test]
    fn zero_degree_is_inert() {
        let mut s = Streamer::new(0);
        s.observe(1);
        s.observe(2);
        assert!(s.observe(3).is_empty());
    }

    #[test]
    fn adjacent_pair_completes_128b_pairs() {
        assert_eq!(adjacent_pair(0), 1);
        assert_eq!(adjacent_pair(1), 0);
        assert_eq!(adjacent_pair(10), 11);
        assert_eq!(adjacent_pair(11), 10);
    }

    #[test]
    fn reset_forgets_training() {
        let mut s = Streamer::new(2);
        s.observe(10);
        s.observe(11);
        s.reset();
        assert!(s.observe(12).is_empty(), "stream state was cleared");
    }

    #[test]
    fn streamer_at_top_of_address_space_does_not_wrap() {
        let mut s = Streamer::new(4);
        // The last three lines of the address space share the final page.
        let top = u64::MAX;
        s.observe(top - 2);
        s.observe(top - 1);
        let p: Vec<u64> = s.observe(top).iter().collect();
        assert!(p.is_empty(), "no target past u64::MAX, got {p:?}");
    }

    #[test]
    fn streamer_just_below_top_stops_at_the_boundary() {
        let mut s = Streamer::new(4);
        let top = u64::MAX;
        s.observe(top - 4);
        s.observe(top - 3);
        let p: Vec<u64> = s.observe(top - 2).iter().collect();
        assert_eq!(p, vec![top - 1, top], "runs ahead only to the last line");
    }

    #[test]
    fn reset_mid_stream_requires_full_retrain() {
        let mut s = Streamer::new(2);
        s.observe(200);
        s.observe(201);
        assert!(!s.observe(202).is_empty(), "trained before reset");
        s.reset();
        assert!(s.observe(203).is_empty(), "allocation after reset");
        assert!(s.observe(204).is_empty(), "still training");
        assert!(!s.observe(205).is_empty(), "retrained from scratch");
    }

    /// Replays a baseline-list-shaped walk: per node, a header/entry read
    /// then an 8-byte link read at `base + link_off`.
    fn walk(c: &mut PointerChase, nodes: &[u64], link_off: u64) -> Vec<Vec<u64>> {
        let mut issued = Vec::new();
        for &base in nodes {
            issued.push(c.observe(base, 24).iter().collect());
            c.observe(base + link_off, 8);
        }
        issued
    }

    #[test]
    fn pointer_chase_learns_walk_order_and_link_offset() {
        let mut c = PointerChase::new(1);
        let nodes = [0x1_0000u64, 0x2_0000, 0x3_0000, 0x4_0000];
        // First walk: cold, nothing to prefetch yet.
        for p in walk(&mut c, &nodes, 64) {
            assert!(p.is_empty(), "training walk must not prefetch: {p:?}");
        }
        // Second walk: each header touch prefetches the successor's header
        // line and its (now-learned, offset-64) link line.
        let replay = walk(&mut c, &nodes, 64);
        assert_eq!(replay[0], vec![0x2_0000 / 64, (0x2_0000 + 64) / 64]);
        assert_eq!(replay[1], vec![0x3_0000 / 64, (0x3_0000 + 64) / 64]);
        assert_eq!(replay[2], vec![0x4_0000 / 64, (0x4_0000 + 64) / 64]);
    }

    #[test]
    fn pointer_chase_degree_runs_further_ahead() {
        let mut c = PointerChase::new(2);
        let nodes = [0x1_0000u64, 0x2_0000, 0x3_0000, 0x4_0000];
        walk(&mut c, &nodes, 64);
        let replay = walk(&mut c, &nodes, 64);
        // Head touch pulls successors one AND two hops down the chain.
        assert_eq!(
            replay[0],
            vec![
                0x2_0000 / 64,
                (0x2_0000 + 64) / 64,
                0x3_0000 / 64,
                (0x3_0000 + 64) / 64,
            ]
        );
    }

    #[test]
    fn pointer_chase_link_in_header_line_is_not_duplicated() {
        let mut c = PointerChase::new(1);
        let nodes = [0x1_0000u64, 0x2_0000, 0x3_0000];
        // Link offset 56 shares the header's cache line (LLA-2 layout).
        walk(&mut c, &nodes, 56);
        let replay = walk(&mut c, &nodes, 56);
        assert_eq!(replay[0], vec![0x2_0000 / 64], "one line per successor");
    }

    #[test]
    fn pointer_chase_zero_degree_is_inert() {
        let mut c = PointerChase::new(0);
        let nodes = [0x1_0000u64, 0x2_0000, 0x3_0000];
        walk(&mut c, &nodes, 64);
        for p in walk(&mut c, &nodes, 64) {
            assert!(p.is_empty());
        }
    }

    #[test]
    fn pointer_chase_in_node_accesses_do_not_split_the_visit() {
        let mut c = PointerChase::new(1);
        // Large-node walk: many entry reads between header and link.
        let nodes = [0x10_0000u64, 0x20_0000, 0x30_0000];
        for _ in 0..2 {
            for &base in &nodes {
                c.observe(base, 8);
                for slot in 0..16u64 {
                    c.observe(base + 8 + slot * 24, 24);
                }
                c.observe(base + 8 + 16 * 24, 4);
            }
        }
        let p: Vec<u64> = c.observe(nodes[0], 8).iter().collect();
        assert_eq!(
            p,
            vec![nodes[1] / 64, (nodes[1] + 8 + 16 * 24) / 64],
            "entry reads stayed inside the visit; link offset learned"
        );
    }

    #[test]
    fn pointer_chase_reset_forgets_chain_and_offset() {
        let mut c = PointerChase::new(1);
        let nodes = [0x1_0000u64, 0x2_0000, 0x3_0000];
        walk(&mut c, &nodes, 64);
        c.reset();
        for p in walk(&mut c, &nodes, 64) {
            assert!(p.is_empty(), "reset dropped the successor table: {p:?}");
        }
        // But it can retrain afterwards.
        let replay = walk(&mut c, &nodes, 64);
        assert!(!replay[0].is_empty());
    }

    #[test]
    fn pointer_chase_near_address_space_top_does_not_wrap() {
        let mut c = PointerChase::new(1);
        // The tail node sits so high that adding the learned link offset
        // would overflow the address space.
        let hi = u64::MAX - 32;
        c.observe(0x1_0000, 24);
        c.observe(0x1_0000 + 64, 8);
        c.observe(0x2_0000, 24);
        c.observe(0x2_0000 + 64, 8);
        c.observe(hi, 24);
        let p: Vec<u64> = c.observe(0x1_0000, 24).iter().collect();
        assert_eq!(p, vec![0x2_0000 / 64, (0x2_0000 + 64) / 64]);
        c.observe(0x1_0000 + 64, 8);
        let p: Vec<u64> = c.observe(0x2_0000, 24).iter().collect();
        assert_eq!(p, vec![hi / 64], "header line only; link add overflows");
    }
}
