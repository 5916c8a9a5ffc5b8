//! k-level breakpoint descriptions (§4.2).
//!
//! For a transaction execution with steps `0 .. n`, a *breakpoint* sits
//! between two consecutive steps; we identify it by the index of the step
//! it precedes (so breakpoint positions range over `1 ..= n-1`). A k-level
//! breakpoint description `B` assigns a breakpoint set to each level such
//! that:
//!
//! * `B(1)` has no breakpoints (one segment — the transaction is atomic at
//!   the coarsest level);
//! * `B(k)` has breakpoints everywhere (singleton segments);
//! * each level's breakpoints include the previous level's
//!   (`B(i)`'s *segmentation* refines `B(i-1)`'s).
//!
//! Transactions grouped in a small (deep) nest class see many of each
//! other's breakpoints — they may interleave finely; transactions related
//! only at a shallow level see few.

use mla_graph::BitSet;

/// A k-level breakpoint description over an `n`-step transaction
/// execution.
///
/// ```
/// use mla_core::breakpoints::BreakpointDescription;
///
/// // 5-step transfer: level-2 breakpoint after the 3rd step (the
/// // withdraw/deposit boundary), level-3 breakpoints everywhere.
/// let bd = BreakpointDescription::from_mid_levels(
///     4, 5, &[vec![3], vec![1, 2, 3, 4]],
/// ).unwrap();
/// assert_eq!(bd.segments(2), vec![(0, 2), (3, 4)]);
/// assert!(bd.breakpoint_after(2, 2));
/// assert!(!bd.breakpoint_after(2, 0));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BreakpointDescription {
    k: usize,
    n: usize,
    /// `seg_end[i][s]` is the last step index of the level-`i+1` segment
    /// containing step `s` (precomputed for O(1) coherence queries). It
    /// also encodes the breakpoints: one sits before step `p` at level
    /// `i+1` iff `seg_end[i][p - 1] == p - 1`. No other state, so two
    /// descriptions are equal iff `(k, n, seg_end)` are, whatever their
    /// buffers' capacities.
    seg_end: Vec<Vec<u32>>,
}

/// Errors from [`BreakpointDescription::from_mid_levels`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BreakpointError {
    /// `k < 2`.
    TooShallow {
        /// The offending k.
        k: usize,
    },
    /// The wrong number of mid-level boundary sets was supplied.
    WrongLevelCount {
        /// Required number of mid levels (`k - 2`).
        expected: usize,
        /// Supplied number.
        found: usize,
    },
    /// A breakpoint position lies outside `1 ..= n-1`.
    PositionOutOfRange {
        /// The level (1-based) containing the bad position.
        level: usize,
        /// The offending position.
        pos: usize,
        /// Number of steps.
        n: usize,
    },
    /// A level is missing a breakpoint present at the previous level,
    /// violating refinement.
    NotRefining {
        /// The level (1-based) missing the breakpoint.
        level: usize,
        /// The missing position.
        pos: usize,
    },
}

impl std::fmt::Display for BreakpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakpointError::TooShallow { k } => {
                write!(f, "breakpoint description requires k >= 2, got {k}")
            }
            BreakpointError::WrongLevelCount { expected, found } => {
                write!(
                    f,
                    "expected {expected} mid-level boundary sets, got {found}"
                )
            }
            BreakpointError::PositionOutOfRange { level, pos, n } => {
                write!(f, "level {level}: breakpoint position {pos} outside 1..{n}")
            }
            BreakpointError::NotRefining { level, pos } => write!(
                f,
                "level {level} lacks breakpoint {pos} present at level {}",
                level - 1
            ),
        }
    }
}

impl std::error::Error for BreakpointError {}

impl BreakpointDescription {
    /// Builds a description from explicit breakpoint positions for the
    /// *mid* levels `2 ..= k-1` (`mid[j]` is level `j+2`). Level 1 (no
    /// breakpoints) and level `k` (all breakpoints) are implicit.
    pub fn from_mid_levels(
        k: usize,
        n: usize,
        mid: &[Vec<usize>],
    ) -> Result<Self, BreakpointError> {
        if k < 2 {
            return Err(BreakpointError::TooShallow { k });
        }
        if mid.len() != k - 2 {
            return Err(BreakpointError::WrongLevelCount {
                expected: k - 2,
                found: mid.len(),
            });
        }
        let cap = n.max(1);
        let mut bounds: Vec<BitSet> = Vec::with_capacity(k);
        bounds.push(BitSet::new(cap)); // level 1: none
        for (j, level_bounds) in mid.iter().enumerate() {
            let mut set = BitSet::new(cap);
            for &pos in level_bounds {
                if pos == 0 || pos >= n {
                    return Err(BreakpointError::PositionOutOfRange {
                        level: j + 2,
                        pos,
                        n,
                    });
                }
                set.insert(pos);
            }
            bounds.push(set);
        }
        let mut all = BitSet::new(cap);
        for p in 1..n {
            all.insert(p);
        }
        bounds.push(all); // level k: everywhere

        // Refinement: level i's breakpoints must include level i-1's.
        for i in 1..bounds.len() {
            for pos in bounds[i - 1].iter() {
                if !bounds[i].contains(pos) {
                    return Err(BreakpointError::NotRefining { level: i + 1, pos });
                }
            }
        }
        Ok(Self::finish(k, n, &bounds))
    }

    /// A description with no mid-level breakpoints: the transaction is
    /// atomic with respect to everything it is not `π(k)`-related to
    /// (i.e. everything but itself). With this description for every
    /// transaction, multilevel atomicity collapses to serializability at
    /// any k.
    pub fn atomic(k: usize, n: usize) -> Self {
        Self::from_mid_levels(k, n, &vec![Vec::new(); k.saturating_sub(2)])
            .expect("atomic description is always well-formed")
    }

    /// A description with breakpoints everywhere at every mid level: the
    /// transaction may be interrupted anywhere by any transaction it is
    /// `π(2)`-related to.
    pub fn free(k: usize, n: usize) -> Self {
        let all: Vec<usize> = (1..n).collect();
        Self::from_mid_levels(k, n, &vec![all; k.saturating_sub(2)])
            .expect("free description is always well-formed")
    }

    fn finish(k: usize, n: usize, bounds: &[BitSet]) -> Self {
        let mut seg_end = Vec::with_capacity(k);
        for set in bounds {
            // Walk right-to-left: the segment end of step s is s if a
            // breakpoint follows s (or s is the last step), else the
            // segment end of s+1.
            let mut ends = vec![0u32; n];
            for s in (0..n).rev() {
                ends[s] = if s + 1 >= n || set.contains(s + 1) {
                    s as u32
                } else {
                    ends[s + 1]
                };
            }
            seg_end.push(ends);
        }
        BreakpointDescription { k, n, seg_end }
    }

    /// Appends one step. `level` is the coarsest level whose breakpoints
    /// separate the new step from the previous one (every deeper level
    /// breaks there too; see
    /// [`BreakpointSpecification::boundary_level`](crate::spec::BreakpointSpecification::boundary_level));
    /// it is ignored for a first step. Under the §6 compatibility
    /// condition this extends the description of a prefix to that of
    /// the grown subsequence: at each level the new step either opens a
    /// segment or joins the last one, so only the last segment's
    /// `seg_end` entries change.
    pub(crate) fn push_step(&mut self, level: usize) {
        let n = self.n;
        debug_assert!(
            n == 0 || (2..=self.k).contains(&level),
            "boundary level {level}"
        );
        for (i, ends) in self.seg_end.iter_mut().enumerate() {
            if n > 0 && i + 1 < level {
                for end in ends.iter_mut().rev() {
                    if *end as usize != n - 1 {
                        break;
                    }
                    *end = n as u32;
                }
            }
            ends.push(n as u32);
        }
        self.n += 1;
    }

    /// Drops the last step: the exact inverse of
    /// [`push_step`](Self::push_step).
    pub(crate) fn pop_step(&mut self) {
        assert!(self.n > 0, "pop_step on an empty description");
        self.n -= 1;
        let last = self.n;
        for ends in &mut self.seg_end {
            ends.pop();
            for end in ends.iter_mut().rev() {
                if *end as usize != last {
                    break;
                }
                *end = last as u32 - 1;
            }
        }
    }

    /// Empties the description (zero steps, same depth), keeping its
    /// buffers for reuse.
    pub(crate) fn reset(&mut self) {
        self.n = 0;
        self.seg_end.iter_mut().for_each(Vec::clear);
    }

    /// Whether a level-`level` breakpoint sits before step `p`
    /// (`1 <= p < n`).
    fn breaks_before(&self, level: usize, p: usize) -> bool {
        self.seg_end[level - 1][p - 1] as usize == p - 1
    }

    /// The nest depth.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of steps described.
    pub fn step_count(&self) -> usize {
        self.n
    }

    /// Whether a level-`level` breakpoint separates step `seq` from step
    /// `seq + 1`. Positions past the last step count as breakpoints (a
    /// finished transaction is interruptible everywhere).
    pub fn breakpoint_after(&self, level: usize, seq: usize) -> bool {
        self.check_level(level);
        seq + 1 >= self.n || self.breaks_before(level, seq + 1)
    }

    /// The last step index of the level-`level` segment containing `seq`.
    pub fn segment_end(&self, level: usize, seq: usize) -> usize {
        self.check_level(level);
        assert!(seq < self.n, "step {seq} out of range 0..{}", self.n);
        self.seg_end[level - 1][seq] as usize
    }

    /// `(start, end)` step indices of the level-`level` segment containing
    /// `seq` (inclusive).
    pub fn segment_bounds(&self, level: usize, seq: usize) -> (usize, usize) {
        self.check_level(level);
        assert!(seq < self.n, "step {seq} out of range 0..{}", self.n);
        let mut start = seq;
        while start > 0 && !self.breaks_before(level, start) {
            start -= 1;
        }
        (start, self.seg_end[level - 1][seq] as usize)
    }

    /// The breakpoint positions of a level, ascending.
    pub fn boundaries(&self, level: usize) -> Vec<usize> {
        self.check_level(level);
        (1..self.n)
            .filter(|&p| self.breaks_before(level, p))
            .collect()
    }

    /// The segments of a level, as `(start, end)` inclusive index pairs in
    /// ascending order.
    pub fn segments(&self, level: usize) -> Vec<(usize, usize)> {
        self.check_level(level);
        let mut out = Vec::new();
        let mut start = 0;
        while start < self.n {
            let end = self.seg_end[level - 1][start] as usize;
            out.push((start, end));
            start = end + 1;
        }
        out
    }

    fn check_level(&self, level: usize) {
        assert!(
            level >= 1 && level <= self.k,
            "level {level} out of 1..={}",
            self.k
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's banking example (§4.2): steps `w1 w2 w3 d1 d2`; level 2
    /// has one breakpoint between the withdrawals and the deposits; levels
    /// 3 and 4 are singletons.
    fn transfer_bd() -> BreakpointDescription {
        BreakpointDescription::from_mid_levels(4, 5, &[vec![3], vec![1, 2, 3, 4]]).unwrap()
    }

    #[test]
    fn paper_banking_segments() {
        let b = transfer_bd();
        assert_eq!(b.segments(1), vec![(0, 4)]);
        assert_eq!(b.segments(2), vec![(0, 2), (3, 4)]);
        assert_eq!(b.segments(3), vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        assert_eq!(b.segments(4), b.segments(3));
    }

    #[test]
    fn segment_end_queries() {
        let b = transfer_bd();
        assert_eq!(b.segment_end(1, 0), 4);
        assert_eq!(b.segment_end(2, 0), 2);
        assert_eq!(b.segment_end(2, 2), 2);
        assert_eq!(b.segment_end(2, 3), 4);
        assert_eq!(b.segment_end(3, 2), 2);
        assert_eq!(b.segment_bounds(2, 4), (3, 4));
        assert_eq!(b.segment_bounds(1, 2), (0, 4));
    }

    #[test]
    fn breakpoint_after_matches_boundaries() {
        let b = transfer_bd();
        assert!(!b.breakpoint_after(2, 0));
        assert!(!b.breakpoint_after(2, 1));
        assert!(b.breakpoint_after(2, 2), "between w3 and d1");
        assert!(!b.breakpoint_after(2, 3));
        assert!(b.breakpoint_after(2, 4), "after the final step");
        assert!(b.breakpoint_after(4, 0));
        assert!(!b.breakpoint_after(1, 0));
    }

    #[test]
    fn atomic_and_free_extremes() {
        let a = BreakpointDescription::atomic(4, 5);
        assert_eq!(a.segments(2), vec![(0, 4)]);
        assert_eq!(a.segments(3), vec![(0, 4)]);
        assert_eq!(a.segments(4).len(), 5);

        let f = BreakpointDescription::free(4, 5);
        assert_eq!(f.segments(2).len(), 5);
        assert_eq!(f.segments(3).len(), 5);
        assert_eq!(f.segments(1), vec![(0, 4)]);
    }

    #[test]
    fn k2_has_no_choices() {
        // With k = 2 there is "only one possible breakpoint specification"
        // (§4.3): level 1 groups all steps, level 2 is singletons.
        let b = BreakpointDescription::from_mid_levels(2, 3, &[]).unwrap();
        assert_eq!(b.segments(1), vec![(0, 2)]);
        assert_eq!(b.segments(2).len(), 3);
        assert_eq!(b, BreakpointDescription::atomic(2, 3));
        assert_eq!(b, BreakpointDescription::free(2, 3));
    }

    #[test]
    fn refinement_violation_detected() {
        // Level 2 has breakpoint at 2 but level 3 does not.
        let err = BreakpointDescription::from_mid_levels(4, 4, &[vec![2], vec![1]]).unwrap_err();
        assert_eq!(err, BreakpointError::NotRefining { level: 3, pos: 2 });
    }

    #[test]
    fn position_bounds_checked() {
        let err = BreakpointDescription::from_mid_levels(3, 4, &[vec![4]]).unwrap_err();
        assert_eq!(
            err,
            BreakpointError::PositionOutOfRange {
                level: 2,
                pos: 4,
                n: 4
            }
        );
        let err = BreakpointDescription::from_mid_levels(3, 4, &[vec![0]]).unwrap_err();
        assert!(matches!(err, BreakpointError::PositionOutOfRange { .. }));
    }

    #[test]
    fn level_count_checked() {
        let err = BreakpointDescription::from_mid_levels(4, 3, &[vec![1]]).unwrap_err();
        assert_eq!(
            err,
            BreakpointError::WrongLevelCount {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn single_step_and_empty_transactions() {
        let b = BreakpointDescription::atomic(3, 1);
        assert_eq!(b.segments(2), vec![(0, 0)]);
        assert!(b.breakpoint_after(1, 0), "past the end counts");
        let empty = BreakpointDescription::atomic(3, 0);
        assert_eq!(empty.segments(2), Vec::<(usize, usize)>::new());
        assert_eq!(empty.step_count(), 0);
    }

    /// `mids[j]` restricted to positions below `n`, as `from_mid_levels`
    /// takes them.
    fn clipped(k: usize, n: usize, mids: &[Vec<usize>]) -> BreakpointDescription {
        let mids: Vec<Vec<usize>> = mids
            .iter()
            .map(|l| l.iter().copied().filter(|&p| p < n).collect())
            .collect();
        BreakpointDescription::from_mid_levels(k, n, &mids).unwrap()
    }

    /// The coarsest level breaking before step `p` under `mids` (`k` if
    /// only the finest level does).
    fn level_before(k: usize, mids: &[Vec<usize>], p: usize) -> usize {
        (0..k - 2)
            .find(|&j| mids[j].contains(&p))
            .map_or(k, |j| j + 2)
    }

    #[test]
    fn equality_ignores_buffer_capacity() {
        // Grown step by step after holding a longer description: the
        // buffers are larger, the description is the same.
        let mut grown = BreakpointDescription::free(4, 40);
        grown.reset();
        for level in [4, 4, 2, 3] {
            grown.push_step(level);
        }
        let built = BreakpointDescription::from_mid_levels(4, 4, &[vec![2], vec![2, 3]]).unwrap();
        assert_eq!(grown, built);
        assert_eq!(grown.boundaries(3), vec![2, 3]);
        grown.pop_step();
        assert_ne!(grown, built);
        assert_eq!(grown, clipped(4, 3, &[vec![2], vec![2, 3]]));
    }

    #[test]
    fn push_and_pop_track_from_mid_levels() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(29);
        for _ in 0..200 {
            let k = rng.gen_range(2..6usize);
            let len = rng.gen_range(0..12usize);
            // Refining random mid levels over positions 1..len.
            let mut mids: Vec<Vec<usize>> = Vec::new();
            let mut prev: Vec<usize> = Vec::new();
            for _ in 0..k - 2 {
                let mut cur = prev.clone();
                cur.extend((1..len).filter(|p| !prev.contains(p) && rng.gen_bool(0.3)));
                cur.sort_unstable();
                mids.push(cur.clone());
                prev = cur;
            }
            let mut bd = BreakpointDescription::atomic(k, 0);
            let mut n = 0;
            for _ in 0..3 * len {
                if n < len && (n == 0 || rng.gen_bool(0.6)) {
                    bd.push_step(level_before(k, &mids, n));
                    n += 1;
                } else if n > 0 {
                    bd.pop_step();
                    n -= 1;
                }
                assert_eq!(bd, clipped(k, n, &mids), "k {k}, mids {mids:?}, n {n}");
            }
            bd.reset();
            assert_eq!(bd, BreakpointDescription::atomic(k, 0));
        }
    }
}
