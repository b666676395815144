//! Register-level model of the output-stationary systolic array.
//!
//! Where the weight-stationary array ([`crate::array`]) keeps weights
//! resident and streams operands west-to-east while partial sums ripple
//! south, the output-stationary array keeps the **accumulators** resident in
//! the PEs and streams *both* operands: `A` west-to-east (one register per
//! (row, column block), as in the WS horizontal pipeline) and `B`
//! north-to-south (one register per (row block, column)). PE `(i, j)`
//! multiplies the pair of operands meeting it each cycle into its local
//! accumulator; after the reduction stream ends the accumulators drain
//! through the south edge, one row per cycle per column, bottom-up.
//!
//! The pipeline state reuses the shared SoA machinery of `crate::soa`
//! verbatim: both operand pipelines are pure shift registers stored as
//! **rings of edge stages** (the stage entering the edge at cycle `c` is
//! written once; the segment `d` blocks from the edge reads the slot staged
//! `d` cycles ago), with packed `u64` validity words and one
//! `LaneSummary` frontier summary per slot. When the rings provably hold
//! one feeder schedule from a clean reset (the `StreamPurity` contract
//! shared with the WS array), `run_cycles` runs a row-block-major
//! **wavefront kernel** whose active ranges are closed-form; every other
//! cycle runs the naive scan over every PE — bit-identical either way,
//! exactly like the WS array's fast/naive contract.

use crate::config::{ArrayConfig, Dataflow};
use crate::error::SimError;
use crate::os_dataflow::{OsCollector, OsNorthFeeder, OsWestFeeder};
use crate::soa::{get_bit, set_bit, set_range, words_for, LaneSummary, StreamPurity};
use crate::stats::RunStats;

/// One operand shift-register pipeline stored as a ring of edge stages.
#[derive(Debug, Clone)]
struct OperandRing {
    /// Register values, `slot * lanes..(slot + 1) * lanes`; invalid lanes
    /// are always stored as zero.
    regs: Vec<i32>,
    /// Validity bitsets, one word-aligned run of `words` words per slot.
    valid: Vec<u64>,
    /// Per-slot frontier summaries, mirroring `valid`.
    summaries: Vec<LaneSummary>,
    /// Slot staged this cycle; advances modulo `slots` every cycle.
    head: usize,
    slots: usize,
    lanes: usize,
    words: usize,
}

impl OperandRing {
    fn new(slots: usize, lanes: usize) -> Self {
        let words = words_for(lanes);
        Self {
            regs: vec![0; slots * lanes],
            valid: vec![0; slots * words],
            summaries: vec![LaneSummary::default(); slots],
            head: 0,
            slots,
            lanes,
            words,
        }
    }

    fn clear(&mut self) {
        self.regs.fill(0);
        self.valid.fill(0);
        self.summaries.fill(LaneSummary::default());
        self.head = 0;
    }

    /// The slot holding the edge stage from `age` cycles ago (`age` is the
    /// segment's distance from the edge, `< slots`).
    fn slot(&self, age: usize) -> usize {
        let shifted = self.head + self.slots - age;
        if shifted >= self.slots {
            shifted - self.slots
        } else {
            shifted
        }
    }

    /// Rotates the ring, handing the caller the freed slot's value lane to
    /// overwrite.
    fn advance(&mut self) -> &mut [i32] {
        self.head += 1;
        if self.head == self.slots {
            self.head = 0;
        }
        &mut self.regs[self.head * self.lanes..(self.head + 1) * self.lanes]
    }

    /// Commits the freshly staged slot's validity as one dense lane range
    /// (`None` = the edge was idle) and records its summary.
    fn commit_dense(&mut self, range: Option<(u32, u32)>) {
        let slot = self.head;
        self.valid[slot * self.words..(slot + 1) * self.words].fill(0);
        self.summaries[slot] = match range {
            Some((first, last)) => {
                set_range(
                    &mut self.valid[slot * self.words..(slot + 1) * self.words],
                    first as usize,
                    last as usize,
                );
                LaneSummary::dense_range(first, last)
            }
            None => LaneSummary::default(),
        };
    }

    fn values(&self, slot: usize) -> &[i32] {
        &self.regs[slot * self.lanes..(slot + 1) * self.lanes]
    }

    fn validity(&self, slot: usize) -> &[u64] {
        &self.valid[slot * self.words..(slot + 1) * self.words]
    }

    /// `true` when no slot holds a valid operand.
    fn is_drained(&self) -> bool {
        self.summaries.iter().all(|s| s.count == 0)
    }

    /// Drops all slot metadata without moving the head — used by the bulk
    /// dead-cycle skip, which does not rotate the ring over the skipped
    /// cycles.
    fn invalidate(&mut self) {
        self.valid.fill(0);
        self.summaries.fill(LaneSummary::default());
    }
}

/// Cycle-accurate output-stationary systolic array with configurable
/// transparent pipelining.
///
/// # Examples
///
/// ```
/// use gemm::Matrix;
/// use sa_sim::{ArrayConfig, Dataflow, OutputStationaryArray};
/// use sa_sim::os_dataflow::{OsCollector, OsNorthFeeder, OsWestFeeder};
///
/// let config = ArrayConfig::new(2, 2).with_dataflow(Dataflow::OutputStationary);
/// let mut array = OutputStationaryArray::new(config)?;
/// let a = Matrix::from_rows(vec![vec![1, 2], vec![3, 4]])?;
/// let b = Matrix::from_rows(vec![vec![5, 6], vec![7, 8]])?;
/// let west = OsWestFeeder::new(&a, config)?;
/// let north = OsNorthFeeder::new(&b, config)?;
/// let mut collector = OsCollector::new(config, 2);
/// array.run_cycles(&west, &north, 0, config.os_tile_cycles(2), &mut collector)?;
/// let out = collector.into_output()?;
/// assert_eq!(out[(0, 0)], 1 * 5 + 2 * 7);
/// assert_eq!(out[(1, 1)], 3 * 6 + 4 * 8);
/// # Ok::<(), sa_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OutputStationaryArray {
    config: ArrayConfig,
    /// `A` operand pipeline: one register per (row, column block), staged
    /// west, shifting east. `col_blocks` ring slots of `rows` lanes.
    a_ring: OperandRing,
    /// `B` operand pipeline: one register per (row block, column), staged
    /// north, shifting south. `row_blocks` ring slots of `cols` lanes.
    b_ring: OperandRing,
    /// Resident accumulators, one per PE, row-major (`row * cols + col`).
    acc: Vec<i64>,
    /// Whether the rings provably hold one feeder schedule from a clean
    /// reset — the precondition of the wavefront kernel of
    /// [`OutputStationaryArray::run_cycles`].
    purity: StreamPurity,
    fast_path: bool,
    stats: RunStats,
}

impl OutputStationaryArray {
    /// Creates an array with zeroed accumulators and empty pipelines.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is invalid
    /// or not marked [`Dataflow::OutputStationary`].
    pub fn new(config: ArrayConfig) -> Result<Self, SimError> {
        config.validate()?;
        if config.dataflow != Dataflow::OutputStationary {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "OutputStationaryArray requires an output-stationary configuration, got {}",
                    config.dataflow
                ),
            });
        }
        let rows = config.rows as usize;
        let cols = config.cols as usize;
        Ok(Self {
            config,
            a_ring: OperandRing::new(config.col_blocks() as usize, rows),
            b_ring: OperandRing::new(config.row_blocks() as usize, cols),
            acc: vec![0; rows * cols],
            purity: StreamPurity::Clean,
            fast_path: true,
            stats: RunStats::default(),
        })
    }

    /// The array configuration.
    #[must_use]
    pub fn config(&self) -> ArrayConfig {
        self.config
    }

    /// Statistics accumulated since construction (or the last
    /// [`OutputStationaryArray::reset_for_tile`]).
    #[must_use]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The resident accumulators, row-major (`row * cols + col`) — the
    /// canonical observable state of the output-stationary array, exposed
    /// for the differential tests and for schedule-level collectors.
    #[must_use]
    pub fn accumulators(&self) -> &[i64] {
        &self.acc
    }

    /// Returns whether the wavefront fast path is enabled (the default).
    #[must_use]
    pub fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// Enables or disables the fast path. With it enabled,
    /// [`OutputStationaryArray::run_cycles`] on a pure feeder stream runs
    /// the wavefront kernel, which visits only the active PEs of each row
    /// block. Every other cycle — disabled, or once hand-fed
    /// [`OutputStationaryArray::step`] cycles (or a non-contiguous
    /// `run_cycles` call) make the stream impure — scans every PE. Outputs
    /// and [`RunStats`] are bit-identical either way (cross-checked in the
    /// tests); the knob exists for that cross-check and for measuring the
    /// speedup.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// Prepares the array for a fresh tile **without reallocating**: clears
    /// both operand pipelines, the accumulators and the statistics. After
    /// `reset_for_tile` the array behaves exactly like a freshly
    /// constructed [`OutputStationaryArray::new`] of the same
    /// configuration, except that the fast-path flag (a host-side
    /// measurement knob) is preserved.
    pub fn reset_for_tile(&mut self) {
        self.a_ring.clear();
        self.b_ring.clear();
        self.acc.fill(0);
        self.purity = StreamPurity::Clean;
        self.stats = RunStats::default();
    }

    /// Advances the array by one compute clock cycle with caller-provided
    /// edge operands (`None` = no operand on that lane this cycle), the
    /// output-stationary analogue of
    /// [`SystolicArray::step_into`](crate::SystolicArray::step_into).
    /// Nothing is emitted: results accumulate in place and are read back
    /// via [`OutputStationaryArray::accumulators`] or drained on the
    /// collector schedule by [`OutputStationaryArray::run_cycles`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if `west_inputs` does not
    /// have one entry per array row or `north_inputs` one per array column.
    pub fn step(
        &mut self,
        west_inputs: &[Option<i32>],
        north_inputs: &[Option<i32>],
    ) -> Result<(), SimError> {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        if west_inputs.len() != rows {
            return Err(SimError::DimensionMismatch {
                reason: format!("expected {rows} west inputs, got {}", west_inputs.len()),
            });
        }
        if north_inputs.len() != cols {
            return Err(SimError::DimensionMismatch {
                reason: format!("expected {cols} north inputs, got {}", north_inputs.len()),
            });
        }
        self.purity = StreamPurity::Poisoned;
        Self::stage_options(&mut self.a_ring, west_inputs);
        Self::stage_options(&mut self.b_ring, north_inputs);
        let macs = self.compute_naive();
        self.commit_cycle_stats(macs);
        Ok(())
    }

    /// Stages one cycle's edge operands from `Option` form: values (holes
    /// driven as zero), validity bits and the frontier summary, which is
    /// sparse when the valid lanes are not contiguous.
    fn stage_options(ring: &mut OperandRing, inputs: &[Option<i32>]) {
        let lane_values = ring.advance();
        let mut first = u32::MAX;
        let mut last = 0u32;
        let mut count = 0u32;
        for (lane, input) in inputs.iter().enumerate() {
            lane_values[lane] = input.unwrap_or(0);
            if input.is_some() {
                first = first.min(lane as u32);
                last = lane as u32;
                count += 1;
            }
        }
        let slot = ring.head;
        let words = ring.words;
        ring.valid[slot * words..(slot + 1) * words].fill(0);
        for (lane, input) in inputs.iter().enumerate() {
            if input.is_some() {
                set_bit(&mut ring.valid[slot * words..(slot + 1) * words], lane);
            }
        }
        ring.summaries[slot] = LaneSummary {
            first,
            last,
            count,
            dense: count > 0 && count == last - first + 1,
        };
    }

    /// Advances the array by `cycles` compute clock cycles
    /// (`first_cycle..first_cycle + cycles` in the feeders' and collector's
    /// schedule) — the multi-cycle entry point the tile loops of
    /// [`Simulator`](crate::Simulator) drive.
    ///
    /// Semantically this is `cycles` calls to
    /// [`OutputStationaryArray::step`] with the two feeders' scheduled
    /// edges, plus the collector draining the due accumulators each cycle;
    /// as in the WS array, the per-cycle overhead is hoisted: operands are
    /// staged straight from the streamed matrices as dense ranges, the
    /// configuration checks run once per call, and trailing **dead
    /// cycles** — both edges idle, both rings drained, nothing due — fold
    /// into O(1) statistics bookkeeping via
    /// [`RunStats::record_dead_cycles`]. A call that starts a clean array
    /// at cycle 0, or continues the previous call's stream exactly where
    /// it ended, evaluates its cycles with the wavefront kernel (see
    /// [`OutputStationaryArray::set_fast_path`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if a feeder or the collector
    /// was built for a different geometry, or if the two operand streams
    /// disagree on the reduction length.
    pub fn run_cycles(
        &mut self,
        west: &OsWestFeeder<'_>,
        north: &OsNorthFeeder<'_>,
        first_cycle: u64,
        cycles: u64,
        collector: &mut OsCollector,
    ) -> Result<(), SimError> {
        if west.config() != self.config || north.config() != self.config {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "feeders were built for {}/{} but the array is {}",
                    west.config(),
                    north.config(),
                    self.config
                ),
            });
        }
        if collector.config() != self.config {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "collector was built for {} but the array is {}",
                    collector.config(),
                    self.config
                ),
            });
        }
        if west.stream_length() != north.stream_length()
            || west.stream_length() != collector.reduction_length()
        {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "reduction lengths disagree: west {}, north {}, collector {}",
                    west.stream_length(),
                    north.stream_length(),
                    collector.reduction_length()
                ),
            });
        }
        let end = first_cycle.saturating_add(cycles);
        let n = west.stream_length();
        let idle_from = west.idle_from().max(north.idle_from());
        let last_due = collector.last_due_cycle();
        // The wavefront kernel applies when the rings provably hold this
        // schedule, uninterrupted, from a clean reset; otherwise each cycle
        // runs the naive scan.
        let analytic = self.purity.begin_run(n, first_cycle, end) && self.fast_path;
        let mut cycle = first_cycle;
        while cycle < end {
            // Bulk dead-cycle skip: both edges stay idle from here on,
            // nothing is in flight and nothing is due — every remaining
            // cycle is pure bookkeeping.
            if cycle >= idle_from
                && last_due.map_or(true, |due| cycle > due)
                && self.a_ring.is_drained()
                && self.b_ring.is_drained()
            {
                // The ring heads do not advance over skipped cycles, so
                // drop the (drained, no longer readable) slot metadata.
                self.a_ring.invalidate();
                self.b_ring.invalidate();
                self.record_dead_cycles(end - cycle);
                break;
            }
            let a_range = {
                let lane = self.a_ring.advance();
                west.stage_values_into(cycle, lane)
            };
            self.a_ring.commit_dense(a_range);
            let b_range = {
                let lane = self.b_ring.advance();
                north.stage_values_into(cycle, lane)
            };
            self.b_ring.commit_dense(b_range);
            let macs = if analytic {
                self.compute_wavefront(n, cycle)
            } else {
                self.compute_naive()
            };
            self.commit_cycle_stats(macs);
            if let Err(e) = collector.collect_due(cycle, &self.acc) {
                self.purity = StreamPurity::Poisoned;
                return Err(e);
            }
            cycle += 1;
        }
        Ok(())
    }

    /// One cycle of the **wavefront kernel** for pure feeder streams of
    /// reduction length `n`: the output-stationary analogue of the WS
    /// array's analytic wavefront kernel.
    ///
    /// Under the [`OsWestFeeder`]/[`OsNorthFeeder`] schedules PE `(i, j)`
    /// is active at cycle `c` exactly when
    /// `0 <= c - floor(i/k) - floor(j/k) < n`, and there the `A` and `B`
    /// validity always agree. So the active column blocks of row block
    /// `rb` are the one contiguous range
    /// `max(0, c - rb - n + 1) ..= min(ceil(C/k) - 1, c - rb)`, and each
    /// row of the block runs one fused lane over its contiguous
    /// accumulators and the contiguous `B` lane of ring slot `rb`, reading
    /// `A` from the ring one slot per column block. The cost per cycle is
    /// O(active MACs + row blocks) instead of O(row blocks x column
    /// blocks).
    ///
    /// Returns the MAC count of the cycle.
    fn compute_wavefront(&mut self, n: u64, cycle: u64) -> u64 {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let k = self.config.collapse_depth as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let col_blocks = self.config.col_blocks() as usize;
        let n = i64::try_from(n).expect("reduction length fits i64");
        let c = i64::try_from(cycle).expect("cycle fits i64");
        let cb_max = col_blocks as i64 - 1;
        let rb_lo = (c - cb_max - (n - 1)).max(0);
        let rb_hi = (row_blocks as i64 - 1).min(c);
        if n == 0 || rb_lo > rb_hi {
            return 0;
        }
        let mut macs = 0u64;
        for rb in rb_lo as usize..=rb_hi as usize {
            // Never empty: `rb_lo` and `rb_hi` bound `c - rb` to
            // `0 ..= cb_max + n - 1`.
            let cb_lo = (c - rb as i64 - (n - 1)).max(0) as usize;
            let cb_hi = (c - rb as i64).min(cb_max) as usize;
            let col_lo = cb_lo * k;
            let col_hi = ((cb_hi + 1) * k).min(cols) - 1;
            let r0 = rb * k;
            let r1 = (r0 + k).min(rows);
            let b_slot = self.b_ring.slot(rb);
            // Ring slot of `cb_lo`; one slot older (minus one, wrapping)
            // per column block further east.
            let a_slot_first = self.a_ring.slot(cb_lo);
            // Both rings must hold the operands this block pairs: the `B`
            // stage of row block `rb` carries exactly the evaluated
            // columns, and every `A` stage of the column range carries the
            // block's rows.
            if cfg!(debug_assertions) {
                let sb = self.b_ring.summaries[b_slot];
                debug_assert!(
                    sb.covers(col_lo, col_hi) && sb.count as usize == col_hi - col_lo + 1,
                    "misaligned wavefront: B stage of row block {rb} is {sb:?}, \
                     evaluating columns {col_lo}..={col_hi}"
                );
                for cb in cb_lo..=cb_hi {
                    let sa = self.a_ring.summaries[self.a_ring.slot(cb)];
                    debug_assert!(
                        sa.covers(r0, r1 - 1),
                        "misaligned wavefront: A stage of column block {cb} is {sa:?}, \
                         evaluating row block {rb}"
                    );
                }
            }
            let b_lane = &self.b_ring.values(b_slot)[col_lo..=col_hi];
            let a_regs = &self.a_ring.regs;
            for row in r0..r1 {
                let acc_row = &mut self.acc[row * cols + col_lo..=row * cols + col_hi];
                let mut slot = a_slot_first;
                if k == 1 {
                    // One column per block: a single fused lane, about
                    // 2.8x faster than 1-wide chunks on a 64x64 array.
                    for (acc, &b) in acc_row.iter_mut().zip(b_lane) {
                        let a = i64::from(a_regs[slot * rows + row]);
                        slot = if slot == 0 { col_blocks - 1 } else { slot - 1 };
                        *acc = acc.wrapping_add(a * i64::from(b));
                    }
                } else {
                    // `col_lo` is block-aligned, so the `k`-sized chunks
                    // line up with the column blocks (the last chunk may
                    // be the array's partial east-edge block).
                    for (lane, b_chunk) in acc_row.chunks_mut(k).zip(b_lane.chunks(k)) {
                        let a = i64::from(a_regs[slot * rows + row]);
                        slot = if slot == 0 { col_blocks - 1 } else { slot - 1 };
                        for (acc, &b) in lane.iter_mut().zip(b_chunk) {
                            *acc = acc.wrapping_add(a * i64::from(b));
                        }
                    }
                }
            }
            macs += ((r1 - r0) * (col_hi - col_lo + 1)) as u64;
        }
        macs
    }

    /// Naive reference: scans every PE every cycle, checking both operand
    /// validity bits. The cross-check twin of the wavefront kernel, and
    /// the kernel of every cycle whose stream is impure (hand-fed
    /// [`OutputStationaryArray::step`] cycles, a non-contiguous
    /// `run_cycles` call) or runs with the fast path disabled.
    fn compute_naive(&mut self) -> u64 {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let k = self.config.collapse_depth as usize;
        let mut macs = 0u64;
        for i in 0..rows {
            let b_slot = self.b_ring.slot(i / k);
            for j in 0..cols {
                let a_slot = self.a_ring.slot(j / k);
                if !get_bit(self.a_ring.validity(a_slot), i)
                    || !get_bit(self.b_ring.validity(b_slot), j)
                {
                    continue;
                }
                let a = i64::from(self.a_ring.values(a_slot)[i]);
                let b = i64::from(self.b_ring.values(b_slot)[j]);
                self.acc[i * cols + j] = self.acc[i * cols + j].wrapping_add(a * b);
                macs += 1;
            }
        }
        macs
    }

    /// Books one committed compute cycle into the statistics — the same
    /// contract as the WS array: every PE is evaluated
    /// (`pe_cycles += R * C`), the physically existing pipeline registers
    /// (`R * ceil(C/k)` horizontal plus `ceil(R/k) * C` vertical) clock,
    /// and the remaining conceptual register positions of the full `2RC`
    /// set are transparent/gated. The resident accumulators update only on
    /// a MAC and are accounted through `macs`.
    fn commit_cycle_stats(&mut self, macs: u64) {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let col_blocks = self.config.col_blocks() as usize;
        self.stats.macs += macs;
        self.stats.compute_cycles += 1;
        self.stats.pe_cycles += (rows * cols) as u64;
        let clocked = (rows * col_blocks + cols * row_blocks) as u64;
        let total_regs = 2 * (rows * cols) as u64;
        self.stats.clocked_register_events += clocked;
        self.stats.gated_register_events += total_regs - clocked;
    }

    /// Books `cycles` dead compute cycles (no operand anywhere) into the
    /// statistics, exactly as stepping them one by one would.
    fn record_dead_cycles(&mut self, cycles: u64) {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let col_blocks = self.config.col_blocks() as usize;
        let clocked = (rows * col_blocks + cols * row_blocks) as u64;
        let total_regs = 2 * (rows * cols) as u64;
        self.stats
            .record_dead_cycles(cycles, (rows * cols) as u64, clocked, total_regs - clocked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm::{multiply, Matrix};

    fn os_config(rows: u32, cols: u32, k: u32) -> ArrayConfig {
        ArrayConfig::new(rows, cols)
            .with_collapse_depth(k)
            .with_dataflow(Dataflow::OutputStationary)
    }

    fn run_tile(
        config: ArrayConfig,
        a: &Matrix<i32>,
        b: &Matrix<i32>,
        fast: bool,
    ) -> (Matrix<i64>, RunStats) {
        let mut array = OutputStationaryArray::new(config).unwrap();
        array.set_fast_path(fast);
        let west = OsWestFeeder::new(a, config).unwrap();
        let north = OsNorthFeeder::new(b, config).unwrap();
        let n = west.stream_length();
        let mut collector = OsCollector::new(config, n);
        array
            .run_cycles(&west, &north, 0, config.os_tile_cycles(n), &mut collector)
            .unwrap();
        (collector.into_output().unwrap(), array.stats())
    }

    #[test]
    fn full_tile_matches_the_reference_gemm() {
        use gemm::rng::SplitMix64;
        for (rows, cols, k, n, seed) in [
            (2u32, 2u32, 1u32, 3usize, 1u64),
            (4, 4, 2, 7, 2),
            (6, 3, 3, 5, 3),
            (1, 1, 1, 1, 4),
            (5, 8, 3, 11, 5),
        ] {
            let mut rng = SplitMix64::new(seed);
            let a = Matrix::random(rows as usize, n, &mut rng, -9, 9);
            let b = Matrix::random(n, cols as usize, &mut rng, -9, 9);
            let config = os_config(rows, cols, k);
            let (out, stats) = run_tile(config, &a, &b, true);
            assert_eq!(out, multiply(&a, &b).unwrap(), "{rows}x{cols} k={k} n={n}");
            assert_eq!(stats.total_cycles(), config.os_tile_cycles(n as u64));
            assert_eq!(stats.load_cycles, 0);
            assert_eq!(stats.macs, n as u64 * u64::from(rows) * u64::from(cols));
        }
    }

    #[test]
    fn fast_path_is_bit_identical_to_the_naive_scan() {
        use gemm::rng::SplitMix64;
        for (rows, cols, k, n, seed) in [
            (4u32, 4u32, 2u32, 6usize, 21u64),
            (8, 8, 4, 3, 22),
            (7, 5, 3, 9, 23),
        ] {
            let mut rng = SplitMix64::new(seed);
            let a = Matrix::random(rows as usize, n, &mut rng, -40, 40);
            let b = Matrix::random(n, cols as usize, &mut rng, -40, 40);
            let config = os_config(rows, cols, k);
            let fast = run_tile(config, &a, &b, true);
            let naive = run_tile(config, &a, &b, false);
            assert_eq!(fast, naive, "{rows}x{cols} k={k} n={n}");
        }
    }

    #[test]
    fn step_with_holes_matches_per_element_accumulation() {
        // Feed a sparse stream by hand: A holes on row 1, B holes on
        // column 0 at cycle 1; only pairs with both operands valid MAC.
        let config = os_config(2, 2, 1);
        let mut array = OutputStationaryArray::new(config).unwrap();
        array.step(&[Some(2), None], &[Some(3), Some(4)]).unwrap();
        // Cycle 0: only PE (0, 0) has both operands (a row 0 meets b col 0
        // with zero skew); (0, 1) needs the b operand one stage south.
        assert_eq!(array.accumulators(), &[2 * 3, 0, 0, 0]);
        array.step(&[Some(5), Some(6)], &[None, Some(7)]).unwrap();
        // Cycle 1: (0, 0) pairs a=5 with the hole (no MAC); (0, 1) pairs
        // the a stage from a cycle ago (a=2, one stage east) with this
        // cycle's b=7; (1, 0) pairs this cycle's a=6 with the b stage from
        // a cycle ago (b=3, one stage south); (1, 1) pairs last cycle's
        // a hole with b=4 (no MAC).
        assert_eq!(array.stats().macs, 1 + 2);
        let expected = [2 * 3, 2 * 7, 6 * 3, 0];
        assert_eq!(array.accumulators(), &expected);
    }

    #[test]
    fn reset_for_tile_behaves_like_a_fresh_array() {
        let config = os_config(3, 3, 2);
        let a = Matrix::from_rows(vec![vec![1, 2], vec![3, 4], vec![5, 6]]).unwrap();
        let b = Matrix::from_rows(vec![vec![1, 0, 2], vec![0, 3, 1]]).unwrap();
        let mut array = OutputStationaryArray::new(config).unwrap();
        let run = |array: &mut OutputStationaryArray| {
            let west = OsWestFeeder::new(&a, config).unwrap();
            let north = OsNorthFeeder::new(&b, config).unwrap();
            let mut collector = OsCollector::new(config, 2);
            array
                .run_cycles(&west, &north, 0, config.os_tile_cycles(2), &mut collector)
                .unwrap();
            (collector.into_output().unwrap(), array.stats())
        };
        let first = run(&mut array);
        array.reset_for_tile();
        assert_eq!(array.stats(), RunStats::default());
        let second = run(&mut array);
        assert_eq!(first, second);
        assert_eq!(first.0, multiply(&a, &b).unwrap());
    }

    #[test]
    fn overlong_runs_fold_trailing_cycles_into_dead_stats() {
        let config = os_config(2, 2, 1);
        let a = Matrix::from_rows(vec![vec![1, 2], vec![3, 4]]).unwrap();
        let b = Matrix::from_rows(vec![vec![5, 6], vec![7, 8]]).unwrap();
        let baseline = {
            let mut array = OutputStationaryArray::new(config).unwrap();
            let west = OsWestFeeder::new(&a, config).unwrap();
            let north = OsNorthFeeder::new(&b, config).unwrap();
            let mut collector = OsCollector::new(config, 2);
            array
                .run_cycles(&west, &north, 0, config.os_tile_cycles(2) + 50, &mut collector)
                .unwrap();
            (collector.into_output().unwrap(), array.stats())
        };
        // The 50 extra cycles are all dead: same output, 50 more compute
        // cycles, no more MACs.
        assert_eq!(baseline.0, multiply(&a, &b).unwrap());
        assert_eq!(
            baseline.1.total_cycles(),
            config.os_tile_cycles(2) + 50
        );
        assert_eq!(baseline.1.macs, 2 * 2 * 2);
        assert_eq!(
            baseline.1.pe_cycles,
            (config.os_tile_cycles(2) + 50) * config.pe_count()
        );
    }

    #[test]
    fn construction_rejects_ws_configurations_and_bad_geometry() {
        assert!(OutputStationaryArray::new(ArrayConfig::new(4, 4)).is_err());
        assert!(OutputStationaryArray::new(
            ArrayConfig::new(0, 4).with_dataflow(Dataflow::OutputStationary)
        )
        .is_err());
    }

    #[test]
    fn run_cycles_rejects_mismatched_schedules() {
        let config = os_config(2, 2, 1);
        let other = os_config(3, 3, 1);
        let mut array = OutputStationaryArray::new(config).unwrap();
        let a = Matrix::<i32>::zeros(2, 4);
        let b = Matrix::<i32>::zeros(4, 2);
        let west = OsWestFeeder::new(&a, config).unwrap();
        let north = OsNorthFeeder::new(&b, config).unwrap();
        // Collector built for a different geometry.
        let mut collector = OsCollector::new(other, 4);
        assert!(array.run_cycles(&west, &north, 0, 4, &mut collector).is_err());
        // Streams disagreeing on the reduction length.
        let b_short = Matrix::<i32>::zeros(3, 2);
        let north_short = OsNorthFeeder::new(&b_short, config).unwrap();
        let mut collector = OsCollector::new(config, 4);
        assert!(array
            .run_cycles(&west, &north_short, 0, 4, &mut collector)
            .is_err());
    }
}
