//! Differential suite locking the output-stationary backend to its naive
//! reference and to the dataflow-independent GEMM oracle.
//!
//! `common::os::LegacyOsArray` is the array-of-structs reference for the
//! output-stationary dataflow: full-size operand register files with
//! `Vec<bool>` validity, resident per-PE accumulators, and a per-cycle scan
//! of every processing element. The tests drive it cycle for cycle against
//! [`OutputStationaryArray`] (both with and without the wavefront fast
//! path) across randomized geometries, collapse depths, reduction lengths
//! and operand sparsity — including streams with mid-stream holes and
//! word-boundary geometries wider than 64 lanes — asserting bit-identical
//! accumulator files and [`RunStats`](sa_sim::RunStats) every cycle. On top
//! of the reference, every full tile is checked against the
//! dataflow-independent oracle: [`multiply`] of the same operands, which
//! both the weight-stationary and output-stationary backends must
//! reproduce exactly.

use gemm::rng::SplitMix64;
use gemm::{multiply, Matrix};
use proptest::prelude::*;
use sa_sim::{
    ArrayConfig, Dataflow, OsCollector, OsNorthFeeder, OsWestFeeder, OutputStationaryArray,
    Simulator,
};

mod common;
use common::os::LegacyOsArray;

/// The scheduled west edge for one cycle in `Option` form: row `i` carries
/// `A[i][n]` at cycle `n + floor(i / k)`, minus the stream indices dropped
/// by `a_mask` (bit `n % 64` set = index `n` dropped on every row).
fn west_options(a: &Matrix<i32>, config: ArrayConfig, cycle: u64, a_mask: u64) -> Vec<Option<i32>> {
    let k = u64::from(config.collapse_depth);
    (0..config.rows as usize)
        .map(|row| {
            let skew = row as u64 / k;
            let n = cycle.checked_sub(skew)?;
            if n >= a.cols() as u64 || a_mask & (1 << (n % 64)) != 0 {
                return None;
            }
            Some(a.row(row)[n as usize])
        })
        .collect()
}

/// The scheduled north edge for one cycle in `Option` form: column `j`
/// carries `B[n][j]` at cycle `n + floor(j / k)`, minus the stream indices
/// dropped by `b_mask`.
fn north_options(
    b: &Matrix<i32>,
    config: ArrayConfig,
    cycle: u64,
    b_mask: u64,
) -> Vec<Option<i32>> {
    let k = u64::from(config.collapse_depth);
    (0..config.cols as usize)
        .map(|col| {
            let skew = col as u64 / k;
            let n = cycle.checked_sub(skew)?;
            if n >= b.rows() as u64 || b_mask & (1 << (n % 64)) != 0 {
                return None;
            }
            Some(b[(n as usize, col)])
        })
        .collect()
}

/// Streams one random `R x N` by `N x C` tile through the reference and
/// both modes of the output-stationary engine, asserting bit-identical
/// accumulator files and statistics **every cycle**. `zero_fraction`
/// controls operand sparsity (the fast path must not confuse *zero-valued*
/// with *invalid* operands); `a_mask` / `b_mask` drop stream indices
/// wholesale, the mid-stream-hole shape that forces the sparse fallback.
/// With no holes, the settled accumulators are also checked against the
/// dataflow-independent oracle `multiply(a, b)`.
#[allow(clippy::too_many_arguments)]
fn assert_os_equivalent(
    rows: u32,
    cols: u32,
    k: u32,
    n: usize,
    seed: u64,
    zero_fraction: u32,
    a_mask: u64,
    b_mask: u64,
) {
    let config = ArrayConfig::new(rows, cols)
        .with_collapse_depth(k)
        .with_dataflow(Dataflow::OutputStationary);
    let mut rng = SplitMix64::new(seed);
    let sparse = |rng: &mut SplitMix64, low: i32, high: i32| {
        let value = rng.next_i32_in(low, high);
        if rng.next_i32_in(0, 99) < zero_fraction as i32 {
            0
        } else {
            value
        }
    };
    let a = Matrix::from_fn(rows as usize, n, |_, _| sparse(&mut rng, -60, 60));
    let b = Matrix::from_fn(n, cols as usize, |_, _| sparse(&mut rng, -60, 60));

    let mut reference = LegacyOsArray::new(config);
    let mut fast = OutputStationaryArray::new(config).unwrap();
    let mut naive = OutputStationaryArray::new(config).unwrap();
    naive.set_fast_path(false);

    // Run well past the last scheduled operand so fill, steady state and
    // fully-drained cycles are all compared.
    for cycle in 0..config.os_tile_cycles(n as u64) + 2 {
        let west = west_options(&a, config, cycle, a_mask);
        let north = north_options(&b, config, cycle, b_mask);
        reference.step(&west, &north);
        fast.step(&west, &north).unwrap();
        naive.step(&west, &north).unwrap();
        assert_eq!(
            fast.accumulators(),
            reference.accumulators(),
            "fast path diverged: {rows}x{cols} k={k} n={n} cycle={cycle}"
        );
        assert_eq!(
            naive.accumulators(),
            reference.accumulators(),
            "naive scan diverged: {rows}x{cols} k={k} n={n} cycle={cycle}"
        );
        assert_eq!(
            fast.stats(),
            reference.stats(),
            "fast stats diverged: {rows}x{cols} k={k} n={n} cycle={cycle}"
        );
        assert_eq!(
            naive.stats(),
            reference.stats(),
            "naive stats diverged: {rows}x{cols} k={k} n={n} cycle={cycle}"
        );
    }

    if a_mask == 0 && b_mask == 0 {
        let oracle = multiply(&a, &b).unwrap();
        for row in 0..rows as usize {
            for col in 0..cols as usize {
                assert_eq!(
                    reference.accumulators()[row * cols as usize + col],
                    oracle[(row, col)],
                    "oracle diverged: {rows}x{cols} k={k} n={n} at ({row}, {col})"
                );
            }
        }
    }
}

/// How one segment of a mixed schedule feeds the engines.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// Hand-fed `step` cycles (with the collector drained by hand), which
    /// make the stream impure for the rest of the tile.
    Steps(u64),
    /// One `run_cycles` call.
    Run(u64),
}

/// Drives the fast and naive engines through the same mixed schedule of
/// `plan` segments (topped up with a final `run_cycles` to `cycles`),
/// stepping the reference over the same cycles. After **every segment**
/// the accumulator files and statistics of all three agree, so the
/// wavefront kernel and the naive scan are checked chunk by chunk, not
/// only through the final drain; the drained outputs must equal
/// the GEMM oracle.
fn assert_os_mixed(config: ArrayConfig, n: usize, seed: u64, cycles: u64, plan: &[Feed]) {
    let mut rng = SplitMix64::new(seed);
    let a = Matrix::random(config.rows as usize, n, &mut rng, -60, 60);
    let b = Matrix::random(n, config.cols as usize, &mut rng, -60, 60);
    let west = OsWestFeeder::new(&a, config).unwrap();
    let north = OsNorthFeeder::new(&b, config).unwrap();
    let mut reference = LegacyOsArray::new(config);
    let mut engines = [true, false].map(|fast| {
        let mut engine = OutputStationaryArray::new(config).unwrap();
        engine.set_fast_path(fast);
        (engine, OsCollector::new(config, n as u64))
    });
    let mut cycle = 0u64;
    let segments = plan.iter().copied().chain(std::iter::once(Feed::Run(u64::MAX)));
    for feed in segments {
        let len = match feed {
            Feed::Steps(len) | Feed::Run(len) => len.min(cycles - cycle),
        };
        for (engine, collector) in &mut engines {
            match feed {
                Feed::Steps(_) => {
                    for c in cycle..cycle + len {
                        let west = west_options(&a, config, c, 0);
                        let north = north_options(&b, config, c, 0);
                        engine.step(&west, &north).unwrap();
                        collector.collect_due(c, engine.accumulators()).unwrap();
                    }
                }
                Feed::Run(_) => engine
                    .run_cycles(&west, &north, cycle, len, collector)
                    .unwrap(),
            }
        }
        for c in cycle..cycle + len {
            reference.step(&west_options(&a, config, c, 0), &north_options(&b, config, c, 0));
        }
        cycle += len;
        for (engine, _) in &engines {
            let mode = if engine.fast_path() { "fast" } else { "naive" };
            assert_eq!(
                engine.accumulators(),
                reference.accumulators(),
                "{mode} accumulators diverged: {config} n={n} after {feed:?} at cycle {cycle}"
            );
            assert_eq!(
                engine.stats(),
                reference.stats(),
                "{mode} stats diverged: {config} n={n} after {feed:?} at cycle {cycle}"
            );
        }
        if cycle == cycles {
            break;
        }
    }
    let oracle = multiply(&a, &b).unwrap();
    for (_, collector) in engines {
        assert!(collector.is_complete());
        assert_eq!(collector.into_output().unwrap(), oracle, "{config} n={n}");
    }
}

/// A random mixed schedule: segments of 1..=`max_len` cycles, a quarter
/// of them hand-fed.
fn random_plan(seed: u64, max_len: u64) -> Vec<Feed> {
    let mut rng = SplitMix64::new(seed);
    (0..rng.next_i32_in(1, 8))
        .map(|_| {
            let len = rng.next_i32_in(1, max_len as i32) as u64;
            if rng.next_i32_in(0, 3) == 0 {
                Feed::Steps(len)
            } else {
                Feed::Run(len)
            }
        })
        .collect()
}

#[test]
fn os_mixed_schedules_match_on_wide_and_ragged_geometries() {
    use Feed::{Run, Steps};
    // 64x64 with k = 1 (the most block pairs per cycle), and collapse
    // depths that divide neither edge with ragged reduction lengths (a
    // partial last row block and column block). Each runs pure chunked
    // `run_cycles` (the wavefront kernel throughout), hand-fed steps
    // first, and hand-fed steps in the middle of the stream.
    for (rows, cols, k, n, seed) in [
        (64u32, 64u32, 1u32, 23usize, 31u64),
        (10, 7, 3, 11, 32),
        (13, 9, 4, 5, 33),
        (70, 66, 4, 13, 34),
    ] {
        let config = ArrayConfig::new(rows, cols)
            .with_collapse_depth(k)
            .with_dataflow(Dataflow::OutputStationary);
        let cycles = config.os_tile_cycles(n as u64) + 3;
        for plan in [
            vec![Run(1), Run(n as u64), Run(7)],
            vec![Steps(2), Run(5)],
            vec![Run(n as u64 / 2 + 1), Steps(3), Run(4)],
        ] {
            assert_os_mixed(config, n, seed, cycles, &plan);
        }
    }
}

#[test]
fn a_hand_fed_bubble_poisons_the_wavefront_kernel() {
    // An idle hand-fed `step` between two `run_cycles` calls that continue
    // the cycle numbering leaves the operands in flight one cycle behind
    // the schedule: the second call must fall back to the naive scan and
    // still match a reference fed the same bubble.
    for (rows, cols, k, n, seed) in [(6u32, 5u32, 2u32, 7usize, 41u64), (64, 64, 1, 9, 42)] {
        let config = ArrayConfig::new(rows, cols)
            .with_collapse_depth(k)
            .with_dataflow(Dataflow::OutputStationary);
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::random(rows as usize, n, &mut rng, -60, 60);
        let b = Matrix::random(n, cols as usize, &mut rng, -60, 60);
        let west = OsWestFeeder::new(&a, config).unwrap();
        let north = OsNorthFeeder::new(&b, config).unwrap();
        let mut collector = OsCollector::new(config, n as u64);
        let mut engine = OutputStationaryArray::new(config).unwrap();
        let mut reference = LegacyOsArray::new(config);
        let (split, cycles) = (4, config.os_tile_cycles(n as u64));
        engine.run_cycles(&west, &north, 0, split, &mut collector).unwrap();
        let (idle_west, idle_north) = (vec![None; rows as usize], vec![None; cols as usize]);
        engine.step(&idle_west, &idle_north).unwrap();
        engine
            .run_cycles(&west, &north, split, cycles - split, &mut collector)
            .unwrap();
        for c in 0..cycles {
            if c == split {
                reference.step(&idle_west, &idle_north);
            }
            reference.step(&west_options(&a, config, c, 0), &north_options(&b, config, c, 0));
        }
        assert_eq!(engine.accumulators(), reference.accumulators(), "{config} n={n}");
        assert_eq!(engine.stats(), reference.stats(), "{config} n={n}");
    }
}

#[test]
fn os_engine_matches_the_reference_on_fixed_geometries() {
    // Word-boundary geometries the random sweep is unlikely to hit: more
    // than 64 rows/columns (multi-word ring validity segments) and blocks
    // that straddle a word boundary.
    for (rows, cols, k, n, seed) in [
        (1u32, 1u32, 1u32, 3usize, 1u64),
        (1, 8, 1, 2, 2),
        (8, 1, 1, 2, 3),
        (65, 65, 1, 3, 4),
        (70, 66, 4, 2, 5),
        (66, 70, 33, 3, 6),
        (96, 8, 8, 4, 7),
        (8, 96, 8, 5, 8),
    ] {
        assert_os_equivalent(rows, cols, k, n, seed, 30, 0, 0);
    }
}

#[test]
fn holey_os_streams_match_on_word_boundary_geometries() {
    // Sparse-fallback coverage: dropped stream indices on either or both
    // edges, on geometries with multi-word validity segments.
    for (rows, cols, k, n, seed, a_mask, b_mask) in [
        (65u32, 65u32, 1u32, 4usize, 21u64, 0b1010u64, 0u64),
        (70, 66, 4, 3, 22, 0, 0b0110),
        (96, 8, 8, 5, 23, u64::MAX << 1, 0b1),
        (8, 96, 8, 4, 24, 0b1001, 0b0110),
    ] {
        assert_os_equivalent(rows, cols, k, n, seed, 30, a_mask, b_mask);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The output-stationary engine (fast path and naive scan) is
    /// cycle-for-cycle identical — accumulators and statistics — to the
    /// array-of-structs reference across randomized geometries, collapse
    /// depths, reduction lengths and operand sparsity, and the settled
    /// accumulators equal the GEMM oracle.
    #[test]
    fn os_engine_matches_the_reference(
        rows in 1u32..=12,
        cols in 1u32..=12,
        k in 1u32..=6,
        n in 1usize..=10,
        seed in any::<u64>(),
        zero_fraction in 0u32..=90,
    ) {
        prop_assume!(k <= rows && k <= cols);
        assert_os_equivalent(rows, cols, k, n, seed, zero_fraction, 0, 0);
    }

    /// Streams with randomly dropped indices — on either edge, forcing
    /// unpaired operands and hole-bearing stages — still match the
    /// reference cycle for cycle.
    #[test]
    fn os_engine_matches_the_reference_with_holes(
        rows in 1u32..=12,
        cols in 1u32..=12,
        k in 1u32..=6,
        n in 1usize..=10,
        seed in any::<u64>(),
        a_mask in any::<u64>(),
        b_mask in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        assert_os_equivalent(rows, cols, k, n, seed, 40, a_mask, b_mask);
    }

    /// `run_cycles` — feeder-driven staging, the collector drain and the
    /// trailing dead-cycle fold, optionally split into chunked calls — is
    /// bit-identical to stepping the reference every cycle: same statistics,
    /// and a drained output equal to the GEMM oracle.
    #[test]
    fn os_run_cycles_equals_repeated_reference_steps(
        rows in 1u32..=10,
        cols in 1u32..=10,
        k in 1u32..=5,
        n in 1usize..=8,
        chunks in 1u64..=3,
        extra in 0u64..=200,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        let config = ArrayConfig::new(rows, cols)
            .with_collapse_depth(k)
            .with_dataflow(Dataflow::OutputStationary);
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::random(rows as usize, n, &mut rng, -50, 50);
        let b = Matrix::random(n, cols as usize, &mut rng, -50, 50);
        let cycles = config.os_tile_cycles(n as u64) + extra;

        // Reference: the literal per-cycle loop over the same schedule.
        let mut reference = LegacyOsArray::new(config);
        for cycle in 0..cycles {
            let west = west_options(&a, config, cycle, 0);
            let north = north_options(&b, config, cycle, 0);
            reference.step(&west, &north);
        }

        let mut engine = OutputStationaryArray::new(config).unwrap();
        let west = OsWestFeeder::new(&a, config).unwrap();
        let north = OsNorthFeeder::new(&b, config).unwrap();
        let mut collector = OsCollector::new(config, n as u64);
        let per_chunk = (cycles / chunks).max(1);
        let mut done = 0;
        while done < cycles {
            let step = per_chunk.min(cycles - done);
            engine.run_cycles(&west, &north, done, step, &mut collector).unwrap();
            done += step;
        }
        prop_assert_eq!(engine.stats(), reference.stats());
        prop_assert!(collector.is_complete());
        prop_assert_eq!(collector.into_output().unwrap(), multiply(&a, &b).unwrap());
    }

    /// The OS twin of the WS "run_cycles mixed with manual steps"
    /// property: interleaving hand-fed `step` cycles with chunked
    /// `run_cycles` calls (which must then leave the wavefront kernel for
    /// the naive scan) matches the reference after every chunk.
    #[test]
    fn os_run_cycles_mixed_with_manual_steps_matches(
        rows in 1u32..=10,
        cols in 1u32..=10,
        k in 1u32..=5,
        n in 1usize..=8,
        extra in 0u64..=40,
        plan_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        let config = ArrayConfig::new(rows, cols)
            .with_collapse_depth(k)
            .with_dataflow(Dataflow::OutputStationary);
        let cycles = config.os_tile_cycles(n as u64) + extra;
        let plan = random_plan(plan_seed, cycles / 3 + 1);
        assert_os_mixed(config, n, seed, cycles, &plan);
    }

    /// The dataflow-independent oracle: the same GEMM simulated on a
    /// weight-stationary and an output-stationary array of the same
    /// geometry produces the identical, reference-exact product.
    #[test]
    fn both_dataflows_reproduce_the_same_gemm(
        t in 1usize..=9,
        n in 1usize..=9,
        m in 1usize..=9,
        rows in 1u32..=8,
        cols in 1u32..=8,
        k in 1u32..=4,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::random(t, n, &mut rng, -40, 40);
        let b = Matrix::random(n, m, &mut rng, -40, 40);
        let oracle = multiply(&a, &b).unwrap();
        let base = ArrayConfig::new(rows, cols).with_collapse_depth(k);
        for dataflow in Dataflow::ALL {
            let simulator = Simulator::new(base.with_dataflow(dataflow)).unwrap();
            let run = simulator.run_gemm(&a, &b).unwrap();
            prop_assert_eq!(&run.output, &oracle);
        }
    }
}
