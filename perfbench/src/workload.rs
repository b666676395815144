//! Seeded request generation and the expected response of every request.
//!
//! A workload is a pool of distinct requests plus one operation stream per
//! lane (a lane is one client connection). The stream holds pool indexes;
//! the bytes a lane sends are a pure function of the workload and the seed.
//! Expected responses are computed here, during set-up, from direct library
//! calls, never from the server.

use arrayflex::cnn::{models, DepthwiseMapping, Network};
use arrayflex::gemm::rng::SplitMix64;
use arrayflex::gemm::Matrix;
use arrayflex::sa_sim::{ArrayPool, Dataflow};
use arrayflex::{ArrayFlexModel, NetworkComparison, NetworkPlan, PlanKind};
use arrayflex_serve::loadgen::ZipfSampler;
use arrayflex_serve::SimulateResponse;
use std::sync::Arc;

/// Benchmark workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["plan_zipf", "simulate_mix", "sweep_jobs"];

/// The named networks the service resolves.
pub const NETWORKS: [&str; 6] = [
    "resnet18",
    "resnet34",
    "resnet50",
    "mobilenet_v1",
    "convnext_tiny",
    "vgg16",
];

/// Open-loop arrival rate of each workload, in operations per second:
/// about a quarter (`plan_zipf`, `sweep_jobs`) or a third
/// (`simulate_mix`) of the closed-loop `throughput_rps` measured at the
/// commit that introduced the benchmark, on a 2-core x86-64 host. At half
/// the capacity, which the benchmark first used, queueing multiplied
/// every swing in the host's speed, and the latencies of two sets of runs
/// of the same code spread past their bounds.
pub fn open_loop_rate(workload: &str) -> f64 {
    match workload {
        "plan_zipf" => 1000.0,
        "simulate_mix" => 32.0,
        _ => 60.0,
    }
}

/// How many closed-loop and open-loop segments of each kind a run times,
/// and how many rounds it makes to choose them from (see `main`).
pub struct Segments {
    pub timed: usize,
    pub run: usize,
}

/// `plan_zipf`'s operations take about 0.4 ms, shorter than one stolen
/// slice, so its rounds are short and it makes half again as many as it
/// times. `sweep_jobs` (2–25 ms) and `simulate_mix` (5–125 ms) feel steal
/// less. Runs are kept short (20–30 s at `--seconds 15`): the host's speed
/// drifts over minutes, so ten runs that take less time spread less.
pub fn segments(workload: &str) -> Segments {
    let (timed, run) = match workload {
        "plan_zipf" => (32, 48),
        "sweep_jobs" => (20, 26),
        _ => (8, 9),
    };
    Segments { timed, run }
}

/// What one operation sends and how it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/plan`, one request.
    Plan,
    /// `POST /v1/simulate`, one request.
    Simulate,
    /// `POST /v1/sweep`, one request.
    Sweep,
    /// `POST /v1/jobs`, then status polls, then `GET .../result`.
    Job,
}

impl Kind {
    pub fn path(self) -> &'static str {
        match self {
            Kind::Plan => "/v1/plan",
            Kind::Simulate => "/v1/simulate",
            Kind::Sweep => "/v1/sweep",
            Kind::Job => "/v1/jobs",
        }
    }
}

/// The verified outcome of one request.
#[derive(Debug, Clone)]
pub enum Expected {
    /// The 200 body, byte for byte (plans, sweeps, job results).
    Bytes(Arc<Vec<u8>>),
    /// The fields of a direct `simulate_gemm_pooled` call.
    Simulate(SimulateResponse),
}

/// One distinct request of a workload's pool.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub body: String,
    pub expected: Expected,
    /// The complete HTTP/1.1 request as written on the wire.
    pub wire: Vec<u8>,
}

/// A generated workload: its pool and one operation stream per lane.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub pool: Vec<Request>,
    /// `lanes[c]` is the pool-index sequence lane `c` sends, repeated from
    /// the start when a run outlasts it.
    pub lanes: Vec<Vec<u32>>,
    /// `/v1/jobs` operations per lane, which only the traced run sends
    /// (empty for workloads without jobs).
    pub job_lanes: Vec<Vec<u32>>,
    /// How many leading operations of each lane the traced replay runs.
    pub replay_per_lane: usize,
}

impl Workload {
    /// The bytes lane `lane` sends for its first `n` operations.
    #[cfg(test)]
    pub fn stream_bytes(&self, lane: usize, n: usize) -> Vec<u8> {
        let ops = &self.lanes[lane];
        let mut out = Vec::new();
        for i in 0..n {
            out.extend_from_slice(&self.pool[ops[i % ops.len()] as usize].wire);
        }
        out
    }

    /// The operations the traced replay runs, interleaved across lanes the
    /// way the closed loop issues them.
    pub fn replay_ops(&self) -> Vec<u32> {
        let mut ops = Vec::new();
        for i in 0..self.replay_per_lane {
            for lane in &self.lanes {
                ops.push(lane[i % lane.len()]);
            }
        }
        ops
    }
}

/// The HTTP/1.1 bytes of a `POST` carrying a JSON body.
pub fn post_wire(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The HTTP/1.1 bytes of a `GET`.
pub fn get_wire(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: 127.0.0.1\r\n\r\n").into_bytes()
}

/// Builds `name` from `seed` with `lanes` lanes.
///
/// # Errors
///
/// Unknown workload names and failed direct library calls.
pub fn build(name: &str, seed: u64, lanes: usize) -> Result<Workload, String> {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_ba5e_0000_0000);
    match name {
        "plan_zipf" => plan_zipf(&mut rng, lanes),
        "simulate_mix" => simulate_mix(&mut rng, lanes),
        "sweep_jobs" => sweep_jobs(&mut rng, lanes),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
}

fn request(kind: Kind, body: String, expected: Expected) -> Request {
    let wire = post_wire(kind.path(), &body);
    Request {
        kind,
        body,
        expected,
        wire,
    }
}

fn json<T: serde::Serialize + ?Sized>(value: &T) -> Arc<Vec<u8>> {
    Arc::new(
        serde_json::to_string(value)
            .expect("library values serialize")
            .into_bytes(),
    )
}

fn named(name: &str) -> Network {
    arrayflex_serve::api::resolve_named_network(name).expect("a built-in network name")
}

// ---------------------------------------------------------------------------
// plan_zipf
// ---------------------------------------------------------------------------

/// Plan designs in a key: the `design` field of the body (empty for the
/// default, ArrayFlex) and the policy it selects.
const DESIGNS: [(&str, PlanKind); 5] = [
    ("", PlanKind::ArrayFlex),
    (",\"design\":\"conventional\"", PlanKind::Conventional),
    (",\"design\":{\"fixed\":2}", PlanKind::Fixed(2)),
    (",\"design\":{\"fixed\":3}", PlanKind::Fixed(3)),
    (",\"design\":{\"fixed\":4}", PlanKind::Fixed(4)),
];

const GEOMETRIES: [(u32, u32); 16] = [
    (16, 16),
    (24, 24),
    (32, 32),
    (48, 48),
    (64, 64),
    (96, 96),
    (128, 128),
    (256, 256),
    (16, 64),
    (64, 16),
    (32, 128),
    (128, 32),
    (64, 256),
    (256, 64),
    (48, 96),
    (96, 48),
];

/// Distinct inline `synthetic_cnn` keys (24 networks x 5 designs), making
/// the key set 480 + 120.
const SYNTHETIC_KEYS: usize = 120;

/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.0;

/// The plan a direct library call produces for `kind`.
///
/// # Errors
///
/// Planning errors, as text.
pub fn plan_with(
    model: &ArrayFlexModel,
    network: &Network,
    kind: PlanKind,
) -> Result<NetworkPlan, String> {
    let mapping = DepthwiseMapping::default();
    match kind {
        PlanKind::Conventional => model.plan_conventional(network, mapping),
        PlanKind::ArrayFlex => model.plan_arrayflex(network, mapping),
        PlanKind::Fixed(k) => model.plan_arrayflex_fixed(network, mapping, k),
    }
    .map_err(|e| e.to_string())
}

fn plan_key(
    network_json: &str,
    network: &Network,
    geometry: (u32, u32),
    (design_field, kind): (&str, PlanKind),
) -> Result<Request, String> {
    let (rows, cols) = geometry;
    let body =
        format!("{{\"network\":{network_json},\"rows\":{rows},\"cols\":{cols}{design_field}}}");
    let model = ArrayFlexModel::new(rows, cols).map_err(|e| e.to_string())?;
    let plan = plan_with(&model, network, kind)?;
    Ok(request(Kind::Plan, body, Expected::Bytes(json(&plan))))
}

fn plan_zipf(rng: &mut SplitMix64, lanes: usize) -> Result<Workload, String> {
    // Keys grouped by network class (six named networks, then the inline
    // synthetic ones), each class shuffled by the seed.
    let mut classes: Vec<Vec<Request>> = Vec::new();
    for name in NETWORKS {
        let network = named(name);
        let mut class = Vec::new();
        for geometry in GEOMETRIES {
            for design in DESIGNS {
                class.push(plan_key(
                    &format!("\"{name}\""),
                    &network,
                    geometry,
                    design,
                )?);
            }
        }
        classes.push(class);
    }
    let mut synthetic = Vec::new();
    for i in 0..SYNTHETIC_KEYS {
        // One depth for all of them, so every synthetic key costs about
        // the same and the seed cannot make the class cheap or dear.
        let network = i / DESIGNS.len();
        let base = [8, 16, 32, 64][network % 4];
        let input = [16, 32, 56, 64, 112, 128][network / 4];
        let network = models::synthetic_cnn(3, base, input);
        let geometry = GEOMETRIES[i % GEOMETRIES.len()];
        let design = DESIGNS[i % DESIGNS.len()];
        let network_json = serde_json::to_string(&network).expect("networks serialize");
        synthetic.push(plan_key(&network_json, &network, geometry, design)?);
    }
    classes.push(synthetic);
    for class in &mut classes {
        shuffle(rng, class);
    }
    // Popularity ranks interleave the classes in proportion to their sizes
    // (largest remainder), so every seed gives each network class the same
    // share of traffic and only the keys within a class change rank.
    let total: usize = classes.iter().map(Vec::len).sum();
    let mut taken = vec![0usize; classes.len()];
    let mut pool = Vec::with_capacity(total);
    let mut drained: Vec<std::vec::IntoIter<Request>> =
        classes.into_iter().map(Vec::into_iter).collect();
    let sizes: Vec<usize> = drained.iter().map(|c| c.len()).collect();
    for rank in 0..total {
        let class = (0..sizes.len())
            .filter(|&c| taken[c] < sizes[c])
            .max_by(|&a, &b| {
                let deficit =
                    |c: usize| (rank + 1) as f64 * sizes[c] as f64 / total as f64 - taken[c] as f64;
                deficit(a).total_cmp(&deficit(b)).then(b.cmp(&a))
            })
            .expect("a class with keys left");
        taken[class] += 1;
        pool.push(drained[class].next().expect("class has keys left"));
    }
    let zipf = ZipfSampler::new(pool.len(), ZIPF_S);
    let lane_ops = (0..lanes)
        .map(|_| (0..1 << 18).map(|_| zipf.sample(rng) as u32).collect())
        .collect();
    Ok(Workload {
        name: "plan_zipf",
        pool,
        lanes: lane_ops,
        job_lanes: Vec::new(),
        replay_per_lane: 2000,
    })
}

// ---------------------------------------------------------------------------
// simulate_mix
// ---------------------------------------------------------------------------

/// One simulate shape: dataflow, array edge, collapsing depth and the
/// GEMM `T x N x M`.
#[derive(Debug, Clone, Copy)]
pub struct SimShape {
    pub dataflow: Dataflow,
    pub edge: u32,
    pub k: u32,
    pub t: u64,
    pub n: u64,
    pub m: u64,
}

/// The fixed design every lane cycles through: dataflow x edge x k x
/// {tile-aligned, ragged}. The shapes do not depend on the seed, so the
/// traced replay simulates exactly the same cycles on every run.
pub fn sim_design() -> Vec<SimShape> {
    let mut design = Vec::new();
    for dataflow in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
        for edge in [16u64, 32, 64] {
            for k in [1u32, 2, 4] {
                // Aligned: every dimension a whole number of tiles.
                // Ragged: partial edge tiles in both tiled dimensions.
                let (aligned, ragged) = match edge {
                    16 => ((128, 128, 64), (100, 123, 71)),
                    32 => ((128, 128, 128), (120, 149, 101)),
                    _ => ((64, 256, 128), (72, 197, 139)),
                };
                for (t, n, m) in [aligned, ragged] {
                    assert!(t * n * m <= arrayflex_serve::api::MAX_SIM_MACS);
                    design.push(SimShape {
                        dataflow,
                        edge: edge as u32,
                        k,
                        t,
                        n,
                        m,
                    });
                }
            }
        }
    }
    design
}

fn dataflow_name(dataflow: Dataflow) -> &'static str {
    match dataflow {
        Dataflow::WeightStationary => "weight_stationary",
        Dataflow::OutputStationary => "output_stationary",
    }
}

/// The direct-call result a `/v1/simulate` request must match.
pub fn simulate_direct(
    shape: SimShape,
    seed: u64,
    pool: &ArrayPool,
) -> Result<SimulateResponse, String> {
    let model = ArrayFlexModel::new(shape.edge, shape.edge)
        .map_err(|e| e.to_string())?
        .with_dataflow(shape.dataflow);
    let mut rng = SplitMix64::new(seed);
    let a = Matrix::random(shape.t as usize, shape.n as usize, &mut rng, -64, 63);
    let b = Matrix::random(shape.n as usize, shape.m as usize, &mut rng, -64, 63);
    let result = model
        .simulate_gemm_pooled(pool, &a, &b, shape.k, 1)
        .map_err(|e| e.to_string())?;
    Ok(SimulateResponse {
        rows: shape.edge,
        cols: shape.edge,
        k: shape.k,
        dataflow: shape.dataflow,
        t: shape.t,
        n: shape.n,
        m: shape.m,
        seed,
        simulated_cycles: result.stats.total_cycles(),
        predicted_cycles: result.predicted.cycles,
        cycles_match: result.cycles_match(),
        functionally_correct: result.functionally_correct,
        macs: result.stats.macs,
        tiles: result.stats.tiles,
    })
}

/// Operand variants per lane: a lane alternates between its own variants
/// block by block, so no two lanes ever send the same body (which the
/// server would coalesce) and a lane repeats a body only a whole design
/// block later.
const SIM_VARIANTS_PER_LANE: usize = 2;

fn simulate_mix(rng: &mut SplitMix64, lanes: usize) -> Result<Workload, String> {
    let design = sim_design();
    let mut specs = Vec::new();
    for lane in 0..lanes {
        for variant in 0..SIM_VARIANTS_PER_LANE {
            for &shape in &design {
                let seed = rng.next_u64() >> 16;
                specs.push((lane, variant, shape, seed));
            }
        }
    }
    // The direct calls dominate set-up; split them over the lanes' threads.
    let chunk = specs.len().div_ceil(lanes);
    let expected: Vec<Result<SimulateResponse, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let pool = ArrayPool::new();
                    part.iter()
                        .map(|&(_, _, shape, seed)| simulate_direct(shape, seed, &pool))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    let mut pool = Vec::with_capacity(specs.len());
    for (&(_, _, shape, seed), expected) in specs.iter().zip(expected) {
        let body = format!(
            "{{\"rows\":{e},\"cols\":{e},\"k\":{k},\"t\":{t},\"n\":{n},\"m\":{m},\"seed\":{seed},\"dataflow\":\"{df}\"}}",
            e = shape.edge,
            k = shape.k,
            t = shape.t,
            n = shape.n,
            m = shape.m,
            df = dataflow_name(shape.dataflow),
        );
        pool.push(request(Kind::Simulate, body, Expected::Simulate(expected?)));
    }
    let per_variant = design.len();
    let lane_ops = (0..lanes)
        .map(|lane| {
            let mut ops = Vec::new();
            for block in 0..64 {
                let variant = block % SIM_VARIANTS_PER_LANE;
                let base = (lane * SIM_VARIANTS_PER_LANE + variant) * per_variant;
                let mut order: Vec<u32> =
                    (0..per_variant as u32).map(|i| base as u32 + i).collect();
                shuffle(rng, &mut order);
                ops.extend(order);
            }
            ops
        })
        .collect();
    Ok(Workload {
        name: "simulate_mix",
        pool,
        lanes: lane_ops,
        job_lanes: Vec::new(),
        // One whole design block per lane: the same shapes every seed.
        replay_per_lane: per_variant,
    })
}

// ---------------------------------------------------------------------------
// sweep_jobs
// ---------------------------------------------------------------------------

/// Each lane's bodies cover every (sizes, networks, dataflows) count
/// combination this many times.
const SWEEP_REPEATS: usize = 2;

/// The `/v1/sweep` body for one request, computed from direct plan calls:
/// the same bytes as serializing the `Vec<NetworkComparison>` of the
/// equivalent `EvaluationSweep`.
fn sweep_direct(
    sizes: &[u32],
    networks: &[&str],
    dataflows: &[Dataflow],
) -> Result<Vec<u8>, String> {
    let mapping = DepthwiseMapping::default();
    let mut comparisons = Vec::new();
    for &size in sizes {
        for name in networks {
            let network = named(name);
            for &dataflow in dataflows {
                let model = ArrayFlexModel::new(size, size)
                    .map_err(|e| e.to_string())?
                    .with_dataflow(dataflow);
                let conventional = model
                    .plan_conventional(&network, mapping)
                    .map_err(|e| e.to_string())?;
                let proposed = model
                    .plan_arrayflex(&network, mapping)
                    .map_err(|e| e.to_string())?;
                comparisons.push(NetworkComparison::from_plans_for(
                    dataflow,
                    conventional,
                    proposed,
                ));
            }
        }
    }
    Ok(serde_json::to_string(&comparisons)
        .expect("comparisons serialize")
        .into_bytes())
}

fn sweep_jobs(rng: &mut SplitMix64, lanes: usize) -> Result<Workload, String> {
    // Every lane gets each combination of 2-4 sizes x 2-3 networks x
    // {WS, OS, both} the same number of times, so the seed changes which
    // sizes and networks a body names but not how much work the mix is.
    let mut specs = Vec::new();
    let mut network_cycle: Vec<&str> = Vec::new();
    for _ in 0..lanes * SWEEP_REPEATS {
        for size_count in 2..=4 {
            for network_count in 2..=3 {
                for dataflow_choice in 0..3 {
                    let mut sizes: Vec<u32> = Vec::new();
                    while sizes.len() < size_count {
                        // 8..=1024 in steps of 8: 128 sizes, far more plan
                        // keys than the 128-entry plan cache holds.
                        let size = 8 * (1 + below(rng, 128) as u32);
                        if !sizes.contains(&size) {
                            sizes.push(size);
                        }
                    }
                    // Networks come round-robin from shuffled rounds of all
                    // six, so each is named equally often.
                    let mut names: Vec<&str> = Vec::new();
                    while names.len() < network_count {
                        if network_cycle.is_empty() {
                            network_cycle = NETWORKS.to_vec();
                            shuffle(rng, &mut network_cycle);
                        }
                        let name = network_cycle.pop().expect("refilled above");
                        if names.contains(&name) {
                            network_cycle.insert(0, name);
                        } else {
                            names.push(name);
                        }
                    }
                    let dataflows = match dataflow_choice {
                        0 => vec![Dataflow::WeightStationary],
                        1 => vec![Dataflow::OutputStationary],
                        _ => vec![Dataflow::WeightStationary, Dataflow::OutputStationary],
                    };
                    specs.push((sizes, names, dataflows));
                }
            }
        }
    }
    let chunk = specs.len().div_ceil(lanes);
    let bodies: Vec<Result<Vec<u8>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(sizes, names, dataflows)| sweep_direct(sizes, names, dataflows))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    let mut pool = Vec::new();
    for ((sizes, names, dataflows), expected) in specs.iter().zip(bodies) {
        let expected = Arc::new(expected?);
        let sizes: Vec<String> = sizes.iter().map(u32::to_string).collect();
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        let dataflows: Vec<String> = dataflows
            .iter()
            .map(|d| format!("\"{}\"", dataflow_name(*d)))
            .collect();
        let body = format!(
            "{{\"array_sizes\":[{}],\"networks\":[{}],\"dataflows\":[{}]}}",
            sizes.join(","),
            names.join(","),
            dataflows.join(",")
        );
        // The same body as a sweep and as a job: a job's result must equal
        // the sweep response for the same request.
        pool.push(request(
            Kind::Sweep,
            body.clone(),
            Expected::Bytes(Arc::clone(&expected)),
        ));
        pool.push(request(Kind::Job, body, Expected::Bytes(expected)));
    }
    // Each lane cycles shuffled rounds of its own bodies (lanes never send
    // the same body at once, which the server would coalesce), once as
    // sweeps and once, in another order, as jobs.
    let per_lane = specs.len() / lanes;
    let mut rounds = |job: usize| -> Vec<Vec<u32>> {
        (0..lanes)
            .map(|lane| {
                let mut ops = Vec::new();
                for _ in 0..64 {
                    let mut round: Vec<u32> = (lane * per_lane..(lane + 1) * per_lane)
                        .map(|body| (2 * body + job) as u32)
                        .collect();
                    shuffle(rng, &mut round);
                    ops.extend(round);
                }
                ops
            })
            .collect()
    };
    let lane_ops = rounds(0);
    let job_lanes = rounds(1);
    Ok(Workload {
        name: "sweep_jobs",
        pool,
        lanes: lane_ops,
        job_lanes,
        replay_per_lane: 24,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_streams_and_another_seed_does_not() {
        for name in WORKLOADS {
            let a = build(name, 7, 2).unwrap();
            let b = build(name, 7, 2).unwrap();
            let c = build(name, 8, 2).unwrap();
            for lane in 0..2 {
                let n = 200;
                assert_eq!(a.stream_bytes(lane, n), b.stream_bytes(lane, n), "{name}");
                assert_ne!(a.stream_bytes(lane, n), c.stream_bytes(lane, n), "{name}");
            }
        }
    }

    #[test]
    fn plan_keys_outnumber_both_server_caches() {
        let w = build("plan_zipf", 1, 2).unwrap();
        assert_eq!(w.pool.len(), 600);
        let distinct: std::collections::HashSet<&str> =
            w.pool.iter().map(|r| r.body.as_str()).collect();
        assert_eq!(distinct.len(), 600);
    }

    #[test]
    fn lanes_never_share_a_simulate_body() {
        let w = build("simulate_mix", 3, 2).unwrap();
        let lane0: std::collections::HashSet<u32> = w.lanes[0].iter().copied().collect();
        assert!(w.lanes[1].iter().all(|op| !lane0.contains(op)));
    }
}
