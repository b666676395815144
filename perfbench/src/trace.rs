//! In-memory spans and the in-process replay that feeds them.
//!
//! The traced run replays a workload's generated requests through the
//! public functions each handler calls, in handler order, with a span
//! around each call. Every request gets one id and a `request` parent
//! span; a layer's figure is its spans' self time (duration minus the
//! part of it covered by child spans).

use crate::workload::{plan_with, Expected, Kind, Request, Workload};
use arrayflex::cnn::{DepthwiseMapping, Network};
use arrayflex::gemm::rng::SplitMix64;
use arrayflex::gemm::{multiply, GemmDims, Matrix};
use arrayflex::sa_sim::{ArrayPool, Dataflow, Simulator};
use arrayflex::{ArrayFlexModel, NetworkComparison, NetworkPlan, PlanCache, PlanKey, PlanKind};
use arrayflex_serve::conn::{Parsed, RecvBuffer, RequestParser};
use arrayflex_serve::http::ServerConfig;
use arrayflex_serve::{AppState, HttpRequest, SimulateResponse};
use serde::{Deserialize, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    /// Index of the parent span in the trace.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder; when off, `span` only runs its closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of request `request`.
    pub fn span<R>(
        &mut self,
        request: u32,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Counts the replay makes at the layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub ops: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub planner_calls: u64,
    pub encode_bytes: u64,
    /// Simulated cycles per dataflow `[ws, os]`.
    pub cycles: [u64; 2],
    pub tiles: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
}

type Fallible<T> = Result<T, String>;

fn decode<T: Deserialize>(value: &Value, field: &str) -> Fallible<T> {
    let present = value
        .get(field)
        .ok_or_else(|| format!("missing `{field}`"))?;
    T::from_value(present).map_err(|e| format!("`{field}`: {e}"))
}

fn network_of(value: &Value) -> Fallible<Network> {
    match value {
        Value::Str(name) => arrayflex_serve::api::resolve_named_network(name)
            .ok_or_else(|| format!("unknown network {name}")),
        other => Network::from_value(other).map_err(|e| e.to_string()),
    }
}

fn plan_kind(value: &Value) -> Fallible<PlanKind> {
    match value.get("design") {
        None => Ok(PlanKind::ArrayFlex),
        Some(Value::Str(s)) if s == "conventional" => Ok(PlanKind::Conventional),
        Some(other) => match other.get("fixed") {
            Some(k) => Ok(PlanKind::Fixed(
                u32::from_value(k).map_err(|e| e.to_string())?,
            )),
            None => Err(format!("unknown design {other:?}")),
        },
    }
}

/// Shared state of one replay pass: a plan cache sized like the server's
/// default and a simulator array pool.
pub struct Replay {
    cache: PlanCache,
    pool: ArrayPool,
    max_body: usize,
    pub counters: Counters,
    /// Kernel self time per dataflow `[ws, os]`, measured on traced passes.
    kernel_ns: [u64; 2],
}

impl Replay {
    pub fn new() -> Self {
        let config = ServerConfig::default();
        Replay {
            cache: PlanCache::new(config.cache_capacity),
            pool: ArrayPool::new(),
            max_body: config.max_body_bytes,
            counters: Counters::default(),
            kernel_ns: [0; 2],
        }
    }

    /// Planning through the cache: key, probe, plan on a miss, insert.
    fn cached_plan(
        &mut self,
        t: &mut Tracer,
        id: u32,
        model: &ArrayFlexModel,
        network: &Network,
        kind: PlanKind,
    ) -> Fallible<Arc<NetworkPlan>> {
        let mapping = DepthwiseMapping::default();
        let key = t.span(id, "plankey.canon", |_| {
            PlanKey::new(model, network, mapping, kind)
        });
        if let Some(plan) = t.span(id, "plancache.probe", |_| self.cache.get(&key)) {
            return Ok(plan);
        }
        let plan = Arc::new(t.span(id, "planner.plan", |_| plan_with(model, network, kind))?);
        self.counters.planner_calls += 1;
        t.span(id, "plancache.probe", |_| {
            self.cache.insert(&key, Arc::clone(&plan))
        });
        Ok(plan)
    }

    fn encode<T: serde::Serialize + ?Sized>(
        &mut self,
        t: &mut Tracer,
        id: u32,
        value: &T,
    ) -> Vec<u8> {
        let body = t.span(id, "json.encode", |_| {
            serde_json::to_string(value).expect("responses serialize")
        });
        self.counters.encode_bytes += body.len() as u64;
        body.into_bytes()
    }

    /// Replays one request in handler order and verifies its output.
    pub fn op(&mut self, t: &mut Tracer, id: u32, request: &Request) {
        self.counters.ops += 1;
        let outcome = t.span(id, "request", |t| self.op_inner(t, id, request));
        if let Err(why) = outcome {
            self.counters.failed += 1;
            self.counters.first_error.get_or_insert(why);
        }
    }

    fn op_inner(&mut self, t: &mut Tracer, id: u32, request: &Request) -> Fallible<()> {
        let max_body = self.max_body;
        let parsed = t.span(id, "conn.parse", |_| {
            let mut buffer = RecvBuffer::new();
            buffer.extend(&request.wire);
            match RequestParser::new(max_body).next_request(&mut buffer) {
                Parsed::Request(parsed) => Ok(parsed),
                other => Err(format!("generated request did not parse: {other:?}")),
            }
        })?;
        let value: Value = t.span(id, "json.decode", |_| {
            let text = std::str::from_utf8(&parsed.body).map_err(|e| e.to_string())?;
            serde_json::from_str(text).map_err(|e| e.to_string())
        })?;
        let body = match request.kind {
            Kind::Plan => self.plan(t, id, &value)?,
            Kind::Sweep | Kind::Job => self.sweep(t, id, &value)?,
            Kind::Simulate => {
                let response = self.simulate(t, id, &value)?;
                match &request.expected {
                    Expected::Simulate(expected) if *expected == response => return Ok(()),
                    _ => return Err(format!("replayed simulation differs: {response:?}")),
                }
            }
        };
        match &request.expected {
            Expected::Bytes(expected) if **expected == body => Ok(()),
            _ => Err(format!("replayed {} body differs", request.kind.path())),
        }
    }

    fn plan(&mut self, t: &mut Tracer, id: u32, value: &Value) -> Fallible<Vec<u8>> {
        let (network, model, kind) = t.span(id, "json.decode", |_| -> Fallible<_> {
            let network = network_of(value.get("network").ok_or("missing `network`")?)?;
            let rows: u32 = decode(value, "rows")?;
            let cols: u32 = decode(value, "cols")?;
            let kind = plan_kind(value)?;
            let model = ArrayFlexModel::new(rows, cols).map_err(|e| e.to_string())?;
            Ok((network, model, kind))
        })?;
        let plan = self.cached_plan(t, id, &model, &network, kind)?;
        Ok(self.encode(t, id, &*plan))
    }

    fn sweep(&mut self, t: &mut Tracer, id: u32, value: &Value) -> Fallible<Vec<u8>> {
        let (sizes, networks, dataflows) = t.span(id, "json.decode", |_| -> Fallible<_> {
            let sizes: Vec<u32> = decode(value, "array_sizes")?;
            let networks = match value.get("networks") {
                Some(Value::Array(items)) => {
                    items.iter().map(network_of).collect::<Fallible<Vec<_>>>()?
                }
                _ => return Err("`networks` must be an array".into()),
            };
            let dataflows: Vec<Dataflow> = decode(value, "dataflows")?;
            Ok((sizes, networks, dataflows))
        })?;
        let mut comparisons = Vec::new();
        for &size in &sizes {
            for network in &networks {
                for &dataflow in &dataflows {
                    let model = ArrayFlexModel::new(size, size)
                        .map_err(|e| e.to_string())?
                        .with_dataflow(dataflow);
                    let conventional =
                        self.cached_plan(t, id, &model, network, PlanKind::Conventional)?;
                    let proposed = self.cached_plan(t, id, &model, network, PlanKind::ArrayFlex)?;
                    comparisons.push(t.span(id, "comparison.build", |_| {
                        NetworkComparison::from_plans_for(
                            dataflow,
                            (*conventional).clone(),
                            (*proposed).clone(),
                        )
                    }));
                }
            }
        }
        Ok(self.encode(t, id, &comparisons))
    }

    fn simulate(&mut self, t: &mut Tracer, id: u32, value: &Value) -> Fallible<SimulateResponse> {
        let (rows, cols, k, dims, seed, dataflow) =
            t.span(id, "json.decode", |_| -> Fallible<_> {
                let rows: u32 = decode(value, "rows")?;
                let cols: u32 = decode(value, "cols")?;
                let k: u32 = decode(value, "k")?;
                let dims: (u64, u64, u64) = (
                    decode(value, "t")?,
                    decode(value, "n")?,
                    decode(value, "m")?,
                );
                let seed: u64 = decode(value, "seed")?;
                let dataflow: Dataflow = decode(value, "dataflow")?;
                Ok((rows, cols, k, dims, seed, dataflow))
            })?;
        let (tt, n, m) = dims;
        let model = ArrayFlexModel::new(rows, cols)
            .map_err(|e| e.to_string())?
            .with_dataflow(dataflow);
        let (a, b) = t.span(id, "gemm.operands", |_| {
            let mut rng = SplitMix64::new(seed);
            let a = Matrix::random(tt as usize, n as usize, &mut rng, -64, 63);
            let b = Matrix::random(n as usize, m as usize, &mut rng, -64, 63);
            (a, b)
        });
        let predicted = t
            .span(id, "model.predict", |_| {
                model.execute_arrayflex(GemmDims::new(m, n, tt), k)
            })
            .map_err(|e| e.to_string())?;
        let simulator = Simulator::new(model.array_config(k)).map_err(|e| e.to_string())?;
        let started = t.spans.len();
        let pool = &self.pool;
        let run = t
            .span(id, "sim.kernel", |_| {
                simulator.run_gemm_pooled(pool, &a, &b)
            })
            .map_err(|e| e.to_string())?;
        let lane = usize::from(dataflow == Dataflow::OutputStationary);
        if let Some(span) = t.spans.get(started) {
            self.kernel_ns[lane] += span.end_ns - span.start_ns;
        }
        let reference = t
            .span(id, "gemm.reference", |_| multiply(&a, &b))
            .map_err(|e| e.to_string())?;
        self.counters.cycles[lane] += run.stats.total_cycles();
        self.counters.tiles += run.stats.tiles;
        let response = SimulateResponse {
            rows,
            cols,
            k,
            dataflow,
            t: tt,
            n,
            m,
            seed,
            simulated_cycles: run.stats.total_cycles(),
            predicted_cycles: predicted.cycles,
            cycles_match: run.stats.total_cycles() == predicted.cycles,
            functionally_correct: run.output == reference,
            macs: run.stats.macs,
            tiles: run.stats.tiles,
        };
        self.encode(t, id, &response);
        Ok(response)
    }

    fn finish(&mut self) {
        self.counters.cache_hits = self.cache.hits();
        self.counters.cache_misses = self.cache.misses();
        self.counters.cache_evictions = self.cache.evictions();
    }
}

/// The HTTP request `api::handle` sees for an operation. Jobs replay as
/// the equivalent sweep: a job computes the same points, and the
/// in-process state has no job runner.
fn handler_request(request: &Request) -> HttpRequest {
    let path = match request.kind {
        Kind::Job => Kind::Sweep.path(),
        kind => kind.path(),
    };
    HttpRequest {
        method: "POST".to_owned(),
        path: path.to_owned(),
        body: request.body.as_bytes().to_vec(),
    }
}

/// Results of the three replay passes over the same operations.
pub struct ReplayReport {
    /// Per-operation `api::handle` time, microseconds.
    pub handle_us: Vec<f64>,
    pub handle_failed: u64,
    pub untraced_s: f64,
    pub traced_s: f64,
    pub counters: Counters,
    /// Self time per layer over the traced pass, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    pub kernel_ns: [u64; 2],
    pub spans: Vec<Span>,
}

/// Replays `workload`'s replay operations on fresh state each time: once
/// through `api::handle`, then twice each through the layer functions
/// untraced and traced, alternating. Spans come from the last pass.
pub fn replay(workload: &Workload) -> ReplayReport {
    let ops = workload.replay_ops();
    let state = AppState::new(&ServerConfig::default());
    let mut handle_us = Vec::with_capacity(ops.len());
    let mut handle_failed = 0;
    for &op in &ops {
        let request = &workload.pool[op as usize];
        let http = handler_request(request);
        let started = Instant::now();
        let response = arrayflex_serve::api::handle(&state, &http);
        handle_us.push(started.elapsed().as_secs_f64() * 1e6);
        let verified = crate::load::verify(
            request,
            &crate::client::Response {
                status: response.status,
                body: response.body,
            },
        );
        handle_failed += u64::from(verified.is_err());
    }
    drop(state);

    let run_pass = |on: bool| {
        let mut replay = Replay::new();
        let mut tracer = Tracer::new(on);
        let started = Instant::now();
        for (id, &op) in ops.iter().enumerate() {
            replay.op(&mut tracer, id as u32, &workload.pool[op as usize]);
        }
        let elapsed = started.elapsed().as_secs_f64();
        replay.finish();
        (replay, tracer, elapsed)
    };
    // Untraced and traced passes alternate, so drift on the host lands on
    // both sides of the overhead ratio.
    let (_, _, untraced_a) = run_pass(false);
    let (_, _, traced_a) = run_pass(true);
    let (_, _, untraced_b) = run_pass(false);
    let (traced, tracer, traced_b) = run_pass(true);
    let untraced_s = untraced_a + untraced_b;
    let traced_s = traced_a + traced_b;
    let mut self_ns = BTreeMap::new();
    for (span, own) in tracer.spans.iter().zip(self_times(&tracer.spans)) {
        *self_ns.entry(span.name).or_insert(0) += own;
    }
    ReplayReport {
        handle_us,
        handle_failed,
        untraced_s,
        traced_s,
        counters: traced.counters,
        self_ns,
        kernel_ns: traced.kernel_ns,
        spans: tracer.spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 25, 50),  // overlaps a: covered once
            span("c", Some(2), 30, 40),  // grandchild: only b loses it
            span("d", Some(0), 90, 120), // clipped to the parent
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 25 - 10, 10, 30]);
    }

    #[test]
    fn recorded_spans_nest_and_sum_to_the_parent() {
        let mut t = Tracer::new(true);
        t.span(7, "request", |t| {
            t.span(7, "x", |t| t.span(7, "y", |_| std::hint::black_box(1 + 1)));
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
        assert!(t.spans.iter().all(|s| s.request == 7));
        let own: u64 = self_times(&t.spans).iter().sum();
        assert_eq!(own, t.spans[0].end_ns - t.spans[0].start_ns);
        let mut off = Tracer::new(false);
        assert_eq!(off.span(1, "request", |_| 5), 5);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn the_replay_verifies_every_simulate_operation() {
        let workload = crate::workload::build("simulate_mix", 11, 1).unwrap();
        let mut replay = Replay::new();
        let mut tracer = Tracer::new(true);
        for (id, &op) in workload.lanes[0][..4].iter().enumerate() {
            replay.op(&mut tracer, id as u32, &workload.pool[op as usize]);
        }
        assert_eq!((replay.counters.ops, replay.counters.failed), (4, 0));
        assert!(replay.counters.cycles.iter().sum::<u64>() > 0);
    }
}
