//! `serve-sharded`: a normal-mode Coulomb operator saved as a codec file,
//! loaded back by `mmap`, sharded over two in-process ranks and served by
//! a `MatvecService` to two tenants under weighted deficit round robin.
//! Requests arrive open-loop on a seeded Poisson schedule; the task is a
//! request's latency, timed from when it was due.

use super::{Pass, Plan, Scale, Workload};
use crate::exact::{ExactKernel, RowCheck};
use crate::layers::{self, span_count};
use crate::rng::{SplitMix64, DIM};
use crate::schedule::{self, Arrival};
use crate::stats;
use crate::timed::Timed;
use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_dist::ShardedH2;
use h2_kernels::Coulomb;
use h2_points::PointSet;
use h2_serve::{MatvecService, OperatorRegistry, QueueMode, TenantTable, Ticket};
use h2_telemetry::TelemetrySnapshot;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Construction tolerance.
pub const BUILD_TOL: f64 = 1e-6;
/// In-process shard ranks.
pub const SHARDS: usize = 2;
/// Largest fused batch the service forms.
pub const MAX_BATCH: usize = 8;
/// Tenants, in schedule order; the first offers three times the second's
/// rate. Both have weight 1 under WDRR.
pub const TENANTS: [&str; 2] = ["heavy", "light"];
/// Sampled product rows may differ from exact sums by this multiple of
/// the construction tolerance.
pub const CHECK_MULT: f64 = 10.0;
/// One request in this many (drawn from the seed) is checked against
/// exact sums.
pub const CHECK_EVERY: u64 = 8;

struct Size {
    n: usize,
    /// Offered requests per second, per tenant.
    rates: [f64; 2],
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Bench => Size {
            n: 4000,
            rates: [18.0, 6.0],
        },
        Scale::Smoke => Size {
            n: 1500,
            rates: [30.0, 10.0],
        },
    }
}

type Service = MatvecService<Timed<ShardedH2>>;

pub struct Serve {
    pts: Vec<f64>,
    cfg: H2Config,
    rates: [f64; 2],
    seed: u64,
    passes: u64,
    loaded: Arc<H2Matrix>,
    svc: Service,
    check: RowCheck,
    rng: SplitMix64,
    // Setup readings, ms and MiB, one per setup.
    save_ms: Vec<f64>,
    load_ms: Vec<f64>,
    resident_mb: Vec<f64>,
    // Traced-pass readings.
    lag_ms: Vec<f64>,
    tenant_ms: [Vec<f64>; 2],
}

/// A request in flight.
struct InFlight {
    due_s: f64,
    tenant: usize,
    ticket: Ticket<f64>,
    /// Kept for the exact-sum check, on the sampled requests only.
    rhs: Option<Vec<f64>>,
}

impl Workload for Serve {
    const NAME: &'static str = "serve-sharded";

    fn setup(plan: &Plan) -> (Self, Vec<f64>) {
        let sz = size(plan.scale);
        let pts = SplitMix64::stream(plan.seed, 6).unit_cube(sz.n);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(BUILD_TOL, DIM),
            mode: MemoryMode::Normal,
            ..H2Config::default()
        };
        let tenants = TenantTable::parse("[heavy]\nweight = 1.0\n\n[light]\nweight = 1.0\n")
            .expect("static tenant table");
        std::fs::create_dir_all(&plan.work_dir).expect("create the benchmark's work directory");
        let (mut save_ms, mut load_ms, mut resident_mb) = (vec![], vec![], vec![]);
        let mut rep = 0;
        let (Ready(loaded, svc), setup_s) = super::repeat_setup(plan, || {
            rep += 1;
            let file = plan
                .work_dir
                .join(format!("serve-{}-{rep}.h2bin", std::process::id()));
            let op = {
                let ps = PointSet::new(DIM, pts.clone());
                let _s = crate::trace::span("core.build");
                H2Matrix::build(&ps, Arc::new(Coulomb), &cfg)
            };
            let t = Instant::now();
            {
                let _s = crate::trace::span("codec.save");
                h2_serve::save(&op, &file).expect("save the operator file");
            }
            save_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(op);
            let t = Instant::now();
            let loaded = {
                let _s = crate::trace::span("codec.load_mmap");
                OperatorRegistry::<f64>::new()
                    .load_file_mmap("serve", &file, Arc::new(Coulomb))
                    .expect("map the operator file back")
            };
            load_ms.push(t.elapsed().as_secs_f64() * 1e3);
            // The mapping keeps its pages once the file is unlinked, and
            // no file outlives the run.
            std::fs::remove_file(&file).expect("remove the mapped operator file");
            resident_mb.push(loaded.memory_report().total() as f64 / (1024.0 * 1024.0));
            let sharded = {
                let _s = crate::trace::span("dist.plan");
                ShardedH2::new(loaded.clone(), SHARDS).expect("shard the operator")
            };
            let svc = MatvecService::with_tenants(
                Arc::new(Timed::new(sharded, "dist.matvec", "dist.matmat")),
                MAX_BATCH,
                tenants.clone(),
                QueueMode::Wdrr,
            );
            Ready(loaded, svc)
        });
        let w = Serve {
            pts,
            cfg,
            rates: sz.rates,
            seed: plan.seed,
            passes: 0,
            loaded,
            svc,
            check: RowCheck::new(ExactKernel::Coulomb, CHECK_MULT * BUILD_TOL, 4, plan.seed),
            rng: SplitMix64::stream(plan.seed, 7),
            save_ms,
            load_ms,
            resident_mb,
            lag_ms: Vec::new(),
            tenant_ms: [Vec::new(), Vec::new()],
        };
        (w, setup_s)
    }

    fn describe(&self) -> String {
        format!(
            "inputs: n={} uniform unit cube, Coulomb, anchor-net build tol={BUILD_TOL:e}, \
             normal mode, codec v4 file mapped back by mmap, {SHARDS} in-process shards, \
             WDRR tenants heavy/light (weights 1/1) offering {}/{} requests/s open-loop \
             (Poisson), max batch {MAX_BATCH}",
            self.pts.len() / DIM,
            self.rates[0],
            self.rates[1]
        )
    }

    fn build_inputs(&self) -> (PointSet, H2Config) {
        (PointSet::new(DIM, self.pts.clone()), self.cfg.clone())
    }

    fn measure(&mut self, seconds: f64, min_tasks: usize, pass: &mut Pass) {
        let n = self.pts.len() / DIM;
        let traced = crate::trace::enabled();
        let total_rate: f64 = self.rates.iter().sum();
        let horizon = seconds.max(1.5 * min_tasks as f64 / total_rate);
        self.passes += 1;
        let arrivals = schedule::poisson(self.seed ^ (self.passes << 32), &self.rates, horizon);
        let mut check_pick = SplitMix64::stream(self.seed ^ (self.passes << 32), 8);
        self.svc.reset_metrics();
        self.svc.operator().take_log();
        let mut submitted = [0u64; 2];
        let mut sampled: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
        let mut inflight: Vec<InFlight> = Vec::new();
        let mut next = 0;
        let start = Instant::now();
        while next < arrivals.len() || !inflight.is_empty() {
            // Submit every request that is due.
            while next < arrivals.len() && arrivals[next].due_s <= start.elapsed().as_secs_f64() {
                let Arrival { due_s, tenant } = arrivals[next];
                next += 1;
                let rhs = self.rng.charges(n);
                let keep = check_pick.below(CHECK_EVERY as usize) == 0;
                pass.attempted += 1;
                submitted[tenant] += 1;
                if traced {
                    self.lag_ms
                        .push((start.elapsed().as_secs_f64() - due_s) * 1e3);
                }
                let copy = keep.then(|| rhs.clone());
                let _s = crate::trace::span("serve.submit");
                match self.svc.submit_for(TENANTS[tenant], rhs) {
                    Ok(ticket) => inflight.push(InFlight {
                        due_s,
                        tenant,
                        ticket,
                        rhs: copy,
                    }),
                    Err(e) => pass.fail(format!("submit for {}: {e}", TENANTS[tenant])),
                }
            }
            if self.svc.pending() > 0 {
                // The service drains whole queues; at the offered load the
                // queue rarely holds more than one batch.
                let _s = crate::trace::span("serve.drain");
                self.svc.drain();
                let done_s = start.elapsed().as_secs_f64();
                for req in inflight.drain(..) {
                    match req.ticket.try_take() {
                        Some(Ok(y)) => {
                            let ms = (done_s - req.due_s) * 1e3;
                            pass.task(ms);
                            if traced {
                                self.tenant_ms[req.tenant].push(ms);
                            }
                            if y.len() != n || y.iter().any(|v| !v.is_finite()) {
                                pass.fault(format!(
                                    "served result of length {} with a non-finite entry or \
                                     wrong length",
                                    y.len()
                                ));
                            } else if let Some(rhs) = req.rhs {
                                sampled.push((rhs, y));
                            }
                        }
                        Some(Err(e)) => pass.fail(format!("served request failed: {e}")),
                        None => pass.fault("a drained request has no result".into()),
                    }
                }
            } else if next < arrivals.len() {
                let wait = arrivals[next].due_s - start.elapsed().as_secs_f64();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
            }
        }
        let _s = crate::trace::span("check.serve");
        for (rhs, y) in &sampled {
            if let Err(e) = self.check.product("served request", &self.pts, rhs, y) {
                pass.fault(e);
            }
        }
        for (t, name) in TENANTS.iter().enumerate() {
            let served = self.svc.tenant_served(name);
            if served != submitted[t] {
                pass.fault(format!(
                    "tenant {name}: {served} served, {} submitted",
                    submitted[t]
                ));
            }
        }
        pass.absorb_calls(self.svc.operator().take_log());
    }

    fn layers(&mut self, snap: &TelemetrySnapshot, pass: &mut Pass) {
        let l = &mut pass.layers;
        let m = self.svc.metrics();
        l.insert("serve.queue_wait_p50_ms", m.p50_queue_us as f64 / 1e3);
        if m.sweeps > 0 {
            l.insert("serve.sweep_ms", m.busy_ms / m.sweeps as f64);
            l.insert("serve.batch_cols", m.mean_batch);
            l.insert(
                "dist.sweeps_per_batch",
                span_count(snap, "dist.matvec") as f64 / m.sweeps as f64,
            );
        }
        for (key, v) in [
            ("serve.generator_lag_ms", stats::mean(&self.lag_ms)),
            ("tenant.heavy_p50_ms", stats::median(&self.tenant_ms[0])),
            ("tenant.light_p50_ms", stats::median(&self.tenant_ms[1])),
            ("codec.save_ms", stats::mean(&self.save_ms)),
            ("codec.load_mmap_ms", stats::mean(&self.load_ms)),
            ("codec.resident_mb_at_load", stats::mean(&self.resident_mb)),
        ] {
            if let Some(v) = v {
                l.insert(key, v);
            }
        }
        self.dist_probe(l);
        layers::stored_block_layers(&self.loaded, l);
    }

    fn report(&self) -> String {
        format!(
            "checks: worst sampled-row error {:.2e} over {} sampled requests; served counts \
             per tenant match submitted counts",
            self.check.worst, self.check.checked
        )
    }
}

/// The parts one setup produces.
struct Ready(Arc<H2Matrix>, Service);

impl Serve {
    /// Five sharded products through `ShardedH2::matvec_with_stats`:
    /// traffic per product and the median per-rank critical path.
    fn dist_probe(&mut self, l: &mut layers::Layers) {
        let sharded = self.svc.operator().inner();
        let n = self.pts.len() / DIM;
        let (mut shard_max, mut collect, mut imbalance) = (vec![], vec![], vec![]);
        let _s = crate::trace::span("dist.probe");
        for _ in 0..5 {
            let b = self.rng.charges(n);
            let (_, st) = sharded.matvec_with_stats(&b);
            l.insert("dist.bytes_per_matvec", st.total_bytes() as f64);
            l.insert("dist.messages_per_matvec", st.total_messages() as f64);
            let totals: Vec<f64> = st.shards.iter().map(|s| s.phases.total()).collect();
            let max = totals.iter().copied().fold(0.0, f64::max);
            shard_max.push(max * 1e3);
            collect.push(st.coordinator.collect * 1e3);
            imbalance.push(max / stats::mean(&totals).unwrap_or(max));
        }
        for (key, v) in [
            ("dist.shard_max_ms", shard_max),
            ("dist.coord_collect_ms", collect),
            ("dist.imbalance", imbalance),
        ] {
            if let Some(m) = stats::median(&v) {
                l.insert(key, m);
            }
        }
    }
}
