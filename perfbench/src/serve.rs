//! `serve-evict`: a coordinator in front of one worker, in this
//! process, driven by closed-loop clients over PGRPC.
//!
//! Each job is one synthetic 320x240 column × one design. The columns
//! outnumber the worker's scene and stream cache slots, so most jobs
//! evict a column and rebuild its scene and fragment stream.

use crate::metrics::{self, median, percentile, ratio, sum, Outcome};
use crate::oracle;
use crate::span::{self, SpanId, Tracer};
use crate::Ctx;
use pimgfx::{Design, FragmentStreamCache, RenderReport, SimConfig};
use pimgfx_bench::manifest::{fnv1a_digest, CellSummary};
use pimgfx_bench::{pool, run_variant_replay, Harness, Variant};
use pimgfx_serve::protocol::CacheStats;
use pimgfx_serve::shard::manifest_cells;
use pimgfx_serve::{
    Client, CoordConfig, Coordinator, JobSpec, JobState, Response, ServeConfig, Server,
};
use pimgfx_types::TinyRng;
use pimgfx_workloads::{Resolution, SceneCache, SyntheticSpec, Workload};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct synthetic columns the jobs rotate through.
pub const COLUMNS: usize = 6;
/// Worker scene and stream cache slots: fewer than [`COLUMNS`].
pub const CACHE_SLOTS: usize = 3;
const _: () = assert!(COLUMNS > CACHE_SLOTS, "the rotation must not fit the cache");
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Jobs measured even when `--seconds` has run out: enough that ten
/// lie beyond the 90th percentile.
pub const MIN_JOBS: usize = 100;
/// Times the plane is bound and warmed for the set-up median.
const SETUPS: usize = 9;
/// Frames per job, the serving default.
const FRAMES: usize = 2;
const POLL: Duration = Duration::from_millis(10);
const BUSY_BACKOFF: Duration = Duration::from_millis(20);
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Per-layer metrics only this workload produces.
pub const SERVE_METRICS: [&str; 9] = [
    "serve.submit_ms",
    "serve.queued_ms",
    "serve.run_ms",
    "serve.fetch_ms",
    "serve.polls_per_job",
    "serve.manifest_bytes",
    "serve.busy_rejections",
    "serve.stream_hit_ratio",
    "serve.stream_evictions",
];

/// The `COLUMNS` synthetic specs for a seed. Only the specs' own seeds
/// vary, so the work per job changes little with the seed. The size
/// makes simulation, not the 10 ms client and 25 ms coordinator polls,
/// the bulk of a job.
pub fn columns(seed: u64) -> Vec<SyntheticSpec> {
    let mut rng = TinyRng::seed_from_u64(seed ^ 0x5e1e_c7ed);
    (0..COLUMNS)
        .map(|_| SyntheticSpec {
            seed: rng.next_u64(),
            triangles: 2000,
            textures: 2,
            texture_size: 128,
            kind_mask: 0xf,
            grazing_milli: 500,
            overdraw: 1,
            path_frames: 2,
        })
        .collect()
}

/// One job of the rotation: a column index and a design.
pub type JobKey = (usize, Design);

/// The job order for a seed: rounds of every `(column, design)` pair,
/// each round shuffled.
pub fn job_order(seed: u64, jobs: usize) -> Vec<JobKey> {
    let mut rng = TinyRng::seed_from_u64(seed ^ 0x0bde_12ee);
    let mut out = Vec::with_capacity(jobs);
    while out.len() < jobs {
        let mut round: Vec<JobKey> = (0..COLUMNS)
            .flat_map(|c| Design::ALL.into_iter().map(move |d| (c, d)))
            .collect();
        for i in (1..round.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            round.swap(i, j);
        }
        out.extend(round);
    }
    out.truncate(jobs);
    out
}

/// A one-cell job spec.
pub fn job_spec(spec: SyntheticSpec, design: Design) -> JobSpec {
    JobSpec {
        workload: Workload::Synthetic(spec),
        resolution: Resolution::R320x240,
        variants: vec![Variant::Design(design)],
        sections: Vec::new(),
        trace: false,
        deadline_ms: 0,
    }
}

/// A coordinator and one worker, each running on its own thread.
pub struct Plane {
    /// The coordinator's address: clients connect here.
    pub addr: SocketAddr,
    coord: JoinHandle<Result<(), String>>,
    worker: JoinHandle<Result<(), String>>,
}

impl Plane {
    /// Binds a worker with `cache_slots` scene and stream slots and a
    /// coordinator in front of it; every other setting is the default.
    ///
    /// # Errors
    ///
    /// When either listener cannot be bound.
    pub fn start(cache_slots: usize) -> Result<Self, String> {
        let server = Server::bind(ServeConfig {
            scene_capacity: Some(cache_slots),
            stream_capacity: Some(cache_slots),
            ..ServeConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let coord = Coordinator::bind(CoordConfig {
            workers: vec![server.local_addr().to_string()],
            drain_workers: true,
            ..CoordConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let addr = coord.local_addr();
        let worker = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
        let coord = std::thread::spawn(move || coord.run().map_err(|e| e.to_string()));
        Ok(Self {
            addr,
            coord,
            worker,
        })
    }

    /// Drains the coordinator, which drains the worker, and waits for
    /// both threads.
    ///
    /// # Errors
    ///
    /// A failed shutdown request or a daemon that ended in error.
    pub fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        drop(c);
        let join = |h: JoinHandle<Result<(), String>>| {
            h.join()
                .map_err(|_| "daemon thread panicked".to_string())
                .and_then(|r| r)
        };
        join(self.coord)?;
        join(self.worker)
    }

    /// The worker's cumulative cache counters, via the coordinator.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&self) -> Result<CacheStats, String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats: {e}"))
    }
}

/// What happened to one job.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// Index into the job list.
    pub index: usize,
    /// The job reached Done and its manifest held one cell.
    pub ok: bool,
    /// Submit → manifest fetched, ms.
    pub latency_ms: f64,
    /// Busy answers before the job was accepted.
    pub busy: u64,
    /// Status polls.
    pub polls: u64,
    /// Bytes of the fetched manifest.
    pub manifest_bytes: usize,
    /// The served cell's JSON object.
    pub cell: String,
}

/// Runs closed-loop clients over `jobs` (job `i` is `jobs[i % len]`)
/// until at least `min_jobs` were taken and `until` has passed.
pub fn closed_loop(
    addr: SocketAddr,
    jobs: &[JobSpec],
    clients: usize,
    min_jobs: usize,
    until: Instant,
    tracer: &Tracer,
) -> Vec<JobRecord> {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut client = Client::connect(addr).ok();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= min_jobs && Instant::now() >= until {
                        break;
                    }
                    let spec = &jobs[i % jobs.len()];
                    let rec = match client.as_mut() {
                        Some(c) => one_job(c, i, spec, tracer),
                        None => {
                            eprintln!("[perfbench] job {i}: no connection to {addr}");
                            JobRecord {
                                index: i,
                                ..JobRecord::default()
                            }
                        }
                    };
                    records.lock().expect("job records lock").push(rec);
                }
            });
        }
    });
    let mut out = records.into_inner().expect("job records lock");
    out.sort_by_key(|r| r.index);
    out
}

fn one_job(client: &mut Client, index: usize, spec: &JobSpec, tracer: &Tracer) -> JobRecord {
    let mut rec = JobRecord {
        index,
        ..JobRecord::default()
    };
    let job = Some(index as u64);
    let started = Instant::now();
    let (result, _) = tracer.time(
        "serve.job",
        None,
        job,
        |root: SpanId| -> Result<(), String> {
            let (id, _) = tracer.time("serve.submit", root, job, |_| loop {
                match client.submit(spec) {
                    Ok(Response::Submitted(id)) => return Ok(id),
                    Ok(Response::Busy { .. }) if started.elapsed() < JOB_TIMEOUT => {
                        rec.busy += 1;
                        std::thread::sleep(BUSY_BACKOFF);
                    }
                    Ok(other) => return Err(format!("submit answered {other:?}")),
                    Err(e) => return Err(format!("submit: {e}")),
                }
            });
            let id = id?;
            let submitted = Instant::now();
            let mut running: Option<Instant> = None;
            loop {
                rec.polls += 1;
                let state = client.status(id).map_err(|e| format!("status: {e}"))?;
                match state {
                    JobState::Queued => {}
                    JobState::Running { .. } => {
                        running.get_or_insert_with(Instant::now);
                    }
                    JobState::Done { .. } => break,
                    other => return Err(format!("job ended {other:?}")),
                }
                if started.elapsed() > JOB_TIMEOUT {
                    return Err(format!("timed out after {JOB_TIMEOUT:?}"));
                }
                std::thread::sleep(POLL);
            }
            let done = Instant::now();
            let running = running.unwrap_or(done);
            tracer.record("serve.queued", root, job, submitted, running);
            tracer.record("serve.run", root, job, running, done);
            let (manifest, _) =
                tracer.time("serve.fetch", root, job, |_| client.fetch_manifest(id));
            let manifest = manifest.map_err(|e| format!("fetch: {e}"))?;
            rec.manifest_bytes = manifest.len();
            let cells = manifest_cells(&manifest)?;
            match &cells[..] {
                [cell] => rec.cell = cell.clone(),
                _ => return Err(format!("manifest holds {} cells, want 1", cells.len())),
            }
            Ok(())
        },
    );
    rec.latency_ms = started.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(()) => rec.ok = true,
        Err(e) => eprintln!("[perfbench] job {index}: {e}"),
    }
    rec
}

/// The local replay of every `(column, design)` cell, the oracle the
/// served cells are checked against.
#[derive(Default)]
struct Local {
    digest: BTreeMap<(usize, &'static str), String>,
    samples: BTreeMap<(usize, &'static str), u64>,
    reports: BTreeMap<(String, &'static str), RenderReport>,
    psnr_atfim_db: Vec<f64>,
    fragments: u64,
    quads: u64,
    failed: u64,
}

fn replay_locally(ctx: &Ctx, specs: &[SyntheticSpec]) -> Result<Local, String> {
    let tracer = &ctx.tracer;
    let scenes = SceneCache::new(FRAMES);
    let streams = FragmentStreamCache::new(SimConfig::default().tile_px);
    let mut local = Local::default();
    let (body, _) = tracer.time("bench.oracle", None, None, |root| -> Result<(), String> {
        for (c, &spec) in specs.iter().enumerate() {
            let w = Workload::Synthetic(spec);
            let r = Resolution::R320x240;
            let column = Harness::column_label(w, r);
            let (scene, _) = tracer.time("workloads.scene", root, None, |_| scenes.get(w, r));
            let (stream, _) = tracer.time("frontend.build", root, None, |_| streams.get(&scene));
            let stream = stream.map_err(|e| e.to_string())?;
            local.fragments += stream.fragment_count();
            local.quads += stream.quad_count();
            for d in Design::ALL {
                let name = format!("backend.replay.{}", d.label());
                let (report, _) = tracer.time(&name, root, None, |_| {
                    run_variant_replay(&scene, Variant::Design(d), &streams)
                });
                let report = report.map_err(|e| e.to_string())?;
                let (digest, ok) = oracle::check_report(
                    &ctx.expected,
                    "serve-evict",
                    &column,
                    d.label(),
                    &report,
                    ctx.seed != crate::DEFAULT_SEED,
                );
                if !ok {
                    local.failed += 1;
                }
                local.digest.insert((c, d.label()), digest);
                local.samples.insert((c, d.label()), report.texture.samples);
                local.reports.insert((column.clone(), d.label()), report);
            }
            let base = &local.reports[&(column.clone(), Design::Baseline.label())];
            let atfim = &local.reports[&(column.clone(), Design::ATfim.label())];
            let (db, _) = tracer.time("quality.psnr", root, None, |_| {
                pimgfx_quality::psnr(&base.image, &atfim.image)
            });
            local.psnr_atfim_db.push(db.map_err(|e| e.to_string())?);
        }
        Ok(())
    });
    body?;
    Ok(local)
}

/// Counts the records whose served cell differs from the local replay
/// of the same `(column, design)`, or that failed outright.
pub fn failures(
    records: &[JobRecord],
    keys: &[JobKey],
    local: &BTreeMap<(usize, &'static str), String>,
) -> u64 {
    records
        .iter()
        .filter(|r| {
            let (c, d) = keys[r.index % keys.len()];
            let key = (c, d.label());
            let bad = !r.ok || local.get(&key) != Some(&fnv1a_digest(&r.cell));
            if r.ok && bad {
                eprintln!(
                    "[perfbench] job {}: served cell differs from local replay",
                    r.index
                );
            }
            bad
        })
        .count() as u64
}

/// Runs `serve-evict`.
///
/// # Errors
///
/// When the serving plane cannot be started or stopped, or the local
/// replay fails.
pub fn run(ctx: &Ctx) -> Result<(Outcome, Vec<String>), String> {
    let specs = columns(ctx.seed);
    // The job list is long enough for any run; job `i` is `keys[i]`.
    let keys = job_order(ctx.seed, COLUMNS * Design::ALL.len() * 64);
    let jobs: Vec<JobSpec> = keys.iter().map(|&(c, d)| job_spec(specs[c], d)).collect();
    let off = Tracer::new(false);

    // Set-up: bind a plane and serve one warm-up job on it.
    let mut warm = Vec::new();
    let mut setup = || -> Result<(Plane, f64), String> {
        let t = Instant::now();
        let p = Plane::start(CACHE_SLOTS)?;
        warm.extend(closed_loop(p.addr, &jobs[..1], 1, 1, t, &off));
        Ok((p, t.elapsed().as_secs_f64()))
    };
    let (plane, first) = setup()?;
    let before = plane.stats()?;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(ctx.seconds);
    let records = closed_loop(plane.addr, &jobs, CLIENTS, MIN_JOBS, until, &ctx.tracer);
    let wall = start.elapsed().as_secs_f64();
    let after = plane.stats()?;
    plane.stop()?;
    // The peak of one plane's life, before the extra set-ups and the
    // local replay below add their own allocations.
    let peak_rss_mb = metrics::peak_rss_mb()?;
    let mut setups = vec![first];
    for _ in 1..SETUPS {
        let (p, s) = setup()?;
        p.stop()?;
        setups.push(s);
    }

    // Untimed: replay every cell locally and check the served ones.
    let local = replay_locally(ctx, &specs)?;
    let failed = local.failed
        + failures(&warm, &keys, &local.digest)
        + failures(&records, &keys, &local.digest);
    let attempted = (warm.len() + records.len()) as u64 + local.digest.len() as u64;

    let ok: Vec<&JobRecord> = records.iter().filter(|r| r.ok).collect();
    let latencies: Vec<f64> = ok.iter().map(|r| r.latency_ms).collect();
    let samples: u64 = ok
        .iter()
        .map(|r| {
            let (c, d) = keys[r.index % keys.len()];
            local.samples.get(&(c, d.label())).copied().unwrap_or(0)
        })
        .sum();
    let mut values = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };
    put("setup_s", median(&setups));
    put("cells_per_s", ratio(ok.len() as f64, wall));
    put("msamples_per_s", ratio(samples as f64 / 1e6, wall));
    put("job_p50_ms", percentile(&latencies, 50.0));
    put("job_p90_ms", percentile(&latencies, 90.0));
    put("peak_rss_mb", peak_rss_mb);

    // Per-layer metrics. The worker's builds happen inside the program,
    // so their cost per build is measured on the local replay's builds.
    let spans = ctx.tracer.spans();
    let selfs = span::self_times_ns(&spans);
    let build_ms = span::self_ms(&spans, &selfs, "frontend.build");
    let misses = after.stream_misses.saturating_sub(before.stream_misses);
    let hits = after.stream_hits.saturating_sub(before.stream_hits);
    let evictions = after
        .stream_evictions
        .saturating_sub(before.stream_evictions);
    let n_jobs = records.len() as f64;
    put(
        "workloads.scene_ms",
        median(&span::self_ms(&spans, &selfs, "workloads.scene")),
    );
    put(
        "workloads.scenes_built",
        ratio(
            after.scene_evictions.saturating_sub(before.scene_evictions) as f64,
            n_jobs,
        ),
    );
    put("frontend.build_ms", median(&build_ms));
    put(
        "frontend.ns_per_fragment",
        ratio(sum(&build_ms) * 1e6, local.fragments as f64),
    );
    put("frontend.fragments", local.fragments as f64);
    put("frontend.quads", local.quads as f64);
    put(
        "frontend.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    put("frontend.evictions", evictions as f64);
    for bucket in metrics::backend_buckets() {
        let ms = sum(&span::self_ms(
            &spans,
            &selfs,
            &format!("backend.replay.{bucket}"),
        ));
        let samples: u64 = local
            .samples
            .iter()
            .filter(|((_, label), _)| *label == bucket)
            .map(|(_, s)| s)
            .sum();
        put(&format!("backend.ms.{bucket}"), ms);
        put(
            &format!("backend.ns_per_sample.{bucket}"),
            ratio(ms * 1e6, samples as f64),
        );
    }
    // The lanes the worker gives a one-cell job, by the same public rule
    // its scheduler applies.
    let lanes = pool::worker_count(1)
        .and_then(pool::configured_replay_lanes)
        .map_err(|e| e.to_string())?;
    put("backend.lanes", lanes as f64);
    put("harness.precompute_ms", 0.0);
    put("harness.pool_utilization", 0.0);
    put("harness.max_cell_ms", 0.0);
    put(
        "quality.psnr_ms",
        sum(&span::self_ms(&spans, &selfs, "quality.psnr")),
    );
    put(
        "serve.submit_ms",
        median(&span::self_ms(&spans, &selfs, "serve.submit")),
    );
    put(
        "serve.queued_ms",
        median(&span::self_ms(&spans, &selfs, "serve.queued")),
    );
    put(
        "serve.run_ms",
        median(&span::self_ms(&spans, &selfs, "serve.run")),
    );
    put(
        "serve.fetch_ms",
        median(&span::self_ms(&spans, &selfs, "serve.fetch")),
    );
    put(
        "serve.polls_per_job",
        ratio(records.iter().map(|r| r.polls).sum::<u64>() as f64, n_jobs),
    );
    put(
        "serve.manifest_bytes",
        median(
            &ok.iter()
                .map(|r| r.manifest_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    put(
        "serve.busy_rejections",
        records.iter().map(|r| r.busy).sum::<u64>() as f64,
    );
    put(
        "serve.stream_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    put("serve.stream_evictions", evictions as f64);
    values.extend(oracle::sim_metrics(&local.reports, &local.psnr_atfim_db));
    values.insert("trace.cells_per_s".into(), ratio(ok.len() as f64, wall));
    values.insert("trace.job_p50_ms".into(), percentile(&latencies, 50.0));

    eprintln!(
        "[perfbench] serve-evict: {} jobs in {wall:.1}s, {} stream misses, {} evictions",
        records.len(),
        misses,
        evictions
    );
    let digests = local
        .reports
        .iter()
        .map(|((column, label), report)| {
            let summary = CellSummary::from_report(column, label, report);
            oracle::digest_line("serve-evict", column, label, &oracle::cell_digest(&summary))
        })
        .collect();
    let outcome = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
    };
    Ok((outcome, digests))
}
