//! The `serve` workload: a closed loop of two client threads against an
//! in-process allocation [`Service`] with two workers.
//!
//! The request mix is the 11 spec programs × the five allocators. The
//! request of program `p` for allocator `a` carries the program as inline
//! text when `p + a` is even — 28 of the 55, and five or six of each
//! allocator's eleven — and names the workload otherwise. (A name-keyed
//! and an inline request for the same program and allocator share one
//! cache key, so each pair is sent one way only.) The split is fixed, so
//! every allocator's share of the work is the same whatever the seed; the
//! seed orders the requests.
//!
//! Every round starts a fresh service (a cold cache), sends each of the
//! 55 distinct requests once — the misses — and, after both clients have
//! finished those, sends each again [`HIT_REPEATS`] times — the hits —
//! all in a seeded order. One operation is one request. After the
//! requests, outside the round's clock, the client verifies every module
//! the misses returned, the way `lsra alloc --check` does.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use lsra_core::{AllocScratch, PHASE_NAMES};
use lsra_ir::{MachineSpec, Module};
use lsra_jit::CodeBuffer;
use lsra_lint::LintCode;
use lsra_server::json_in::{self, JsonValue};
use lsra_server::protocol::{self, ParsedLine};
use lsra_server::{Outcome, ServeConfig, Service};
use lsra_trace::json::JsonWriter;
use lsra_vm::{DynCounts, Vm, VmOptions};
use lsra_workloads::Lcg;

use crate::report::Report;
use crate::stats::{median, ms, quantile, shuffle};
use crate::trace::{layer_ms, Ids, Tracer};
use crate::{alloc, RunConfig, MIN_ROUNDS, SETUP_REPS};

/// Times each distinct request is repeated (as a cache hit) per round.
pub const HIT_REPEATS: usize = 3;

/// Client threads, and the service's worker threads.
const CLIENTS: usize = 2;

/// One distinct request.
struct Distinct {
    /// `<program>-<allocator>`, the request's `id`.
    id: String,
    /// Index into [`alloc::NAMES`].
    alloc: usize,
    line: String,
    /// Source program, as the service will see it.
    source: Module,
    input: Vec<u8>,
    /// The inline program text, for inline requests.
    inline: Option<String>,
}

/// One answered request.
struct Answer {
    distinct: usize,
    ns: u64,
    response: String,
}

/// One request line: `program` is the inline text or, when absent, the
/// request names `workload`.
pub(crate) fn request_line(id: &str, workload: &str, program: Option<&str>, alloc: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("id", id);
    match program {
        Some(text) => w.field_str("program", text),
        None => w.field_str("workload", workload),
    }
    w.field_str("allocator", alloc);
    w.key("emit_module");
    w.bool(true);
    w.end_object();
    w.finish()
}

/// Builds the 55 distinct requests.
fn requests() -> Result<Vec<Distinct>, String> {
    let mut out = Vec::new();
    for (p, w) in lsra_workloads::all().into_iter().enumerate() {
        let module = (w.build)();
        let text = format!("{module}");
        for (a, alloc) in alloc::NAMES.iter().enumerate() {
            let inline = (p + a) % 2 == 0;
            let id = format!("{}-{alloc}", w.name);
            let line = request_line(&id, w.name, inline.then_some(text.as_str()), alloc);
            let (source, inline) = if inline {
                let source = lsra_ir::parse_module(&text)
                    .map_err(|e| format!("{}: printed program does not re-parse: {e}", w.name))?;
                (source, Some(text.clone()))
            } else {
                (module.clone(), None)
            };
            out.push(Distinct { id, alloc: a, line, source, input: (w.input)(), inline });
        }
    }
    Ok(out)
}

fn service() -> Service {
    Service::start(ServeConfig { workers: CLIENTS, ..ServeConfig::default() })
}

/// Sends `schedule` (indices into `reqs`) from [`CLIENTS`] threads, each
/// sending its next request only once its previous one was answered.
fn closed_loop(
    svc: &Service,
    reqs: &[Distinct],
    schedule: &[usize],
    tr: &mut Tracer,
    round: u32,
) -> Vec<Answer> {
    let next = AtomicUsize::new(0);
    let traced = tr.enabled();
    let results: Vec<(Vec<Answer>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Tracer::new(traced);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&d) = schedule.get(i) else { break };
                        let ids = Ids { round, program: d as u32, alloc: "" };
                        let (response, dt) =
                            mine.time("client.call", ids, || svc.call(&reqs[d].line));
                        out.push(Answer { distinct: d, ns: dt.as_nanos() as u64, response });
                    }
                    (out, mine)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all = Vec::new();
    for (answers, spans) in results {
        all.extend(answers);
        tr.absorb(spans);
    }
    all
}

/// An answer's JSON and its emitted module. The answer must be `ok`; the
/// text form does not carry the `allocated` flag, so an emitted function
/// must not name a temporary.
fn parse_answer(response: &str) -> Result<(JsonValue, Module), String> {
    let v = json_in::parse(response).map_err(|e| format!("response is not JSON: {e}"))?;
    if v.get("status").and_then(JsonValue::as_str) != Some("ok") {
        return Err(format!("status is not ok: {response:.200}"));
    }
    let text = v.get("module").and_then(JsonValue::as_str).ok_or("response has no module")?;
    let mut m = lsra_ir::parse_module(text).map_err(|e| format!("emitted module: {e}"))?;
    for f in &mut m.funcs {
        if f.has_virtual_operands() {
            return Err(format!("emitted function `{}` names a temporary", f.name));
        }
        f.allocated = true;
    }
    Ok((v, m))
}

/// The checks of `lsra alloc --check` on one emitted module `m`: the
/// symbolic checker against the source before identity-move removal; the
/// VM static check, lowering and the native verifier after it. Returns
/// the cleaned module, its code, and the time to a verdict (checker,
/// static check and verifier) in milliseconds.
fn verify_emitted(
    d: &Distinct,
    mut m: Module,
    spec: &MachineSpec,
    tr: &mut Tracer,
    ids: Ids,
) -> Result<(Module, CodeBuffer, f64), String> {
    let (checked, t_check) =
        tr.time("checker.check", ids, || lsra_checker::check_module(&d.source, &m, spec));
    checked.map_err(|e| format!("symbolic check: {e}"))?;
    tr.time("core.cleanup", ids, || {
        for id in m.func_ids().collect::<Vec<_>>() {
            lsra_analysis::remove_identity_moves(m.func_mut(id));
        }
    });
    let (checked, t_static) = tr.time("vm.static_check", ids, || lsra_vm::check_module(&m, spec));
    checked.map_err(|e| format!("static check: {e}"))?;
    let (code, _) = tr.time("jit.lower", ids, || lsra_jit::compile_module(&m, spec));
    let code = code.map_err(|e| format!("lowering: {e}"))?;
    let (report, t_verify) =
        tr.time("verify.native", ids, || lsra_verify::verify_module(&m, spec, &code));
    if !report.diags.is_empty() {
        return Err(format!("native verifier: {} diagnostic(s)", report.diags.len()));
    }
    Ok((m, code, ms(t_check) + ms(t_static) + ms(t_verify)))
}

/// What the reference check learned about one distinct request's answer.
#[derive(Clone, Debug, Default)]
struct Checked {
    counts: DynCounts,
    code_bytes: u64,
    /// `inserted`, `iterations`, `lifetime_splits` and `evictions` from the
    /// answer's `stats`.
    stats: [u64; 4],
    /// Dead spill stores and redundant reloads (quality lints).
    lint: (u64, u64),
    ref_run_ms: f64,
    run_ms: f64,
    map_ms: f64,
    exec_ms: f64,
}

/// Checks one distinct request's first answer: `ok`; the emitted module
/// re-parses and passes the checks of [`verify_emitted`]; its VM result
/// equals its source program's (the VM differential); and its mapped
/// native code reproduces that result in every `RunResult` field.
fn check_answer(d: &Distinct, response: &str, spec: &MachineSpec) -> Result<Checked, String> {
    let (v, m) = parse_answer(response)?;
    let report = lsra_lint::lint_quality(&m, spec);
    let mut c = Checked {
        lint: (
            report.count(LintCode::DeadSpillStore) as u64,
            report.count(LintCode::RedundantReload) as u64,
        ),
        ..Checked::default()
    };
    let stats = v.get("stats").ok_or("response has no stats")?;
    for (slot, key) in
        c.stats.iter_mut().zip(["inserted", "iterations", "lifetime_splits", "evictions"])
    {
        *slot = stats.get(key).and_then(JsonValue::as_u64).ok_or("stats field missing")?;
    }
    let (m, code, _) = verify_emitted(d, m, spec, &mut Tracer::new(false), Ids::default())?;
    let opts = VmOptions::default();
    let t = Instant::now();
    let before = Vm::new(&d.source, spec, &d.input, opts.clone()).run();
    c.ref_run_ms = ms(t.elapsed());
    let t = Instant::now();
    let after = Vm::new(&m, spec, &d.input, opts.clone()).run();
    c.run_ms = ms(t.elapsed());
    let before = before.map_err(|e| format!("reference run: {e}"))?;
    let after = after.map_err(|e| format!("VM run: {e}"))?;
    lsra_vm::compare_runs(&before, &after).map_err(|e| format!("VM differential: {e}"))?;
    let t = Instant::now();
    let map = code.map().map_err(|e| format!("mapping code: {e}"))?;
    c.map_ms = ms(t.elapsed());
    let t = Instant::now();
    let native = map.run(&d.input, &opts);
    c.exec_ms = ms(t.elapsed());
    if native.map_err(|e| format!("native run: {e}"))? != after {
        return Err("native result differs from the VM's".into());
    }
    c.counts = after.counts;
    c.code_bytes = code.code_size() as u64;
    Ok(c)
}

/// Replays one request through the service's own stage functions, one
/// span per stage: parse, materialize, (for inline requests) a second IR
/// parse, canonical print, cache key, (for a miss) allocation into
/// `outcome`, render. Returns the rendered response and, for a binpack
/// miss, its per-phase times; `None` when a stage fails.
fn replay_one(
    tr: &mut Tracer,
    ids: Ids,
    line: &str,
    inline: Option<&str>,
    outcome: &mut Option<Outcome>,
    scratch: &mut AllocScratch,
) -> Option<(String, Option<lsra_core::AllocTimings>)> {
    let Ok(ParsedLine::Alloc(req)) =
        tr.time("server.parse", ids, || protocol::parse_request(line)).0
    else {
        return None;
    };
    let (m, input, canonical) =
        tr.time("server.materialize", ids, || protocol::materialize(&req)).0.ok()?;
    if let Some(text) = inline {
        tr.time("ir.parse", ids, || lsra_ir::parse_module(text)).0.ok()?;
    }
    tr.time("ir.print", ids, || format!("{m}"));
    tr.time("server.key", ids, || protocol::cache_key(&req, &canonical));
    let mut timings = None;
    if outcome.is_none() {
        let (r, _) =
            tr.time("server.alloc", ids, || protocol::run_allocation(m, &input, &req, scratch));
        let (o, t) = r.ok()?;
        *outcome = Some(o);
        timings = t;
    }
    let o = outcome.as_ref()?;
    let (resp, _) =
        tr.time("server.render", ids, || protocol::render_ok(&req.id, o, req.emit_module));
    Some((resp, timings))
}

/// Replays each request of a traced round through the service's stage
/// functions. Returns whether every replayed response equals the
/// service's, and the round's binpack phase times in milliseconds.
fn replay(
    reqs: &[Distinct],
    answers: &[Answer],
    tr: &mut Tracer,
    round: u32,
) -> (bool, [f64; PHASE_NAMES.len()]) {
    let mut scratch = AllocScratch::default();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; reqs.len()];
    let mut phases = [0.0; PHASE_NAMES.len()];
    let mut agree = true;
    for a in answers {
        let d = &reqs[a.distinct];
        let ids = Ids { round, program: a.distinct as u32, alloc: alloc::NAMES[d.alloc] };
        let inline = d.inline.as_deref();
        let Some((resp, timings)) =
            replay_one(tr, ids, &d.line, inline, &mut outcomes[a.distinct], &mut scratch)
        else {
            return (false, phases);
        };
        if alloc::NAMES[d.alloc] == "binpack" {
            for (p, s) in phases.iter_mut().zip(timings.map(|t| t.seconds).unwrap_or_default()) {
                *p += s * 1e3;
            }
        }
        agree &= resp == a.response;
    }
    (agree, phases)
}

/// Times the service's request path stage by stage, as [`replay_one`],
/// on one inline request per (program, allocator) for a `spec` or `scale`
/// round; every request is a miss. `texts` holds each program's printed
/// form. Returns whether every stage succeeded.
pub(crate) fn request_path_probe(texts: &[String], tr: &mut Tracer, round: u32) -> bool {
    let mut scratch = AllocScratch::default();
    for (p, text) in texts.iter().enumerate() {
        for name in alloc::NAMES {
            let ids = Ids { round, program: p as u32, alloc: name };
            let line = request_line("probe", "", Some(text), name);
            if replay_one(tr, ids, &line, Some(text), &mut None, &mut scratch).is_none() {
                return false;
            }
        }
    }
    true
}

/// The request-path metrics: each stage's self time per request over the
/// traced rounds (`requests` per round, `inline` of them inline, `misses`
/// of them allocating).
pub(crate) fn request_path_metrics(
    rep: &mut Report,
    tr: &Tracer,
    rounds: &[u32],
    requests: usize,
    inline: usize,
    misses: usize,
) {
    let per_req =
        |name: &str, count: usize| layer_ms(tr, rounds, |s| s.name == name) / count as f64;
    rep.add("server.parse_ms", per_req("server.parse", requests), "ms");
    rep.add("server.materialize_ms", per_req("server.materialize", requests), "ms");
    rep.add("ir.parse_ms", per_req("ir.parse", inline), "ms");
    rep.add("ir.print_ms", per_req("ir.print", requests), "ms");
    rep.add("server.key_ms", per_req("server.key", requests), "ms");
    rep.add("server.alloc_ms", per_req("server.alloc", misses), "ms");
    rep.add("server.render_ms", per_req("server.render", requests), "ms");
}

/// Queue-wait p50 (ms) and cache hits and misses, from the service's own
/// `metrics` op.
fn service_metrics(svc: &Service) -> Option<(f64, u64, u64)> {
    let resp = svc.call("{\"op\":\"metrics\"}");
    let v = json_in::parse(&resp).ok()?;
    let json = v.get("json")?;
    let p50 = json.get("histograms")?.get("lsra_queue_wait")?.get("p50")?.as_u64()?;
    let counters = json.get("counters")?;
    let hits = counters.get("lsra_cache_hits_total")?.as_u64()?;
    let misses = counters.get("lsra_cache_misses_total")?.as_u64()?;
    Some((p50 as f64 / 1e6, hits, misses))
}

struct Round {
    answers: Vec<Answer>,
    wall_ms: f64,
}

/// One round: a fresh service, the misses, then the hits.
fn round(reqs: &[Distinct], rng: &mut Lcg, tr: &mut Tracer, id: u32) -> (Round, Service) {
    let svc = service();
    let mut misses: Vec<usize> = (0..reqs.len()).collect();
    shuffle(rng, &mut misses);
    let mut hits: Vec<usize> = (0..reqs.len() * HIT_REPEATS).map(|i| i % reqs.len()).collect();
    shuffle(rng, &mut hits);
    let t = Instant::now();
    let mut answers = closed_loop(&svc, reqs, &misses, tr, id);
    answers.extend(closed_loop(&svc, reqs, &hits, tr, id));
    let wall_ms = ms(t.elapsed());
    (Round { answers, wall_ms }, svc)
}

/// Runs the `serve` workload.
///
/// # Errors
///
/// Returns a message when the inputs cannot be built.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let spec = MachineSpec::alpha_like();
    // Set-up builds the requests; the last repeat is kept. Each round
    // starts its own service, outside the round's clock and outside
    // set-up.
    let mut setup_ms = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let reqs = requests();
        setup_ms.push(ms(t.elapsed()));
        reqs
    };
    for _ in 1..SETUP_REPS {
        set_up()?;
    }
    let reqs = set_up()?;
    let n = reqs.len();
    let na = alloc::NAMES.len();
    let sources: Vec<Module> = reqs.iter().step_by(na).map(|d| d.source.clone()).collect();
    let mut rng = Lcg::new(cfg.seed ^ 0x5e7e);
    let mut tr = Tracer::new(false);

    // The reference round (also the warm-up): its first answers are the
    // ones every later answer must equal byte for byte.
    let (first, svc) = round(&reqs, &mut rng, &mut tr, u32::MAX);
    drop(svc);
    let mut reference = vec![String::new(); n];
    for a in &first.answers[..n] {
        reference[a.distinct] = a.response.clone();
    }
    let checked: Vec<Result<Checked, String>> =
        reqs.iter().zip(&reference).map(|(d, r)| check_answer(d, r, &spec)).collect();
    for (d, c) in reqs.iter().zip(&checked) {
        if let Err(e) = c {
            eprintln!("perfbench: serve {}: {e}", d.id);
        }
    }

    let mut rep = Report::new();
    let (mut hit_ns, mut miss_ns, mut all_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_ms, mut requests_done) = (0.0, 0usize);
    // Each distinct request's miss latencies (ms), and per round the time
    // to a verdict over the misses' modules.
    let (mut miss_ms, mut verify_ms) = (vec![Vec::new(); n], Vec::new());
    let (mut traced_rounds, mut traced_wall, mut untraced_wall) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut phase_ms = vec![Vec::new(); PHASE_NAMES.len()];
    let mut queue_p50 = Vec::new();
    let mut cache = (0, 0);
    let t0 = Instant::now();
    let mut rounds = 0usize;
    while rounds < MIN_ROUNDS || t0.elapsed().as_secs_f64() < cfg.seconds {
        let id = rounds as u32;
        let traced = cfg.trace && rounds % 2 == 1;
        tr.set_enabled(traced);
        tr.open("round", Ids::round(id));
        let (r, svc) = round(&reqs, &mut rng, &mut tr, id);
        let c = svc.counters();
        if c.cache_misses != n as u64 || c.cache_hits != (n * HIT_REPEATS) as u64 {
            eprintln!("perfbench: round {id}: {} hits, {} misses", c.cache_hits, c.cache_misses);
            rep.correct = false;
        }
        let mut round_verify = 0.0;
        for (k, a) in r.answers.iter().enumerate() {
            let d = &reqs[a.distinct];
            let mut why = match &checked[a.distinct] {
                Err(e) => Some(e.clone()),
                Ok(_) if a.response != reference[a.distinct] => {
                    Some("response differs from the first answer".to_string())
                }
                Ok(_) => None,
            };
            if k < n {
                miss_ns.push(a.ns as f64);
                miss_ms[a.distinct].push(a.ns as f64 / 1e6);
                if why.is_none() {
                    let ids =
                        Ids { round: id, program: a.distinct as u32, alloc: alloc::NAMES[d.alloc] };
                    match parse_answer(&a.response)
                        .and_then(|(_, m)| verify_emitted(d, m, &spec, &mut tr, ids))
                    {
                        Ok((_, _, t)) => round_verify += t,
                        Err(e) => why = Some(e),
                    }
                }
            } else {
                hit_ns.push(a.ns as f64);
            }
            all_ns.push(a.ns as f64);
            if let Some(why) = why {
                rep.failed += 1;
                rep.failures.push(format!("{}: {why}", d.id));
            }
        }
        verify_ms.push(round_verify);
        rep.attempted += r.answers.len() as u64;
        requests_done += r.answers.len();
        wall_ms += r.wall_ms;
        if traced {
            match service_metrics(&svc) {
                Some((p50, hits, misses)) => {
                    queue_p50.push(p50);
                    cache = (hits, misses);
                }
                None => rep.correct = false,
            }
            drop(svc);
            let modules: Vec<&Module> = sources.iter().collect();
            crate::suite::layer_probes(&modules, &spec, &mut tr, id);
            let (agree, phases) = replay(&reqs, &r.answers, &mut tr, id);
            if !agree {
                eprintln!("perfbench: round {id}: replayed stages disagree with the service");
                rep.correct = false;
            }
            for (v, p) in phase_ms.iter_mut().zip(phases) {
                v.push(p);
            }
            traced_rounds.push(id);
            traced_wall.push(r.wall_ms);
        } else {
            drop(svc);
            untraced_wall.push(r.wall_ms);
        }
        tr.close();
        set_up()?;
        rounds += 1;
    }

    let p = |v: &[f64], q: f64| quantile(v, q) / 1e6;
    eprintln!(
        "perfbench: serve: {} rounds; hits p50 {:.4} ms p99 {:.4} ms (n={}); misses p50 {:.4} ms \
         p99 {:.4} ms (n={})",
        rounds,
        p(&hit_ns, 0.5),
        p(&hit_ns, 0.99),
        hit_ns.len(),
        p(&miss_ns, 0.5),
        p(&miss_ns, 0.99),
        miss_ns.len()
    );
    let ok: Vec<&Checked> = checked.iter().filter_map(|c| c.as_ref().ok()).collect();
    // Sums `f` over the checked answers of allocator `a`.
    let by_alloc = |a: usize, f: &dyn Fn(&Checked) -> f64| -> f64 {
        reqs.iter()
            .zip(&checked)
            .filter(|(d, _)| d.alloc == a)
            .filter_map(|(_, c)| c.as_ref().ok())
            .map(f)
            .sum()
    };
    if cfg.trace {
        let inline = reqs.iter().filter(|d| d.inline.is_some()).count() * (1 + HIT_REPEATS);
        let layer = |name: &str| layer_ms(&tr, &traced_rounds, |s| s.name == name);
        rep.add("workloads.build_ms", median(&setup_ms), "ms");
        rep.add("analysis.liveness_ms", layer("analysis.liveness"), "ms");
        rep.add("analysis.lifetimes_ms", layer("analysis.lifetimes"), "ms");
        rep.add("ssa.roundtrip_ms", layer("ssa.roundtrip"), "ms");
        rep.add("core.cleanup_ms", layer("core.cleanup"), "ms");
        for (phase, v) in PHASE_NAMES.iter().zip(&phase_ms) {
            rep.add(format!("core.phase.{phase}_ms"), median(v), "ms");
        }
        for name in alloc::NAMES {
            rep.add(
                format!("{name}.alloc_ms"),
                layer_ms(&tr, &traced_rounds, |s| s.name == "server.alloc" && s.ids.alloc == name),
                "ms",
            );
        }
        rep.add("checker.check_ms", layer("checker.check"), "ms");
        rep.add("vm.static_check_ms", layer("vm.static_check"), "ms");
        rep.add("jit.lower_ms", layer("jit.lower"), "ms");
        rep.add("jit.map_ms", ok.iter().map(|c| c.map_ms).sum(), "ms");
        rep.add("verify.native_ms", layer("verify.native"), "ms");
        for (a, name) in alloc::NAMES.iter().enumerate() {
            let inserted = by_alloc(a, &|c| c.stats[0] as f64);
            let q101 = by_alloc(a, &|c| c.lint.0 as f64);
            let q102 = by_alloc(a, &|c| c.lint.1 as f64);
            crate::suite::quality_metrics(
                &mut rep,
                name,
                inserted,
                (q101, q102),
                [
                    by_alloc(a, &|c| c.counts.total as f64),
                    by_alloc(a, &|c| sum3(c.counts.evict()) as f64),
                    by_alloc(a, &|c| sum3(c.counts.resolve()) as f64),
                ],
                by_alloc(a, &|c| c.exec_ms),
                by_alloc(a, &|c| c.code_bytes as f64),
            );
        }
        rep.add(
            "coloring.iterations",
            by_alloc(alloc::index("coloring"), &|c| c.stats[1] as f64),
            "count",
        );
        rep.add("ion.splits", by_alloc(alloc::index("ion"), &|c| c.stats[2] as f64), "count");
        rep.add(
            "ion.bundle_evictions",
            by_alloc(alloc::index("ion"), &|c| c.stats[3] as f64),
            "count",
        );
        rep.add("vm.ref_run_ms", ok.iter().map(|c| c.ref_run_ms).sum(), "ms");
        rep.add("vm.run_ms", ok.iter().map(|c| c.run_ms).sum(), "ms");
        request_path_metrics(&mut rep, &tr, &traced_rounds, n * (1 + HIT_REPEATS), inline, n);
        let (t, u) = (median(&traced_wall), median(&untraced_wall));
        crate::suite::overhead_metrics(&mut rep, t, u);
        let (hits, misses) = cache;
        eprintln!(
            "perfbench: serve: service queue wait p50 {:.4} ms; cache {hits} hits, {misses} \
             misses, hit ratio {:.4}",
            median(&queue_p50),
            hits as f64 / (hits + misses) as f64
        );
        let names: Vec<String> = reqs.iter().map(|d| d.id.clone()).collect();
        crate::write_spans("serve", &tr, &names);
    } else {
        rep.add("setup_s", median(&setup_ms) / 1e3, "s");
        rep.add("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
        rep.add("ops_per_s", requests_done as f64 / (wall_ms / 1e3), "1/s");
        rep.add("op_p50_ms", p(&all_ns, 0.5), "ms");
        // Each request's median miss latency, summed over the allocator's
        // programs.
        for (a, name) in alloc::NAMES.iter().enumerate() {
            let v = reqs.iter().zip(&miss_ms).filter(|(d, _)| d.alloc == a).map(|(_, v)| median(v));
            rep.add(format!("compile_ms.{name}"), v.sum(), "ms");
        }
        rep.add("verify_s", median(&verify_ms) / 1e3, "s");
        for name in crate::suite::QUALITY_ALLOCATORS {
            let a = alloc::index(name);
            rep.add(
                format!("spill_dyn.{name}"),
                by_alloc(a, &|c| c.counts.spill_total() as f64),
                "count",
            );
        }
    }
    Ok(rep)
}

/// Sum of a `(loads, stores, moves)` triple.
pub(crate) fn sum3((l, s, m): (u64, u64, u64)) -> u64 {
    l + s + m
}
