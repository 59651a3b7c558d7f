//! The allocate → check → clean up → lower → verify → execute pipeline the
//! `spec` and `scale` workloads share.
//!
//! Check order follows `lsra alloc --check`: the symbolic checker and the
//! quality lints see each allocator's output *before* identity-move
//! removal (the checker pairs instructions 1:1 with the original, so it
//! rejects a removed `li` move with "instruction kind changed"); the VM
//! static check, lowering, the native verifier and execution see the
//! module *after* removal.
//!
//! A run is: set-up (three times, and once more after every timed round;
//! median reported), a reference pass that runs every allocation on the
//! VM against the unallocated program, one untimed warm-up round, then
//! timed rounds until the run length is spent.
//! Each round runs every (program, allocator) pair once — one operation —
//! with the allocators interleaved round-robin.

use std::time::{Duration, Instant};

use lsra_core::{AllocStats, RegisterAllocator, PHASE_NAMES};
use lsra_ir::{MachineSpec, Module, PhysReg, Reg, RegClass, SpillTag};
use lsra_jit::{CodeBuffer, MappedModule};
use lsra_lint::LintCode;
use lsra_vm::{RunResult, Vm, VmOptions};
use lsra_workloads::Lcg;

use crate::report::Report;
use crate::stats::{median, ms, shuffle};
use crate::trace::{layer_ms, Ids, Tracer};
use crate::{alloc, RunConfig, MIN_ROUNDS, SETUP_REPS};

/// One input program of a workload.
#[derive(Clone, Debug)]
pub struct Program {
    /// Short name used in metric names and spans.
    pub name: String,
    /// The unallocated module.
    pub module: Module,
    /// Bytes fed to `getchar`.
    pub input: Vec<u8>,
}

/// What tells `spec` and `scale` apart.
#[derive(Copy, Clone, Debug)]
pub struct Suite {
    /// Workload name.
    pub name: &'static str,
    /// Builds the input programs (the `lsra-workloads` layer).
    pub build: fn() -> Vec<Program>,
    /// Compiles per operation: its own, and `compiles - 1` more without
    /// spans, each checked against the set-up's machine code and made
    /// after another operation of the round, so that a pair's samples
    /// spread over the round rather than sit together. The operation's
    /// compile time is the median of all of them.
    pub compiles: usize,
    /// Run an untimed warm-up round before timing. Without one, set-up
    /// (every allocation compiled and mapped at least three times) and the
    /// reference pass (every program run on the VM and natively) are what
    /// warms the process.
    pub warmup_round: bool,
}

/// A fault planted in one operation, to prove the checks catch it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// No fault.
    None,
    /// One register operand of the allocated code names a wrong register.
    RegOperand,
    /// One byte of the compiled machine code is flipped.
    CodeByte,
}

/// Allocators reported as `spill_dyn.*` (poletto's dynamic spill code
/// shows per layer, as `vm.evict_dyn.poletto` and `vm.resolve_dyn.poletto`).
pub(crate) const QUALITY_ALLOCATORS: [&str; 4] = ["binpack", "two-pass", "coloring", "ion"];

/// Set-up artifacts of one (program, allocator) pair.
struct Pair {
    program: usize,
    alloc: usize,
    /// Post-removal module, for the VM reference pass.
    module: Module,
    code: CodeBuffer,
    inserted: u64,
}

struct Setup {
    programs: Vec<Program>,
    pairs: Vec<Pair>,
    /// Per pair, the allocated program's VM result once the reference pass
    /// accepted it; `Err` holds why the pair is broken.
    expected: Vec<Result<RunResult, String>>,
}

/// Wall times of one successful operation, in milliseconds.
#[derive(Clone, Debug, Default)]
struct OpSample {
    /// The whole operation, checks included.
    total: f64,
    /// Allocate + clean up + lower: the operation's own compile and,
    /// once the round ends, its pair's further compiles of the round.
    compiles: Vec<f64>,
    alloc: f64,
    cleanup: f64,
    lower: f64,
    check: f64,
    static_check: f64,
    verify: f64,
    exec: f64,
    /// Time spent on traced-only work inside the operation (lints).
    probe: f64,
    stats: AllocStats,
    counts: lsra_vm::DynCounts,
    lint: Option<(u64, u64)>,
}

/// Times of every set-up repeat of a run.
#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    build_ms: Vec<f64>,
    map_ms: Vec<f64>,
}

fn build_setup(
    suite: &Suite,
    allocs: &[Box<dyn RegisterAllocator>],
    spec: &MachineSpec,
    times: &mut SetupTimes,
) -> Result<Setup, String> {
    let start = Instant::now();
    let programs = (suite.build)();
    times.build_ms.push(ms(start.elapsed()));
    let mut pairs = Vec::new();
    for (p, prog) in programs.iter().enumerate() {
        for (a, alloc) in allocs.iter().enumerate() {
            let mut m = prog.module.clone();
            let stats = alloc.allocate_module(&mut m, spec);
            for id in m.func_ids().collect::<Vec<_>>() {
                lsra_analysis::remove_identity_moves(m.func_mut(id));
            }
            let code = lsra_jit::compile_module(&m, spec)
                .map_err(|e| format!("{}/{}: lowering: {e}", prog.name, alloc::NAMES[a]))?;
            pairs.push(Pair {
                program: p,
                alloc: a,
                module: m,
                code,
                inserted: stats.inserted_total(),
            });
        }
    }
    let t = Instant::now();
    let maps = map_all(&pairs)?;
    times.map_ms.push(ms(t.elapsed()));
    drop(maps);
    times.total_s.push(start.elapsed().as_secs_f64());
    Ok(Setup { programs, pairs, expected: Vec::new() })
}

fn map_all(pairs: &[Pair]) -> Result<Vec<MappedModule<'_>>, String> {
    pairs.iter().map(|p| p.code.map().map_err(|e| format!("mapping code: {e}"))).collect()
}

/// Runs every allocation on the VM and on the host against the
/// unallocated program's VM result. Returns each pair's verdict, and the
/// VM reference and allocated run times in milliseconds.
fn reference_pass(
    setup: &Setup,
    maps: &[MappedModule<'_>],
    spec: &MachineSpec,
) -> (Vec<Result<RunResult, String>>, f64, f64) {
    let opts = VmOptions::default();
    let (mut ref_ms, mut run_ms) = (0.0, 0.0);
    let mut refs = Vec::new();
    for prog in &setup.programs {
        let t = Instant::now();
        refs.push(Vm::new(&prog.module, spec, &prog.input, opts.clone()).run());
        ref_ms += ms(t.elapsed());
    }
    let mut verdicts = Vec::new();
    for (pair, map) in setup.pairs.iter().zip(maps) {
        let prog = &setup.programs[pair.program];
        let t = Instant::now();
        let vm = Vm::new(&pair.module, spec, &prog.input, opts.clone()).run();
        run_ms += ms(t.elapsed());
        verdicts.push((|| {
            let before = refs[pair.program].clone().map_err(|e| format!("reference run: {e}"))?;
            let after = vm.map_err(|e| format!("VM run: {e}"))?;
            lsra_vm::compare_runs(&before, &after).map_err(|e| format!("VM differential: {e}"))?;
            let native = map.run(&prog.input, &opts).map_err(|e| format!("native run: {e}"))?;
            if native != after {
                return Err("native result differs from the VM's".to_string());
            }
            Ok(after)
        })());
    }
    (verdicts, ref_ms, run_ms)
}

/// Points one integer register operand of an original, non-move,
/// non-control instruction at the next register of its class.
fn corrupt_register(m: &mut Module, spec: &MachineSpec) {
    let k = spec.num_regs(RegClass::Int);
    let insts =
        m.funcs.iter_mut().flat_map(|f| f.blocks.iter_mut()).flat_map(|b| b.insts.iter_mut());
    for ins in insts {
        let i = &mut ins.inst;
        if ins.tag != SpillTag::None || i.is_move() || i.is_call() || i.is_terminator() {
            continue;
        }
        let mut done = false;
        i.for_each_use_mut(|r| {
            if let Reg::Phys(p) = *r {
                if !done && p.class == RegClass::Int {
                    *r = Reg::Phys(PhysReg::int((p.index + 1) % k));
                    done = true;
                }
            }
        });
        if done {
            return;
        }
    }
}

fn verify_native(
    m: &Module,
    spec: &MachineSpec,
    code: &CodeBuffer,
    corrupt: Corruption,
) -> lsra_lint::LintReport {
    if corrupt != Corruption::CodeByte {
        return lsra_verify::verify_module(m, spec, code);
    }
    let (start, end) = code.func_ranges()[m.entry.index()];
    let mut bytes = code.encoding().to_vec();
    bytes[(start + end) / 2] ^= 0xFF;
    lsra_verify::verify_image(
        &m.funcs,
        m.entry,
        spec,
        &bytes,
        code.entry_offset(),
        code.func_ranges(),
    )
}

/// Allocate, clean up and lower without checks; returns the time taken.
fn compile_only(
    prog: &Program,
    alloc: &dyn RegisterAllocator,
    pair: &Pair,
    spec: &MachineSpec,
) -> Result<f64, String> {
    let mut m = prog.module.clone();
    let t = Instant::now();
    std::hint::black_box(alloc.allocate_module(&mut m, spec));
    for id in m.func_ids().collect::<Vec<_>>() {
        lsra_analysis::remove_identity_moves(m.func_mut(id));
    }
    let code = lsra_jit::compile_module(&m, spec).map_err(|e| format!("lowering: {e}"))?;
    let dt = ms(t.elapsed());
    if code.encoding() != pair.code.encoding() {
        return Err("machine code differs from the set-up's".into());
    }
    Ok(dt)
}

/// One operation: allocate, check, clean up, lower, verify and execute one
/// program with one allocator, comparing every output with the set-up
/// reference.
#[allow(clippy::too_many_arguments)]
fn run_op(
    prog: &Program,
    alloc: &dyn RegisterAllocator,
    pair: &Pair,
    expected: &Result<RunResult, String>,
    map: &MappedModule<'_>,
    spec: &MachineSpec,
    tr: &mut Tracer,
    ids: Ids,
    corrupt: Corruption,
) -> Result<OpSample, String> {
    let expected = expected.as_ref().map_err(Clone::clone)?;
    let mut s = OpSample::default();
    let mut m = prog.module.clone();
    let (stats, dt) = tr.time("core.alloc", ids, || alloc.allocate_module(&mut m, spec));
    s.alloc = ms(dt);
    if corrupt == Corruption::RegOperand {
        corrupt_register(&mut m, spec);
    }
    let (checked, dt) =
        tr.time("checker.check", ids, || lsra_checker::check_module(&prog.module, &m, spec));
    s.check = ms(dt);
    checked.map_err(|e| format!("symbolic check: {e}"))?;
    if tr.enabled() {
        let (report, dt) = tr.time("lint.quality", ids, || lsra_lint::lint_quality(&m, spec));
        s.probe = ms(dt);
        s.lint = Some((
            report.count(LintCode::DeadSpillStore) as u64,
            report.count(LintCode::RedundantReload) as u64,
        ));
    }
    let ((), dt) = tr.time("core.cleanup", ids, || {
        for id in m.func_ids().collect::<Vec<_>>() {
            lsra_analysis::remove_identity_moves(m.func_mut(id));
        }
    });
    s.cleanup = ms(dt);
    let (checked, dt) = tr.time("vm.static_check", ids, || lsra_vm::check_module(&m, spec));
    s.static_check = ms(dt);
    checked.map_err(|e| format!("static check: {e}"))?;
    let (code, dt) = tr.time("jit.lower", ids, || lsra_jit::compile_module(&m, spec));
    s.lower = ms(dt);
    let code = code.map_err(|e| format!("lowering: {e}"))?;
    let (report, dt) = tr.time("verify.native", ids, || verify_native(&m, spec, &code, corrupt));
    s.verify = ms(dt);
    if !report.diags.is_empty() {
        return Err(format!("native verifier: {} diagnostic(s)", report.diags.len()));
    }
    if code.encoding() != pair.code.encoding() {
        return Err("machine code differs from the set-up's".into());
    }
    if stats.inserted_total() != pair.inserted {
        return Err(format!(
            "{} spill instructions, set-up had {}",
            stats.inserted_total(),
            pair.inserted
        ));
    }
    let (run, dt) = tr.time("jit.exec", ids, || map.run(&prog.input, &VmOptions::default()));
    s.exec = ms(dt);
    let run = run.map_err(|e| format!("native run: {e}"))?;
    if &run != expected {
        return Err("native result differs from the VM reference".into());
    }
    s.compiles = vec![s.alloc + s.cleanup + s.lower];
    s.counts = run.counts;
    s.stats = stats;
    Ok(s)
}

/// Times the analysis and SSA layers on every function of `modules`, once
/// per traced round (these calls are not part of any operation).
pub(crate) fn layer_probes(modules: &[&Module], spec: &MachineSpec, tr: &mut Tracer, round: u32) {
    for (p, m) in modules.iter().enumerate() {
        let ids = Ids { round, program: p as u32, alloc: "" };
        for f in &m.funcs {
            let (live, _) =
                tr.time("analysis.liveness", ids, || lsra_analysis::Liveness::compute(f));
            let (loops, _) = tr.time("analysis.loops", ids, || lsra_analysis::LoopInfo::of(f));
            tr.time("analysis.lifetimes", ids, || {
                lsra_analysis::Lifetimes::compute(f, &live, &loops, spec)
            });
            let mut g = f.clone();
            tr.time("ssa.roundtrip", ids, || lsra_ssa::to_ssa_and_back(&mut g));
        }
    }
}

/// Everything a run measured, before it is turned into metrics.
struct Samples {
    /// `ops[round][pair]`; `None` for a failed operation.
    ops: Vec<Vec<Option<OpSample>>>,
    traced_rounds: Vec<u32>,
    traced_round_ms: Vec<f64>,
    untraced_round_ms: Vec<f64>,
}

/// Runs `suite` for `cfg`, planting `corrupt` in the first binpack
/// operation of every round.
///
/// # Errors
///
/// Returns a message when set-up itself cannot complete (lowering
/// rejects an allocation, or the host cannot map executable memory).
pub fn run(suite: &Suite, cfg: &RunConfig, corrupt: Corruption) -> Result<Report, String> {
    let spec = MachineSpec::alpha_like();
    let allocs: Vec<_> = alloc::NAMES.iter().map(|n| alloc::make(n, false)).collect();
    let phase_timed: Vec<_> = alloc::NAMES.iter().map(|n| alloc::make(n, true)).collect();

    // Set-up: build inputs, allocate, lower and map; the last repeat is
    // kept for the rounds.
    let mut times = SetupTimes::default();
    for _ in 1..SETUP_REPS {
        build_setup(suite, &allocs, &spec, &mut times)?;
    }
    let mut setup = build_setup(suite, &allocs, &spec, &mut times)?;
    // The kept set-up's code was mapped (and timed) inside its repetition;
    // mapping it once more here keeps the mappings for the rounds.
    let maps = map_all(&setup.pairs)?;
    let (expected, vm_ref_ms, vm_run_ms) = reference_pass(&setup, &maps, &spec);
    for (pair, v) in setup.pairs.iter().zip(&expected) {
        if let Err(e) = v {
            let (p, a) = (&setup.programs[pair.program].name, alloc::NAMES[pair.alloc]);
            eprintln!("perfbench: {p}/{a}: {e}");
        }
    }
    setup.expected = expected;

    let mut tr = Tracer::new(false);
    let mut rng = Lcg::new(cfg.seed);
    let np = setup.programs.len();
    let na = allocs.len();
    let mut samples = Samples {
        ops: Vec::new(),
        traced_rounds: Vec::new(),
        traced_round_ms: Vec::new(),
        untraced_round_ms: Vec::new(),
    };
    let mut failures = Vec::new();
    let mut timed_start = None;
    // Traced only: each program's printed form, for the request-path probe.
    let mut texts: Option<Vec<String>> = None;
    let mut correct = true;
    loop {
        let warmup = timed_start.is_none() && suite.warmup_round;
        if !warmup {
            let t0 = *timed_start.get_or_insert_with(Instant::now);
            let done = samples.ops.len();
            if done >= MIN_ROUNDS && t0.elapsed() >= Duration::from_secs_f64(cfg.seconds) {
                break;
            }
        }
        // In the traced run every other timed round keeps spans; the rest
        // measure the same work untraced, for the tracing overhead.
        let traced = cfg.trace && !warmup && samples.ops.len() % 2 == 1;
        // Timed rounds are numbered from 0; the warm-up round is not.
        let round_no = if warmup { u32::MAX } else { samples.ops.len() as u32 };
        tr.set_enabled(traced);
        let mut order: Vec<usize> = (0..np).collect();
        shuffle(&mut rng, &mut order);
        let rot = rng.below(na as u64) as usize;
        let mut row: Vec<Option<OpSample>> = vec![None; np * na];
        let mut probe_ms = 0.0;
        let t0 = Instant::now();
        tr.open("round", Ids::round(round_no));
        // The round's operations in order: (program, allocator).
        let seq: Vec<(usize, usize)> = order
            .iter()
            .enumerate()
            .flat_map(|(k, &p)| (0..na).map(move |j| (p, (j + rot + k) % na)))
            .collect();
        // Further compile samples per pair, and why one failed.
        let mut extra: Vec<Vec<f64>> = vec![Vec::new(); np * na];
        let mut extra_err: Vec<Option<String>> = vec![None; np * na];
        let step = seq.len() / suite.compiles;
        for (i, &(p, a)) in seq.iter().enumerate() {
            let idx = p * na + a;
            let ids = Ids { round: round_no, program: p as u32, alloc: alloc::NAMES[a] };
            let ops = if traced { &phase_timed } else { &allocs };
            let c = if alloc::NAMES[a] == "binpack" && i < na { corrupt } else { Corruption::None };
            tr.open("op", ids);
            let t = Instant::now();
            let r = run_op(
                &setup.programs[p],
                &*ops[a],
                &setup.pairs[idx],
                &setup.expected[idx],
                &maps[idx],
                &spec,
                &mut tr,
                ids,
                c,
            );
            let op_ms = ms(t.elapsed());
            tr.close();
            match r {
                Ok(mut s) => {
                    s.total = op_ms - s.probe;
                    probe_ms += s.probe;
                    row[idx] = Some(s);
                }
                Err(e) => {
                    let why = format!("{}/{}: {e}", setup.programs[p].name, alloc::NAMES[a]);
                    eprintln!("perfbench: {why}");
                    if !warmup {
                        failures.push(why);
                    }
                }
            }
            // After operation i, one more compile each of the pairs
            // `step`, 2 × `step`, ... places further on (cyclically): every
            // pair gets `compiles - 1` of them, spread over the round.
            for m in 1..suite.compiles {
                let (p2, a2) = seq[(i + m * step) % seq.len()];
                let idx2 = p2 * na + a2;
                match compile_only(&setup.programs[p2], &*allocs[a2], &setup.pairs[idx2], &spec) {
                    Ok(dt) => extra[idx2].push(dt),
                    Err(e) => extra_err[idx2] = Some(e),
                }
            }
        }
        for (idx, (cell, err)) in row.iter_mut().zip(extra_err).enumerate() {
            let Some(s) = cell else { continue };
            if let Some(e) = err {
                let why =
                    format!("{}/{}: {e}", setup.programs[idx / na].name, alloc::NAMES[idx % na]);
                eprintln!("perfbench: {why}");
                if !warmup {
                    failures.push(why);
                }
                *cell = None;
                continue;
            }
            s.compiles.append(&mut extra[idx]);
        }
        let round_ms = ms(t0.elapsed()) - probe_ms;
        if traced {
            let modules: Vec<&Module> = setup.programs.iter().map(|p| &p.module).collect();
            layer_probes(&modules, &spec, &mut tr, round_no);
            let texts = texts.get_or_insert_with(|| {
                setup.programs.iter().map(|p| format!("{}", p.module)).collect::<Vec<_>>()
            });
            if !crate::serve::request_path_probe(texts, &mut tr, round_no) {
                eprintln!("perfbench: round {round_no}: the request path failed on a probe");
                correct = false;
            }
        }
        tr.close();
        if !warmup {
            build_setup(suite, &allocs, &spec, &mut times)?;
            if traced {
                samples.traced_rounds.push(round_no);
                samples.traced_round_ms.push(round_ms);
            } else {
                samples.untraced_round_ms.push(round_ms);
            }
            samples.ops.push(row);
        }
        if warmup {
            timed_start = Some(Instant::now());
        }
    }

    let mut rep = Report::new();
    rep.correct = correct;
    rep.attempted = (samples.ops.len() * np * na) as u64;
    rep.failed = samples.ops.iter().flatten().filter(|s| s.is_none()).count() as u64;
    debug_assert_eq!(rep.failed, failures.len() as u64);
    rep.failures = failures;
    if cfg.trace {
        per_layer(
            &mut rep,
            &setup,
            &samples,
            &tr,
            &LayerTimes {
                build_ms: median(&times.build_ms),
                map_ms: median(&times.map_ms),
                vm_ref_ms,
                vm_run_ms,
            },
        );
        if suite.name == "scale" && !checker_growth(&spec) {
            rep.correct = false;
        }
        crate::write_spans(
            suite.name,
            &tr,
            &setup.programs.iter().map(|p| p.name.clone()).collect::<Vec<_>>(),
        );
    } else {
        end_to_end(&mut rep, &setup, &samples, median(&times.total_s));
    }
    Ok(rep)
}

/// Median over `rows` (rounds) of the sum of `value` over the operations
/// whose (program, allocator) `keep` picks.
fn round_median(
    rows: &[Vec<Option<OpSample>>],
    na: usize,
    keep: impl Fn(usize, usize) -> bool,
    value: impl Fn(&OpSample) -> f64,
) -> f64 {
    let per_round: Vec<f64> = rows
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .filter(|(idx, _)| keep(idx / na, idx % na))
                .filter_map(|(_, s)| s.as_ref().map(&value))
                .sum()
        })
        .collect();
    median(&per_round)
}

fn end_to_end(rep: &mut Report, setup: &Setup, samples: &Samples, setup_s: f64) {
    let na = alloc::NAMES.len();
    rep.add("setup_s", setup_s, "s");
    rep.add("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    // The untraced run's rounds are all untraced.
    let secs: f64 = samples.untraced_round_ms.iter().sum::<f64>() / 1e3;
    rep.add("ops_per_s", rep.attempted as f64 / secs, "1/s");
    let ops: Vec<f64> = samples.ops.iter().flatten().flatten().map(|s| s.total).collect();
    rep.add("op_p50_ms", median(&ops), "ms");
    // Each pair's median over every compile of the run, summed over the
    // programs.
    let mut compile = vec![0.0; na];
    for idx in 0..setup.pairs.len() {
        let all: Vec<f64> = samples
            .ops
            .iter()
            .filter_map(|row| row[idx].as_ref())
            .flat_map(|s| s.compiles.iter().copied())
            .collect();
        compile[idx % na] += median(&all);
    }
    for (name, v) in alloc::NAMES.iter().zip(compile) {
        rep.add(format!("compile_ms.{name}"), v, "ms");
    }
    let v = round_median(&samples.ops, na, |_, _| true, |s| s.check + s.static_check + s.verify);
    rep.add("verify_s", v / 1e3, "s");
    for name in QUALITY_ALLOCATORS {
        rep.add(format!("spill_dyn.{name}"), dyn_sum(setup, name, |c| c.spill_total()), "count");
    }
}

/// Sums `f` over the VM reference counts of every program allocated by
/// `alloc_name` (identical, by the per-round checks, to the native counts).
fn dyn_sum(setup: &Setup, alloc_name: &str, f: impl Fn(&lsra_vm::DynCounts) -> u64) -> f64 {
    setup
        .pairs
        .iter()
        .zip(&setup.expected)
        .filter(|(p, _)| alloc::NAMES[p.alloc] == alloc_name)
        .filter_map(|(_, r)| r.as_ref().ok())
        .map(|r| f(&r.counts) as f64)
        .sum()
}

struct LayerTimes {
    build_ms: f64,
    map_ms: f64,
    vm_ref_ms: f64,
    vm_run_ms: f64,
}

/// The per-allocator quality layer metrics: static spill instructions,
/// quality lints (and their share of the spill instructions), dynamic
/// instruction, eviction and resolution counts, native run time and code
/// size.
pub(crate) fn quality_metrics(
    rep: &mut Report,
    name: &str,
    inserted: f64,
    (q101, q102): (f64, f64),
    [insts, evict, resolve]: [f64; 3],
    exec_ms: f64,
    code_bytes: f64,
) {
    rep.add(format!("{name}.inserted"), inserted, "count");
    rep.add(format!("lint.q101.{name}"), q101, "count");
    rep.add(format!("lint.q102.{name}"), q102, "count");
    let share = |q: f64| if inserted == 0.0 { 0.0 } else { q / inserted };
    rep.add(format!("lint.q101_per_inserted.{name}"), share(q101), "ratio");
    rep.add(format!("lint.q102_per_inserted.{name}"), share(q102), "ratio");
    rep.add(format!("vm.dyn_insts.{name}"), insts, "count");
    rep.add(format!("vm.evict_dyn.{name}"), evict, "count");
    rep.add(format!("vm.resolve_dyn.{name}"), resolve, "count");
    rep.add(format!("jit.exec_ms.{name}"), exec_ms, "ms");
    rep.add(format!("jit.code_bytes.{name}"), code_bytes, "count");
}

/// Round times of the traced run's traced and untraced rounds, and the
/// tracing overhead between them.
pub(crate) fn overhead_metrics(rep: &mut Report, traced: f64, untraced: f64) {
    rep.add("trace.round_ms", traced, "ms");
    rep.add("trace.untraced_round_ms", untraced, "ms");
    rep.add("trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%");
}

fn per_layer(rep: &mut Report, setup: &Setup, samples: &Samples, tr: &Tracer, lt: &LayerTimes) {
    let na = alloc::NAMES.len();
    let np = setup.programs.len();
    let rounds = &samples.traced_rounds;
    let traced_ops: Vec<_> = rounds.iter().map(|&r| samples.ops[r as usize].clone()).collect();
    let layer = |name: &str| layer_ms(tr, rounds, |s| s.name == name);
    rep.add("workloads.build_ms", lt.build_ms, "ms");
    rep.add("analysis.liveness_ms", layer("analysis.liveness"), "ms");
    rep.add("analysis.lifetimes_ms", layer("analysis.lifetimes"), "ms");
    rep.add("ssa.roundtrip_ms", layer("ssa.roundtrip"), "ms");
    rep.add("core.cleanup_ms", layer("core.cleanup"), "ms");
    for (i, phase) in PHASE_NAMES.iter().enumerate() {
        let v = round_median(
            &traced_ops,
            na,
            |_, a| alloc::NAMES[a] == "binpack",
            |s| s.stats.timings.as_ref().map_or(0.0, |t| t.seconds[i] * 1e3),
        );
        rep.add(format!("core.phase.{phase}_ms"), v, "ms");
    }
    for name in alloc::NAMES {
        rep.add(
            format!("{name}.alloc_ms"),
            layer_ms(tr, rounds, |s| s.name == "core.alloc" && s.ids.alloc == name),
            "ms",
        );
    }
    rep.add("checker.check_ms", layer("checker.check"), "ms");
    rep.add("vm.static_check_ms", layer("vm.static_check"), "ms");
    rep.add("jit.lower_ms", layer("jit.lower"), "ms");
    rep.add("jit.map_ms", lt.map_ms, "ms");
    rep.add("verify.native_ms", layer("verify.native"), "ms");
    let first = traced_ops.first();
    for (a, name) in alloc::NAMES.iter().enumerate() {
        let ops: Vec<&OpSample> = first
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|(i, _)| i % na == a)
                    .filter_map(|(_, s)| s.as_ref())
                    .collect()
            })
            .unwrap_or_default();
        let inserted: u64 = setup.pairs.iter().filter(|p| p.alloc == a).map(|p| p.inserted).sum();
        let q101: u64 = ops.iter().filter_map(|s| s.lint).map(|l| l.0).sum();
        let q102: u64 = ops.iter().filter_map(|s| s.lint).map(|l| l.1).sum();
        let bytes: usize =
            setup.pairs.iter().filter(|p| p.alloc == a).map(|p| p.code.code_size()).sum();
        quality_metrics(
            rep,
            name,
            inserted as f64,
            (q101 as f64, q102 as f64),
            [
                dyn_sum(setup, name, |c| c.total),
                dyn_sum(setup, name, |c| crate::serve::sum3(c.evict())),
                dyn_sum(setup, name, |c| crate::serve::sum3(c.resolve())),
            ],
            layer_ms(tr, rounds, |s| s.name == "jit.exec" && s.ids.alloc == *name),
            bytes as f64,
        );
        let stat_sum = |f: fn(&AllocStats) -> u64| -> f64 {
            ops.iter().map(|s| f(&s.stats)).sum::<u64>() as f64
        };
        if *name == "coloring" {
            rep.add("coloring.iterations", stat_sum(|s| u64::from(s.iterations)), "count");
        }
        if *name == "ion" {
            rep.add("ion.splits", stat_sum(|s| s.lifetime_splits), "count");
            rep.add("ion.bundle_evictions", stat_sum(|s| s.evictions), "count");
        }
    }
    rep.add("vm.ref_run_ms", lt.vm_ref_ms, "ms");
    rep.add("vm.run_ms", lt.vm_run_ms, "ms");
    // One inline request per (program, allocator), each a miss.
    let probes = np * na;
    crate::serve::request_path_metrics(rep, tr, rounds, probes, probes, probes);
    overhead_metrics(rep, median(&samples.traced_round_ms), median(&samples.untraced_round_ms));
}

/// The symbolic checker's growth with function size, on standard error:
/// binpack allocations of the one-huge-function shape at 5k, 10k and 20k
/// instructions. Returns whether the checker accepted all three.
fn checker_growth(spec: &MachineSpec) -> bool {
    let alloc = alloc::make("binpack", false);
    let mut all_ok = true;
    for n in [5_000, 10_000, 20_000] {
        let orig = lsra_workloads::scaling::scale_module("huge", n).expect("known shape");
        let mut m = orig.clone();
        alloc.allocate_module(&mut m, spec);
        let t = Instant::now();
        let ok = lsra_checker::check_module(&orig, &m, spec).is_ok();
        let v = ms(t.elapsed());
        let verdict = if ok { "" } else { " (rejected)" };
        eprintln!("perfbench: checker growth: huge {}k: {v:.1} ms{verdict}", n / 1000);
        all_ok &= ok;
    }
    all_ok
}
