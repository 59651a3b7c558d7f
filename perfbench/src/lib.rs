//! One benchmark for the register allocators: compile speed, spill
//! quality, verification and service latency.
//!
//! Three workloads, each run in its own process by the `perfbench`
//! binary:
//!
//! * [`suite`] with [`SPEC`] — the 11 paper-shaped programs, every
//!   allocator, allocate → check → lower → verify → execute (quality
//!   regime: native execution and checking dominate);
//! * [`suite`] with [`SCALE`] — one many-medium-functions module and one
//!   huge function (allocation and checking dominate);
//! * [`serve`] — a closed loop of two clients against an in-process
//!   allocation service (the request path dominates).
//!
//! See `README.md` for the metrics and which layer moves which.

pub mod alloc;
pub mod report;
pub mod serve;
pub mod stats;
pub mod suite;
pub mod trace;

use suite::{Program, Suite};

/// Fewest timed rounds of a run. The traced run alternates untraced and
/// traced rounds, so it needs two; the untraced run takes as many, so that
/// `--seconds 0` gives the shortest run of either kind.
pub const MIN_ROUNDS: usize = 2;

/// Set-up runs this many times before the first round, and once more
/// after every timed round; `setup_s` is the median of all of them. On a
/// 2-vCPU host, repeats made only in the first half second of a process
/// spread by up to 32 % between processes; spread over the run, they
/// spread like the rounds' own metrics.
pub const SETUP_REPS: usize = 3;

/// What a run measures and for how long.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Shapes orders and request mixes; never the programs under test.
    pub seed: u64,
    /// Timed rounds start until this many seconds have passed (and at
    /// least [`MIN_ROUNDS`] have run).
    pub seconds: f64,
    /// Traced run: per-layer metrics from spans, not end-to-end ones.
    pub trace: bool,
}

impl RunConfig {
    /// The configuration of a run.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig { seed, seconds, trace }
    }
}

/// The 11 paper-shaped programs on the `alpha` machine.
///
/// `alpha` only: the workload builders hard-code alpha's calling
/// convention, so on a small register file some programs read registers
/// the convention never set (see `README.md`).
pub const SPEC: Suite = Suite {
    name: "spec",
    build: spec_programs,
    // A compile of one program takes about 0.2 ms; with one compile per
    // operation, each cold after the previous operation's native run,
    // `compile_ms.binpack` spread by 21 % between processes on a 2-vCPU
    // host.
    compiles: 3,
    warmup_round: true,
};

/// `scale:medium:100000` and `scale:huge:20000`.
pub const SCALE: Suite = Suite {
    name: "scale",
    build: scale_programs,
    // One compile of a module takes 40-700 ms and two rounds fit in a
    // run; one compile per operation made `compile_ms.coloring` spread by
    // 17 % between runs on a 2-vCPU host.
    compiles: 5,
    // A scale round takes about 20 s, most of it in multi-second checker
    // calls, where a cold start is a small share; set-up and the reference
    // pass have already run every allocator, the lowering and execution.
    warmup_round: false,
};

fn spec_programs() -> Vec<Program> {
    lsra_workloads::all()
        .into_iter()
        .map(|w| Program { name: w.name.to_string(), module: (w.build)(), input: (w.input)() })
        .collect()
}

fn scale_programs() -> Vec<Program> {
    [("medium", 100_000), ("huge", 20_000)]
        .into_iter()
        .map(|(shape, insts)| Program {
            name: shape.to_string(),
            module: lsra_workloads::scaling::scale_module(shape, insts).expect("known shape"),
            input: Vec::new(),
        })
        .collect()
}

/// Runs workload `name` (`spec`, `scale` or `serve`).
///
/// # Errors
///
/// Returns a message for an unknown workload or a set-up that cannot
/// complete.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<report::Report, String> {
    match name {
        "spec" => suite::run(&SPEC, cfg, suite::Corruption::None),
        "scale" => suite::run(&SCALE, cfg, suite::Corruption::None),
        "serve" => serve::run(cfg),
        other => Err(format!("unknown workload `{other}` (spec | scale | serve)")),
    }
}

/// Writes a traced run's spans to `out/spans-<workload>.jsonl` in the
/// benchmark's directory. A write failure is reported, not fatal: the
/// metrics are already computed.
pub fn write_spans(workload: &str, tr: &trace::Tracer, programs: &[String]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}.jsonl"));
    let res = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.to_jsonl(workload, programs)));
    match res {
        Ok(()) => eprintln!("perfbench: {} spans in {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}
