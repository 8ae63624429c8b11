//! The repo benchmark: one process per workload, every metric by name.
//!
//! ```sh
//! cargo run --release --offline --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload resnet34_int [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics with every
//! probe off. A traced run (`--trace 1`) measures the per-layer metrics: the
//! workload's model at a fifth of the run length under
//! `wino_trace::Detail::Full`, then the kernel-shape sweep and the serving
//! probes, with the benchmark's own spans written as a Chrome trace. Layers
//! are timed from outside, through their public functions and the telemetry
//! they already return. The last line of standard output is the result as
//! one JSON object; the exit code is non-zero when an output check failed.
//! `README.md` beside this file has the metric glossary.

mod cpus;
mod graph;
mod heap;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;
mod workloads;

use report::Report;
use spans::Spans;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::{Workload, RUN_SECONDS};

/// Counts every heap allocation of the process, so allocations per inference
/// are exact counts that repeat from run to run. Two relaxed adds on the
/// allocation path; frees are not counted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which only
        // ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and allocated bytes of the whole process so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Operations of a run, and what went wrong.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    /// Operations whose reply was wrong or never came. A refusal by
    /// admission control is not a failure; it misses goodput instead.
    pub failed: u64,
    /// The first few failed operations and every failed check, in words.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; a failed one says what it was.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Marks an operation already counted as failed.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// The command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
    /// Tiny counts and small resolutions through the same code paths.
    pub smoke: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut traced, mut smoke) = (0u64, None, false, false);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(Workload::parse(name).ok_or(format!(
                        "unknown workload {name}; one of: {}",
                        Workload::ALL.map(Workload::name).join(", ")
                    ))?);
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload <name> is required")?,
            seed,
            seconds: seconds.unwrap_or(if smoke { 0.3 } else { RUN_SECONDS }),
            traced,
            smoke,
        })
    }

    pub fn setup_cycles(&self) -> usize {
        self.workload.setup_cycles(self.smoke)
    }

    /// Untimed runs before a graph workload's timed loop.
    pub fn warmup_runs(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// Where the Chrome trace goes: cargo's target directory.
fn trace_path(workload: Workload) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target)
        .join("benchmark")
        .join(format!("trace-{}.json", workload.name()))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("benchmark: {why}");
            std::process::exit(2);
        }
    };
    // One kernel thread: the reference box has two shared cores, and
    // `wino_tensor::parallel` scaling is not what this benchmark measures.
    wino_tensor::set_max_threads(1);
    wino_trace::set_detail(wino_trace::Detail::Off);
    let w = args.workload;
    println!(
        "benchmark workload={} seed={} seconds={} traced={} smoke={} simd={} nproc={} \
         cores={:?} kernel_threads=1",
        w.name(),
        args.seed,
        args.seconds,
        args.traced,
        args.smoke,
        wino_tensor::simd::active().name(),
        cpus::nproc(),
        cpus::allowed(),
    );

    let heap_bytes = if args.traced || args.smoke {
        0
    } else {
        w.heap_bytes()
    };
    let prefaulted = heap::prefault(heap_bytes).map(|s| {
        println!(
            "heap: {} MB faulted in beforehand, {s:.2} s",
            heap_bytes >> 20
        );
        heap::peak_rss_bytes()
    });

    let mut report = Report::default();
    let (ops, wanted) = if args.traced {
        let spans = Spans::new(true);
        wino_trace::set_detail(wino_trace::Detail::Full);
        let mut ops = graph::traced_section(w, &args, &spans, &mut report);
        ops.absorb(layers::traced_section(&args, &spans, &mut report));
        ops.absorb(serve::traced_section(w, &args, &spans, &mut report));
        wino_trace::set_detail(wino_trace::Detail::Off);

        let recs = spans.records();
        println!("spans: name, count, total ms, self ms");
        for (name, (n, total, own)) in spans::self_times(&recs) {
            println!(
                "  {name:<32} {n:>7} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = trace_path(w);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans::chrome_trace(&recs)));
        match written {
            Ok(()) => println!("chrome trace: {} spans in {}", recs.len(), path.display()),
            Err(e) => {
                ops.failures
                    .push(format!("writing {}: {e}", path.display()));
            }
        }
        (ops, workloads::per_layer_names())
    } else {
        let ops = if w.is_serving() {
            serve::end_to_end(w, &args, &mut report)
        } else {
            graph::end_to_end(w, &args, &mut report)
        };
        (ops, workloads::end_to_end_names())
    };

    print!("{}", report.render());
    if let Some(peak) = heap::peak_rss_bytes() {
        // Stacks and code come on top of the heap; more than that is heap the
        // run had to fault in while it was being measured.
        let outgrown = matches!(prefaulted, Some(Some(then)) if peak > then + (32 << 20));
        println!(
            "peak resident set = {} MB{}",
            peak >> 20,
            if outgrown {
                "  FLAG: the run outgrew the heap faulted in beforehand"
            } else {
                ""
            }
        );
    }
    println!("ops_attempted = {}", ops.attempted);
    println!("ops_failed = {}", ops.failed);
    for why in &ops.failures {
        println!("FAILED: {why}");
    }
    let correct = ops.failed == 0 && ops.failures.is_empty();
    println!(
        "{}",
        report::result_json(
            correct,
            ops.attempted.max(1),
            ops.failed,
            &report.select(&wanted)
        )
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn command_line_parses() {
        let a = parse(&[
            "--workload",
            "serve_overload",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .expect("every flag");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced, a.smoke),
            (Workload::ServeOverload, 7, 2.5, true, false)
        );
        let b = parse(&["--workload", "resnet34_int", "--smoke"]).expect("smoke");
        assert!(!b.traced && b.smoke && b.seconds < 1.0);
        assert_eq!(
            parse(&["--workload", "resnet34_int"])
                .expect("defaults")
                .seconds,
            RUN_SECONDS
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "resnet34_int", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "resnet34_int", "--traced"]).is_err());
        assert!(parse(&["--workload", "resnet34_int", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--workload", "resnet34_int", "--bogus"]).is_err());
    }

    #[test]
    fn allocator_counts_allocations_and_bytes() {
        let (n0, b0) = alloc_counts();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let (n1, b1) = alloc_counts();
        assert!(n1 > n0 && b1 - b0 >= 4096);
        drop(v);
    }
}
