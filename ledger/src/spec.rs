//! The seven workloads: what each one runs, how big it is, and the inputs
//! the program under test receives for a given ledger seed.
//!
//! Both binaries read this file. `ledger` turns a [`Workload`] into
//! `evogame-cli` flags and a request file; `ledger-trace` turns the same
//! numbers into in-process configuration. The program under test never sees
//! the ledger's `--seed`: it gets a seed derived here ([`child_seed`]).
//!
//! Sizes are for a 2-core box and put one child run at roughly 0.6–1.0 s,
//! so that a ten-second measurement holds ten or more runs. The *shape* of
//! each workload (population size, ranks, lattice side, job mix) is the
//! issue's; only generations and replicates were scaled down to fit the
//! benchmark contract's time cap.

use std::fmt::Write as _;
use std::path::Path;

/// What a workload runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// `evogame-cli run` (shared-memory well-mixed engine, memory-1).
    Run {
        ssets: u64,
        generations: u64,
        dedup: bool,
    },
    /// `evogame-cli distributed` on the virtual cluster.
    Distributed {
        ranks: u64,
        ssets: u64,
        generations: u64,
        every_generation: bool,
    },
    /// `evogame-cli spatial` on a square torus, `--init random:0.5`.
    Spatial { side: u64, generations: u64 },
    /// `evogame-cli fixate` (ALLC resident, ALLD mutant, 16 SSets, Moran).
    Fixate { replicates: u64 },
    /// `evogame-cli serve` over a generated request file.
    Serve(ServeSpec),
}

/// Sizes of the `serve` batch: eight job classes, `per_class` jobs each.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    pub per_class: u64,
    /// On-demand well-mixed jobs (64 SSets), shared and distributed.
    pub on_demand_generations: u64,
    /// Every-generation small jobs (16 SSets).
    pub every_gen_generations: u64,
    /// Stochastic jobs (16 SSets, mixed strategies, noise 0.01).
    pub stochastic_generations: u64,
    /// Lattice jobs (32×32), shared and distributed.
    pub spatial_generations: u64,
    /// Fixation jobs (16 SSets), shared and distributed.
    pub replicates: u64,
    /// How many of the distributed on-demand jobs lose rank 2 half way.
    pub faulty: u64,
}

/// Ranks of every distributed job in the `serve` batch.
pub const SERVE_RANKS: u64 = 3;
/// `serve --workers`.
pub const SERVE_WORKERS: u64 = 2;
/// `serve --queue-depth`.
pub const SERVE_QUEUE_DEPTH: u64 = 256;
/// SSets of a fixation population (the CLI default).
pub const FIXATE_SSETS: u64 = 16;

/// One workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// What `units_per_s` counts.
    pub unit: &'static str,
    /// One line: why this workload is in the set.
    pub why: &'static str,
    pub kind: Kind,
}

/// The workload set. `scale` divides generations and replicates: 1 is the
/// measured size, 50 is `--smoke`.
pub fn workloads(scale: u64) -> Vec<Workload> {
    let scale = scale.max(1);
    let g = |n: u64| (n / scale).max(4);
    vec![
        Workload {
            name: "wm_naive",
            unit: "generation",
            why: "the paper's schedule: 64 SSets all play all, naive 200-round games; ipd::game does the work, cache and dedup bypassed",
            kind: Kind::Run {
                ssets: 64,
                generations: g(250),
                dedup: false,
            },
        },
        Workload {
            name: "wm_cached",
            unit: "generation",
            why: "duplicate-heavy long run (512 SSets, --dedup): kernel idle, time goes to plan/apply, PayoffCache probes and the record writer",
            kind: Kind::Run {
                ssets: 512,
                generations: g(24_000),
                dedup: true,
            },
        },
        Workload {
            name: "dist_everygen",
            unit: "generation",
            why: "the paper's headline distributed run: 3 ranks, 128 SSets, every-generation fitness; cached evaluations plus two bcasts per generation",
            kind: Kind::Distributed {
                ranks: 3,
                ssets: 128,
                generations: g(750),
                every_generation: true,
            },
        },
        Workload {
            name: "dist_ondemand",
            unit: "generation",
            why: "same runner, opposite bottleneck: on-demand policy plays almost no games, so cluster::comm wake-up latency is the run",
            kind: Kind::Distributed {
                ranks: 3,
                ssets: 256,
                generations: g(75_000),
                every_generation: false,
            },
        },
        Workload {
            name: "spatial",
            unit: "generation",
            why: "128x128 lattice of one-shot games: 147k games of tens of ns per generation, so per-game overhead (cache lock, obs atomics) dominates",
            kind: Kind::Spatial {
                side: 128,
                generations: g(40),
            },
        },
        Workload {
            name: "fixate",
            unit: "replicate",
            why: "thousands of ~50-generation Moran runs of a 16-SSet population: Population::new_uniform, moran_pick, the batch-shared cache and rayon fan-out, not the kernel",
            kind: Kind::Fixate {
                replicates: g(14_000),
            },
        },
        Workload {
            name: "serve",
            unit: "job",
            why: "closed batch of 64 mixed jobs through svc: queue, workers, spool, receipts, dist::graph, dist::fixation, stochastic games and degraded retry",
            kind: Kind::Serve(ServeSpec {
                per_class: 8,
                on_demand_generations: g(2_000),
                every_gen_generations: g(100),
                stochastic_generations: g(40),
                spatial_generations: g(16),
                replicates: g(24),
                faulty: 2,
            }),
        },
    ]
}

/// Cores this process may run on (1 if the platform will not say).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Look a workload up by name.
pub fn workload(name: &str, scale: u64) -> Option<Workload> {
    workloads(scale).into_iter().find(|w| w.name == name)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed child run `index` of `workload` is given for ledger seed
/// `seed`. Runs of one measurement use different derived seeds on purpose:
/// run time depends on the random initial population by a few percent, and
/// the reported median should not inherit one population's luck. 40 bits
/// keep `seed + job index` far from overflow and the numbers readable.
pub fn child_seed(seed: u64, workload: &str, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ fnv1a(workload)).wrapping_add(index)) & ((1 << 40) - 1)
}

/// FNV-1a over the bytes of `text`: the workload tag of [`child_seed`], and
/// what folds a `serve` run's per-job result lines into one digest.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// How many distinct derived seeds one measurement cycles through. Every
/// seed is therefore run several times, which is what lets the harness
/// check that the state digest of a (workload, seed) pair never varies.
pub const SEED_CYCLE: u64 = 4;

impl Workload {
    /// Units of work in one child run (the numerator of `units_per_s`).
    pub fn units(&self) -> u64 {
        match &self.kind {
            Kind::Run { generations, .. }
            | Kind::Distributed { generations, .. }
            | Kind::Spatial { generations, .. } => *generations,
            Kind::Fixate { replicates } => *replicates,
            Kind::Serve(s) => 8 * s.per_class,
        }
    }

    /// `RAYON_NUM_THREADS` for the child (and for `ledger-trace`'s replay).
    /// Always set. Left unset, the vendored rayon sizes itself by asking
    /// `std::thread::available_parallelism` (affinity mask, cgroup quota
    /// files) on every `collect`, i.e. at least once per generation; on the
    /// reference box that lookup is a third of `wm_cached`'s wall time, nine
    /// tenths of `fixate`'s, and bimodal (17 or 40 µs a call from one minute
    /// to the next), which no regression bound survives. The threads are
    /// pinned to the number the default would resolve to; what the default
    /// environment costs is reported per layer (`cli.default_env_wall_ratio`,
    /// `rayon.default_threads_lookup_ns`). README.md, open question 4.
    pub fn rayon_threads(&self) -> String {
        match self.kind {
            // Two svc workers each drive an engine; one rayon thread each
            // keeps the runnable thread count at `nproc`.
            Kind::Serve(_) => "1".to_string(),
            _ => nproc().to_string(),
        }
    }

    /// The `evogame-cli` arguments for one child run. Files the child reads
    /// or writes live under `dir`.
    pub fn cli_args(&self, seed: u64, dir: &Path) -> Vec<String> {
        let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let mut a: Vec<String> = Vec::new();
        let mut push = |items: &[&str]| a.extend(items.iter().map(|s| s.to_string()));
        match &self.kind {
            Kind::Run {
                ssets,
                generations,
                dedup,
            } => {
                push(&["run", "--ssets", &ssets.to_string(), "--mem", "1"]);
                push(&["--generations", &generations.to_string()]);
                push(&["--seed", &seed.to_string()]);
                push(&["--records", &file("records.jsonl")]);
                if *dedup {
                    push(&["--dedup"]);
                }
            }
            Kind::Distributed {
                ranks,
                ssets,
                generations,
                every_generation,
            } => {
                push(&["distributed", "--ranks", &ranks.to_string()]);
                push(&["--ssets", &ssets.to_string()]);
                push(&["--generations", &generations.to_string()]);
                push(&["--seed", &seed.to_string()]);
                if *every_generation {
                    push(&["--every-generation"]);
                }
            }
            Kind::Spatial { side, generations } => {
                push(&["spatial", "--width", &side.to_string()]);
                push(&["--height", &side.to_string()]);
                push(&["--generations", &generations.to_string()]);
                push(&["--init", "random:0.5", "--seed", &seed.to_string()]);
                push(&["--records", &file("records.jsonl")]);
            }
            Kind::Fixate { replicates } => {
                push(&["fixate", "--replicates", &replicates.to_string()]);
                push(&["--seed", &seed.to_string()]);
                push(&["--records", &file("records.jsonl")]);
            }
            Kind::Serve(_) => {
                push(&["serve", "--workers", &SERVE_WORKERS.to_string()]);
                push(&["--queue-depth", &SERVE_QUEUE_DEPTH.to_string()]);
                push(&["--spool", &file("spool")]);
                push(&["--requests", &file("jobs.jsonl")]);
            }
        }
        a
    }
}

// ------------------------------------------------------------ serve batch

/// One generated job: its id, its request line, and the id of the
/// shared-memory job of the same spec whose digest it must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeJob {
    pub id: String,
    pub line: String,
    pub same_spec_as: Option<String>,
    /// Degraded-run retries this job is built to need.
    pub expected_retries: u64,
}

const PAYOFF_IPD: &str = r#"{"reward":3.0,"sucker":0.0,"temptation":4.0,"punishment":1.0}"#;
/// The weak dilemma of the spatial-games literature (the CLI's default).
const PAYOFF_WEAK: &str = r#"{"reward":1.0,"sucker":0.0,"temptation":1.85,"punishment":0.0}"#;
const SPACE_MEM1: &str = r#"{"mem_steps":1,"num_states":4,"mask":3}"#;

struct WellMixed {
    ssets: u64,
    generations: u64,
    seed: u64,
    mixed: bool,
    noise: f64,
    moran: bool,
}

/// `evo_core::Params` in the JSON shape its serde derive reads.
fn params_json(p: &WellMixed) -> String {
    let (pc_rate, mutation_rate, rule) = if p.moran {
        ("1.0", "0.0", "Moran")
    } else {
        ("0.1", "0.05", "PairwiseComparison")
    };
    format!(
        "{{\"mem_steps\":1,\"num_ssets\":{},\"agents_per_sset\":0,\
         \"game\":{{\"rounds\":200,\"noise\":{:?},\"payoff\":{PAYOFF_IPD}}},\
         \"pc_rate\":{pc_rate},\"mutation_rate\":{mutation_rate},\"beta\":1.0,\"kind\":\"{}\",\
         \"teacher_must_be_fitter\":true,\"rule\":\"{rule}\",\"mutation_kind\":\"Fresh\",\
         \"generations\":{},\"seed\":{}}}",
        p.ssets,
        p.noise,
        if p.mixed { "Mixed" } else { "Pure" },
        p.generations,
        p.seed
    )
}

fn spatial_json(generations: u64, seed: u64) -> String {
    format!(
        "{{\"params\":{{\"width\":32,\"height\":32,\"mem_steps\":0,\
         \"game\":{{\"rounds\":1,\"noise\":0.0,\"payoff\":{PAYOFF_WEAK}}},\
         \"neighborhood\":\"Moore8\",\"update\":\"BestNeighbor\",\"include_self\":true,\
         \"generations\":{generations},\"seed\":{seed}}},\"init\":{{\"RandomDefectors\":0.5}}}}"
    )
}

fn fixation_json(replicates: u64, seed: u64) -> String {
    let params = params_json(&WellMixed {
        ssets: FIXATE_SSETS,
        generations: 10_000,
        seed,
        mixed: false,
        noise: 0.0,
        moran: true,
    });
    // Memory-1 pure strategies are one word of defect bits: ALLC = 0,
    // ALLD = 0b1111.
    format!(
        "{{\"params\":{params},\
         \"resident\":{{\"Pure\":{{\"space\":{SPACE_MEM1},\"words\":[0]}}}},\
         \"mutant\":{{\"Pure\":{{\"space\":{SPACE_MEM1},\"words\":[15]}}}},\
         \"replicates\":{replicates}}}"
    )
}

/// The generated batch, in submission order (classes interleaved so every
/// stretch of the run holds the whole mix). Job `i` of a class runs under
/// `seed + i`; a distributed job shares its shared-memory twin's seed.
pub fn serve_jobs(spec: &ServeSpec, seed: u64) -> Vec<ServeJob> {
    let dist = format!("\"backend\":{{\"Distributed\":{{\"ranks\":{SERVE_RANKS}}}}}");
    let mut jobs = Vec::new();
    for i in 0..spec.per_class {
        let s = seed.wrapping_add(i);
        let on_demand = params_json(&WellMixed {
            ssets: 64,
            generations: spec.on_demand_generations,
            seed: s,
            mixed: false,
            noise: 0.0,
            moran: false,
        });
        let every_gen = params_json(&WellMixed {
            ssets: 16,
            generations: spec.every_gen_generations,
            seed: s,
            mixed: false,
            noise: 0.0,
            moran: false,
        });
        let stochastic = params_json(&WellMixed {
            ssets: 16,
            generations: spec.stochastic_generations,
            seed: s,
            mixed: true,
            noise: 0.01,
            moran: false,
        });
        let spatial = spatial_json(spec.spatial_generations, s);
        let fixation = fixation_json(spec.replicates, s);
        let faulty = i < spec.faulty;
        let faults = if faulty {
            format!(
                ",\"retry_budget\":2,\"faults\":{{\"kills\":[{{\"rank\":2,\"generation\":{}}}]}}",
                spec.on_demand_generations / 2
            )
        } else {
            String::new()
        };
        let mut add = |class: &str, body: String, twin: Option<&str>, retries: u64| {
            jobs.push(ServeJob {
                id: format!("{class}-{i}"),
                line: format!("{{\"id\":\"{class}-{i}\",{body}}}"),
                same_spec_as: twin.map(|t| format!("{t}-{i}")),
                expected_retries: retries,
            });
        };
        add(
            "od-shared",
            format!("\"params\":{on_demand},\"on_demand\":true"),
            None,
            0,
        );
        add("eg-shared", format!("\"params\":{every_gen}"), None, 0);
        add("stoch-shared", format!("\"params\":{stochastic}"), None, 0);
        add(
            "od-dist",
            format!("\"params\":{on_demand},\"on_demand\":true,{dist}{faults}"),
            Some("od-shared"),
            u64::from(faulty),
        );
        add("sp-shared", format!("\"spatial\":{spatial}"), None, 0);
        add(
            "sp-dist",
            format!("\"spatial\":{spatial},{dist}"),
            Some("sp-shared"),
            0,
        );
        add("fix-shared", format!("\"fixation\":{fixation}"), None, 0);
        add(
            "fix-dist",
            format!("\"fixation\":{fixation},{dist}"),
            Some("fix-shared"),
            0,
        );
    }
    jobs
}

/// The request file: one job per line.
pub fn serve_requests(spec: &ServeSpec, seed: u64) -> String {
    let mut out = String::new();
    for job in serve_jobs(spec, seed) {
        let _ = writeln!(out, "{}", job.line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_spec() -> ServeSpec {
        match workload("serve", 1).unwrap().kind {
            Kind::Serve(s) => s,
            other => panic!("serve is {other:?}"),
        }
    }

    #[test]
    fn seven_workloads_with_unique_names() {
        let w = workloads(1);
        assert_eq!(w.len(), 7);
        let mut names: Vec<&str> = w.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
        assert!(w
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn smoke_scale_shrinks_every_workload() {
        for (full, smoke) in workloads(1).iter().zip(workloads(50)) {
            match (&full.kind, &smoke.kind) {
                (Kind::Serve(a), Kind::Serve(b)) => {
                    assert!(b.on_demand_generations < a.on_demand_generations);
                    assert_eq!(a.per_class, b.per_class, "shape is kept");
                }
                _ => assert!(smoke.units() < full.units(), "{}", full.name),
            }
        }
    }

    #[test]
    fn child_seeds_depend_on_seed_workload_and_index() {
        let a = child_seed(1, "wm_naive", 0);
        assert_eq!(a, child_seed(1, "wm_naive", 0));
        assert_ne!(a, child_seed(2, "wm_naive", 0));
        assert_ne!(a, child_seed(1, "wm_cached", 0));
        assert_ne!(a, child_seed(1, "wm_naive", 1));
        assert!(a < 1 << 40);
    }

    #[test]
    fn same_seed_gives_byte_identical_request_file() {
        let spec = serve_spec();
        let a = serve_requests(&spec, 77);
        assert_eq!(a, serve_requests(&spec, 77));
        assert_ne!(a, serve_requests(&spec, 78));
        assert_eq!(a.lines().count(), 64);
    }

    #[test]
    fn request_lines_are_json_objects_with_unique_ids() {
        let jobs = serve_jobs(&serve_spec(), 5);
        let mut ids = Vec::new();
        for job in &jobs {
            let v: serde::Value = serde_json::from_str(&job.line).expect("line parses");
            assert_eq!(v.get("id"), Some(&serde::Value::Str(job.id.clone())));
            ids.push(job.id.clone());
        }
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 64);
    }

    #[test]
    fn twins_share_a_seed_and_two_distributed_jobs_are_faulty() {
        let jobs = serve_jobs(&serve_spec(), 9);
        let faulty: Vec<&ServeJob> = jobs.iter().filter(|j| j.expected_retries > 0).collect();
        assert_eq!(faulty.len(), 2);
        assert!(faulty.iter().all(|j| j
            .line
            .contains("\"kills\":[{\"rank\":2,\"generation\":1000}]")));
        let seed_of = |line: &str| line.split("\"seed\":").nth(1).unwrap()[..4].to_string();
        for job in jobs.iter().filter(|j| j.same_spec_as.is_some()) {
            let twin = jobs
                .iter()
                .find(|t| Some(&t.id) == job.same_spec_as.as_ref())
                .unwrap();
            assert_eq!(seed_of(&job.line), seed_of(&twin.line), "{}", job.id);
        }
    }

    #[test]
    fn cli_args_carry_the_derived_seed_not_a_ledger_flag() {
        let dir = Path::new("scratch/wm_naive");
        let w = workload("wm_naive", 1).unwrap();
        let args = w.cli_args(12345, dir);
        assert_eq!(args[0], "run");
        let at = args.iter().position(|a| a == "--seed").unwrap();
        assert_eq!(args[at + 1], "12345");
        assert!(args.contains(&"scratch/wm_naive/records.jsonl".to_string()));
        assert!(!args.contains(&"--dedup".to_string()));
        assert!(workload("wm_cached", 1)
            .unwrap()
            .cli_args(1, dir)
            .contains(&"--dedup".to_string()));
        let serve = workload("serve", 1).unwrap();
        assert!(!serve.cli_args(1, dir).contains(&"--seed".to_string()));
        assert_eq!(serve.rayon_threads(), "1");
        assert_eq!(w.rayon_threads(), nproc().to_string());
    }
}
