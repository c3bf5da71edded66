//! The structural contract rules: phase purity, RNG-domain ownership,
//! comm discipline, float ordering, and panic-path hygiene.
//!
//! Each rule here encodes a contract that previously lived only in prose
//! (docs/ENGINE_CORE.md, docs/FAULT_TOLERANCE.md) or in a postmortem:
//!
//! - **phase-purity** — `engine::plan` and `engine::commit` must stay
//!   RNG-free (plan delegates every draw to the sanctioned
//!   `NatureAgent::schedule`); a constructor reachable through the call
//!   graph is a contract break even if the roots themselves look clean.
//! - **rng-domain** — every `Domain` variant has exactly one owning
//!   module; a `Domain::Faults` draw outside `cluster::faults` silently
//!   forks the fault schedule between backends.
//! - **comm-discipline** — a bare `recv` (no deadline, or wildcard
//!   source) is the PR 5 deadlock class: a dead peer turns it into a
//!   hang. All receives go through the deadline-bound wrappers or carry
//!   an annotation explaining why the bare primitive is safe.
//! - **float-order** — f64 accumulation (`sum`/`fold`) over
//!   `HashMap`/`HashSet` iteration is the PR 2 nondeterminism bug shape:
//!   the order, and therefore the rounding, differs per process.
//! - **panic-path** — `unwrap`/`expect`/`panic!` in the distributed and
//!   engine hot paths either carries a reasoned annotation or becomes a
//!   typed `DistError`; an unexplained panic in a rank thread is a
//!   cluster-wide hang.
//!
//! All checks run over [`crate::structure::FileStructure`] — cleaned
//! tokens with fn scopes and test spans — so string/comment text and test
//! code never fire.

use crate::diag::Diagnostic;
use crate::structure::{Call, FileStructure};

/// The five structural checks, dispatched from the rules registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// No RNG constructor reachable from `engine::plan`/`engine::commit`.
    PhasePurity,
    /// Each `Domain::X` draw confined to its owning module.
    RngDomain,
    /// No deadline-free or wildcard-source `recv` in cluster code.
    CommDiscipline,
    /// No `sum`/`fold` over `HashMap`/`HashSet` iterators.
    FloatOrder,
    /// No unannotated `unwrap`/`expect`/`panic!` in hot paths.
    PanicPath,
}

/// Call-graph roots for phase purity: a qualified-name suffix plus the
/// callees a root may legitimately delegate RNG work to (descent stops
/// there; the sanctioned module owns its own discipline).
#[derive(Debug)]
pub struct PurityRoot {
    /// Segment-aligned suffix of the fully-qualified fn name.
    pub suffix: &'static str,
    /// Callee names (last path segment) the root may call for RNG work.
    pub sanctioned: &'static [&'static str],
}

/// `plan` delegates all draws to `NatureAgent::schedule` (Nature id 0 /
/// Mutation id 0, per docs/ENGINE_CORE.md); `commit` is RNG-free, full
/// stop.
pub const PURITY_ROOTS: &[PurityRoot] = &[
    PurityRoot {
        suffix: "engine::plan",
        sanctioned: &["schedule"],
    },
    PurityRoot {
        suffix: "engine::commit",
        sanctioned: &[],
    },
    // The lattice's commit and fold are RNG-free too: every spatial draw
    // happens in the decide step (`SpatialPopulation::decide_cell`), so
    // neither gets a sanctioned delegate.
    PurityRoot {
        suffix: "SpatialPopulation::commit_rows",
        sanctioned: &[],
    },
    PurityRoot {
        suffix: "SpatialPopulation::fold",
        sanctioned: &[],
    },
    // The fixation workload's absorption classifier inspects committed
    // assignments only — no draws, no delegates.
    PurityRoot {
        suffix: "fixation::commit_absorption",
        sanctioned: &[],
    },
];

/// Function names that construct an RNG when called.
pub const RNG_CONSTRUCTORS: &[&str] = &[
    "stream",
    "game_stream",
    "from_seed",
    "seed_from_u64",
    "from_entropy",
    "from_os_rng",
    "thread_rng",
    "StdRng",
    "ChaCha8Rng",
];

/// Ubiquitous method names never resolved by bare name: they are almost
/// always std types' methods, and following every workspace fn that
/// happens to share the name would drown the graph in false edges.
const COMMON_NAMES: &[&str] = &[
    "new", "default", "clone", "push", "pop", "insert", "get", "get_mut", "len", "is_empty",
    "iter", "iter_mut", "into_iter", "map", "filter", "collect", "from", "into", "as_ref",
    "as_mut", "as_str", "to_string", "to_vec", "extend", "contains", "contains_key", "remove",
    "take", "next", "sum", "fold", "min", "max", "entry", "or_insert", "drain", "sort",
    "sort_by", "sort_by_key", "sort_unstable", "clamp", "unwrap", "unwrap_or", "expect", "ok",
    "err", "with_capacity", "resize", "reserve", "rem_euclid", "wrapping_add", "saturating_sub",
];

/// Per-`Domain` owning modules (exact workspace-relative paths, or a
/// `/`-terminated directory prefix). Mirrors the RNG-stream-ownership
/// table in docs/ENGINE_CORE.md.
pub const DOMAIN_OWNERS: &[(&str, &[&str])] = &[
    (
        "Init",
        &[
            "crates/evo-core/src/rngstream.rs",
            "crates/evo-core/src/population.rs",
            "crates/evo-core/src/spatial.rs",
        ],
    ),
    (
        "GamePlay",
        &[
            "crates/evo-core/src/rngstream.rs",
            "crates/evo-core/src/fitness.rs",
            "crates/evo-core/src/spatial.rs",
        ],
    ),
    (
        "Nature",
        &["crates/evo-core/src/rngstream.rs", "crates/evo-core/src/nature.rs"],
    ),
    (
        "Mutation",
        &["crates/evo-core/src/rngstream.rs", "crates/evo-core/src/nature.rs"],
    ),
    ("Analysis", &["crates/evo-core/src/rngstream.rs", "crates/analysis/"]),
    (
        "Faults",
        &["crates/evo-core/src/rngstream.rs", "crates/cluster/src/faults.rs"],
    ),
    (
        "Graph",
        &[
            "crates/evo-core/src/rngstream.rs",
            "crates/evo-core/src/spatial.rs",
        ],
    ),
    (
        "Fixation",
        &["crates/evo-core/src/rngstream.rs", "crates/evo-core/src/fixation.rs"],
    ),
];

/// Files whose panic paths must be typed or reason-annotated: the
/// distributed protocol layer and the virtual-time messenger it also runs
/// on, the engine transition hot path, the
/// populations, fixation kernel and record layer that call the pair path
/// and decode checkpoints, the strategy pool whose census every backend
/// takes each generation, and the job server with its family seam and
/// admission queue.
pub const PANIC_SCOPE: &[&str] = &[
    "crates/cluster/src/dist.rs",
    "crates/cluster/src/dist/driver.rs",
    "crates/cluster/src/dist/fixation.rs",
    "crates/cluster/src/dist/graph.rs",
    "crates/cluster/src/collective.rs",
    "crates/cluster/src/comm.rs",
    "crates/cluster/src/simtime.rs",
    "crates/evo-core/src/engine.rs",
    "crates/evo-core/src/fitness.rs",
    "crates/evo-core/src/fixation.rs",
    "crates/evo-core/src/pool.rs",
    "crates/evo-core/src/population.rs",
    "crates/evo-core/src/record.rs",
    "crates/evo-core/src/spatial.rs",
    "crates/svc/src/family.rs",
    "crates/svc/src/job.rs",
    "crates/svc/src/queue.rs",
    "crates/svc/src/server.rs",
    "crates/svc/src/spool.rs",
];

/// Receive method names that must be deadline-bound or annotated.
const RECV_NAMES: &[&str] = &["recv", "recv_any"];

/// Does `check` inspect `rel_path` at all (before test-span filtering)?
pub fn in_scope(check: Check, rel_path: &str) -> bool {
    match check {
        Check::PhasePurity | Check::RngDomain => crate::rules::ENGINE_CRATES
            .iter()
            .any(|p| rel_path.starts_with(p)),
        Check::CommDiscipline => rel_path.starts_with("crates/cluster/"),
        Check::FloatOrder => !rel_path.starts_with("crates/detlint/"),
        Check::PanicPath => PANIC_SCOPE.contains(&rel_path),
    }
}

fn diagnostic(slug: &str, rel_path: &str, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule: slug.into(),
        path: rel_path.into(),
        line,
        message,
    }
}

/// Run every file-local structural check that applies to `rel_path`.
pub fn check_file(rel_path: &str, fs: &FileStructure) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if in_scope(Check::RngDomain, rel_path) {
        rng_domain(rel_path, fs, &mut out);
    }
    if in_scope(Check::CommDiscipline, rel_path) {
        comm_discipline(rel_path, fs, &mut out);
    }
    if in_scope(Check::FloatOrder, rel_path) {
        float_order(rel_path, fs, &mut out);
    }
    if in_scope(Check::PanicPath, rel_path) {
        panic_path(rel_path, fs, &mut out);
    }
    out
}

/// rng-domain: `Domain::X` tokens outside the variant's owning module.
fn rng_domain(rel_path: &str, fs: &FileStructure, out: &mut Vec<Diagnostic>) {
    for (j, line) in fs.ident_followed_by("Domain", ":") {
        if fs.in_test(line) {
            continue;
        }
        if fs.toks.get(j + 2).is_none_or(|c| c.text != ":") {
            continue;
        }
        let Some(variant) = fs.toks.get(j + 3).filter(|t| t.is_ident()) else {
            continue;
        };
        let Some((_, owners)) = DOMAIN_OWNERS.iter().find(|(v, _)| *v == variant.text) else {
            continue; // unknown variant: not this rule's business
        };
        let owned = owners
            .iter()
            .any(|o| rel_path == *o || (o.ends_with('/') && rel_path.starts_with(o)));
        if !owned {
            out.push(diagnostic(
                "rng-domain",
                rel_path,
                variant.line,
                format!(
                    "`Domain::{}` drawn outside its owning module ({}); route the draw through \
                     the owner or annotate with `// detlint: allow(rng-domain, reason = \"...\")`",
                    variant.text,
                    owners.join(", ")
                ),
            ));
        }
    }
}

/// comm-discipline: `.recv(`/`.recv_any(` call sites in cluster code.
fn comm_discipline(rel_path: &str, fs: &FileStructure, out: &mut Vec<Diagnostic>) {
    for name in RECV_NAMES {
        for (j, line) in fs.ident_followed_by(name, "(") {
            if fs.in_test(line) {
                continue;
            }
            // Only call sites: preceded by `.` or a `::` path. The `fn
            // recv(...)` definitions themselves are the primitive.
            let is_call = j > 0
                && (fs.toks[j - 1].text == "."
                    || (fs.toks[j - 1].text == ":"
                        && fs.toks.get(j.wrapping_sub(2)).is_some_and(|t| t.text == ":")));
            if !is_call {
                continue;
            }
            let wildcard = *name == "recv_any"
                || fs.toks.get(j + 2).is_some_and(|t| t.text == "None");
            let shape = if wildcard {
                "wildcard-source receive"
            } else {
                "deadline-free receive"
            };
            out.push(diagnostic(
                "comm-discipline",
                rel_path,
                line,
                format!(
                    "{shape} `{name}(..)` — a dead peer turns this into a hang (the PR 5 gather \
                     deadlock); use recv_deadline/recv_timeout, or annotate the sanctioned \
                     primitive with `// detlint: allow(comm-discipline, reason = \"...\")`"
                ),
            ));
        }
    }
}

/// float-order: `x.values()/keys()/iter()` chains ending in `sum`/`fold`
/// where `x` was bound with a `HashMap`/`HashSet` type ascription.
fn float_order(rel_path: &str, fs: &FileStructure, out: &mut Vec<Diagnostic>) {
    // Pass 1: names bound to unordered maps — `ident :` with a
    // HashMap/HashSet token before the next statement/param boundary.
    let mut hash_idents: Vec<String> = Vec::new();
    for (j, t) in fs.toks.iter().enumerate() {
        if t.text != "HashMap" && t.text != "HashSet" {
            continue;
        }
        // Walk back to the nearest binding boundary looking for `name :`.
        let mut b = j;
        while b >= 2 {
            let prev = &fs.toks[b - 1];
            if matches!(prev.text.as_str(), ";" | "," | "(" | "{" | "}" | "=") {
                break;
            }
            if prev.text == ":"
                && fs.toks[b - 2].is_ident()
                && fs.toks.get(b.wrapping_sub(3)).is_none_or(|t| t.text != ":")
            {
                let name = fs.toks[b - 2].text.clone();
                if !hash_idents.contains(&name) {
                    hash_idents.push(name);
                }
                break;
            }
            b -= 1;
        }
        // `= HashMap::new()` with inferred type: bind the `let` name.
        if b >= 2 && fs.toks[b - 1].text == "=" {
            let mut k = b - 1;
            while k >= 2 {
                if fs.toks[k - 1].text == "let" {
                    let n = if fs.toks[k].text == "mut" { k + 1 } else { k };
                    if let Some(t) = fs.toks.get(n).filter(|t| t.is_ident()) {
                        if !hash_idents.contains(&t.text) {
                            hash_idents.push(t.text.clone());
                        }
                    }
                    break;
                }
                if matches!(fs.toks[k - 1].text.as_str(), ";" | "{" | "}") {
                    break;
                }
                k -= 1;
            }
        }
    }
    if hash_idents.is_empty() {
        return;
    }
    // Pass 2: `name . (values|keys|iter) ( )` followed by `.sum(`/`.fold(`
    // before the statement ends.
    for (j, t) in fs.toks.iter().enumerate() {
        if !hash_idents.contains(&t.text) {
            continue;
        }
        if fs.toks.get(j + 1).is_none_or(|n| n.text != ".") {
            continue;
        }
        let Some(iter_tok) = fs
            .toks
            .get(j + 2)
            .filter(|n| matches!(n.text.as_str(), "values" | "keys" | "iter"))
        else {
            continue;
        };
        if fs.toks.get(j + 3).is_none_or(|n| n.text != "(") {
            continue;
        }
        // Scan the rest of the statement for an accumulating terminal.
        let mut k = j + 4;
        let mut paren = 1i32;
        while k < fs.toks.len() && paren > 0 {
            match fs.toks[k].text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                _ => {}
            }
            k += 1;
        }
        while k < fs.toks.len() {
            match fs.toks[k].text.as_str() {
                ";" | "{" | "}" => break,
                "sum" | "fold" | "product"
                    if fs.toks[k - 1].text == "."
                        && !fs.in_test(fs.toks[k].line) =>
                {
                    out.push(diagnostic(
                        "float-order",
                        rel_path,
                        fs.toks[k].line,
                        format!(
                            "`.{}()` accumulates over `{}.{}()` — HashMap/HashSet iteration \
                             order is per-process random, so the rounding (and any tie-break) \
                             differs run to run; iterate a BTreeMap or sort first",
                            fs.toks[k].text, t.text, iter_tok.text
                        ),
                    ));
                    break;
                }
                _ => {}
            }
            k += 1;
        }
    }
}

/// panic-path: `.unwrap(` / `.expect(` / `panic!` / `unreachable!` /
/// `todo!` / `unimplemented!` in the hot-path files.
fn panic_path(rel_path: &str, fs: &FileStructure, out: &mut Vec<Diagnostic>) {
    for name in ["unwrap", "expect"] {
        for (j, line) in fs.ident_followed_by(name, "(") {
            if fs.in_test(line) {
                continue;
            }
            if j == 0 || fs.toks[j - 1].text != "." {
                continue;
            }
            out.push(diagnostic(
                "panic-path",
                rel_path,
                line,
                format!(
                    "`.{name}()` in a distributed/engine hot path — an unexplained panic here \
                     takes down a rank and hangs its peers; return a typed error (DistError) or \
                     annotate the invariant with `// detlint: allow(panic-path, reason = \"...\")`"
                ),
            ));
        }
    }
    for name in ["panic", "unreachable", "todo", "unimplemented"] {
        for (_, line) in fs.ident_followed_by(name, "!") {
            if fs.in_test(line) {
                continue;
            }
            out.push(diagnostic(
                "panic-path",
                rel_path,
                line,
                format!(
                    "`{name}!` in a distributed/engine hot path — make the failure a typed \
                     error or annotate the invariant with \
                     `// detlint: allow(panic-path, reason = \"...\")`"
                ),
            ));
        }
    }
    out.sort_by_key(|d| d.line);
}

/// A parsed file plus its path, as the workspace-level pass consumes it.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative `/`-separated path.
    pub rel_path: String,
    /// Parsed structure.
    pub structure: FileStructure,
}

/// phase-purity: breadth-first reachability from each [`PURITY_ROOTS`]
/// entry to any [`RNG_CONSTRUCTORS`] call, across the whole workspace.
///
/// Resolution is name-based: qualified calls (`Type::method`) must match a
/// segment-aligned suffix of a workspace fn's qualified name; bare calls
/// resolve by name unless the name is on the `COMMON_NAMES` list. Both
/// choices fail toward missing edges, never toward inventing them from
/// std methods.
pub fn phase_purity(files: &[ParsedFile]) -> Vec<Diagnostic> {
    // Index: fn name → (file idx, fn idx).
    let mut index: std::collections::BTreeMap<&str, Vec<(usize, usize)>> =
        std::collections::BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for (gi, g) in f.structure.fns.iter().enumerate() {
            index.entry(g.name.as_str()).or_default().push((fi, gi));
        }
    }
    let suffix_matches = |qual: &str, path: &[String]| {
        let suffix = path.join("::");
        qual == suffix || qual.ends_with(&format!("::{suffix}"))
    };
    let mut out = Vec::new();
    for root in PURITY_ROOTS {
        for (rfi, rgi) in root_fns(files, root) {
            let mut visited = std::collections::BTreeSet::new();
            let root_qual = files[rfi].structure.fns[rgi].qual.clone();
            let mut queue: Vec<((usize, usize), Vec<String>)> =
                vec![((rfi, rgi), vec![root_qual.clone()])];
            while let Some(((fi, gi), chain)) = queue.pop() {
                if !visited.insert((fi, gi)) {
                    continue;
                }
                let f = &files[fi];
                let g = &f.structure.fns[gi];
                let calls: Vec<Call> = f.structure.calls_in(g.body);
                for call in &calls {
                    let name = call.name();
                    if root.sanctioned.contains(&name) {
                        continue;
                    }
                    if RNG_CONSTRUCTORS.contains(&name) {
                        out.push(diagnostic(
                            "phase-purity",
                            &f.rel_path,
                            call.line,
                            format!(
                                "RNG constructor `{}` is reachable from `{}` (chain: {}) — plan \
                                 draws only via NatureAgent::schedule and commit is RNG-free \
                                 (docs/ENGINE_CORE.md); move the draw into the sanctioned phase",
                                name,
                                root_qual,
                                chain
                                    .iter()
                                    .map(String::as_str)
                                    .chain(std::iter::once(name))
                                    .collect::<Vec<_>>()
                                    .join(" -> ")
                            ),
                        ));
                        continue;
                    }
                    if call.path.len() == 1 && COMMON_NAMES.contains(&name) {
                        continue;
                    }
                    if let Some(cands) = index.get(name) {
                        for &(cfi, cgi) in cands {
                            let cand = &files[cfi].structure.fns[cgi];
                            if cand.is_test {
                                continue;
                            }
                            if call.path.len() > 1 && !suffix_matches(&cand.qual, &call.path) {
                                continue;
                            }
                            let mut next_chain = chain.clone();
                            next_chain.push(cand.qual.clone());
                            queue.push(((cfi, cgi), next_chain));
                        }
                    }
                }
            }
        }
    }
    out
}

/// The non-test fns (file idx, fn idx) whose qualified name ends in
/// `root`'s suffix.
fn root_fns(files: &[ParsedFile], root: &PurityRoot) -> Vec<(usize, usize)> {
    files
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| {
            f.structure
                .fns
                .iter()
                .enumerate()
                .filter(|(_, g)| {
                    !g.is_test
                        && (g.qual == root.suffix || g.qual.ends_with(&format!("::{}", root.suffix)))
                })
                .map(move |(gi, _)| (fi, gi))
        })
        .collect()
}

/// The [`PURITY_ROOTS`] suffixes that resolve to no non-test fn of
/// `files`. [`phase_purity`] checks nothing from such a root, so a renamed
/// or deleted phase would silently drop out of the check; a tree that
/// should hold every phase asserts this empty.
pub fn unresolved_roots(files: &[ParsedFile]) -> Vec<&'static str> {
    PURITY_ROOTS
        .iter()
        .filter(|root| root_fns(files, root).is_empty())
        .map(|root| root.suffix)
        .collect()
}
